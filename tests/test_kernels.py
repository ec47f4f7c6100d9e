"""The plain-Python kernels against fixed digests and definitional oracles."""

import functools
import hashlib
import itertools
import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import LABELED_COUNTS, degree_sorted, table_rows
from geadim import _kernels as K
from geadim import catalog, congruence as cg, core

# sha256 of the n = 1..6 streams of the unpruned enumerator, each filtered
# in order by conftest.degree_sorted, concatenated
ENUMERATION_SHA256 = (
    "ec773f1aaa85c9228b73463cfb184c93e5cb33270a4dd98f6d740dd48c82f203"
)
# sha256 of sk_witnesses over every partition (zero alone) of every
# catalog model with n <= 5, in catalog and partition order
SK_WITNESSES_SHA256 = (
    "5a706c28cf0a084097576da4ba10b7f138993f548c2c7fcc34d289f2189aed6b"
)


@functools.lru_cache(maxsize=None)
def _labeled_tables(n):
    """Every labeled table of size n, as tuple rows in sorted order: the
    zero-fixing relabelings of the catalog tables."""
    out = set()
    for flat in oracles.canonical_tables(n):
        rows = table_rows(flat, n)
        for rest in itertools.permutations(range(1, n)):
            p = (0, *rest)
            relab = [[-1] * n for _ in range(n)]
            for a in range(n):
                for b in range(n):
                    v = rows[a][b]
                    relab[p[a]][p[b]] = -1 if v < 0 else p[v]
            out.add(tuple(map(tuple, relab)))
    assert len(out) == LABELED_COUNTS[n - 1]
    return sorted(out)


def _all_small_tables():
    return [rows for n in (2, 3, 4) for rows in _labeled_tables(n)]


def test_enumeration_stream_digest():
    h = hashlib.sha256()
    for n in range(1, 7):
        tables = oracles.enumerate_tables(n)
        assert all(degree_sorted(t) for t in tables)
        for t in tables:
            h.update(core.table_bytes(t))
    assert h.hexdigest() == ENUMERATION_SHA256


def test_top_extensions_reach_every_labeled_table():
    # deleting any maximal element x of a labeled table, the others
    # relabeled in order, leaves a valid parent table, and extending the
    # parent gives the table back with x moved to the last label
    extensions = {}
    for n in range(2, 7):
        for rows in _labeled_tables(n):
            tops = [x for x in range(1, n) if max(rows[x][1:]) < 0]
            assert tops
            for x in tops:
                keep = [e for e in range(n) if e != x]
                pos = {e: i for i, e in enumerate(keep)}
                parent = tuple(tuple(pos.get(rows[a][b], -1) for b in keep)
                               for a in keep)
                assert K.axiom_violation(parent) is None
                if parent not in extensions:
                    extensions[parent] = K.enumerate_tables(parent)
                perm = [pos.get(e, n - 1) for e in range(n)]
                assert K.relabeled(rows, perm) in extensions[parent]
    # every extension is a valid table, distinct, with its last element
    # maximal and the parent as the table of the others
    for parent, found in extensions.items():
        m = len(parent)
        assert len(set(found)) == len(found)
        for rows in found:
            assert K.axiom_violation(rows) is None
            assert max(rows[m][1:]) < 0
            assert tuple(tuple(-1 if v == m else v for v in row[:m])
                         for row in rows[:m]) == parent


def _parents(size):
    """The canonical tables of one size, as tuple rows."""
    return [tuple(map(tuple, table_rows(flat, size)))
            for flat in oracles.canonical_tables(size)]


def _check_new_element_check(size):
    """The unpruned extensions of each parent of one size are exactly
    those ``axiom_violation`` passes; returns how many there are."""
    total = 0
    for rows in _parents(size):
        found = K.enumerate_tables(rows)
        assert sorted(found) == sorted(oracles.top_extensions(rows)), rows
        total += len(found)
    return total


def test_new_element_check_matches_axiom_violation():
    # the valid extensions of sizes 2-8
    counts = [_check_new_element_check(size) for size in range(1, 8)]
    assert counts == [1, 2, 7, 27, 109, 506, 2637]


@pytest.mark.slow
def test_new_element_check_matches_axiom_violation_n8():
    assert _check_new_element_check(8) == 16418


def _check_orbit_step(size):
    """The extensions of each parent of one size pruned by its
    automorphisms: a subset of the unpruned ones that meets every class
    they meet; returns how many are kept."""
    kept = 0
    for rows in _parents(size):
        full = K.enumerate_tables(rows)
        pruned = K.enumerate_tables(rows, core.automorphisms(rows))
        assert set(pruned) <= set(full)
        assert ({core.canonical_rows(t) for t in pruned}
                == {core.canonical_rows(t) for t in full}), rows
        kept += len(pruned)
    return kept


def test_orbit_step_keeps_every_class():
    counts = [_check_orbit_step(size) for size in range(1, 8)]
    assert counts == [1, 2, 6, 18, 59, 235, 1152]


@pytest.mark.slow
def test_orbit_step_keeps_every_class_n8():
    assert _check_orbit_step(8) == 7476


def test_automorphisms_of_canonical_tables():
    # brute force over every zero-fixing permutation but the identity
    for n in range(1, 7):
        perms = [[0, *rest] for rest in itertools.permutations(range(1, n))][1:]
        for rows in _parents(n):
            assert core.automorphisms(rows) == [
                p for p in perms if K.relabeled(rows, p) == rows]


def _literal_exomaps(E):
    """Every self-map m of E passing EXC1-EXC4, in the order of the n**n
    counter with m(0) as the fastest digit."""
    n = E.n
    rows = []
    for digits in itertools.product(range(n), repeat=n):
        m = digits[::-1]
        exc1 = all(
            E.sum_of(m[e], m[f]) == m[E.sum_of(e, f)]
            for e in range(n) for f in range(n)
            if E.sum_of(e, f) is not None
        )
        exc2 = all(m[m[e]] == m[e] for e in range(n))
        exc3 = all(E.leq[m[e]][e] for e in range(n))
        exc4 = all(
            E.sum_of(e, f) is not None
            for e in range(n) for f in range(n)
            if m[e] == e and m[f] == 0
        )
        if exc1 and exc2 and exc3 and exc4:
            rows.append(m)
    return rows


def test_brute_exomaps_matches_literal_filter():
    for E in oracles.catalog_models(5):
        assert K.brute_exomaps(E.sum, E.leq) == _literal_exomaps(E)


def _check_atom_search(models):
    """The atom search against the down-set filter, maps and order;
    returns the number of maps."""
    maps = 0
    for E in models:
        found = K.brute_exomaps(E.sum, E.leq)
        assert found == oracles.downset_exomaps(E), E.sum
        maps += len(found)
    return maps


def test_atom_search_matches_the_downset_filter():
    models = oracles.catalog_models(7)
    assert _check_atom_search(models) > 2 * len(models)


@pytest.mark.slow
def test_atom_search_matches_the_downset_filter_n8():
    _check_atom_search([E for E in oracles.catalog_models(8) if E.n == 8])


def test_sk_witnesses_digest():
    # each witness is packed as [violated, w0, w1, w2, w3] (unused slots
    # -1) into one int64 row per axiom, the layout the digest was taken in
    h = hashlib.sha256()
    for E in oracles.catalog_models(5):
        for class_of in catalog.partitions_with_zero_singleton(E.n):
            found = K.sk_witnesses(K.sk_plan(E.sum, E.diff, E.leq), class_of)
            rows = [[0, -1, -1, -1, -1] if w is None
                    else [1, *w] + [-1] * (4 - len(w)) for w in found]
            h.update(array("q", itertools.chain(*rows)).tobytes())
    assert h.hexdigest() == SK_WITNESSES_SHA256


def _literal_sk_axioms(E, cls):
    """(arity, holds) for SK1, SK2, SK3d, SK3e, SK4a, SK4b in that order:
    holds(*w) says whether the axiom holds at the tuple w, by plain loops
    over the elements and the class list ``cls``."""
    rng = range(E.n)
    add = E.sum_of

    def sim(x, y):
        return x is not None and y is not None and cls[x] == cls[y]

    def sk1(e):  # e ~ 0 implies e = 0
        return e == 0 or not sim(e, 0)

    def sk2(e1, e2, f1, f2):  # e1 ~ f1 and e2 ~ f2 give e1+e2 ~ f1+f2
        se, sf = add(e1, e2), add(f1, f2)
        return (se is None or sf is None or not sim(e1, f1)
                or not sim(e2, f2) or sim(se, sf))

    def sk3d(p, s, t):  # p ~ s+t gives p = e+f with e ~ s, f ~ t
        return not sim(p, add(s, t)) or any(
            add(e, f) == p and sim(e, s) and sim(f, t)
            for e in rng for f in rng
        )

    def sk3e(e, f, s, t):  # e+f = s+t refines into a 2x2 grid
        ef = add(e, f)
        return ef is None or add(s, t) != ef or any(
            sim(s, add(e1, f1)) and sim(t, add(e2, f2))
            for e1 in rng for e2 in rng if add(e1, e2) == e
            for f1 in rng for f2 in rng if add(f1, f2) == f
        )

    def sk4a(e, f):  # e+f undefined gives nonzero e1 <= e, f1 <= f, e1 ~ f1
        return add(e, f) is not None or any(
            sim(e1, f1)
            for e1 in rng if e1 and oracles.le(E, e1, e)
            for f1 in rng if f1 and oracles.le(E, f1, f)
        )

    def sk4b(e, f):  # e not below f gives nonzero e1 <= e, d ~ e1, d _|_ f
        return oracles.le(E, e, f) or any(
            sim(e1, d)
            for e1 in rng if e1 and oracles.le(E, e1, e)
            for d in rng if d and add(d, f) is not None
        )

    return ((1, sk1), (4, sk2), (3, sk3d), (4, sk3e), (2, sk4a), (2, sk4b))


def _literal_sk_witnesses(E, cls):
    """The lexicographically least failing tuple of each axiom, or None."""
    return [
        next((w for w in itertools.product(range(E.n), repeat=arity)
              if not holds(*w)), None)
        for arity, holds in _literal_sk_axioms(E, cls)
    ]


def _swept_cases(models):
    """(model, plan, class lists) of each model, as catalogued and
    relabeled at random: every swept partition, plus two partitions that
    put zero in a larger class."""
    rand = random.Random(7)
    for E in models:
        for F in (E, oracles.relabel(E, [0, *rand.sample(range(1, E.n), E.n - 1)])):
            plan = K.sk_plan(F.sum, F.diff, F.leq)
            partitions = list(catalog.partitions_with_zero_singleton(F.n))
            if F.n > 1:
                partitions += [[0] * F.n, [0, 0, *range(1, F.n - 1)]]
            yield F, plan, partitions


def test_sk_witnesses_match_the_literal_sk_axioms():
    failures = [0] * 6
    for E, plan, partitions in _swept_cases(oracles.catalog_models(5)):
        for cls in partitions:
            found = K.sk_witnesses(plan, cls)
            assert list(found) == _literal_sk_witnesses(E, cls), (E.sum, cls)
            for k, w in enumerate(found):
                failures[k] += w is not None
    assert all(failures)  # every axiom fails somewhere


def _first_witness(found):
    """(index, witness) of the first failing axiom in ``sk_witnesses``
    order, or None."""
    return next(((k, w) for k, w in enumerate(found) if w is not None), None)


def _check_first_failures(models):
    # returns how often each axiom came first, index 6 counting congruences
    firsts = [0] * 7
    for E, plan, partitions in _swept_cases(models):
        got = K.sk_first_failures(plan, K.class_masks(partitions))
        assert len(got) == len(partitions)
        for cls, fail in zip(partitions, got):
            assert fail == _first_witness(K.sk_witnesses(plan, cls)), (E.sum, cls)
            firsts[6 if fail is None else fail[0]] += 1
    return firsts


def test_sk_first_failures_match_sk_witnesses():
    assert all(_check_first_failures(oracles.catalog_models(6)))


@pytest.mark.slow
def test_sk_first_failures_match_sk_witnesses_n7_n8():
    _check_first_failures([E for E in oracles.catalog_models(8) if E.n >= 7])


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_check_sk_witnesses_violate_their_axioms(data):
    E = data.draw(st.sampled_from(oracles.catalog_models(6)))
    perm = data.draw(st.permutations(range(1, E.n)))
    E = oracles.relabel(E, [0, *perm])
    ids = data.draw(st.lists(st.integers(0, E.n - 1),
                             min_size=E.n, max_size=E.n))
    R = cg.EquivRel(E, ids)
    report = cg.check_sk(R)
    cls = R.class_of
    axioms = _literal_sk_axioms(E, cls)
    for v, w, (arity, holds) in zip(report, _literal_sk_witnesses(E, cls),
                                    axioms):
        assert v == w
        if v is not None:
            assert len(v) == arity and not holds(*v)
    first = report.first_failure()
    got, = K.sk_first_failures(E._sk_plan, K.class_masks([cls]))
    assert (None if got is None else (cg.AXES[got[0]], got[1])) == first


def test_canonical_key_stable_under_full_relabeling():
    # the candidate-permutation pruning must not change the canonical key
    for t in _all_small_tables():
        n = len(t)
        if n > 4:
            continue
        E = core.GeaTable([str(i) for i in range(n)], t, _validated=True)
        key = core.canonical_form(E)
        for perm in itertools.permutations(range(1, n)):
            other = oracles.relabel(E, [0, *perm])
            assert core.canonical_form(other) == key


def test_model_sum_is_a_canonical_table():
    # a model's own sum rows go straight into the canonical filter: every
    # catalog table passes, and every other labeling of a model without
    # automorphisms fails
    models = oracles.catalog_models(6)
    assert all(core.is_canonical_table(E.sum) for E in models)
    rigid = 0
    for E in models:
        if E.n > 5:
            continue
        perms = [(0, *rest) for rest in itertools.permutations(range(1, E.n))]
        relabelings = [K.relabeled(E.sum, p) for p in perms[1:]]
        if E.sum in relabelings:
            continue
        rigid += 1
        assert not any(core.is_canonical_table(t) for t in relabelings)
    assert rigid > 0


def test_sorted_colors_shortcut_is_exact():
    # is_canonical_table rejects unsorted colors before building any
    # permutation; on every labeled table it must agree with the full
    # comparison over all candidate permutations
    for n in range(1, 7):
        for rows in _labeled_tables(n):
            perms = core._candidate_perms(core._refine_colors(rows))
            assert core.is_canonical_table(rows) == (
                K.min_relabel(rows, perms) == rows), rows
