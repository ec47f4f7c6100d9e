"""The list-based kernels against fixed digests and definitional oracles."""

import functools
import hashlib
import itertools
import random

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import LABELED_COUNTS, degree_sorted
from geadim import _kernels as K
from geadim import catalog, congruence as cg, core

EMPTY = np.empty(0, dtype=np.int8)

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
    """Every labeled table of size n, as list rows in sorted order: the
    zero-fixing relabelings of the catalog tables."""
    out = set()
    for flat in catalog._canonical_tables(n):
        rows = np.frombuffer(flat, dtype=np.int8).reshape(n, n).tolist()
        for rest in itertools.permutations(range(1, n)):
            p = (0, *rest)
            relab = [[-1] * n for _ in range(n)]
            for a in range(n):
                for b in range(n):
                    v = rows[a][b]
                    relab[p[a]][p[b]] = -1 if v < 0 else p[v]
            out.add(tuple(map(tuple, relab)))
    assert len(out) == LABELED_COUNTS[n - 1]
    return [list(map(list, t)) for t in sorted(out)]


def _all_small_tables():
    return [np.array(rows, dtype=np.int8)
            for n in (2, 3, 4) for rows in _labeled_tables(n)]


@functools.lru_cache(maxsize=None)
def _catalog_models(max_n):
    """One GeaTable per isomorphism class, in catalog order."""
    out = []
    for n in range(1, max_n + 1):
        for flat in catalog._canonical_tables(n):
            table = np.frombuffer(flat, dtype=np.int8).reshape(n, n)
            out.append(core.GeaTable([str(i) for i in range(n)], table,
                                     _validated=True))
    return tuple(out)


def test_enumeration_stream_digest():
    h = hashlib.sha256()
    for n in range(1, 7):
        tables = K.enumerate_tables(n, EMPTY)
        assert tables.dtype == np.int8 and tables.shape[1] == n * n
        assert all(degree_sorted(t.reshape(n, n).tolist()) for t in tables)
        h.update(tables.tobytes())
    assert h.hexdigest() == ENUMERATION_SHA256


def test_prefix_partition_is_exact():
    # the worker branches, in order, concatenate to the full DFS stream;
    # first-cell values the DFS never tries give nothing
    for n in (4, 5, 6):
        full = K.enumerate_tables(n, EMPTY).tolist()
        pieces = []
        for prefix in catalog._branch_prefixes(n):
            pieces += K.enumerate_tables(n, prefix).tolist()
        assert pieces == full
        for v in (0, 1, n):
            out = K.enumerate_tables(n, np.array([v], dtype=np.int8))
            assert out.shape == (0, n * n)


def test_full_prefix_returns_the_table():
    # a full prefix gives back its table when the row degrees are sorted,
    # and nothing otherwise
    for t in _all_small_tables():
        n = t.shape[0]
        prefix = np.array([t[i, j] for i in range(1, n) for j in range(i, n)],
                          dtype=np.int8)
        out = K.enumerate_tables(n, prefix)
        if degree_sorted(t.tolist()):
            assert out.tolist() == [t.reshape(n * n).tolist()]
        else:
            assert out.shape == (0, n * n)


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
        exc3 = all(E.leq[m[e], e] for e in range(n))
        exc4 = all(
            E.sum_of(e, f) is not None
            for e in range(n) for f in range(n)
            if m[e] == e and m[f] == 0
        )
        if exc1 and exc2 and exc3 and exc4:
            rows.append(list(m))
    return rows


def test_brute_exomaps_matches_literal_filter():
    for E in _catalog_models(5):
        rows = K.brute_exomaps(E.sum, E.leq)
        assert rows.dtype == np.int8 and rows.shape[1] == E.n
        assert rows.tolist() == _literal_exomaps(E)


def test_sk_witnesses_digest():
    # each witness is packed as [violated, w0, w1, w2, w3] (unused slots
    # -1) into one int64 row per axiom, the layout the digest was taken in
    h = hashlib.sha256()
    for E in _catalog_models(5):
        for class_of in catalog.partitions_with_zero_singleton(E.n):
            cls = np.array(class_of, dtype=np.int8)
            found = K.sk_witnesses(K.sk_plan(E.sum, E.diff, E.leq), cls)
            rows = [[0, -1, -1, -1, -1] if w is None
                    else [1, *w] + [-1] * (4 - len(w)) for w in found]
            h.update(np.array(rows, dtype=np.int64).tobytes())
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
            for e1 in rng if e1 and E.le(e1, e)
            for f1 in rng if f1 and E.le(f1, f)
        )

    def sk4b(e, f):  # e not below f gives nonzero e1 <= e, d ~ e1, d _|_ f
        return E.le(e, f) or any(
            sim(e1, d)
            for e1 in rng if e1 and E.le(e1, e)
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


def test_sk_witnesses_match_the_literal_sk_axioms():
    # every swept partition of every model with n <= 5, as catalogued and
    # relabeled, plus partitions that put zero in a larger class
    rand = random.Random(7)
    models = []
    for E in _catalog_models(5):
        models.append(E)
        models.append(E.relabel([0, *rand.sample(range(1, E.n), E.n - 1)]))
    failures = [0] * 6
    for E in models:
        plan = K.sk_plan(E.sum, E.diff, E.leq)
        partitions = list(catalog.partitions_with_zero_singleton(E.n))
        if E.n > 1:
            partitions += [[0] * E.n, [0, 0, *range(1, E.n - 1)]]
        for cls in partitions:
            found = K.sk_witnesses(plan, np.array(cls, dtype=np.int8))
            assert list(found) == _literal_sk_witnesses(E, cls), (
                E.sum.tolist(), cls)
            for k, w in enumerate(found):
                failures[k] += w is not None
    assert all(failures)  # every axiom fails somewhere


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_check_sk_witnesses_violate_their_axioms(data):
    E = data.draw(st.sampled_from(_catalog_models(6)))
    perm = data.draw(st.permutations(range(1, E.n)))
    E = E.relabel([0, *perm])
    ids = data.draw(st.lists(st.integers(0, E.n - 1),
                             min_size=E.n, max_size=E.n))
    R = cg.EquivRel(E, ids)
    report = cg.check_sk(E, R)
    verdicts = (report.sk1, report.sk2, report.sk3d, report.sk3e,
                report.sk4a, report.sk4b)
    cls = R.class_of.tolist()
    axioms = _literal_sk_axioms(E, cls)
    for v, w, (arity, holds) in zip(verdicts, _literal_sk_witnesses(E, cls),
                                    axioms):
        assert v.ok == (w is None) and v.witness == w
        if not v.ok:
            assert len(v.witness) == arity and not holds(*v.witness)


def test_canonical_key_stable_under_full_relabeling():
    # the candidate-permutation pruning must not change the canonical key
    for t in _all_small_tables():
        n = t.shape[0]
        if n > 4:
            continue
        E = core.GeaTable([str(i) for i in range(n)], t, _validated=True)
        key = core.canonical_form(E)
        for perm in itertools.permutations(range(1, n)):
            other = E.relabel([0, *perm])
            assert core.canonical_form(other) == key


def test_sorted_colors_shortcut_is_exact():
    # is_canonical_table rejects unsorted colors before building any
    # permutation; on every labeled table it must agree with the full
    # comparison over all candidate permutations
    for n in range(1, 7):
        for rows in _labeled_tables(n):
            perms = core._candidate_perms(core._refine_colors(rows))
            assert core.is_canonical_table(rows) == (
                K.min_relabel(rows, perms) == rows), rows
