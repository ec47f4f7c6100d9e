"""Tables, axioms, order queries, intervals, and canonical forms."""

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from geadim import catalog, core, theorems
from geadim.exocenter import exocenter
from geadim.errors import AxiomViolation, ConflictingEquation, InternalInvariant


def test_fixtures_build():
    T3, C3, B4 = core.t3(), core.c3(), core.b4()
    assert T3.n == 3 and C3.n == 3 and B4.n == 4
    assert C3.sum[1][1] == 2
    assert B4.sum[1][2] == 3
    assert T3.sum[1][2] == -1


class _Owner:
    def __init__(self, broken=False):
        self._cache = {}
        self.broken = broken


def test_memo_keeps_one_value_per_owner_and_no_failure():
    calls = []

    @core.memo
    def derived(owner):
        calls.append(owner)
        if owner.broken:
            raise InternalInvariant("broken for the test")
        return object()

    a, b, broken = _Owner(), _Owner(), _Owner(broken=True)
    first = derived(a)
    assert derived(a) is first and calls == [a]
    assert derived(b) is not first and calls == [a, b]
    assert derived(a) is first and derived(b) is not first
    for _ in range(2):
        with pytest.raises(InternalInvariant, match="broken for the test"):
            derived(broken)
    assert calls == [a, b, broken, broken] and broken._cache == {}
    assert derived.__name__ == "derived"


def test_idempotent_equation_forces_zero():
    with pytest.raises(AxiomViolation) as err:
        core.build_gea(["0", "a"], "0", [("a", "a", "a")])
    assert err.value.axiom == "GEA4"


def test_positivity_violation():
    with pytest.raises(AxiomViolation) as err:
        core.build_gea(["0", "a", "b"], "0", [("a", "b", "0")])
    assert err.value.axiom == "GEA5"


def test_associativity_violation():
    # 1+1=2 and 2+2=1 would make 1 and 2 order-equivalent
    with pytest.raises(AxiomViolation) as err:
        core.build_gea(["0", "1", "2"], "0", [("1", "1", "2"), ("2", "2", "1")])
    assert err.value.axiom == "GEA2"


def test_conflicting_equation():
    with pytest.raises(ConflictingEquation):
        core.build_gea(
            ["0", "a", "b", "c", "d"], "0", [("a", "b", "c"), ("b", "a", "d")]
        )


@pytest.mark.parametrize("build, message", [
    (lambda: core.GeaTable(["0", "a"], [[0, 1]]),
     "sum table shape does not match element count"),
    (lambda: core.build_gea(["0", "a", "a"], "0", []),
     "element names must be distinct"),
    (lambda: core.build_gea(["0", "a"], "z", []),
     "zero element 'z' not among names"),
    (lambda: core.build_gea(["0", "a"], "0", [("a", "a", "b")]),
     "equation references unknown element 'b'"),
    (lambda: core.is_orthodense(core.b4(), {1}, {2}),
     "D must be a subset of P"),
], ids=["table-shape", "duplicate-names", "unknown-zero", "unknown-element",
        "orthodense-subset"])
def test_bad_inputs_are_value_errors(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert type(err.value) is ValueError and str(err.value) == message


def test_duplicate_consistent_equation_allowed():
    E = core.build_gea(["0", "a", "b", "1"], "0",
                       [("a", "b", "1"), ("b", "a", "1")])
    assert E.sum[1][2] == 3


def test_zero_reordered_to_front():
    E = core.build_gea(["x", "z", "y"], "z", [])
    assert E.names[0] == "z"
    assert E.sum[0] == (0, 1, 2)


def test_order_queries_c3():
    C3 = core.c3()
    assert C3.leq == (
        (True, True, True), (False, True, True), (False, False, True))
    assert C3.atoms == (1,)
    assert core.inf(C3, (1, 2)) == 1
    assert core.sup(C3, (1, 2)) == 2


def test_order_queries_t3():
    T3 = core.t3()
    assert not oracles.le(T3, 1, 2) and not oracles.le(T3, 2, 1)
    assert T3.sum[1][2] < 0
    assert T3.atoms == (1, 2)
    assert all(T3.sum[e][0] >= 0 for e in range(3))
    assert core.inf(T3, (1, 2)) == 0 and core.sup(T3, (1, 2)) is None


def test_orthosum_family():
    C3, T3 = core.c3(), core.t3()
    assert oracles.orthosum_family(C3, [1, 1]) == 2
    assert oracles.orthosum_family(C3, []) == 0
    assert oracles.orthosum_family(T3, [1, 2]) is None
    assert oracles.orthosum_family(C3, [1, 1, 1]) is None


def test_element_predicates():
    C3, B4 = core.c3(), core.b4()
    # 1 is orthogonal to itself below itself (1+1=2), so not sharp
    assert not core.is_principal(C3, 1) and not core.is_sharp(C3, 1)
    assert 1 in C3.atoms
    assert core.is_principal(B4, 1) and core.is_sharp(B4, 1)
    assert core.is_principal(B4, 0) and core.is_sharp(B4, 0)
    assert C3.greatest() == 2


def test_interval_ea():
    C3, B4 = core.c3(), core.b4()
    full = core.interval_ea(C3, 2)
    assert full.sum == C3.sum
    two = core.interval_ea(C3, 1)
    assert two.n == 2
    assert core.interval_ea(B4, 1).n == 2


def test_core_order_laws_check_every_interval(monkeypatch):
    # ``interval_ea`` patched to give a wrong table at the top element:
    # on c3 one where 1 + 1 = 0, then one where 2 + 2 = 1, so that 1 is
    # its top; on b4 the four-element chain, whose top is right but
    # where a lies below b; on the model with 2 + 4 = 3 + 3 = 1 the same
    # model with 3 and 4 swapped, which has the same order
    check = theorems.REGISTRY["core-order-laws"].fn
    C3, B4 = core.c3(), core.b4()
    M5 = core.GeaTable("01234", [[0, 1, 2, 3, 4], [1, -1, -1, -1, -1],
                                 [2, -1, -1, -1, 1], [3, -1, -1, 1, -1],
                                 [4, -1, 1, -1, -1]])
    assert check(C3) == [] and check(B4) == [] and check(M5) == []
    real = core.interval_ea
    for E, rows, message in (
        (C3, [[0, 1, 2], [1, 0, -1], [2, -1, -1]],
         "interval at 2 is not a GEA: GEA5 fails at ('1', '1')"),
        (C3, [[0, 1, 2], [1, -1, -1], [2, -1, 1]],
         "interval does not have its top as greatest element"),
        (B4, [[0, 1, 2, 3], [1, 2, 3, -1], [2, 3, -1, -1], [3, -1, -1, -1]],
         "interval order is not the restricted order"),
        (M5, [[0, 1, 2, 3, 4], [1, -1, -1, -1, -1], [2, -1, -1, 1, -1],
              [3, -1, 1, -1, -1], [4, -1, -1, -1, 1]],
         "interval at the greatest element differs from the model"),
    ):
        with monkeypatch.context() as m:
            m.setattr(core, "interval_ea", lambda F, p, rows=rows: (
                core.GeaTable(F.names, rows) if p == F.greatest() else real(F, p)))
            assert check(E) == [message]


def test_structure_predicates():
    T3, C3, B4 = core.t3(), core.c3(), core.b4()
    st = core.structure_predicates(T3)
    assert not st.directed and not st.orthogonally_ordered and st.is_ea is None
    sc = core.structure_predicates(C3)
    assert sc.directed and sc.is_ea == 2 and sc.lattice
    sb = core.structure_predicates(B4)
    assert sb.is_ea == 3 and sb.orthogonally_ordered
    for s in (st, sc, sb):
        assert s.archimedean and s.dedekind_orthocomplete and s.orthocomplete


def test_core_order_laws_rechecks_the_axioms_of_an_unchecked_table():
    # c + c = b and b + b = a, but b + c is undefined: GEA2 fails at
    # (b, c, c), yet the derived order passes GeaTable's own checks, so a
    # table built unchecked, as the catalog builds them, is caught here
    table = [[0, 1, 2, 3], [1, -1, -1, -1], [2, -1, 1, -1], [3, -1, -1, 2]]
    with pytest.raises(AxiomViolation):
        core.GeaTable("0abc", table)
    E = core.GeaTable("0abc", table, _validated=True)
    check = theorems.REGISTRY["core-order-laws"].fn
    assert check(E) == ["GEA2 fails at (b, c, c)"]
    assert check(core.b4()) == []


def _check_structure_flags(max_n):
    """The seven structure flags of every model up to ``max_n``, against
    the literal oracle, on fresh tables so no cached flags are read;
    returns the number of models and of those with every meet but not
    every join."""
    models = meets_only = 0
    for model in oracles.catalog_models(max_n):
        E = core.GeaTable(model.names, model.sum, _validated=True)
        flags = core.structure_predicates(E)
        assert flags == oracles.structure_predicates(E), model.sum
        pairs = [(e, f) for e in range(E.n) for f in range(E.n)]
        meets_only += (all(core.inf(E, p) is not None for p in pairs)
                       and not flags.lattice)
        models += 1
    return models, meets_only


def test_structure_flags_match_the_literal_oracle():
    # 89 models have every meet but not every join, so the join half of
    # the lattice test is needed; the meet half is not: a finite poset
    # with a least element and every join is a lattice
    assert _check_structure_flags(7) == (175, 89)


@pytest.mark.slow
def test_structure_flags_match_the_literal_oracle_n8():
    assert _check_structure_flags(8) == (671, 266)


def _check_order_queries(models, families_up_to):
    """``below`` on every element, ``sup`` and ``inf`` on every pair of
    elements, ``all_ideals`` and ``_ideal_flags`` on every subset, all
    against the literal scans; on models up to ``families_up_to`` elements
    also ``sup`` and ``inf`` on every family.  Returns how many pairs have
    no join, no meet, and how many subsets are ideals."""
    no_join = no_meet = ideals = 0
    for E in models:
        for p in range(E.n):
            assert E.below[p] == tuple(x for x in range(E.n) if E.leq[x][p]), (E.sum, p)
        for e in range(E.n):
            for f in range(E.n):
                join, meet = core.sup(E, (e, f)), core.inf(E, (e, f))
                assert join == oracles.sup(E, (e, f)), (E.sum, e, f)
                assert meet == oracles.inf(E, (e, f)), (E.sum, e, f)
                no_join += join is None
                no_meet += meet is None
        subsets = [tuple(x for x in range(E.n) if mask >> x & 1)
                   for mask in range(1 << E.n)]
        if E.n <= families_up_to:
            for fam in subsets:
                assert core.sup(E, fam) == oracles.sup(E, fam), (E.sum, fam)
                assert core.inf(E, fam) == oracles.inf(E, fam), (E.sum, fam)
        for S in subsets:
            assert core._ideal_flags(E, S) == oracles.is_ideal(E, S), (E.sum, S)
        assert list(core.all_ideals(E)) == oracles.ideals(E), E.sum
        assert core.all_ideals(E) is core.all_ideals(E)
        ideals += len(core.all_ideals(E))
    return no_join, no_meet, ideals


def test_order_queries_match_the_literal_scans():
    no_join, no_meet, ideals = _check_order_queries(oracles.catalog_models(7), 6)
    assert no_join and no_meet and ideals


@pytest.mark.slow
def test_order_queries_match_the_literal_scans_n8():
    _check_order_queries([E for E in oracles.catalog_models(8) if E.n == 8], 0)


def test_is_orthodense():
    C3, B4 = core.c3(), core.b4()
    assert core.is_orthodense(C3, {0, 1}, {0, 1, 2})
    assert core.is_orthodense(B4, set(range(4)), set(range(4)))
    assert not core.is_orthodense(B4, {0, 1}, set(range(4)))


def test_canonical_form_invariance():
    C3 = core.c3()
    relabeled = core.build_gea(["0", "x", "y"], "0", [("x", "x", "y")])
    assert core.canonical_form(C3) == core.canonical_form(relabeled)
    assert core.canonical_form(C3) != core.canonical_form(core.t3())
    T3 = core.t3()
    swapped = oracles.relabel(T3, [0, 2, 1])
    assert core.canonical_form(T3) == core.canonical_form(swapped)


def test_canonical_form_all_relabelings_size4():
    import itertools

    B4 = core.b4()
    key = core.canonical_form(B4)
    for perm in itertools.permutations(range(1, 4)):
        assert core.canonical_form(oracles.relabel(B4, [0, *perm])) == key


def _violates(t, axiom, w):
    """Whether the index tuple ``w`` violates the GEA axiom ``axiom`` in the
    sum table ``t`` (-1 where a sum is undefined), by the axiom's
    definition."""
    if axiom == "GEA1":  # e + f is defined exactly when f + e is, and equal
        e, f = w
        return t[e][f] != t[f][e]
    if axiom == "GEA2":  # e + f and d + (e + f) defined give (d + e) + f, equal
        d, e, f = w
        ef = t[e][f]
        if ef < 0 or t[d][ef] < 0:
            return False
        de = t[d][e]
        return de < 0 or t[de][f] != t[d][ef]
    if axiom == "GEA3":  # e + 0 = e
        (e,) = w
        return t[e][0] != e
    if axiom == "GEA4":  # d + e = d + f gives e = f
        d, e, f = w
        return e != f and t[d][e] >= 0 and t[d][e] == t[d][f]
    if axiom == "GEA5":  # e + f = 0 gives e = f = 0
        e, f = w
        return t[e][f] == 0 and (e, f) != (0, 0)
    raise AssertionError(f"unknown axiom {axiom}")


@st.composite
def _partial_tables(draw):
    """A size and named equations giving one value, or none, to each
    unordered pair of nonzero elements: either drawn freely, undefined
    half the time, or a relabeled catalog model with up to two pairs
    redrawn, so that valid tables and near misses both occur."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 5))
        sums = [[-1] * n for _ in range(n)]
        redraw = [(i, j) for i in range(1, n) for j in range(i, n)]
    else:
        E = draw(st.sampled_from([e.table for e in catalog.cached_entries(5)]))
        n = E.n
        sums = [list(row) for row in oracles.relabel(
            E, [0, *draw(st.permutations(range(1, n)))]).sum]
        pairs = [(i, j) for i in range(1, n) for j in range(i, n)]
        redraw = draw(st.lists(st.sampled_from(pairs), max_size=2)) if pairs else []
    for i, j in redraw:
        sums[i][j] = draw(st.sampled_from([-1] * n + list(range(n))))
    equations = [(str(i), str(j), str(sums[i][j]))
                 for i in range(1, n) for j in range(i, n) if sums[i][j] >= 0]
    return n, equations


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_partial_tables(), st.data())
def test_build_gea_on_random_partial_tables(drawn, data):
    """A random symmetric partial table either raises an AxiomViolation
    whose witness violates the named axiom, or builds a model whose every
    axiom holds and whose canonical form survives a relabeling."""
    n, equations = drawn
    names = [str(i) for i in range(n)]
    try:
        E = core.build_gea(names, "0", equations)
    except AxiomViolation as err:
        t = [[-1] * n for _ in range(n)]
        for e in range(n):
            t[e][0] = t[0][e] = e
        for a, b, c in equations:
            t[int(a)][int(b)] = t[int(b)][int(a)] = int(c)
        assert _violates(t, err.axiom, [int(x) for x in err.witness])
        return
    r = range(n)
    for axiom, tuples in (("GEA1", [(e, f) for e in r for f in r]),
                          ("GEA2", [(d, e, f) for d in r for e in r for f in r]),
                          ("GEA3", [(e,) for e in r]),
                          ("GEA4", [(d, e, f) for d in r for e in r for f in r]),
                          ("GEA5", [(e, f) for e in r for f in r])):
        assert not any(_violates(E.sum, axiom, w) for w in tuples), axiom
    perm = data.draw(st.permutations(range(1, n)))
    assert core.canonical_form(oracles.relabel(E, [0, *perm])) == core.canonical_form(E)


def test_tables_are_immutable():
    C3 = core.c3()
    rows = (C3.sum[0], C3.leq[0], C3.diff[0], C3.below[0], exocenter(C3).one,
            oracles.equality_relation(C3).class_of)
    for row in rows:
        with pytest.raises(TypeError):
            row[0] = 1


def test_element_count_is_bounded():
    # every element index fits the one-byte table key
    names = ["0"] + [f"e{i}" for i in range(1, core.MAX_ELEMENTS)]
    E = core.build_gea(names, "0", [])
    assert len(core.table_bytes(E.sum)) == core.MAX_ELEMENTS ** 2
    with pytest.raises(ValueError, match="at most"):
        core.build_gea(names + ["extra"], "0", [])
