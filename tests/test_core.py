"""Tables, axioms, order queries, intervals, and canonical forms."""

import pytest

from geadim import congruence as cg, core
from geadim.exocenter import exocenter
from geadim.errors import AxiomViolation, ConflictingEquation, InternalInvariant


def test_fixtures_build():
    T3, C3, B4 = core.t3(), core.c3(), core.b4()
    assert T3.n == 3 and C3.n == 3 and B4.n == 4
    assert C3.sum_of(1, 1) == 2
    assert B4.sum_of(1, 2) == 3
    assert T3.sum_of(1, 2) is None


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


def test_duplicate_consistent_equation_allowed():
    E = core.build_gea(["0", "a", "b", "1"], "0",
                       [("a", "b", "1"), ("b", "a", "1")])
    assert E.sum_of(1, 2) == 3


def test_zero_reordered_to_front():
    E = core.build_gea(["x", "z", "y"], "z", [])
    assert E.names[0] == "z"
    assert E.zero == 0


def test_order_queries_c3():
    C3 = core.c3()
    info = core.order_queries(C3)
    assert info.leq == (
        (True, True, True), (False, True, True), (False, False, True))
    assert info.atoms == (1,)
    assert info.maximal == (2,)
    assert info.meet[1][2] == 1
    assert info.join[1][2] == 2


def test_order_queries_t3():
    T3 = core.t3()
    info = core.order_queries(T3)
    assert not T3.le(1, 2) and not T3.le(2, 1)
    assert not info.perp[1][2]
    assert info.atoms == (1, 2)
    assert all(info.perp[e][0] for e in range(3))


def test_orthosum_family():
    C3, T3 = core.c3(), core.t3()
    assert core.orthosum_family(C3, [1, 1]) == 2
    assert core.orthosum_family(C3, []) == 0
    assert core.orthosum_family(T3, [1, 2]) is None
    assert core.orthosum_family(C3, [1, 1, 1]) is None


def test_element_predicates():
    C3, B4 = core.c3(), core.b4()
    p1 = core.element_predicates(C3, 1)
    # 1 is orthogonal to itself below itself (1+1=2), so not sharp
    assert not p1.principal and not p1.sharp and p1.atom
    pa = core.element_predicates(B4, 1)
    assert pa.principal and pa.sharp
    pz = core.element_predicates(B4, 0)
    assert pz.principal and pz.sharp
    assert core.element_predicates(C3, 2).greatest


def test_interval_ea():
    C3, B4 = core.c3(), core.b4()
    full = core.interval_ea(C3, 2)
    assert full.table.sum == C3.sum
    two = core.interval_ea(C3, 1)
    assert two.table.n == 2
    assert core.interval_ea(B4, 1).table.n == 2


def test_subset_predicates():
    B4, C3 = core.b4(), core.c3()
    f = core.subset_predicates(B4, {0, 1})
    assert f.order_ideal and f.ideal and f.sub_gea
    g = core.subset_predicates(C3, {0, 1})
    assert g.order_ideal and not g.ideal
    h = core.subset_predicates(C3, {0, 1, 2})
    assert h.order_ideal and h.ideal and h.sub_gea and h.sup_inf_closed


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


def test_direct_sum_check():
    B4, T3 = core.b4(), core.t3()
    ok, _ = core.direct_sum_check(B4, [{0, 1}, {0, 2}])
    assert ok
    bad, witness = core.direct_sum_check(T3, [{0, 1}, {0, 2}])
    assert not bad and witness
    ok, _ = core.direct_sum_check(B4, [set(range(4))])
    assert ok


def test_direct_sum_requires_ideals():
    from geadim.errors import NotAnIdeal

    with pytest.raises(NotAnIdeal):
        core.direct_sum_check(core.c3(), [{0, 1}])


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
    swapped = T3.relabel([0, 2, 1])
    assert core.canonical_form(T3) == core.canonical_form(swapped)


def test_canonical_form_all_relabelings_size4():
    import itertools

    B4 = core.b4()
    key = core.canonical_form(B4)
    for perm in itertools.permutations(range(1, 4)):
        assert core.canonical_form(B4.relabel([0, *perm])) == key


def test_tables_are_immutable():
    C3 = core.c3()
    rows = (C3.sum[0], C3.leq[0], C3.diff[0], exocenter(C3).one.image,
            cg.equality_relation(C3).class_of)
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
