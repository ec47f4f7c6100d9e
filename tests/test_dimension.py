"""Invariant/simple/finite elements, factors, restriction, suprema of
hereditary ideals, and the type decomposition."""

from types import SimpleNamespace

import pytest

from geadim import congruence as cg, core, dimension as dm
from geadim.errors import NotDer, NotHereditary, NotSplitting, Unbounded
from geadim.exocenter import exocenter


def _dgea(E, classes=None):
    R = cg.build_equiv(E, classes or [])
    return dm.Dgea(E, R), R


def test_invariant_sets():
    B4 = core.b4()
    d_eq, _ = _dgea(B4)
    assert d_eq.invariants.gamma_sim == (0, 1, 2, 3)
    d_merge, _ = _dgea(B4, [["a", "b"]])
    assert d_merge.invariants.gamma_sim == (0, 3)
    assert d_merge.invariants.gamma_sim == d_merge.invariants.gamma_eta
    assert 0 in d_merge.invariants.gamma_sim


def test_simple_elements():
    C3 = core.c3()
    d, _ = _dgea(C3)
    assert d.simple == (0, 1)  # the top splits into related halves
    B4 = core.b4()
    dm_, _ = _dgea(B4, [["a", "b"]])
    assert dm_.simple == (0, 1, 2)
    assert 0 in dm_.simple


def test_finite_elements():
    C3 = core.c3()
    d, _ = _dgea(C3)
    assert d.finite == (0, 1, 2)
    B4 = core.b4()
    d_eq, _ = _dgea(B4)
    assert d_eq.finite == (0, 1, 2, 3)
    # atoms are always finite
    assert all(a in d_eq.finite for a in B4.atoms)


def test_f_tilde():
    C3 = core.c3()
    d, _ = _dgea(C3)
    assert d.finite_invariant[0] == 2
    B4 = core.b4()
    d_merge, _ = _dgea(B4, [["a", "b"]])
    assert d_merge.finite_invariant[0] == 3
    one = core.build_gea(["0"], "0", [])
    d1, _ = _dgea(one)
    assert d1.finite_invariant[0] == 0


def test_is_factor():
    B4 = core.b4()
    d_merge, _ = _dgea(B4, [["a", "b"]])
    assert dm.is_factor(d_merge).factor
    d_eq, _ = _dgea(B4)
    assert not dm.is_factor(d_eq).factor
    one = core.build_gea(["0"], "0", [])
    d1, _ = _dgea(one)
    assert dm.is_factor(d1).factor


def test_decompose_types_c3():
    C3 = core.c3()
    _, eq = _dgea(C3)
    dec = dm.decompose_types(C3, eq)
    assert dec.pi_i.is_identity
    assert dec.pi_ii.is_zero and dec.pi_iii.is_zero
    assert dec.type_verdict == "I" and dec.finite_type
    assert dec.unit == 2
    assert "unique-type-triple" in dec.cross_checks


def test_decompose_types_b4_merge():
    B4 = core.b4()
    _, merge = _dgea(B4, [["a", "b"]])
    dec = dm.decompose_types(B4, merge)
    assert dec.pi_i.is_identity and dec.type_verdict == "I"
    assert dec.finite_type and dec.unit == 3
    assert dec.summands["I"] == (0, 1, 2, 3)
    assert dec.summands["II"] == (0,)


def test_decompose_types_trivial_model():
    one = core.build_gea(["0"], "0", [])
    _, eq = _dgea(one)
    dec = dm.decompose_types(one, eq)
    assert dec.pi_i.is_identity and dec.pi_i.is_zero  # same map when n=1
    assert dec.type_verdict == "I"


def test_decompose_requires_der():
    T3 = core.t3()
    eq = cg.equality_relation(T3)
    with pytest.raises(NotDer):
        dm.decompose_types(T3, eq)


def test_restrict_summand():
    B4 = core.b4()
    d_eq, _ = _dgea(B4)
    pa = next(m for m in d_eq.sigma if m.summand == (0, 1))
    sub, subrel, mapping = dm.restrict_summand(d_eq, pa)
    assert sub.names == ("0", "a") and mapping == (0, 1)
    assert subrel.classes == ((0,), (1,))
    full, _, _ = dm.restrict_summand(d_eq, d_eq.sigma.one)
    assert core.canonical_form(full) == core.canonical_form(B4)
    pb = next(m for m in d_eq.sigma if m.summand == (0, 2))
    sb, _, mb = dm.restrict_summand(d_eq, pb)
    assert sb.names == ("0", "b")


def test_restrict_summand_rejects_non_splitting():
    B4 = core.b4()
    d_merge, _ = _dgea(B4, [["a", "b"]])
    S = exocenter(B4)
    pa = next(m for m in S if m.summand == (0, 1))
    with pytest.raises(NotSplitting):
        dm.restrict_summand(d_merge, pa)


def test_hereditary_sup():
    B4 = core.b4()
    d, _ = _dgea(B4)
    rep = dm.hereditary_sup(d, {0, 1})
    assert rep.c == 1 and rep.sharp and rep.interval_hereditary
    assert rep.central_if_directed
    assert dm.hereditary_sup(d, {0}).c == 0
    C3 = core.c3()
    dc, _ = _dgea(C3)
    rep = dm.hereditary_sup(dc, {0, 1, 2})
    assert rep.c == 2 and rep.sharp


def test_hereditary_sup_rejects_non_ideal():
    # {0, 1} in the chain is hereditary but not sum-closed (1+1 escapes),
    # so the supremum construction does not apply to it
    C3 = core.c3()
    d, _ = _dgea(C3)
    with pytest.raises(NotHereditary):
        dm.hereditary_sup(d, {0, 1})


def test_hereditary_sup_rejects_non_hereditary():
    B4 = core.b4()
    d_merge, _ = _dgea(B4, [["a", "b"]])
    with pytest.raises(NotHereditary):
        dm.hereditary_sup(d_merge, {0, 1})  # b ~ a escapes the set


def test_hereditary_sup_rejects_unbounded():
    # T3 carries no congruence, so there is no Dgea to pass; the checks
    # up to the bound read only the model and the relation
    T3 = core.t3()
    eq = cg.equality_relation(T3)
    with pytest.raises(NotDer):
        dm.Dgea(T3, eq)
    with pytest.raises(Unbounded):
        dm.hereditary_sup(SimpleNamespace(E=T3, R=eq), {0, 1, 2})


def test_summand_type_flags_identity():
    C3 = core.c3()
    d, _ = _dgea(C3)
    flags = dm.summand_type_flags(d, d.sigma.one)
    assert flags.type_i and not flags.type_ii and not flags.type_iii
    assert flags.finite_type and not flags.properly_non_finite
