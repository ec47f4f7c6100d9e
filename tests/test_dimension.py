"""Invariant/simple/finite elements, factors, restriction, suprema of
hereditary ideals, and the type decomposition."""

import dataclasses
import io
import json
from types import SimpleNamespace

import pytest

from oracles import equality_relation, indiscrete_hull
from geadim import (
    catalog,
    cli,
    congruence as cg,
    core,
    dimension as dm,
    hull,
    theorems,
)
from geadim.errors import (
    NotDer,
    NotHereditary,
    NotSplitting,
    Unbounded,
)
from geadim.exocenter import ExoSet, exocenter, fixed_points, is_identity


def _dgea(E, classes=None):
    R = cg.build_equiv(E, classes or [])
    return dm.Dgea(R), R


def test_invariant_sets():
    B4 = core.b4()
    d_eq, _ = _dgea(B4)
    assert d_eq.invariants == (0, 1, 2, 3)
    d_merge, _ = _dgea(B4, [["a", "b"]])
    assert d_merge.invariants == (0, 3)
    # the hull-image reading of invariance picks the same elements
    assert d_merge.invariants == tuple(
        c for c in range(B4.n)
        if set(fixed_points(d_merge.hull.maps[c])) == set(B4.below[c])
    )
    assert 0 in d_merge.invariants


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
    assert dm.is_factor(d_merge)
    d_eq, _ = _dgea(B4)
    assert not dm.is_factor(d_eq)
    one = core.build_gea(["0"], "0", [])
    d1, _ = _dgea(one)
    assert dm.is_factor(d1)


def test_decompose_types_c3():
    C3 = core.c3()
    _, eq = _dgea(C3)
    dec = dm.decompose_types(eq)
    assert is_identity(dec.projections["I"])
    assert not any(dec.projections["II"]) and not any(dec.projections["III"])
    assert dec.type_verdict == "I" and dec.finite_type
    assert dec.unit == 2
    assert theorems.REGISTRY["type-decomposition"].fn(dm.Dgea(eq)) == []


def test_decompose_types_b4_merge():
    B4 = core.b4()
    _, merge = _dgea(B4, [["a", "b"]])
    dec = dm.decompose_types(merge)
    assert is_identity(dec.projections["I"]) and dec.type_verdict == "I"
    assert dec.finite_type and dec.unit == 3
    assert dec.summands["I"] == (0, 1, 2, 3)
    assert dec.summands["II"] == (0,)


def test_decompose_types_trivial_model():
    one = core.build_gea(["0"], "0", [])
    _, eq = _dgea(one)
    dec = dm.decompose_types(eq)
    pi_i = dec.projections["I"]
    assert is_identity(pi_i) and not any(pi_i)  # same map when n=1
    assert dec.type_verdict == "I"


def test_decompose_requires_der():
    T3 = core.t3()
    eq = equality_relation(T3)
    with pytest.raises(NotDer):
        dm.decompose_types(eq)


def test_restrict_summand():
    B4 = core.b4()
    d_eq, _ = _dgea(B4)
    pa = next(m for m in d_eq.sigma if fixed_points(m) == (0, 1))
    sub = d_eq.summand(pa)
    assert sub.E.names == ("0", "a")
    assert sub.R.classes == ((0,), (1,))
    full = d_eq.summand(d_eq.sigma.one)
    assert core.canonical_form(full.E) == core.canonical_form(B4)
    pb = next(m for m in d_eq.sigma if fixed_points(m) == (0, 2))
    assert d_eq.summand(pb).E.names == ("0", "b")


def test_restrict_summand_rejects_non_splitting():
    B4 = core.b4()
    d_merge, _ = _dgea(B4, [["a", "b"]])
    S = exocenter(B4)
    pa = next(m for m in S if fixed_points(m) == (0, 1))
    with pytest.raises(NotSplitting):
        d_merge.summand(pa)


def _dimension_relations(max_n):
    return [
        d
        for entry in catalog.cached_entries(max_n)
        for d in catalog.congruences(entry.table)
        if d.der
    ]


def test_summands_are_the_intervals_at_their_tops():
    # every summand of a dimension relation up to n=6 has a greatest
    # element, and is then the interval below it, built by interval_ea
    # with no code shared with the restriction
    checked = 0
    for d in _dimension_relations(6):
        E = d.E
        for pi in d.sigma:
            sub = d.summand(pi)
            assert d.summand(pi) is sub
            members = fixed_points(pi)
            tops = [t for t in members if all(E.leq[x][t] for x in members)]
            assert len(tops) == 1
            assert sub.E == core.interval_ea(E, tops[0])
            assert members == E.below[tops[0]]
            checked += 1
        assert d.summand(d.sigma.one).E == E
    assert checked == 39


def test_summand_rejects_every_non_splitting_map():
    rejected = 0
    for d in _dimension_relations(6):
        for pi in exocenter(d.E):
            if pi in d.sigma:
                continue
            with pytest.raises(NotSplitting):
                d.summand(pi)
            rejected += 1
    assert rejected > 0


def _identity_summand_rebuilt(d):
    """The identity summand of ``d`` built as a model of its own: a fresh
    table read off ``d``'s sums, its relation and its ``Dgea``."""
    E, R = d.E, d.R
    table = [[E.sum[a][b] for b in range(E.n)] for a in range(E.n)]
    copy = core.GeaTable(list(E.names), table)
    return dm.Dgea(cg.EquivRel(copy, list(R.class_of)))


def _check_identity_summands(max_n):
    """On every dimension relation up to ``max_n``: the identity summand is
    the ``Dgea`` itself and agrees with one rebuilt from a copy of the
    model; every other splitting map still gets a summand of its own, and
    every map that does not split is still refused.  Returns the number
    of relations and of proper summands whose identity summand is a new
    ``Dgea``."""
    relations = fresh = 0
    for d in _dimension_relations(max_n):
        E = d.E
        assert d.summand(d.sigma.one) is d
        copy = _identity_summand_rebuilt(d)
        assert copy.sigma.maps == d.sigma.maps
        assert copy.hull.maps == d.hull.maps
        assert copy.sk4a_prime == d.sk4a_prime
        assert copy.simple == d.simple
        assert copy.finite == d.finite
        assert copy.invariants == d.invariants
        assert copy.finite_invariant == d.finite_invariant
        assert copy.type_flags == d.type_flags
        assert catalog._decomposition_summary(copy.E, copy.decomposition) == (
            catalog._decomposition_summary(E, d.decomposition))
        for pi in exocenter(E):
            if pi not in d.sigma:
                with pytest.raises(NotSplitting):
                    d.summand(pi)
        for pi in d.sigma:
            sub = d.summand(pi)
            if sub is d:
                continue
            # a summand is a model of its own, and its own identity summand
            own = sub.summand(sub.sigma.one)
            assert own.E == sub.E
            fresh += own is not sub
        assert all(sub is not d for sub in d._summands.values())
        relations += 1
    return relations, fresh


def test_identity_summand_is_the_dgea_itself():
    assert _check_identity_summands(6) == (18, 0)


@pytest.mark.slow
def test_identity_summand_is_the_dgea_itself_n7():
    assert _check_identity_summands(7) == (22, 0)


def test_map_comparing_properties_fire_on_the_indiscrete_hull(monkeypatch):
    # with a and b unrelated the hull maps of a and b are the projections
    # p_a and p_b; the indiscrete hull maps both to the identity, so they
    # meet although no splitting map is needed to separate them, and
    # each projection is strictly below the hull map of its own element
    d, _ = _dgea(core.b4())
    five_way = theorems.REGISTRY["unrelated-five-way"].fn
    faithful = theorems.REGISTRY["faithful-in-summand"].fn
    assert five_way(d) == [] and faithful(d) == []
    monkeypatch.setattr(d, "hull", indiscrete_hull(d.sigma))
    assert five_way(d) == ["unrelatedness conditions disagree at (a, b)",
                           "unrelatedness conditions disagree at (b, a)"]
    assert faithful(d) == [
        "faithfulness conditions disagree at b in (0, 0, 2, 2)",
        "faithfulness conditions disagree at a in (0, 1, 0, 1)",
    ]


def test_type_decomposition_property_fires_on_wrong_summands(monkeypatch):
    # the property reads the three type summands off the table alone, so
    # summands that overlap, leave a sum or a subelement out, or miss an
    # element are caught
    check = theorems.REGISTRY["type-decomposition"].fn
    d, _ = _dgea(core.b4())  # a, b unrelated: the whole model is of type I
    assert check(d) == []
    wrong = [
        ((0, 1, 2, 3), (0, 1), "summands I and II meet in (0, a)"),
        ((0, 1, 2), (0,), "summand I is not closed under sums"),
        ((0, 3), (0,), "summand I is not a down-set"),
        ((0, 1), (0,), "not one sum of the three summands: (b, 1)"),
    ]
    for first, second, message in wrong:
        summands = {"I": first, "II": second, "III": (0,)}
        monkeypatch.setattr(dm.Decomposition, "summands",
                            property(lambda self, s=summands: s),
                            raising=False)
        assert message in check(d), first


def test_type_decomposition_property_fires_on_a_summand_of_the_wrong_type(
        monkeypatch):
    check = theorems.REGISTRY["type-decomposition"].fn
    d, _ = _dgea(core.b4())
    d.decomposition  # built with the real flags
    flags = dm.TypeFlags(False, True, True, False, False)
    monkeypatch.setattr(dm.Dgea, "type_flags", property(lambda self: flags))
    assert check(d) == ["summand I is not of type I"]


def test_decomposition_rejects_a_second_type_triple(monkeypatch):
    # read off the model, every summand claims all three types, so every
    # cover of the identity by three disjoint splitting maps is a type
    # triple next to the real one, (1, 0, 0)
    check = theorems.REGISTRY["type-decomposition"].fn
    d, _ = _dgea(core.b4())
    assert check(d) == []
    monkeypatch.setattr(dm.Dgea, "summand_types",
                        lambda self, m: (True, True, True))
    second = check(d)
    assert second[0] == (
        "second type triple (0, 0, 0, 0), (0, 0, 0, 0), (0, 1, 2, 3)")
    assert len(second) == 8
    assert "second type triple (0, 1, 2, 3), (0, 0, 0, 0), (0, 0, 0, 0)" not in second


def test_decomposition_rejects_summand_types_that_disagree(monkeypatch):
    # read off the model, every summand claims all three types; as a model
    # of its own only the summand of the zero map, {0}, has all three
    check = theorems.REGISTRY["type-criteria-summands"].fn
    d, _ = _dgea(core.b4())
    assert check(d) == []
    monkeypatch.setattr(dm.Dgea, "summand_types",
                        lambda self, m: (True, True, True))
    assert check(d) == [
        f"summand types read off the model disagree with its own for {pi}"
        for pi in ((0, 0, 2, 2), (0, 1, 0, 1), (0, 1, 2, 3))
    ]


def _with_decomposition(d, **fields):
    """``d`` with its decomposition built and then given ``fields``."""
    d.__dict__["decomposition"] = dataclasses.replace(d.decomposition, **fields)
    return d


def test_type_decomposition_property_fires_on_wrong_projections(monkeypatch):
    # b4 with a and b unrelated: every projection is the identity or zero
    check = theorems.REGISTRY["type-decomposition"].fn
    d, _ = _dgea(core.b4())
    assert check(d) == []
    real = d.decomposition.projections
    p_a = (0, 1, 0, 1)
    wrong = [
        ({"II": p_a}, "type projections are not pairwise disjoint"),
        ({"I": p_a}, "type projections do not cover the identity"),
        ({"II": p_a}, "finite parts do not cover type II"),
        ({"I_F": d.sigma.zero}, "finite parts do not cover type I"),
        ({"II": p_a}, "second type triple (0, 1, 2, 3), (0, 0, 0, 0), (0, 0, 0, 0)"),
    ]
    for change, message in wrong:
        fresh, _ = _dgea(core.b4())
        projections = {**real, **change}
        assert message in check(_with_decomposition(fresh, projections=projections))
    fresh, _ = _dgea(core.b4())
    assert check(_with_decomposition(fresh, f_tilde=1)) == [
        "summand I_F does not have the unit a"]
    # a hull system whose every map is zero holds neither the identity
    # projection of type I nor its finite part
    fresh, _ = _dgea(core.b4())
    fresh.decomposition
    monkeypatch.setattr(fresh, "hull", SimpleNamespace(maps=(fresh.sigma.zero,) * 4))
    assert check(fresh)[:2] == ["projection I escapes the hull family",
                                "projection I_F escapes the hull family"]


def test_type_decomposition_property_fires_on_a_summand_that_is_not_hereditary(
        monkeypatch):
    # with a ~ b, {0, a} is a down-set closed under its sums, but b ~ a
    # leaves it
    check = theorems.REGISTRY["type-decomposition"].fn
    d, _ = _dgea(core.b4(), [["a", "b"]])
    assert check(d) == []
    summands = {"I": (0, 1, 2, 3), "II": (0,), "III": (0,), "I_F": (0, 1)}
    monkeypatch.setattr(dm.Decomposition, "summands",
                        property(lambda self: summands))
    assert check(d) == ["summand I_F is not hereditary"]


def test_simple_element_criteria_compare_the_hull_readings(monkeypatch):
    check = theorems.REGISTRY["simple-element-criteria"].fn
    # with the hull maps of b4's unrelated atoms swapped, the maps stay as
    # disjoint and as distinct as before, but eta_e(k) = e fails
    d, _ = _dgea(core.b4())
    assert d.simple == (0, 1, 2, 3) and check(d) == []
    eta = d.hull.maps
    monkeypatch.setattr(d, "hull",
                        SimpleNamespace(E=d.E, maps=(eta[0], eta[2], eta[1], eta[3])))
    assert check(d) == [f"simple-element conditions disagree at {x}"
                        for x in ("a", "b", "1")]
    d, _ = _dgea(core.c3())
    assert d.simple == (0, 1) and check(d) == []
    monkeypatch.setattr(hull, "is_monad", lambda H, e: False)
    assert check(d) == ["simple-element conditions disagree at 0",
                        "simple-element conditions disagree at 1"]


def test_invariance_characterizations_compare_the_definition(monkeypatch):
    check = theorems.REGISTRY["invariance-characterizations"].fn
    d, _ = _dgea(core.b4())
    assert d.invariants == (0, 1, 2, 3) and check(d) == []
    monkeypatch.setattr(d, "invariants", (0, 3))
    assert check(d) == [
        f"invariance characterizations disagree at {x}: "
        "(True, True, True, True, True)"
        for x in ("a", "b")
    ]


def test_factor_characterizations_fire(monkeypatch):
    check = theorems.REGISTRY["factor-characterizations"].fn
    d, _ = _dgea(core.b4(), [["a", "b"]])
    assert check(d) == []
    monkeypatch.setattr(hull, "is_dyad", lambda H, e: True)
    assert check(d) == [f"factor element {x} is not exactly one of atom/dyad"
                        for x in ("a", "b")]
    monkeypatch.setattr(dm, "is_factor", lambda dgea: False)
    assert check(d) == ["factor characterizations disagree"]


def _b4_summand_at_a():
    """The equality relation's ``Dgea`` on b4, its splitting map onto
    (0, a) and that map's summand."""
    d, _ = _dgea(core.b4())
    pa = next(m for m in d.sigma if fixed_points(m) == (0, 1))
    return d, pa, d.summand(pa)


def test_summand_restriction_contract_fires_on_a_wrong_exocenter(monkeypatch):
    # with the model itself in place of every summand, no restriction
    # maps onto the summand's exocenter, whose maps are too long
    check = theorems.REGISTRY["summand-restriction-contract"].fn
    d, _, _ = _b4_summand_at_a()
    assert check(d) == []
    monkeypatch.setattr(d, "summand", lambda pi: d)
    assert check(d) == [
        f"restriction does not map onto the summand exocenter for {pi!r}"
        for pi in ((0, 0, 0, 0), (0, 0, 2, 2), (0, 1, 0, 1))
    ]


def test_summand_restriction_contract_fires_on_wrong_summand_operations(
        monkeypatch):
    # the summand's exocenter sends every complement, then every meet,
    # to its zero map
    check = theorems.REGISTRY["summand-restriction-contract"].fn
    d, pa, sub = _b4_summand_at_a()
    complement, meet = ExoSet.complement, ExoSet.meet
    with monkeypatch.context() as m:
        m.setattr(ExoSet, "complement", lambda self, p: (
            self.zero if self.E is sub.E else complement(self, p)))
        assert check(d) == [f"restriction does not preserve complement for {pa!r}"]
    with monkeypatch.context() as m:
        m.setattr(ExoSet, "meet", lambda self, p, q: (
            self.zero if self.E is sub.E else meet(self, p, q)))
        assert check(d) == [f"restriction does not preserve meets for {pa!r}"]
    assert check(d) == []


@pytest.mark.parametrize("attr, wrong, message", [
    ("sigma", lambda sub: ExoSet(sub.E, [sub.sigma.one]),
     "splitting algebra does not restrict correctly"),
    ("simple", lambda sub: (0,), "simple elements do not restrict correctly"),
    ("finite", lambda sub: (0,), "finite elements do not restrict correctly"),
    ("finite_invariant", lambda sub: (0, (0,)),
     "largest finite invariant element does not restrict correctly"),
    ("sk4a_prime", lambda sub: ("0", "0"),
     "summand is not a dimension relation: relation fails SK4a'"),
])
def test_summand_restriction_contract_fires_on_a_wrong_summand_part(
        monkeypatch, attr, wrong, message):
    # one part of the summand of (0, a) replaced; the summand of the
    # identity is the model itself and is left alone
    check = theorems.REGISTRY["summand-restriction-contract"].fn
    d, pa, sub = _b4_summand_at_a()
    monkeypatch.setattr(sub, attr, wrong(sub))
    assert check(d) == [f"{message} for {pa!r}"]


def test_summand_restriction_contract_reports_a_summand_it_cannot_build(
        monkeypatch):
    check = theorems.REGISTRY["summand-restriction-contract"].fn
    d, _ = _dgea(core.b4())
    pa = next(m for m in d.sigma if fixed_points(m) == (0, 1))
    splits = cg.splits
    monkeypatch.setattr(cg, "splits", lambda R, pi: pi != pa and splits(R, pi))
    assert check(d) == [
        f"summand is not a dimension relation: {pa!r} does not split the "
        f"relation for {pa!r}"
    ]


def test_a_summand_failing_sk4a_prime_is_reported_under_one_property(
        monkeypatch):
    # every proper summand claims to fail SK4a': verify reports it under
    # summand-restriction-contract alone, and the properties that read a
    # summand's types skip it
    real = dm.Dgea.summand

    def summand(self, pi):
        sub = real(self, pi)
        if sub is not self:
            sub.sk4a_prime = ("0", "0")
        return sub

    monkeypatch.setattr(dm.Dgea, "summand", summand)
    buf = io.StringIO()
    assert cli.run_command(["verify", "--max-size", "4", "--json"],
                           out=buf) == 1
    results = json.loads(buf.getvalue())["results"]
    violated = {name: [v["detail"] for v in p["violations"]]
                for name, p in results["properties"].items() if p["violations"]}
    assert list(violated) == ["summand-restriction-contract"]
    details = violated["summand-restriction-contract"]
    assert details and all(
        d.startswith("summand is not a dimension relation: relation fails "
                     "SK4a' for ") for d in details)


def test_kf_std_sets_compare_the_finite_invariant_map(monkeypatch):
    check = theorems.REGISTRY["kf-std-sets"].fn
    d, _ = _dgea(core.b4())
    assert check(d) == []
    _with_decomposition(d, eta_ftilde=d.sigma.zero)
    assert check(d) == ["finite-invariant join disagrees with its largest map"]


def _check_summand_types(max_n):
    """The types of every summand of every dimension relation up to
    ``max_n``, read off the model, against the summand's own; returns the
    number of relations and of splitting maps."""
    relations = maps = 0
    for d in _dimension_relations(max_n):
        for m in d.sigma:
            own = d.summand(m).type_flags
            assert d.summand_types(m) == (own.type_i, own.type_ii, own.type_iii)
            maps += 1
        relations += 1
    return relations, maps


def test_summand_types_read_off_the_model_match_the_summands():
    assert _check_summand_types(7) == (22, 47)


def test_summand_types_match_when_zero_alone_is_simple(monkeypatch):
    # every finite model is of type I, so on the catalog's relations the
    # type I flag is always set and a faithful element cannot be told
    # from one whose hull map merely lies below m.  With zero as the only
    # simple element, which the restriction keeps, the summand of every
    # nonzero splitting map is of type II and not of type I
    monkeypatch.setattr(dm.Dgea, "simple", property(lambda self: (0,)))
    type_ii = 0
    for d in _dimension_relations(6):
        fresh = dm.Dgea(cg.EquivRel(d.E, d.R.class_of))
        for m in fresh.sigma:
            own = fresh.summand(m).type_flags
            types = fresh.summand_types(m)
            assert types == (own.type_i, own.type_ii, own.type_iii)
            type_ii += types[:2] == (False, True)
    assert type_ii == 21


@pytest.mark.slow
def test_summand_types_read_off_the_model_match_the_summands_n8():
    assert _check_summand_types(8) == (49, 117)


def test_hereditary_sup():
    B4 = core.b4()
    d, _ = _dgea(B4)
    assert dm.hereditary_sup(d, {0, 1}) == 1
    assert dm.hereditary_sup(d, {0}) == 0
    C3 = core.c3()
    dc, _ = _dgea(C3)
    assert dm.hereditary_sup(dc, {0, 1, 2}) == 2


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
    eq = equality_relation(T3)
    with pytest.raises(NotDer):
        dm.Dgea(eq)
    with pytest.raises(Unbounded):
        dm.hereditary_sup(SimpleNamespace(E=T3, R=eq), {0, 1, 2})


def test_hereditary_ideal_supremum_fires_on_a_wrong_supremum(monkeypatch):
    # every supremum read as 0, as when the greedy family stays empty: the
    # ideals {0, a}, {0, b} and b4 itself each report both checks
    check = theorems.REGISTRY["hereditary-ideal-supremum"].fn
    d, _ = _dgea(core.b4())
    assert check(d) == []
    real = dm.hereditary_sup

    def read_as_zero(dgea, S):
        real(dgea, S)  # keeps its input errors
        return 0

    monkeypatch.setattr(dm, "hereditary_sup", read_as_zero)
    assert check(d) == [
        "orthosum of maximal family (0) is not the supremum",
        "hull map of the supremum is not the join",
    ] * 3


def test_hereditary_ideal_supremum_compares_the_hull_join(monkeypatch):
    # a's hull map is the identity and the top's is the projection onto
    # b, so only the whole model's join differs from its supremum's map
    check = theorems.REGISTRY["hereditary-ideal-supremum"].fn
    d, _ = _dgea(core.b4())
    S = d.sigma
    pb = next(m for m in S if fixed_points(m) == (0, 2))
    monkeypatch.setattr(d, "hull", SimpleNamespace(maps=(S.zero, S.one, S.zero, pb)))
    assert check(d) == ["hull map of the supremum is not the join"]


def test_hereditary_ideal_supremum_fires_on_a_supremum_that_is_not_sharp(
        monkeypatch):
    check = theorems.REGISTRY["hereditary-ideal-supremum"].fn
    d, _ = _dgea(core.b4())
    monkeypatch.setattr(core, "is_sharp", lambda E, p: p != 3)
    assert check(d) == ["supremum of [0, 1, 2, 3] fails sharp/hereditary"]


def test_hereditary_ideal_supremum_fires_on_a_supremum_that_is_not_invariant(
        monkeypatch):
    # b4 has a unit, so it is directed and every supremum must be invariant
    check = theorems.REGISTRY["hereditary-ideal-supremum"].fn
    d, _ = _dgea(core.b4())
    monkeypatch.setattr(d, "invariants", (0, 1, 2))
    assert check(d) == [
        "supremum of [0, 1, 2, 3] not invariant under directedness"]


def test_summand_type_flags_identity():
    C3 = core.c3()
    d, _ = _dgea(C3)
    flags = d.summand(d.sigma.one).type_flags
    assert flags.type_i and not flags.type_ii and not flags.type_iii
    assert flags.finite_type and not flags.properly_non_finite
