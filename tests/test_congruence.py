"""Congruence axioms, splitting algebras, induced hulls, pair
decomposition, and comparability, against hand-checked fixtures."""

import random

import pytest

import oracles
from oracles import equality_relation, indiscrete_hull
from geadim import catalog, congruence as cg, core, dimension as dm, hull, theorems
from geadim.errors import NotDer, NotSkCongruence, OverlappingClasses, UnknownElement
from geadim.exocenter import ExoSet, exocenter


def _b4_merge():
    E = core.b4()
    return E, cg.build_equiv(E, [["a", "b"]])


def test_build_equiv():
    E, merge = _b4_merge()
    assert merge.classes == ((0,), (1, 2), (3,))
    eq = cg.build_equiv(core.c3(), [])
    assert eq.classes == ((0,), (1,), (2,))
    with pytest.raises(OverlappingClasses):
        cg.build_equiv(E, [["a", "b"], ["b", "1"]])
    with pytest.raises(UnknownElement):
        cg.build_equiv(E, [["a", "nope"]])


def test_relabeling_matches_sorted_groups():
    """Classes and ids agree with grouping the labels, sorting the groups
    and numbering them in that order, on labelings that are not dense."""
    rng = random.Random(7)
    E = core.b4()
    for _ in range(200):
        labels = [rng.randrange(-60, 120) for _ in range(E.n)]
        if rng.random() < 0.5:
            labels = [rng.choice(labels[:2]) for _ in range(E.n)]
        groups = {}
        for e, c in enumerate(labels):
            groups.setdefault(c, []).append(e)
        ordered = sorted(groups.values())
        class_of = [0] * E.n
        for cid, members in enumerate(ordered):
            for e in members:
                class_of[e] = cid
        for given in (labels, tuple(labels)):
            R = cg.EquivRel(E, given)
            assert R.classes == tuple(map(tuple, ordered))
            assert R.class_of == tuple(class_of)


def test_check_sk_passes_on_b4_merge():
    _, merge = _b4_merge()
    report = cg.check_sk(merge)
    assert report.sk
    assert report.first_failure() is None


def test_relation_memos_are_kept_per_relation():
    _, merge = _b4_merge()
    assert cg.check_sk(merge) is cg.check_sk(merge)
    assert cg._relation_masks(merge) is cg._relation_masks(merge)


def test_check_sk_answers_for_its_relation_model():
    """The report is memoized on the relation, so the same class ids on
    another model get that model's verdict, in either order."""
    C4 = core.build_gea(["0", "1", "2", "3"], "0",
                        [("1", "1", "2"), ("1", "2", "3")])
    for chain_first in (False, True):
        on_b4 = cg.build_equiv(core.b4(), [["a", "b"]])
        on_chain = cg.EquivRel(C4, on_b4.class_of)
        if chain_first:
            cg.check_sk(on_chain)
        assert cg.check_sk(on_b4).sk
        assert cg.check_sk(on_chain).first_failure() == ("SK2", (1, 1, 1, 2))


def test_check_sk_t3_equality_fails_sk4a():
    T3 = core.t3()
    report = cg.check_sk(equality_relation(T3))
    assert not report.sk
    assert report.first_failure() == ("SK4a", (1, 2))


def test_check_sk_c3_merged_fails_sk3d():
    C3 = core.c3()
    merged = cg.build_equiv(C3, [["1", "2"]])
    report = cg.check_sk(merged)
    assert not report.sk
    assert report.first_failure() == ("SK3d", (1, 1, 1))


def test_b4_sk_congruence_count():
    E = core.b4()
    passing = []
    import geadim.catalog as catalog

    for class_of in catalog.partitions_with_zero_singleton(E.n):
        R = cg.EquivRel(E, class_of)
        if cg.check_sk(R).sk:
            passing.append(R.classes)
    assert sorted(passing) == [
        ((0,), (1,), (2,), (3,)),
        ((0,), (1, 2), (3,)),
    ]


def test_relation_queries():
    C3 = core.c3()
    eq = equality_relation(C3)
    assert cg.subequiv(eq, 1, 2) and not cg.subequiv(eq, 2, 1)
    assert all(not cg.related(eq, 0, f) for f in range(3))
    _, merge = _b4_merge()
    assert not cg.is_hereditary(merge, {0, 1})  # b ~ a escapes the set
    assert cg.is_hereditary(merge, {0, 1, 2})
    assert cg.is_descendent(merge, 3, 1)


def _query_relations(E):
    """Every partition of ``E`` with zero alone, and two that put zero in
    a larger class, as relations."""
    partitions = list(catalog.partitions_with_zero_singleton(E.n))
    if E.n > 1:
        partitions += [[0] * E.n, [0, 0, *range(1, E.n - 1)]]
    return [cg.EquivRel(E, cls) for cls in partitions]


def _subsets(E):
    return [{e for e in range(E.n) if bits >> e & 1}
            for bits in range(1 << E.n)]


def _down_sets_and_summands(E):
    down = [S for S in _subsets(E) if all(set(E.below(h)) <= S for h in S)]
    return down + [set(pi.summand) for pi in exocenter(E)]


def _check_relation_queries(models, sets):
    """The memoized queries against the literal searches, on every pair
    and on each of ``sets(E)``; returns how often each query held and
    failed."""
    seen = [0] * 6
    for E in models:
        candidates = sets(E)
        for R in _query_relations(E):
            for e in range(E.n):
                for f in range(E.n):
                    rel = cg.related(R, e, f)
                    sub = cg.subequiv(R, e, f)
                    assert rel == oracles.related(R, e, f), (E.sum, R, e, f)
                    assert sub == oracles.subequiv(R, e, f), (E.sum, R, e, f)
                    seen[rel] += 1
                    seen[2 + sub] += 1
            for S in candidates:
                her = cg.is_hereditary(R, S)
                assert her == oracles.is_hereditary(R, S), (E.sum, R, S)
                seen[4 + her] += 1
    return seen


def test_relation_queries_match_the_literal_searches():
    models = oracles.catalog_models(6)
    assert all(_check_relation_queries(
        [E for E in models if E.n <= 5], _subsets))
    assert all(_check_relation_queries(
        [E for E in models if E.n == 6], _down_sets_and_summands))


@pytest.mark.slow
def test_relation_queries_match_the_literal_searches_n7():
    models = [E for E in oracles.catalog_models(7) if E.n == 7]
    assert all(_check_relation_queries(models, _down_sets_and_summands))


def test_sigma_sim():
    E, merge = _b4_merge()
    S = exocenter(E)
    eq = equality_relation(E)
    assert len(cg.sigma_sim(eq)) == 4
    sig = cg.sigma_sim(merge)
    assert set(sig.maps) == {S.zero, S.one}


def test_splitting_algebra_property_fires_on_a_wrong_sigma(monkeypatch):
    # the property filters the brute-force exocenter by the literal
    # splitting definition, so a Dgea holding any other sigma is caught
    E, merge = _b4_merge()
    S = exocenter(E)
    check = theorems.REGISTRY["splitting-algebra"].fn
    d = dm.Dgea(merge)
    assert check(d) == []
    for wrong in (S, ExoSet(E, [S.one])):
        monkeypatch.setattr(d, "sigma", wrong)
        assert check(d) == [
            "splitting algebra differs from the literal splitting filter"]


def test_induced_hull_contract_fires_on_a_wrong_hull(monkeypatch):
    _, merge = _b4_merge()
    S = exocenter(merge.E)
    check = theorems.REGISTRY["induced-hull-contract"].fn
    d = dm.Dgea(merge)
    assert check(d) == []
    # the exocentral cover system of the whole exocenter, not of {0, 1}
    monkeypatch.setattr(d, "hull", hull.gamma_hull(S))
    assert check(d) == ["hull map at a is not a splitting map",
                        "hull map at b is not a splitting map"]
    monkeypatch.setattr(d, "hull", hull.HullSystem(d.sigma, [S.one] * 4))
    assert check(d) == ["hull map at zero is not the zero map",
                        "hull map at 0 is not below a splitting map fixing it"]
    pa = hull.gamma_hull(S).eta(1)
    monkeypatch.setattr(d, "hull", hull.HullSystem(S, [S.zero, pa, pa, S.one]))
    assert "hull maps do not compose at (a, b)" in check(d)
    assert "hull map at b does not fix it" in check(d)


def test_induced_hull():
    E, merge = _b4_merge()
    S = exocenter(E)
    eq = equality_relation(E)
    h_eq = cg.induced_hull(eq, cg.sigma_sim(eq))
    assert h_eq.maps == hull.gamma_hull(S).maps
    h_merge = cg.induced_hull(merge, cg.sigma_sim(merge))
    assert h_merge.maps == indiscrete_hull(S).maps
    assert h_merge.eta(0).is_zero


def test_check_der():
    E, merge = _b4_merge()
    for R in (equality_relation(E), merge):
        sig = cg.sigma_sim(R)
        assert cg.check_der(R, sig, cg.induced_hull(R, sig)) is None
    C3 = core.c3()
    eq = equality_relation(C3)
    sig = cg.sigma_sim(eq)
    assert cg.check_der(eq, sig, cg.induced_hull(eq, sig)) is None


def test_check_der_requires_congruence():
    T3 = core.t3()
    eq = equality_relation(T3)
    with pytest.raises(NotSkCongruence):
        cg.sigma_sim(eq)
    S = exocenter(T3)
    with pytest.raises(NotSkCongruence):
        cg.check_der(eq, S, hull.gamma_hull(S))


def test_decompose_pair():
    C3 = core.c3()
    eq = equality_relation(C3)
    cg.check_sk(eq)
    assert cg.decompose_pair(eq, 1, 2) == (1, 0, 1, 1)
    assert cg.decompose_pair(eq, 0, 0) == (0, 0, 0, 0)
    _, merge = _b4_merge()
    cg.check_sk(merge)
    assert cg.decompose_pair(merge, 1, 2) == (1, 0, 2, 0)


def test_comparability():
    C3 = core.c3()
    dc = dm.Dgea(equality_relation(C3))
    d = dm.comparability(dc, 1, 2)
    assert dc.hull.eta(d).is_identity
    assert dm.comparability(dc, 1, 1) == 0
    _, merge = _b4_merge()
    dmerge = dm.Dgea(merge)
    db = dm.comparability(dmerge, 1, 3)
    assert dmerge.hull.eta(db).is_identity


def test_comparability_requires_der():
    E = core.b4()
    raw = cg.build_equiv(E, [["a", "1"]])  # not a congruence
    with pytest.raises(NotDer):
        dm.comparability(dm.Dgea(raw), 1, 2)
    d = dm.Dgea(_b4_merge()[1])
    d.sk4a_prime = (1, 2)  # as for a congruence that fails SK4a'
    with pytest.raises(NotDer):
        dm.comparability(d, 1, 2)


def test_induced_hull_is_the_meet_of_the_splitting_maps_fixing_each_element():
    checked = 0
    for entry in catalog.cached_entries(6):
        E = entry.table
        for d in catalog.congruences(E):
            sigma = d.sigma
            maps = []
            for e in range(E.n):
                fixing = [pi for pi in sigma if pi(e) == e]
                assert fixing
                maps.append(sigma.meet_all(fixing))
            assert d.hull.maps == tuple(maps)
            checked += 1
    assert checked == 18  # congruences on the models up to n = 6
