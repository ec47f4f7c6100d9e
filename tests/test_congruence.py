"""Congruence axioms, splitting algebras, induced hulls, pair
decomposition, and comparability, against hand-checked fixtures."""

import random
from types import SimpleNamespace

import pytest

import oracles
from oracles import equality_relation, indiscrete_hull
from geadim import catalog, congruence as cg, core, dimension as dm, hull, theorems
from geadim.errors import NotDer, NotSkCongruence, OverlappingClasses, UnknownElement
from geadim.exocenter import ExoSet, exocenter, fixed_points, is_identity


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
    down = [S for S in _subsets(E) if all(set(E.below[h]) <= S for h in S)]
    return down + [set(fixed_points(pi)) for pi in exocenter(E)]


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
    monkeypatch.setattr(d, "sigma", S)
    assert check(d) == [
        "splitting algebra differs from the literal splitting filter"]
    monkeypatch.setattr(d, "sigma", ExoSet(E, [S.one]))
    assert check(d) == [
        "splitting algebra differs from the literal splitting filter",
        "splitting algebra misses 0 or 1"]


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
    # eta_0 = 1 also meets every hull map, though 0 is unrelated to all
    monkeypatch.setattr(d, "hull", hull.HullSystem(d.sigma, [S.one] * 4))
    assert check(d) == [
        "hull map at zero is not the zero map",
        "hull map at 0 is not below a splitting map fixing it",
    ] + [f"separation and hull-meet forms disagree at {pair}"
         for pair in ("(0, 0)", "(0, a)", "(0, b)", "(0, 1)",
                      "(a, 0)", "(b, 0)", "(1, 0)")]
    pa = hull.gamma_hull(S).maps[1]
    monkeypatch.setattr(d, "hull", hull.HullSystem(S, [S.zero, pa, pa, S.one]))
    assert "hull maps do not compose at (a, b)" in check(d)
    assert "hull map at b does not fix it" in check(d)


def test_splitting_algebra_compares_the_four_characterizations(monkeypatch):
    # with no hereditary summand, reading (c) denies the two splitting
    # maps of the merge and agrees with (a), (b) and (d) on the others
    E, merge = _b4_merge()
    check = theorems.REGISTRY["splitting-algebra"].fn
    d = dm.Dgea(merge)
    assert check(d) == []
    monkeypatch.setattr(cg, "is_hereditary", lambda R, S: False)
    assert check(d) == ["splitting characterizations disagree for (0, 0, 0, 0)",
                        "splitting characterizations disagree for (0, 1, 2, 3)"]


def _split_only(monkeypatch, d, maps):
    """Give ``d`` the splitting algebra ``maps`` and make the brute-force
    exocenter the same set, so that the literal filter agrees with it."""
    wrong = ExoSet(d.E, maps)
    monkeypatch.setattr(d, "sigma", wrong)
    monkeypatch.setattr(theorems, "brute_force_exomaps", lambda E: wrong)


def test_splitting_algebra_fires_on_a_set_without_zero(monkeypatch):
    E, merge = _b4_merge()
    check = theorems.REGISTRY["splitting-algebra"].fn
    d = dm.Dgea(merge)
    assert check(d) == []
    _split_only(monkeypatch, d, [exocenter(E).one])
    assert check(d) == ["splitting algebra misses 0 or 1"]


def test_splitting_algebra_fires_on_a_set_not_closed_under_complement(
        monkeypatch):
    E = core.b4()
    S = exocenter(E)
    check = theorems.REGISTRY["splitting-algebra"].fn
    d = dm.Dgea(equality_relation(E))
    assert check(d) == []
    pa = (0, 1, 0, 1)  # the projection onto a; its complement is onto b
    _split_only(monkeypatch, d, [S.zero, pa, S.one])
    assert check(d) == [
        "splitting algebra is not closed under complement at (0, 1, 0, 1)"]


def test_splitting_algebra_fires_on_a_set_not_closed_under_meet_and_join(
        monkeypatch):
    # on the 2 x 2 x 2 cube (subsets of three atoms) the projection onto
    # the atoms of a mask m is x -> x & m.  The projections onto atoms 1
    # and 2 and their complements are closed under complement, but the
    # complements meet in the projection onto atom 4, which is missing,
    # and the two atoms join to its complement, which is missing too
    E = core.GeaTable(
        [str(i) for i in range(8)],
        [[a | b if not a & b else -1 for b in range(8)] for a in range(8)])
    onto = {m: tuple(x & m for x in range(8)) for m in range(8)}
    check = theorems.REGISTRY["splitting-algebra"].fn
    d = dm.Dgea(equality_relation(E))
    assert check(d) == []
    _split_only(monkeypatch, d, [onto[m] for m in (0, 1, 2, 5, 6, 7)])
    assert check(d) == [
        f"splitting algebra is not closed under join at {onto[2]!r}, {onto[1]!r}",
        f"splitting algebra is not closed under meet at {onto[6]!r}, {onto[5]!r}",
    ]


def test_induced_hull_contract_compares_kills_with_disjointness(monkeypatch):
    # a meet that wrongly makes p_a and p_b disjoint from eta_1 = 1
    E = core.b4()
    check = theorems.REGISTRY["induced-hull-contract"].fn
    d = dm.Dgea(equality_relation(E))
    assert check(d) == []
    S = d.sigma
    real = S.meet
    monkeypatch.setattr(S, "meet", lambda p, q: S.zero if q == S.one and p != q
                        else real(p, q))
    assert check(d) == [
        "kill/disjointness equivalence fails at 1 for (0, 0, 2, 2)",
        "kill/disjointness equivalence fails at 1 for (0, 1, 0, 1)",
    ]


def test_induced_hull_contract_compares_separation_with_hull_meets(
        monkeypatch):
    # the unrelated a and b are separated by p_a, but their hull maps
    # p_a and p_b are said to meet
    E = core.b4()
    check = theorems.REGISTRY["induced-hull-contract"].fn
    d = dm.Dgea(equality_relation(E))
    assert check(d) == []
    S = d.sigma
    real = S.disjoint
    apart = {(0, 1, 0, 1), (0, 0, 2, 2)}
    monkeypatch.setattr(S, "disjoint",
                        lambda p, q: {p, q} != apart and real(p, q))
    assert check(d) == ["separation and hull-meet forms disagree at (a, b)",
                        "separation and hull-meet forms disagree at (b, a)"]


def test_induced_hull():
    E, merge = _b4_merge()
    S = exocenter(E)
    eq = equality_relation(E)
    h_eq = cg.induced_hull(cg.sigma_sim(eq))
    assert h_eq.maps == hull.gamma_hull(S).maps
    h_merge = cg.induced_hull(cg.sigma_sim(merge))
    assert h_merge.maps == indiscrete_hull(S).maps
    assert not any(h_merge.maps[0])


def test_check_der():
    E, merge = _b4_merge()
    for R in (equality_relation(E), merge):
        assert cg.check_der(R, cg.sigma_sim(R)) is None
    C3 = core.c3()
    eq = equality_relation(C3)
    assert cg.check_der(eq, cg.sigma_sim(eq)) is None


def test_check_der_requires_congruence():
    T3 = core.t3()
    eq = equality_relation(T3)
    with pytest.raises(NotSkCongruence):
        cg.sigma_sim(eq)
    S = exocenter(T3)
    with pytest.raises(NotSkCongruence):
        cg.check_der(eq, S)


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
    assert is_identity(dc.hull.maps[d])
    assert dm.comparability(dc, 1, 1) == 0
    _, merge = _b4_merge()
    dmerge = dm.Dgea(merge)
    db = dm.comparability(dmerge, 1, 3)
    assert is_identity(dmerge.hull.maps[db])


def test_comparability_requires_der():
    E = core.b4()
    raw = cg.build_equiv(E, [["a", "1"]])  # not a congruence
    with pytest.raises(NotDer):
        dm.comparability(dm.Dgea(raw), 1, 2)
    d = dm.Dgea(_b4_merge()[1])
    d.sk4a_prime = (1, 2)  # as for a congruence that fails SK4a'
    with pytest.raises(NotDer):
        dm.comparability(d, 1, 2)


def test_general_comparability_fires_on_a_wrong_hull(monkeypatch):
    # with every hull map zero, f must be below-equivalent to e in the
    # complement, the identity; on the chain that fails for each e < f
    check = theorems.REGISTRY["general-comparability"].fn
    d = dm.Dgea(equality_relation(core.c3()))
    assert check(d) == []
    monkeypatch.setattr(d, "hull", SimpleNamespace(maps=(d.sigma.zero,) * 3))
    assert check(d) == ["comparability contract fails"] * 3


def test_a_broken_pair_split_is_reported_under_pair_decomposition_alone(
        monkeypatch):
    # no equivalent part found, as when the greedy loop never grows: every
    # related pair breaks the contract, and the comparability that reads
    # the split does not repeat the message
    pair = theorems.REGISTRY["pair-decomposition"].fn
    comparability = theorems.REGISTRY["general-comparability"].fn
    d = dm.Dgea(_b4_merge()[1])
    assert pair(d) == [] and comparability(d) == []
    monkeypatch.setattr(cg, "decompose_pair", lambda R, p, q: (0, p, 0, q))
    assert pair(d) == [
        f"pair decomposition contract fails for ({p}, {q})"
        for p in "ab1"
        for q in "ab1"
    ]
    assert not any("pair decomposition" in m for m in comparability(d))


def test_induced_hull_is_the_meet_of_the_splitting_maps_fixing_each_element():
    checked = 0
    for entry in catalog.cached_entries(6):
        E = entry.table
        for d in catalog.congruences(E):
            sigma = d.sigma
            maps = []
            for e in range(E.n):
                fixing = [pi for pi in sigma if pi[e] == e]
                assert fixing
                maps.append(sigma.meet_all(fixing))
            assert d.hull.maps == tuple(maps)
            checked += 1
    assert checked == 18  # congruences on the models up to n = 6
