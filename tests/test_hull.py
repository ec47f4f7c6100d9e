"""Hull systems, hull-determining sets, divisibility, and type-determining
subsets, on the shipped fixtures."""

import itertools

import pytest

import oracles
from oracles import indiscrete_hull
from geadim import catalog, congruence as cg, core, hull, theorems
from geadim.errors import InternalInvariant, MapNotInExocenter, NotHullDetermining
from geadim.exocenter import (
    ExoSet,
    disjoint_families,
    exocentral_cover,
    exocenter,
    fixed_points,
    is_identity,
)


def _b4():
    E = core.b4()
    S = exocenter(E)
    return E, S


def test_gamma_and_indiscrete_are_hull_systems():
    _, S = _b4()
    ok, _ = hull.check_hull_system(S, cg.induced_hull(S).maps)
    assert ok
    ok, _ = hull.check_hull_system(S, indiscrete_hull(S).maps)
    assert ok


def test_broken_family_rejected():
    _, S = _b4()
    pb = next(m for m in S if fixed_points(m) == (0, 2))
    ok, witness = hull.check_hull_system(S, [S.zero, S.zero, pb, S.one])
    assert not ok and "HS2" in witness
    pa = next(m for m in S if fixed_points(m) == (0, 1))
    # eta_a o eta_b = p_a, but eta_(eta_a b) = eta_0 = 0
    assert hull.check_hull_system(S, [S.zero, pa, S.one, S.one]) == (
        False, "HS3 fails at (a, b)")


def test_hs3_witness_is_the_least_failing_pair():
    # on the 2 x 2 x 2 cube (subsets of three atoms) this family fails HS3
    # at (1, 6), (2, 5), (3, 5) and (3, 6): the witness is the least pair,
    # not the first in f-major order
    cube = core.GeaTable(
        [str(i) for i in range(8)],
        [[a | b if not a & b else -1 for b in range(8)] for a in range(8)])
    S = exocenter(cube)
    maps = [tuple(x & mask for x in range(8))
            for mask in (0, 1, 2, 3, 4, 7, 7, 7)]
    assert all(m in S for m in maps)
    assert hull.check_hull_system(S, maps) == (False, "HS3 fails at (1, 6)")


def test_alien_map_rejected():
    _, S = _b4()
    C3 = core.c3()
    alien = exocenter(C3).one
    with pytest.raises(MapNotInExocenter):
        hull.check_hull_system(S, [S.zero, alien, S.one, S.one])


@pytest.mark.parametrize("build, error, message", [
    (lambda E, S: hull.HullSystem(S, [S.zero]), ValueError,
     "need one map per element"),
    (lambda E, S: hull.hull_from_hd(E, [exocenter(core.c3()).one]),
     MapNotInExocenter, "(0, 1, 2)"),
    (lambda E, S: hull.hull_from_hd(E, []), NotHullDetermining,
     "HD1 fails: no smallest map fixing 0"),
], ids=["map-count", "alien-map", "no-map-fixes-zero"])
def test_bad_inputs_are_rejected(build, error, message):
    E, S = _b4()
    with pytest.raises(error) as err:
        build(E, S)
    assert type(err.value) is error and str(err.value) == message


def test_hull_from_hd():
    E, S = _b4()
    assert hull.hull_from_hd(E, [S.zero, S.one]).maps == indiscrete_hull(S).maps
    assert hull.hull_from_hd(E, list(S)).maps == cg.induced_hull(S).maps
    pa = next(m for m in S if fixed_points(m) == (0, 1))
    with pytest.raises(NotHullDetermining) as err:
        hull.hull_from_hd(E, [pa, S.one])
    assert err.value.condition == "HD2"


def test_enumerate_hull_systems():
    E, S = _b4()
    systems = [H.maps for H in hull.enumerate_hull_systems(E)]
    assert len(systems) == 2
    assert cg.induced_hull(S).maps in systems
    assert indiscrete_hull(S).maps in systems
    C3 = core.c3()
    assert len(hull.enumerate_hull_systems(C3)) == 1


def _assignments(E):
    """The exocenter of ``E`` and every assignment of one of its maps
    fixing e to each element e."""
    S = exocenter(E)
    fixing = [[m for m in S if m[e] == e] for e in range(E.n)]
    return S, itertools.product(*fixing)


def test_enumerate_hull_systems_matches_bruteforce():
    # oracle: filter every assignment of exocenter maps to elements
    for entry in catalog.cached_entries(6):
        E = entry.table
        S, assignments = _assignments(E)
        brute = set()
        for maps in assignments:
            if hull.check_hull_system(S, maps)[0]:
                brute.add(tuple(maps))
        fast = {h.maps for h in hull.enumerate_hull_systems(E)}
        assert fast == brute


def test_check_hull_system_matches_the_literal_hs3():
    # every assignment the filter above tries, passing or not
    verdicts = set()
    for entry in catalog.cached_entries(6):
        S, assignments = _assignments(entry.table)
        for maps in assignments:
            got = hull.check_hull_system(S, maps)
            assert got == oracles.check_hull_system(S, maps), maps
            verdicts.add(got[1] is None or got[1][:3])
    assert verdicts == {True, "HS1", "HS3"}
    # two maps of the chain 0 < 1 < 2 that do not commute
    E = core.c3()
    a, b = (0, 1, 0), (0, 2, 2)
    maps = [(0, 0, 0), a, b]
    S = ExoSet(E, maps)
    expected = (False, "HS3 fails at (1, 2)")
    assert hull.check_hull_system(S, maps) == expected
    assert oracles.check_hull_system(S, maps) == expected


def test_hull_meet_projections_fires_on_swapped_maps(monkeypatch):
    # the exocentral cover system of B4 with the maps of a and b swapped,
    # so each of a and b is killed by its own hull map
    E, S = _b4()
    check = theorems.REGISTRY["hull-meet-projections"].fn
    assert check(E) == []
    zero, pa, pb, one = cg.induced_hull(S).maps
    swapped = hull.HullSystem(S, [zero, pb, pa, one])
    monkeypatch.setattr(theorems.hull_mod, "enumerate_hull_systems",
                        lambda E: (swapped,))
    assert check(E) == [
        "nonzero-meet criterion fails at (a, a)",
        "non-orthogonal pair projects to zero at (a, a)",
        "projected pair differs in hull at (a, b)",
        "nonzero-meet criterion fails at (a, b)",
        "projected pair differs in hull at (a, 1)",
        "projected pair differs in hull at (b, a)",
        "nonzero-meet criterion fails at (b, a)",
        "nonzero-meet criterion fails at (b, b)",
        "non-orthogonal pair projects to zero at (b, b)",
        "projected pair differs in hull at (b, 1)",
        "projected pair differs in hull at (1, a)",
        "projected pair differs in hull at (1, b)",
    ]


def test_sim_eta():
    _, S = _b4()
    ind, gam = indiscrete_hull(S), cg.induced_hull(S)
    assert ind.maps[1] == ind.maps[2]
    assert gam.maps[1] != gam.maps[2]
    assert gam.maps[1] == gam.maps[1]


def test_classify_eta():
    _, S = _b4()
    ind = indiscrete_hull(S)
    assert not hull.is_monad(ind, 3) and hull.is_dyad(ind, 3)
    assert is_identity(ind.maps[3])
    assert hull.is_monad(ind, 0) and hull.is_dyad(ind, 0)
    assert not is_identity(ind.maps[0])
    C3 = core.c3()
    H = hull.enumerate_hull_systems(C3)[0]
    assert not hull.is_monad(H, 2) and is_identity(H.maps[2])


def test_divisibility():
    _, S = _b4()
    assert hull.is_divisible(cg.induced_hull(S))
    assert not hull.is_divisible(indiscrete_hull(S))
    T3 = core.t3()
    ST = exocenter(T3)
    assert hull.is_divisible(indiscrete_hull(ST))


def test_divisibility_is_cached_and_reads_no_dyads(monkeypatch):
    # the dyad criterion is compared in divisibility-dyad-criterion, so a
    # broken dyad reading leaves the verdict as it is
    _, S = _b4()
    gam = cg.induced_hull(S)
    assert hull.is_divisible(gam) is True
    ind = indiscrete_hull(S)
    monkeypatch.setattr(hull, "is_dyad", lambda H, p: False)
    assert hull.is_divisible(ind) is False
    assert hull.is_divisible(cg.induced_hull(S)) is True  # a fresh memo
    # the verdict is kept on the hull system: a second call reads no pairs
    monkeypatch.setattr(hull, "split_pairs", None)
    assert hull.is_divisible(gam) is True


def test_divisibility_dyad_criterion_compares_each_triple(monkeypatch):
    # with no dyads, every triple (p, s, t) at which p splits along
    # s + t disagrees; in C3, 1 does not split as 1 + 1, so (1, 1, 1)
    # agrees
    E = core.c3()
    check = theorems.REGISTRY["divisibility-dyad-criterion"].fn
    assert check(E) == []
    monkeypatch.setattr(hull, "is_dyad", lambda H, p: False)
    assert check(E) == [
        f"divisibility checks disagree at {t}"
        for t in ("(0, 0, 0)", "(1, 0, 1)", "(1, 0, 2)", "(1, 1, 0)",
                  "(1, 2, 0)", "(2, 0, 1)", "(2, 0, 2)", "(2, 1, 0)",
                  "(2, 1, 1)", "(2, 2, 0)")
    ]


def test_td_table_is_cached_but_failures_are_not(monkeypatch):
    _, S = _b4()
    gam = cg.induced_hull(S)
    assert hull.td_table(gam) is hull.td_table(gam)
    assert hull._td_parts(gam) is hull._td_parts(gam)
    ind = indiscrete_hull(S)
    real = hull.disjoint_families
    monkeypatch.setattr(hull, "disjoint_families", lambda *args: [
        (pick, None) for pick, _ in real(*args)])
    for _ in range(2):
        with pytest.raises(InternalInvariant, match="not orthosummable"):
            hull.td_table(ind)
    for _ in range(2):
        with pytest.raises(InternalInvariant, match="not orthosummable"):
            hull.td_sets(ind, [0])


def test_td_sets():
    C3 = core.c3()
    H = hull.enumerate_hull_systems(C3)[0]
    rep = hull.td_sets(H, [0, 1])
    assert rep.eta_std and rep.eta_td and rep.t_star == 1
    _, S = _b4()
    gam = cg.induced_hull(S)
    rep = hull.td_sets(gam, [0, 1])
    assert rep.eta_td and rep.t_star == 1
    assert hull.td_sets(gam, [0]).eta_td
    # not closed under hull-orthogonal sums: a, b are eta-disjoint
    rep = hull.td_sets(gam, [0, 1, 2])
    assert not rep.eta_td and rep.t_star is None


def test_sk3e_split_eta():
    _, S = _b4()
    gam = cg.induced_hull(S)
    assert oracles.sk3e_split_eta(gam, 1, 2, 1, 2) == (1, 0, 0, 2)
    assert oracles.sk3e_split_eta(gam, 1, 2, 2, 1) == (0, 1, 2, 0)
    C3 = core.c3()
    H = hull.enumerate_hull_systems(C3)[0]
    assert oracles.sk3e_split_eta(H, 1, 1, 2, 0) == (1, 0, 1, 0)
    with pytest.raises(ValueError):
        oracles.sk3e_split_eta(gam, 1, 1, 1, 2)


def _grid_verdicts_match_the_oracle(models, monkeypatch):
    """Compare the verdict of ``hull-grid-refinement`` on every (H, e, f, s)
    with ``oracles.sk3e_split_eta``, for every hull system H of the models
    and for each family made from one by setting the map of one nonzero
    element to the zero map, on which some splittings have no grid;
    returns the numbers of (H, e, f, s) compared and of those without a
    grid."""
    enumerate_systems = hull.enumerate_hull_systems
    prop = theorems.REGISTRY["hull-grid-refinement"].fn
    checked = missing = 0
    for E in models:
        S = exocenter(E)
        systems = []
        for H in enumerate_systems(E):
            systems.append(H)
            for x in range(1, E.n):
                if any(H.maps[x]):
                    maps = list(H.maps)
                    maps[x] = S.zero
                    systems.append(hull.HullSystem(S, maps))
        want = []
        for H in systems:
            for e in range(E.n):
                for f in range(E.n):
                    v = E.sum[e][f]
                    if v < 0:
                        continue
                    for s in E.below[v]:
                        t = E.diff[v][s]
                        checked += 1
                        try:
                            oracles.sk3e_split_eta(H, e, f, s, t)
                        except InternalInvariant:
                            names = ", ".join(E.names[x] for x in (e, f, s, t))
                            want.append(f"no hull-matched grid for ({names})")
        monkeypatch.setattr(hull, "enumerate_hull_systems", lambda E: systems)
        assert prop(E) == want, E.sum
        missing += len(want)
    return checked, missing


def test_grid_verdicts_match_the_oracle(monkeypatch):
    models = oracles.catalog_models(6)
    assert _grid_verdicts_match_the_oracle(models, monkeypatch) == (13753, 271)


@pytest.mark.slow
def test_grid_verdicts_match_the_oracle_n7(monkeypatch):
    models = [E for E in oracles.catalog_models(7) if E.n == 7]
    assert _grid_verdicts_match_the_oracle(models, monkeypatch) == (55027, 1414)


def test_hull_grid_refinement_fires_on_a_swapped_map(monkeypatch):
    # a + a = b + b = u: with eta_a swapped for the zero map, a + a has no
    # grid matching b + b, whose terms keep the identity
    E = core.build_gea(["0", "u", "a", "b"], "0", [("a", "a", "u"), ("b", "b", "u")])
    S = exocenter(E)
    a = E.names.index("a")
    maps = list(indiscrete_hull(S).maps)
    maps[a] = S.zero
    swapped = hull.HullSystem(S, maps)
    monkeypatch.setattr(hull, "enumerate_hull_systems", lambda E: (swapped,))
    assert theorems.REGISTRY["hull-grid-refinement"].fn(E) == [
        "no hull-matched grid for (a, a, b, b)",
        "no hull-matched grid for (b, b, a, a)",
    ]


def test_eta_orthosum_supremum_fires_on_both_branches(monkeypatch):
    E = core.b4()
    families = [((), 0), ((1,), None), ((1, 2), 1)]
    monkeypatch.setattr(theorems, "disjoint_families", lambda *args: families)
    out = theorems.REGISTRY["eta-orthosum-supremum"].fn(E)
    assert out == [
        "hull-orthogonal family not summable: (a)",
        "orthosum is not the supremum for (a, b)",
    ] * len(hull.enumerate_hull_systems(E))


def _bits(xs):
    return sum(1 << x for x in xs)


def _td_table_matches_td_sets(entries):
    """Compare ``td_table`` and ``td_sets`` with the oracle ``td_sets`` on
    every (hull system, subset), and ``is_divisible`` with the oracle on
    every hull system.  The hull systems are those of each model and the
    induced hull (over the splitting algebra) of each of its congruences.
    Returns the numbers of pairs, of hull systems on the models and of
    induced hulls."""
    pairs = systems = induced = 0
    for entry in entries:
        E = entry.table
        own = list(hull.enumerate_hull_systems(E))
        hulls = [d.hull for d in catalog.congruences(E)]
        for H in own + hulls:
            closure, image, ideal, _ = hull.td_table(H)
            for mask in range(1 << E.n):
                T = [x for x in range(E.n) if mask >> x & 1]
                rep = oracles.td_sets(H, T)
                assert closure[mask] == _bits(rep.closure)
                assert image[mask] == _bits(rep.image)
                assert (mask == closure[mask] == image[mask]) == rep.eta_td
                assert (mask == closure[mask] == ideal[mask]) == rep.eta_std
                assert hull.td_sets(H, T) == (rep.eta_td, rep.eta_std, rep.t_star)
                pairs += 1
            assert hull.is_divisible(H) == oracles.is_divisible(H)
        systems += len(own)
        induced += len(hulls)
    return pairs, systems, induced


def test_td_table_matches_td_sets():
    assert _td_table_matches_td_sets(catalog.cached_entries(6)) == (3556, 59, 18)


@pytest.mark.slow
def test_td_table_matches_td_sets_n7():
    assert _td_table_matches_td_sets(catalog.cached_entries(7)) == (19300, 178, 22)


def _td_largest_b4():
    E = core.b4()
    return theorems.REGISTRY["td-largest-map"].fn(E), len(hull.enumerate_hull_systems(E))


def test_td_largest_map_reports_an_unsummable_family(monkeypatch):
    real = hull.disjoint_families
    monkeypatch.setattr(hull, "disjoint_families", lambda *args: [
        (pick, total if not pick else None) for pick, total in real(*args)])
    out, systems = _td_largest_b4()
    assert out == ["eta-orthogonal family (1,) is not orthosummable"] * systems


def test_td_largest_map_reports_std_but_not_td(monkeypatch):
    real = hull.td_table

    def widened(H):
        closure, image, ideal, under = real(H)
        image = list(image)
        image[1] |= 0b10  # T = {0} keeps its closure and ideal
        return closure, image, ideal, under

    monkeypatch.setattr(hull, "td_table", widened)
    out, systems = _td_largest_b4()
    assert out == [
        "strongly type-determining set is not type-determining for T=(0)"
    ] * systems


def test_td_largest_map_reports_a_missing_largest_map(monkeypatch):
    monkeypatch.setattr(ExoSet, "leq", lambda self, p, q: False)
    out, systems = _td_largest_b4()
    assert len(out) >= systems
    assert out[0] == "type-determining set has no largest hull map for T=(0)"
    assert all("no largest hull map" in v for v in out)


def _literal_disjoint_families(maps, elements):
    """Every subset of ``elements`` whose maps pairwise compose to the zero
    map, read off the image tuples, in order of size and then of the
    sorted tuples."""
    out = []
    for mask in range(1 << len(elements)):
        pick = tuple(e for i, e in enumerate(elements) if mask >> i & 1)
        if all(
            all(maps[a][maps[b][x]] == 0 for x in range(len(maps)))
            for i, a in enumerate(pick)
            for b in pick[i + 1:]
        ):
            out.append(pick)
    return sorted(out, key=lambda pick: (len(pick), pick))


def test_disjoint_families_match_literal_filter():
    checked = 0
    for entry in catalog.cached_entries(6):
        E = entry.table
        S = exocenter(E)
        nonzero = list(range(1, E.n))
        for H in hull.enumerate_hull_systems(E):
            got = [pick for pick, _ in disjoint_families(S, H.maps)]
            assert got == _literal_disjoint_families(H.maps, nonzero)
            checked += 1
    assert checked == 59  # hull systems on the models up to n = 6


def _families_match_the_oracles(models):
    """Compare the (family, orthosum) pairs of ``disjoint_families``, order
    included, with the literal filter and the sum over every ordering, on
    the exocentral covers and on every hull system of each model; returns
    the number of families compared."""
    checked = 0
    for E in models:
        S = exocenter(E)
        nonzero = range(1, E.n)
        covers = [exocentral_cover(S, e) for e in range(E.n)]
        for maps in [covers] + [H.maps for H in hull.enumerate_hull_systems(E)]:
            got = disjoint_families(S, maps)
            want = [(pick, oracles.orthosum_family(E, pick))
                    for pick in oracles.disjoint_families(S, maps, nonzero)]
            assert got == want, (E.sum, maps)
            checked += len(got)
    return checked


def test_disjoint_families_carry_their_orthosums():
    assert _families_match_the_oracles(oracles.catalog_models(7)) == 2290


@pytest.mark.slow
def test_disjoint_families_carry_their_orthosums_n8():
    models = [E for E in oracles.catalog_models(8) if E.n == 8]
    assert _families_match_the_oracles(models) == 8047


@pytest.mark.parametrize("name", ["hull-roundtrip", "eta-splitting-roundtrip"])
def test_roundtrip_properties_catch_only_package_errors(name, monkeypatch):
    def not_determining(E, theta):
        raise NotHullDetermining("HD1", "forced")

    monkeypatch.setattr(hull, "hull_from_hd", not_determining)
    results = theorems.run_theorem_suite(4, theorems=[name])
    violations = results["properties"][name]["violations"]
    assert violations
    assert all("forced" in v["detail"] for v in violations)

    def broken(E, theta):
        raise TypeError("a programming error")

    monkeypatch.setattr(hull, "hull_from_hd", broken)
    with pytest.raises(TypeError, match="a programming error"):
        theorems.run_theorem_suite(4, theorems=[name])
