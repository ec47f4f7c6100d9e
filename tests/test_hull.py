"""Hull systems, hull-determining sets, divisibility, and type-determining
subsets, on the shipped fixtures."""

import pytest

from geadim import core, hull
from geadim.errors import MapNotInExocenter, NotHullDetermining
from geadim.exocenter import exocenter


def _b4():
    E = core.b4()
    S = exocenter(E)
    return E, S


def test_gamma_and_indiscrete_are_hull_systems():
    E, S = _b4()
    ok, _ = hull.check_hull_system(E, S, hull.gamma_hull(E, S).maps)
    assert ok
    ok, _ = hull.check_hull_system(E, S, hull.indiscrete_hull(E, S).maps)
    assert ok


def test_broken_family_rejected():
    E, S = _b4()
    pb = next(m for m in S if m.summand == (0, 2))
    ok, witness = hull.check_hull_system(E, S, [S.zero, S.zero, pb, S.one])
    assert not ok and "HS2" in witness


def test_alien_map_rejected():
    E, S = _b4()
    C3 = core.c3()
    alien = exocenter(C3).one
    with pytest.raises(MapNotInExocenter):
        hull.check_hull_system(E, S, [S.zero, alien, S.one, S.one])


def test_hull_from_hd():
    E, S = _b4()
    assert hull.hull_from_hd(E, S, [S.zero, S.one]) == hull.indiscrete_hull(E, S)
    assert hull.hull_from_hd(E, S, list(S)) == hull.gamma_hull(E, S)
    pa = next(m for m in S if m.summand == (0, 1))
    with pytest.raises(NotHullDetermining) as err:
        hull.hull_from_hd(E, S, [pa, S.one])
    assert err.value.condition == "HD2"


def test_enumerate_hull_systems():
    E, S = _b4()
    systems = hull.enumerate_hull_systems(E, S)
    assert len(systems) == 2
    assert hull.gamma_hull(E, S) in systems
    assert hull.indiscrete_hull(E, S) in systems
    C3 = core.c3()
    assert len(hull.enumerate_hull_systems(C3, exocenter(C3))) == 1


def test_enumerate_hull_systems_matches_bruteforce():
    # oracle: filter every assignment of exocenter maps to elements
    import itertools

    from geadim import catalog

    for entry in catalog.cached_entries(4):
        E = entry.table
        S = exocenter(E)
        fixing = [[m for m in S if m(e) == e] for e in range(E.n)]
        brute = set()
        for maps in itertools.product(*fixing):
            if hull.check_hull_system(E, S, maps)[0]:
                brute.add(tuple(maps))
        fast = {h.maps for h in hull.enumerate_hull_systems(E, S)}
        assert fast == brute


def test_sim_eta():
    E, S = _b4()
    ind, gam = hull.indiscrete_hull(E, S), hull.gamma_hull(E, S)
    assert hull.sim_eta(ind, 1, 2)
    assert not hull.sim_eta(gam, 1, 2)
    assert hull.sim_eta(gam, 1, 1)


def test_classify_eta():
    E, S = _b4()
    ind = hull.indiscrete_hull(E, S)
    top = hull.classify_eta(ind, 3)
    assert not top.monad and top.dyad and top.faithful
    zero = hull.classify_eta(ind, 0)
    assert zero.monad and zero.dyad and not zero.faithful
    C3 = core.c3()
    H = hull.enumerate_hull_systems(C3, exocenter(C3))[0]
    two = hull.classify_eta(H, 2)
    assert not two.monad and two.faithful


def test_divisibility():
    E, S = _b4()
    assert hull.is_divisible(E, hull.gamma_hull(E, S)).divisible
    rep = hull.is_divisible(E, hull.indiscrete_hull(E, S))
    assert not rep.divisible
    assert rep.witness == (1, 1, 2)  # the atom cannot split the top's class
    T3 = core.t3()
    ST = exocenter(T3)
    assert hull.is_divisible(T3, hull.indiscrete_hull(T3, ST)).divisible


def test_td_sets():
    C3 = core.c3()
    H = hull.enumerate_hull_systems(C3, exocenter(C3))[0]
    rep = hull.td_sets(C3, H, [0, 1])
    assert rep.eta_std and rep.eta_td and rep.t_star == 1
    E, S = _b4()
    gam = hull.gamma_hull(E, S)
    rep = hull.td_sets(E, gam, [0, 1])
    assert rep.eta_td and rep.t_star == 1
    assert hull.td_sets(E, gam, [0]).eta_td
    # not closed under hull-orthogonal sums: a, b are eta-disjoint
    rep = hull.td_sets(E, gam, [0, 1, 2])
    assert not rep.eta_td and rep.t_star is None


def test_sk3e_split_eta():
    E, S = _b4()
    gam = hull.gamma_hull(E, S)
    assert hull.sk3e_split_eta(E, gam, 1, 2, 1, 2) == (1, 0, 0, 2)
    assert hull.sk3e_split_eta(E, gam, 1, 2, 2, 1) == (0, 1, 2, 0)
    C3 = core.c3()
    H = hull.enumerate_hull_systems(C3, exocenter(C3))[0]
    assert hull.sk3e_split_eta(C3, H, 1, 1, 2, 0) == (1, 0, 1, 0)
    with pytest.raises(ValueError):
        hull.sk3e_split_eta(E, gam, 1, 1, 1, 2)
