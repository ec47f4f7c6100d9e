"""Exocenter maps, their boolean algebra, the center, and covers.

The expected map counts are frozen only after the atom search confirms
them; that search stays the independent oracle for the ideal-pair
construction throughout, and ``tests/test_kernels.py`` checks it against
the filter of all self-maps.
"""

import pytest

import oracles
from geadim import catalog, congruence as cg, core, exocenter as exo, theorems
from geadim.errors import InternalInvariant
from geadim.exocenter import (
    ExoSet,
    _central_by_definition,
    brute_force_exomaps,
    center,
    cogea_check,
    exocenter,
    exocentral_cover,
    fixed_points,
    is_identity,
)


def _fixture_sets():
    return [("T3", core.t3()), ("C3", core.c3()), ("B4", core.b4())]


@pytest.mark.parametrize("name,expected", [("T3", 2), ("C3", 2), ("B4", 4)])
def test_exocenter_sizes_against_oracle(name, expected):
    E = dict(_fixture_sets())[name]
    fast = exocenter(E)
    brute = brute_force_exomaps(E)
    assert fast == brute
    assert len(fast) == expected


def test_brute_force_exomaps_is_cached():
    E = core.b4()
    assert brute_force_exomaps(E) is brute_force_exomaps(E)
    # the two searches keep separate memos, so the oracle never compares
    # one value with itself
    assert exocenter(E) == brute_force_exomaps(E)
    assert exocenter(E) is not brute_force_exomaps(E)


def test_exocenter_oracle_fires_on_a_missing_map(monkeypatch):
    real = brute_force_exomaps

    def short(E):
        return ExoSet(E, [m for m in real(E) if fixed_points(m) != (0, 1)])

    monkeypatch.setattr(theorems, "brute_force_exomaps", short)
    out = theorems.REGISTRY["exocenter-oracle"].fn(core.b4())
    assert out == ["ideal-pair exocenter differs from brute-force filter"]


def test_exocenter_summand_bijection_fires_on_a_missing_map(monkeypatch):
    E = core.b4()
    check = theorems.REGISTRY["exocenter-summand-bijection"].fn
    assert check(E) == []
    real = exocenter(E)
    short = ExoSet(E, [m for m in real if fixed_points(m) != (0, 1)])
    monkeypatch.setattr(theorems, "exocenter", lambda E: short)
    assert check(E) == ["direct summands and map images differ"]


def test_boolean_ops_b4():
    B4 = core.b4()
    S = exocenter(B4)
    pa = next(m for m in S if fixed_points(m) == (0, 1))
    pb = next(m for m in S if fixed_points(m) == (0, 2))
    assert S.complement(pa) == pb
    assert not any(S.meet(pa, pb)) and S.disjoint(pa, pb)
    assert is_identity(S.join(pa, pb))
    assert not S.leq(pa, pb)
    assert S.meet(pa, pa) == pa and S.leq(pa, pa)


@pytest.mark.parametrize(
    "name,expected",
    [("T3", ["0"]), ("C3", ["0", "2"]), ("B4", ["0", "a", "b", "1"])],
)
def test_center(name, expected):
    E = dict(_fixture_sets())[name]
    cen = center(E)
    assert [E.names[c] for c, _ in cen] == expected


def test_center_characterizations_compare_the_definition(monkeypatch):
    E = core.b4()
    check = theorems.REGISTRY["center-characterizations"].fn
    assert check(E) == []
    monkeypatch.setattr(theorems, "_central_by_definition", lambda E, c: c == 0)
    assert check(E) == [
        "central-element characterizations disagree: [0, 1, 2, 3] vs [0]"]


def _check_central_elements(models):
    """``_central_by_definition`` against the literal search on every
    element; returns the number of central elements found."""
    central = 0
    for E in models:
        for c in range(E.n):
            got = _central_by_definition(E, c)
            assert got == oracles.central_by_definition(E, c), (E.sum, c)
            central += got
    return central


def test_central_by_definition_matches_the_literal_search():
    models = oracles.catalog_models(7)
    assert len(models) < _check_central_elements(models) < sum(E.n for E in models)


@pytest.mark.slow
def test_central_by_definition_matches_the_literal_search_n8():
    _check_central_elements([E for E in oracles.catalog_models(8) if E.n == 8])


def test_exocentral_cover():
    B4 = core.b4()
    S = exocenter(B4)
    pa = next(m for m in S if fixed_points(m) == (0, 1))
    assert exocentral_cover(S, 1) == pa
    assert not any(exocentral_cover(S, 0))
    C3 = core.c3()
    assert is_identity(exocentral_cover(exocenter(C3), 1))


@pytest.mark.parametrize("name", ["T3", "C3", "B4"])
def test_cogea_conditions(name):
    E = dict(_fixture_sets())[name]
    assert cogea_check(E) is None


def test_pointwise_lattice_ops():
    B4 = core.b4()
    S = exocenter(B4)
    for p in S:
        for q in S:
            m, j = S.meet(p, q), S.join(p, q)
            for e in range(B4.n):
                assert m[e] == core.inf(B4, (p[e], q[e]))
                assert j[e] == core.sup(B4, (p[e], q[e]))


def _oracle_ops(E, p, q):
    """Complement, meet and join composed from the image vectors and the
    difference table, independently of ExoSet."""
    diff = E.diff

    def comp(x):
        return [diff[e][x[e]] for e in range(E.n)]

    def meet(x, y):
        return [x[y[e]] for e in range(E.n)]

    return comp(p), meet(p, q), comp(meet(comp(p), comp(q)))


def test_memoized_operations_match_composition():
    """Every meet, complement and join on the exocenter and on every
    splitting algebra of the models up to size 5, each asked twice so that
    the second answer comes from the set's memo."""
    checked = 0
    for entry in catalog.cached_entries(5):
        E = entry.table
        gex = exocenter(E)
        sets = [gex] + [
            cg.sigma_sim(d.R) for d in catalog.congruences(E)
        ]
        for S in sets:
            for p in S:
                for q in S:
                    want = _oracle_ops(E, p, q)
                    for _ in range(2):
                        got = (S.complement(p), S.meet(p, q), S.join(p, q))
                        assert [list(m) for m in got] == list(want)
                        checked += 1
    assert checked


def test_failed_operations_raise_every_time():
    C3 = core.c3()
    p, q = (0, 1, 1), (0, 0, 2)  # decreasing, not commuting
    S = ExoSet(C3, [p, q])
    for _ in range(2):
        with pytest.raises(InternalInvariant, match="not commutative"):
            S.meet(p, q)
    B4 = core.b4()
    pa = next(m for m in exocenter(B4) if fixed_points(m) == (0, 1))
    pb = next(m for m in exocenter(B4) if fixed_points(m) == (0, 2))
    atoms_only = ExoSet(B4, [pa, pb])  # their meet, the zero map, is missing
    for _ in range(2):
        with pytest.raises(InternalInvariant, match="left the set"):
            atoms_only.meet(pa, pb)


def test_cogea_conditions_fires_on_an_unsummable_family(monkeypatch):
    monkeypatch.setattr(exo, "disjoint_families",
                        lambda S, maps: [((), 0), ((1,), None)])
    out = theorems.REGISTRY["cogea-conditions"].fn(core.b4())
    assert out == ["central orthocompleteness fails: ('CO1', (1,))"]


def test_cogea_conditions_fires_on_a_sum_that_is_not_orthogonal(monkeypatch):
    # in C3 the element 1 is orthogonal to the family (1,) but not to 2,
    # given here as the family's orthosum
    monkeypatch.setattr(exo, "disjoint_families",
                        lambda S, maps: [((), 0), ((1,), 2)])
    out = theorems.REGISTRY["cogea-conditions"].fn(core.c3())
    assert out == ["central orthocompleteness fails: ('CO2', (1,), 1)"]


def test_cogea_conditions_reports_the_first_failure(monkeypatch):
    # a CO1 failure after the CO2 failure leaves the first witness
    monkeypatch.setattr(exo, "disjoint_families",
                        lambda S, maps: [((), 0), ((1,), 2), ((2,), None)])
    out = theorems.REGISTRY["cogea-conditions"].fn(core.c3())
    assert out == ["central orthocompleteness fails: ('CO2', (1,), 1)"]


def test_is_boolean_algebra_refuses_sets_that_are_not_algebras():
    B4 = core.b4()
    S = exocenter(B4)
    assert exo._is_boolean_algebra(S)
    assert not exo._is_boolean_algebra(ExoSet(B4, [m for m in S if any(m)]))
    pa = next(m for m in S if fixed_points(m) == (0, 1))
    without_pb = ExoSet(B4, [S.zero, pa, S.one])  # pa's complement is pb
    assert not exo._is_boolean_algebra(without_pb)
