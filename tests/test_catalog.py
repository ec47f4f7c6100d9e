"""Enumeration counts, determinism, persistence, relations, and searches."""

import itertools
import json

import pytest

import oracles
from conftest import LABELED_COUNTS, degree_sorted, table_rows
from geadim import _kernels, catalog, congruence as cg, core
from geadim.errors import LimitExceeded, UnknownPredicate


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 1), (3, 2)])
def test_small_counts(n, expected):
    entries = [e for e in catalog.enumerate_geas(n) if e.n == n]
    assert len(entries) == expected


def test_counts_match_naive_oracle():
    for n in (2, 3, 4):
        fast = len([e for e in catalog.enumerate_geas(n) if e.n == n])
        assert fast == oracles.naive_class_count(n)


def _zero_fixing_perms(n):
    return [(0,) + rest for rest in itertools.permutations(range(1, n))]


def _relabel_rows(rows, p):
    n = len(rows)
    relab = [[-1] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            v = rows[a][b]
            relab[p[a]][p[b]] = -1 if v < 0 else p[v]
    return relab


def _orbit_min(rows):
    return min(
        bytes(x + 1 for row in _relabel_rows(rows, p) for x in row)
        for p in _zero_fixing_perms(len(rows))
    )


def test_class_counts_by_raw_orbits_n5_n6():
    # dedupe the enumerated tables by raw full-permutation orbits,
    # independently of the color-refined canonical form: the degree-sorted
    # stream meets every orbit, and the canonical filter keeps exactly one
    # table of each
    for n, expected in ((5, 12), (6, 35)):
        kept = {}
        for rows in oracles.enumerate_tables(n):
            orbit = _orbit_min(rows)
            kept[orbit] = kept.get(orbit, 0) + core.is_canonical_table(rows)
        assert len(kept) == expected
        assert set(kept.values()) == {1}
        assert len([e for e in catalog.cached_entries(n) if e.n == n]) == expected


def _orbit_stabilizer_total(n):
    # each class E has (n-1)!/|Aut(E)| labelings, with |Aut(E)| counted by
    # brute force over the zero-fixing permutations; over one table per
    # class they add up to the labeled count, so a class the filter keeps
    # twice or misses shows as a wrong total
    perms = _zero_fixing_perms(n)
    total = 0
    for flat in oracles.canonical_tables(n):
        rows = table_rows(flat, n)
        aut = sum(_relabel_rows(rows, p) == rows for p in perms)
        assert len(perms) % aut == 0
        total += len(perms) // aut
    return total


def test_orbit_stabilizer_counts_every_labeled_table():
    for n in range(1, 8):
        assert _orbit_stabilizer_total(n) == LABELED_COUNTS[n - 1]


@pytest.mark.slow
def test_orbit_stabilizer_counts_every_labeled_table_n8():
    assert _orbit_stabilizer_total(8) == LABELED_COUNTS[7]


def test_enumeration_finds_every_valid_labeled_table_n4():
    # the pruned DFS must produce exactly the degree-sorted tables the
    # unpruned filter keeps, and every valid table must be a relabeling
    # of one it produces
    n = 4
    cells = [(i, j) for i in range(1, n) for j in range(i, n)]
    naive = set()
    for choice in itertools.product(range(-1, n), repeat=len(cells)):
        table = [[-1] * n for _ in range(n)]
        for e in range(n):
            table[e][0] = e
            table[0][e] = e
        for (i, j), v in zip(cells, choice):
            table[i][j] = v
            table[j][i] = v
        if _kernels.axiom_violation(table) is None:
            naive.add(core.table_bytes(table))
    dfs = {core.table_bytes(t) for t in oracles.enumerate_tables(n)}
    assert len(naive) == LABELED_COUNTS[n - 1]
    assert dfs == {t for t in naive if degree_sorted(table_rows(t, n))}
    reached = set()
    for t in dfs:
        rows = table_rows(t, n)
        for p in _zero_fixing_perms(n):
            reached.add(core.table_bytes(_relabel_rows(rows, p)))
    assert reached == naive


def _orderly_canonical_tables(n):
    # the oracle's orderly DFS, filtered by the canonical check
    return sorted(core.table_bytes(rows) for rows in oracles.enumerate_tables(n)
                  if core.is_canonical_table(rows))


def test_top_extensions_match_the_orderly_dfs():
    for n in range(1, 8):
        assert oracles.canonical_tables(n) == _orderly_canonical_tables(n)


@pytest.mark.slow
def test_top_extensions_match_the_orderly_dfs_n8():
    assert oracles.canonical_tables(8) == _orderly_canonical_tables(8)


def _catalog_table_sizes(max_n):
    """The canonical tables of each size as ``core.table_bytes``."""
    return [[key[1:] for key in keys]
            for keys in itertools.islice(catalog._table_sizes(), max_n)]


def test_table_stage_matches_the_unpruned_oracle():
    # every extension, filtered by axiom_violation, against one per orbit
    # checked at the new element
    for n, tables in enumerate(_catalog_table_sizes(7), 1):
        assert tables == oracles.canonical_tables(n)


@pytest.mark.slow
def test_table_stage_matches_the_unpruned_oracle_n8():
    assert _catalog_table_sizes(8)[7] == oracles.canonical_tables(8)


# the labeled tables of each size 1-8 whose label order extends the order
# of the model, and the models of each size
NATURAL_COUNTS = (1, 1, 2, 7, 37, 301, 3644, 68069)
CLASS_COUNTS = (1, 1, 2, 5, 12, 35, 119, 496)


def _table_stage_rows(max_n):
    """The catalog tables of each size up to ``max_n``, as tuple rows."""
    return [[catalog._rows(key) for key in keys]
            for keys in itertools.islice(catalog._table_sizes(), max_n)]


def test_orbit_counts_certify_the_table_stage():
    # the canonical keys and the automorphism lists, checked by counting
    # and without reading the search that finds them
    sizes = _table_stage_rows(8)
    assert tuple(map(len, sizes)) == CLASS_COUNTS
    assert oracles.natural_counts(sizes[0], [])[0] == NATURAL_COUNTS[0]
    for n in range(2, 9):
        assert oracles.natural_counts(sizes[n - 1], sizes[n - 2]) == (
            NATURAL_COUNTS[n - 1], NATURAL_COUNTS[n - 1]), n


@pytest.mark.n9
def test_orbit_counts_certify_the_table_stage_n9():
    sizes = _table_stage_rows(9)
    assert len(sizes[8]) == 2699
    assert oracles.natural_counts(sizes[8], sizes[7]) == (2013006, 2013006)


def test_fixtures_appear_in_catalog():
    keys = {e.key for e in catalog.enumerate_geas(4)}
    for E in (core.t3(), core.c3(), core.b4()):
        assert core.canonical_form(E) in keys


def test_stream_is_sorted_and_deterministic():
    a = [(e.n, e.key) for e in catalog.enumerate_geas(4)]
    b = [(e.n, e.key) for e in catalog.enumerate_geas(4)]
    assert a == b == sorted(a)


def test_limit_guard(tmp_path):
    with pytest.raises(LimitExceeded):
        list(catalog.enumerate_geas(10))
    with pytest.raises(LimitExceeded):
        catalog.write_catalog(str(tmp_path / "models.cat"), 9)
    assert list(tmp_path.iterdir()) == []  # not even a .part header


def test_relation_counts():
    expectations = {
        "T3": (core.t3(), 0, 0),
        "C3": (core.c3(), 1, 1),
        "B4": (core.b4(), 2, 2),
    }
    for name, (E, sk, der) in expectations.items():
        recs = list(catalog.enumerate_relations(E))
        assert sum(1 for r in recs if r.sk) == sk, name
        assert sum(1 for r in recs if r.der) == der, name


def _check_unit_shortcut(keys):
    """The full sweep of each catalog model against ``catalog.congruences``,
    which skips the models without a unit; returns the number of models
    with a unit and of congruences."""
    units = found = 0
    for key in keys:
        E = catalog.model(key)
        swept = [c for c, fail in catalog._sweep(E) if fail is None]
        if E.greatest() is None:
            assert swept == [], key.hex()
        else:
            units += 1
        assert [d.R.class_of for d in catalog.congruences(E)] == swept
        found += len(swept)
    return units, found


def test_only_models_with_a_unit_have_congruences():
    assert _check_unit_shortcut(catalog._catalog_tables(8)) == (74, 49)


@pytest.mark.n9
def test_only_models_with_a_unit_have_congruences_n9():
    nines = (k for k in catalog._catalog_tables(9) if k[0] == 9)
    assert _check_unit_shortcut(nines) == (60, 8)


def test_full_sk_report_only_for_congruences(monkeypatch):
    """The sweep checks a partition only up to its first failing axiom:
    the full six-axiom report is built for the model's congruences alone,
    once each, and every other record keeps just its first failure.  The
    summands of a decomposition are models of their own, with their own
    reports, and are not counted."""
    witnessed = []  # (plan, class list) given to sk_witnesses
    reported = []  # relations given to check_sk; holds them alive
    real_witnesses, real_check = _kernels.sk_witnesses, cg.check_sk

    def witnesses(plan, cls):
        witnessed.append((plan, tuple(cls)))
        return real_witnesses(plan, cls)

    def check(R):
        reported.append(R)
        return real_check(R)

    monkeypatch.setattr(_kernels, "sk_witnesses", witnesses)
    monkeypatch.setattr(cg, "check_sk", check)
    partitions = congruences = 0
    for key in catalog._catalog_tables(6):
        witnessed.clear()
        reported.clear()
        E = catalog.model(key)
        found = [d.R for d in catalog.congruences(E)]
        assert sorted(cls for plan, cls in witnessed
                      if plan is E._sk_plan) == sorted(
            R.class_of for R in found)
        assert {id(R) for R in reported if R.E is E} == {
            id(R) for R in found}
        entry = catalog.build_entry(key[0], key[1:])
        assert [rec.class_of for rec in entry.relations if rec.sk] == [
            R.class_of for R in found]
        for rec in entry.relations:
            if not rec.sk:
                assert rec.first_failure[0] in cg.AXES
        partitions += len(entry.relations)
        congruences += len(found)
    assert (partitions, congruences) == (2031, 18)


def test_classes_are_read_off_the_class_ids():
    """A record keeps the dense class id of each element: the restricted
    growth string of a failing partition, the relation's own ids for a
    congruence.  Its classes group the elements by id, in id order, which
    is the order of their least members."""
    records = 0
    for entry in catalog.cached_entries(6):
        n = entry.n
        congruences = iter(catalog.congruences(entry.table))
        for rec in entry.relations:
            ids = rec.class_of
            assert ids[0] == 0 and 0 not in ids[1:]
            assert all(ids[e] <= max(ids[:e]) + 1 for e in range(1, n))
            grouped = tuple(tuple(e for e in range(n) if ids[e] == c)
                            for c in range(max(ids) + 1))
            assert rec.classes == grouped
            assert rec.classes == cg.partition_classes(rec.class_of)
            if rec.sk:
                assert rec.classes == next(congruences).R.classes
            records += 1
    assert records == 2031


def test_partition_counts():
    # Bell numbers of the nonzero part
    assert len(list(catalog.partitions_with_zero_singleton(4))) == 5
    assert len(list(catalog.partitions_with_zero_singleton(5))) == 15
    assert len(list(catalog.partitions_with_zero_singleton(1))) == 1


def test_partitions_are_the_sorted_restricted_growth_strings():
    # every id vector with zero alone whose ids first appear in order
    for n in range(1, 8):
        want = [
            (0, *rest) for rest in itertools.product(range(1, n), repeat=n - 1)
            if all(c <= max(rest[:i], default=0) + 1 for i, c in enumerate(rest))
        ]
        assert list(catalog.partitions_with_zero_singleton(n)) == want


def test_persistence_roundtrip(tmp_path):
    path = tmp_path / "models.cat"
    count = catalog.write_catalog(str(path), 4)
    header, *records = map(json.loads, path.read_text().splitlines())
    assert header["max_n"] == 4 and header["format_version"] == 1
    assert len(records) == count
    fresh = [oracles.record(e) for e in catalog.enumerate_geas(4)]
    assert records == fresh
    # byte-identical on rewrite
    first = path.read_bytes()
    catalog.write_catalog(str(path), 4)
    assert path.read_bytes() == first


def _stop_after_two(real, stop):
    calls = []

    def two_then_stop(*args, **kwargs):
        if len(calls) == 2:
            stop()
        calls.append(args)
        return real(*args, **kwargs)

    return two_then_stop


def _fail():
    raise RuntimeError("enumeration failed")


def test_failed_fresh_write_resumes(tmp_path, monkeypatch):
    full = tmp_path / "full.cat"
    catalog.write_catalog(str(full), 4)
    path = tmp_path / "models.cat"
    part = tmp_path / "models.cat.part"
    with monkeypatch.context() as m:
        m.setattr(
            catalog, "build_entry",
            _stop_after_two(catalog.build_entry, _fail),
        )
        with pytest.raises(RuntimeError):
            catalog.write_catalog(str(path), 4)
    assert not path.exists()
    assert part.read_bytes().count(b"\n") == 3  # header and two records
    catalog.write_catalog(str(path), 4)
    assert path.read_bytes() == full.read_bytes()
    assert not part.exists()


_KILL_AFTER_TWO = """
import os, signal, sys
from geadim import catalog
real = catalog.build_entry
calls = []
def two_then_kill(*args, **kwargs):
    if len(calls) == 2:
        os.kill(os.getpid(), signal.SIGKILL)
    calls.append(args)
    return real(*args, **kwargs)
catalog.build_entry = two_then_kill
catalog.write_catalog(sys.argv[1], 4)
"""


def test_killed_fresh_write_resumes(tmp_path):
    import os
    import signal
    import subprocess
    import sys

    full = tmp_path / "full.cat"
    catalog.write_catalog(str(full), 4)
    path = tmp_path / "models.cat"
    src = os.path.dirname(os.path.dirname(catalog.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _KILL_AFTER_TWO, str(path)], env=env
    )
    assert proc.returncode == -signal.SIGKILL
    assert not path.exists()
    part = tmp_path / "models.cat.part"
    assert part.read_bytes().count(b"\n") == 3  # every line reached the file
    catalog.write_catalog(str(path), 4)
    assert path.read_bytes() == full.read_bytes()
    assert not part.exists()


def test_resume_prefers_the_partial_file(tmp_path, monkeypatch):
    path = tmp_path / "models.cat"
    catalog.write_catalog(str(path), 3)
    older = path.read_bytes()
    with monkeypatch.context() as m:
        m.setattr(
            catalog, "build_entry",
            _stop_after_two(catalog.build_entry, _fail),
        )
        with pytest.raises(RuntimeError):
            catalog.write_catalog(str(path), 4)
    assert path.read_bytes() == older  # the complete file stays in place
    part = tmp_path / "models.cat.part"
    assert part.read_bytes().count(b"\n") == 3  # header and two records
    # the next run writes the partial file afresh and moves it onto path
    catalog.write_catalog(str(path), 4)
    full = tmp_path / "full.cat"
    catalog.write_catalog(str(full), 4)
    assert path.read_bytes() == full.read_bytes()
    assert not part.exists()


def _oracle_line(key):
    """The catalog line of ``key`` as ``oracles.record`` builds it."""
    entry = catalog.build_entry(key[0], key[1:])
    return json.dumps(oracles.record(entry), sort_keys=True,
                      separators=(",", ":"))


def test_record_lines_match_the_oracle():
    """Each line joined from per-size fragments is byte-identical to the
    record built field by field, for every model up to size 6."""
    for key in catalog._catalog_tables(6):
        assert catalog._record_line(key) == _oracle_line(key)


def test_entry_records_are_json_stable():
    entries = list(catalog.enumerate_geas(3))
    blobs = [json.dumps(oracles.record(e), sort_keys=True) for e in entries]
    again = [json.dumps(oracles.record(e), sort_keys=True)
             for e in catalog.enumerate_geas(3)]
    assert blobs == again


def test_search_predicates():
    assert catalog.search_counterexample("trivially-false", 4) is None
    hit = catalog.search_counterexample("divisible-hull-with-monads", 3)
    assert hit is not None and hit["witness"]["monads"]
    # recorded catalog facts at desk scale: every congruence separates,
    # and every finite model with a dimension relation is of the first type
    assert catalog.search_counterexample("sk-and-not-der", 4) is None
    assert catalog.search_counterexample("non-type-i-dgea", 4) is None
    with pytest.raises(UnknownPredicate):
        catalog.search_counterexample("nope", 3)


def test_search_stops_at_the_first_hit(monkeypatch):
    sizes = []
    real = catalog.model

    def logged(key):
        sizes.append(key[0])
        return real(key)

    monkeypatch.setattr(catalog, "model", logged)
    hit = catalog.search_counterexample("divisible-hull-with-monads", 5)
    assert hit["n"] == 2
    assert sizes == [1, 2]


def test_divisible_hull_search_skips_a_hull_that_is_not_divisible(monkeypatch):
    # the only hull system of the 2-element model is divisible and has the
    # monad 1; read as not divisible, it is skipped
    E = catalog.model(bytes.fromhex("02000101ff"))
    assert catalog._search_divisible_with_monads(E, []) == {
        "hull": [[0, 0], [0, 1]], "monads": ["1"]}
    monkeypatch.setattr(catalog.hull_mod, "is_divisible", lambda H: False)
    assert catalog._search_divisible_with_monads(E, []) is None
    assert catalog.search_counterexample("divisible-hull-with-monads", 5) is None


def test_type_distribution_all_type_one():
    for e in catalog.cached_entries(5):
        for rec in e.relations:
            if rec.der:
                assert rec.decomposition["type"] == "I"
                assert rec.decomposition["summand_II"] == ["0"]
                assert rec.decomposition["summand_III"] == ["0"]


def test_congruence_failing_separation(monkeypatch, tmp_path):
    """No catalog model has a congruence that fails SK4a', so the check is
    made to fail: the record, the ``sk`` and ``decompose`` commands and the
    search all report such a congruence as one that is no dimension
    relation."""
    import io

    from geadim import cli

    monkeypatch.setattr(cg, "check_der", lambda R, sigma: (1, 2))
    E = core.b4()
    merge = next(rec for rec in catalog.enumerate_relations(E)
                 if rec.classes == ((0,), (1, 2), (3,)))
    assert oracles.relation_summary(merge, E.names) == {
        "classes": [["0"], ["a", "b"], ["1"]],
        "sk": True,
        "der": False,
        "first_failure": {"axiom": "SK4a'", "witness": ["a", "b"]},
        "decomposition": None,
    }
    # the catalog line of a congruence that is no dimension relation
    key = core.canonical_form(E)
    line = catalog._record_line(key)
    assert line == _oracle_line(key) and '"der":false' in line
    path = tmp_path / "b4.gea"
    path.write_text("elements: 0 a b 1\nzero: 0\nsum: a + b = 1\n"
                    "relation merge: {a b}\n", encoding="utf-8")
    out = io.StringIO()
    assert cli.run_command(["sk", str(path), "--relation", "merge", "--json"],
                           out=out) == 0
    results = json.loads(out.getvalue())["results"]
    assert results["axioms"]["SK4a'"] == {"holds": False, "witness": ["a", "b"]}
    assert (results["sk"], results["der"]) == (True, False)
    out = io.StringIO()
    assert cli.run_command(["decompose", str(path), "--relation", "merge"],
                           out=out) == 1
    assert out.getvalue() == "not a dimension relation: SK4a' fails\n"
    assert catalog.search_counterexample("sk-and-not-der", 3) is not None
