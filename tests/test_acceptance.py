"""Acceptance criteria, one test per criterion, each at its stated
tolerance (exact unless noted).  A summary line per criterion is printed
in the terminal summary section.
"""

import hashlib
import io
import json
import os
import time

import pytest

from conftest import ACCEPTANCE_LINES
from oracles import canonical_tables, naive_class_count

from geadim import catalog, cli, congruence as cg, core, dimension as dm, theorems
from geadim import hull as hull_mod
from geadim.exocenter import brute_force_exomaps, center, exocenter, is_identity


def _record(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def test_criterion_1_exocenter_oracle():
    """Ideal-pair exocenter equals the atom search on every model with
    n <= 4, in under ten seconds."""
    brute_force_exomaps(core.c3())  # import and warm up outside the timed region
    t0 = time.perf_counter()
    checked = 0
    mismatches = 0
    for entry in catalog.cached_entries(4):
        if exocenter(entry.table) != brute_force_exomaps(entry.table):
            mismatches += 1
        checked += 1
    elapsed = time.perf_counter() - t0
    _record(
        1,
        mismatches == 0 and elapsed < 10.0,
        f"{checked} models, {mismatches} discrepancies, {elapsed:.2f}s",
    )


def test_criterion_1_extended_to_size_5():
    # the module contract extends the atom-search oracle to n <= 5
    for entry in catalog.cached_entries(5):
        assert exocenter(entry.table) == brute_force_exomaps(entry.table)


def test_criterion_2_fixture_goldens():
    """Map counts, centers, congruence counts, and class counts, all
    confirmed against the independent oracles before comparison."""
    failures = []
    gex_expect = {"T3": 2, "C3": 2, "B4": 4}
    fixtures = {"T3": core.t3(), "C3": core.c3(), "B4": core.b4()}
    for name, E in fixtures.items():
        got = len(brute_force_exomaps(E))
        if got != gex_expect[name] or len(exocenter(E)) != got:
            failures.append(f"GEX({name})={got}")
    centers = {
        name: [E.names[c] for c, _ in center(E)]
        for name, E in fixtures.items()
    }
    if centers["C3"] != ["0", "2"] or centers["T3"] != ["0"]:
        failures.append(f"centers {centers}")
    sk_expect = {"T3": (0, 0), "C3": (1, 1), "B4": (2, 2)}
    for name, E in fixtures.items():
        recs = list(catalog.enumerate_relations(E))
        got = (sum(1 for r in recs if r.sk), sum(1 for r in recs if r.der))
        if got != sk_expect[name]:
            failures.append(f"congruences({name})={got}")
    b4_classes = sorted(
        tuple(tuple(c) for c in r.classes)
        for r in catalog.enumerate_relations(core.b4())
        if r.sk
    )
    if b4_classes != [((0,), (1,), (2,), (3,)), ((0,), (1, 2), (3,))]:
        failures.append(f"B4 congruences are {b4_classes}")
    for n, expected in ((2, 1), (3, 2)):
        got = len([e for e in catalog.cached_entries(3) if e.n == n])
        if got != expected or naive_class_count(n) != expected:
            failures.append(f"classes(n={n})={got}")
    _record(2, not failures, "all fixture goldens" if not failures else "; ".join(failures))


def test_criterion_3_decomposition_goldens():
    """Exact decomposition values and uniqueness of the projection triple."""
    failures = []
    C3 = core.c3()
    eq = cg.build_equiv(C3, [])
    dec = dm.decompose_types(eq)
    if not (is_identity(dec.projections["I"]) and dec.type_verdict == "I"
            and dec.finite_type and dec.unit == 2):
        failures.append("C3 equality decomposition")
    B4 = core.b4()
    merge = cg.build_equiv(B4, [["a", "b"]])
    dec2 = dm.decompose_types(merge)
    if not (is_identity(dec2.projections["I"]) and dec2.type_verdict == "I"
            and dec2.finite_type and dec2.unit == 3):
        failures.append("B4 merge decomposition")
    type_decomposition = theorems.REGISTRY["type-decomposition"].fn
    for dec_, R in ((dec, eq), (dec2, merge)):
        d = dm.Dgea(R)
        # the property's search for a second type triple
        if type_decomposition(d) != []:
            failures.append("type-decomposition property fails")
        # independent exhaustive recheck of uniqueness over the algebra
        triple = tuple(dec_.projections[t] for t in ("I", "II", "III"))
        for s1 in d.sigma:
            for s2 in d.sigma:
                for s3 in d.sigma:
                    if not (
                        d.sigma.disjoint(s1, s2)
                        and d.sigma.disjoint(s1, s3)
                        and d.sigma.disjoint(s2, s3)
                        and is_identity(d.sigma.join_all((s1, s2, s3)))
                    ):
                        continue
                    f1 = d.summand(s1).type_flags
                    f2 = d.summand(s2).type_flags
                    f3 = d.summand(s3).type_flags
                    if f1.type_i and f2.type_ii and f3.type_iii:
                        if (s1, s2, s3) != triple:
                            failures.append("alternative triple found")
    _record(3, not failures, "decomposition goldens exact" if not failures else "; ".join(failures))


def test_criterion_4_theorem_suite_size_5():
    """Full registered property list over every model and congruence with
    n <= 5: zero violations, within the five-minute budget."""
    t0 = time.perf_counter()
    results = theorems.run_theorem_suite(5, jobs=4)
    elapsed = time.perf_counter() - t0
    violations = sum(len(p["violations"]) for p in results["properties"].values())
    ok = violations == 0 and elapsed < 300.0
    _record(
        4,
        ok,
        f"{len(results['properties'])} properties, {results['models']} models, "
        f"{results['relations']} congruences, {violations} violations, "
        f"{elapsed:.1f}s",
    )


def test_criterion_5_type_distribution():
    """The decomposition formulas are asserted on every model; the
    observed distribution is recorded and any type II/III finite model
    flags review status."""
    results = theorems.run_theorem_suite(5, theorems=["type-decomposition",
                                                      "all-finite-models-type-one"])
    dist = {}
    for entry in catalog.cached_entries(5):
        for rec in entry.relations:
            if rec.der:
                t = rec.decomposition["type"]
                dist[t] = dist.get(t, 0) + 1
    ok = (
        not any(p["violations"] for p in results["properties"].values())
        and not results["review"]
        and results["status"] == "ok"
        and set(dist) == {"I"}
    )
    _record(5, ok, f"type distribution {dist}, review entries: {len(results['review'])}")


# sha256 of ``verify --max-size 5 --json``, recorded before the suite
# shared one context per relation and memoized the exocenter operations
VERIFY_5_SHA256 = "412bd63ebf8932e4432d44e0fdda43affcb8797f31fcf041a6b8d96e089c5a42"


def test_criterion_6_determinism():
    """Byte-identical machine reports: run-to-run, serial-vs-parallel, and
    against the recorded digest."""

    def capture(argv):
        buf = io.StringIO()
        code = cli.run_command(argv, out=buf)
        return code, buf.getvalue()

    c1, t1 = capture(["verify", "--max-size", "5", "--json"])
    c2, t2 = capture(["verify", "--max-size", "5", "--json"])
    c3_, t3 = capture(["verify", "--max-size", "5", "--jobs", "2", "--json"])
    c4, t4 = capture(["verify", "--max-size", "5", "--jobs", "4", "--json"])
    digest = hashlib.sha256(t1.encode("utf-8")).hexdigest()
    ok = (
        c1 == c2 == c3_ == c4 == 0
        and t1 == t2 == t3 == t4
        and digest == VERIFY_5_SHA256
    )
    json.loads(t1)  # well-formed
    _record(
        6, ok,
        f"report bytes: {len(t1)}, sha256 {digest[:12]}, "
        "identical across runs and workers",
    )


def test_one_decomposition_per_dimension_relation(monkeypatch):
    """A suite run builds the type decomposition of each dimension relation
    once, in the relation's ``Dgea``, and no other."""
    der = []
    built = []
    real_congruences = catalog.congruences
    real_decomposition = dm.Decomposition

    def collecting(E):
        found = real_congruences(E)
        der.extend(d.R for d in found if d.der)
        return found

    def counted(**fields):
        built.append(fields)
        return real_decomposition(**fields)

    monkeypatch.setattr(catalog, "congruences", collecting)
    monkeypatch.setattr(dm, "Decomposition", counted)
    assert theorems.run_theorem_suite(5)["status"] == "ok"
    assert len(der) == 10
    assert len(built) == len(der)


def test_one_dgea_per_congruence_and_summand(monkeypatch):
    """A suite run builds one ``Dgea`` per congruence and one per summand
    of a splitting map other than the identity of each dimension relation,
    and no other: the identity summand is the congruence's own ``Dgea``."""
    dgeas = [d for e in catalog.cached_entries(6)
             for d in catalog.congruences(e.table)]
    congruences = len(dgeas)
    summands = sum(len(d.sigma) - 1 for d in dgeas if d.der)
    assert (congruences, summands) == (18, 21)
    built = []
    real_init = dm.Dgea.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(dm.Dgea, "__init__", counted)
    assert theorems.run_theorem_suite(6)["status"] == "ok"
    assert len(built) == congruences + summands


def test_a_broken_reading_is_reported_under_its_property_alone(monkeypatch):
    """Every nonzero element claims to be a hull monad: only the monad
    reading of simple elements breaks, and its violations are filed under
    ``simple-element-criteria``, which compares the readings, and under
    no property that merely reads the simple elements."""
    real = hull_mod.is_monad
    monkeypatch.setattr(hull_mod, "is_monad", lambda H, e: e != 0 or real(H, e))
    results = theorems.run_theorem_suite(4)
    violated = {name: [v["detail"] for v in p["violations"]]
                for name, p in results["properties"].items() if p["violations"]}
    assert list(violated) == ["simple-element-criteria"]
    details = violated["simple-element-criteria"]
    assert len(details) == 5
    assert all(d.startswith("simple-element conditions disagree at ") for d in details)


# sha256 of ``verify --max-size 6 --json`` and of the size-6 catalog
# file, the digests the benchmark checks its operations against
VERIFY_6_SHA256 = "ffb1c993cc8afcec8caeb5d9af103f225b8bcb809404e1f48327f9e027e17a9b"
CATALOG_6_SHA256 = "a85ebe0d394b916f8c7a09b722c61be3db08cafe0d5b1a5e6fa484391acbfbf4"


def test_size_6_outputs_keep_their_digests(tmp_path):
    buf = io.StringIO()
    assert cli.run_command(["verify", "--max-size", "6", "--json"], out=buf) == 0
    assert hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest() == VERIFY_6_SHA256
    path = tmp_path / "catalog-6.jsonl"
    argv = ["catalog", "--max-size", "6", "--out", str(path)]
    assert cli.run_command(argv, out=io.StringIO()) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CATALOG_6_SHA256


# the same digests at size 7: 175 models and 22 congruences, all of type I
VERIFY_7_SHA256 = "6b1b845eeadce45f50f27385953a0d2a5b038aa2d6a83ecbfce65746ff1ea54b"
CATALOG_7_SHA256 = "cf90216a2002db7e81c1538719cc35825be258eff58f94a5ebefb75d457a5bdc"
VERIFY_8_SHA256 = "7ff71459e54004690e43a58e0b7a6d6a1207d38ebef08a1aa8227aea4943dfa1"
# the size-8 catalog file: 671 models, 461 180 relations, 72.7 MB
CATALOG_8_SHA256 = "94df4a50172f2ec9b559718e15352983f58d892be5de925e83488bb3c82358e2"


@pytest.mark.slow
def test_size_7_outputs_keep_their_digests(tmp_path):
    for jobs in ("1", "2"):
        buf = io.StringIO()
        argv = ["verify", "--max-size", "7", "--jobs", jobs, "--json"]
        assert cli.run_command(argv, out=buf) == 0
        assert hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest() == VERIFY_7_SHA256
    path = tmp_path / "catalog-7.jsonl"
    argv = ["catalog", "--max-size", "7", "--out", str(path)]
    assert cli.run_command(argv, out=io.StringIO()) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CATALOG_7_SHA256


@pytest.mark.slow
def test_size_8_verify_keeps_its_digest():
    for jobs in ("1", "2"):
        buf = io.StringIO()
        argv = ["verify", "--max-size", "8", "--jobs", jobs, "--json"]
        assert cli.run_command(argv, out=buf) == 0
        assert hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest() == VERIFY_8_SHA256


@pytest.mark.slow
def test_size_8_catalog_keeps_its_digest(tmp_path):
    path = tmp_path / "catalog-8.jsonl"
    argv = ["catalog", "--max-size", "8", "--out", str(path)]
    assert cli.run_command(argv, out=io.StringIO()) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CATALOG_8_SHA256


# ``verify --max-size 9 --json``: 2 699 models of size 9, 671 below; a
# catalog file stops at size 8
VERIFY_9_SHA256 = "5b8b639bcf306aff008685e459a7193f945da47ae5e737ca5d2a31b849d89561"


@pytest.mark.n9
def test_size_9_verify_keeps_its_digest():
    for jobs in ("1", "2"):
        buf = io.StringIO()
        argv = ["verify", "--max-size", "9", "--jobs", jobs, "--json"]
        assert cli.run_command(argv, out=buf) == 0
        assert hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest() == VERIFY_9_SHA256
    nines = [key[1:] for key in catalog._catalog_tables(9) if key[0] == 9]
    assert len(nines) == 2699
    assert nines == canonical_tables(9)


def test_one_splitting_algebra_per_congruence(monkeypatch):
    """A whole suite run derives the splitting algebra and the induced hull
    of each catalog congruence once, in its ``Dgea``; no property derives
    its own."""
    calls = []  # (function, relation or splitting algebra); holds each alive

    def counted(fn):
        def wrapper(first, *args):
            calls.append((fn.__name__, first))
            return fn(first, *args)

        return wrapper

    congruences = []  # the Dgeas, which hold their relations and algebras
    real_congruences = catalog.congruences

    def collecting(E):
        found = real_congruences(E)
        congruences.extend(found)
        return found

    monkeypatch.setattr(cg, "sigma_sim", counted(cg.sigma_sim))
    monkeypatch.setattr(cg, "induced_hull", counted(cg.induced_hull))
    monkeypatch.setattr(catalog, "congruences", collecting)
    assert theorems.run_theorem_suite(6)["status"] == "ok"
    assert len(congruences) == 18
    for name, read in (("sigma_sim", lambda d: d.R),
                       ("induced_hull", lambda d: d.sigma)):
        ids = {id(read(d)) for d in congruences}
        built = [x for fn, x in calls if fn == name and id(x) in ids]
        assert len(ids) == len(built) == 18
        assert {id(x) for x in built} == ids


def test_parallel_suite_builds_models_only_in_workers(monkeypatch, tmp_path):
    """With ``jobs`` above 1 every model is built in a worker and none in
    the calling process."""
    log = tmp_path / "builds.txt"
    here = []
    real = catalog.model

    def logged(key):
        here.append(os.getpid())
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(key)

    monkeypatch.setattr(catalog, "model", logged)
    serial = theorems.run_theorem_suite(5)
    assert here == [os.getpid()] * serial["models"] == [os.getpid()] * 21
    here.clear()
    log.unlink()
    parallel = theorems.run_theorem_suite(5, jobs=2)
    assert here == []
    workers = log.read_text().split()
    assert len(workers) == 21 and str(os.getpid()) not in workers
    assert parallel == serial


def test_criterion_7_negative_controls():
    """Inverting any single registered property produces at least one
    violation at n <= 4."""
    bad = []
    for name in theorems.REGISTRY:
        results = theorems.run_theorem_suite(4, theorems=[name], invert=name)
        count = (
            len(results["properties"][name]["violations"])
            if not theorems.REGISTRY[name].review_only
            else len(results["review"])
        )
        if count == 0:
            bad.append(name)
    _record(
        7,
        not bad,
        f"{len(theorems.REGISTRY)} properties inverted"
        + ("" if not bad else f"; silent: {bad}"),
    )
