"""The benchmark scripts against the current module layout.

``perfbench/spans.py`` rebinds geadim's functions by name,
``perfbench/workloads.py`` runs one operation of each workload and
``benchmarks/bench_kernels.py`` calls the kernels directly; all are
loaded from their files here and only read.
"""

import importlib.util
import json
import sys
from pathlib import Path

import geadim.cli  # noqa: F401  (loads every module the tracer targets)
from geadim import core

ROOT = Path(__file__).resolve().parent.parent


def _load(relpath):
    path = ROOT / relpath
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_every_target_and_restores_it():
    spans = _load("perfbench/spans.py")
    originals = {
        (module, fn): getattr(sys.modules[f"geadim.{module}"], fn)
        for module, fns in spans.TARGETS.items() for fn in fns
    }
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (module, fn), orig in originals.items():
            name = spans.span_name(module, fn)
            assert f"geadim.{module}.{fn}" in tracer.bindings[name], name
            assert getattr(sys.modules[f"geadim.{module}"], fn) is not orig
        assert core.is_canonical_table([[0]])
        assert tracer.calls["core.is_canonical_table"] == 1
    finally:
        tracer.uninstall()
    for (module, fn), orig in originals.items():
        assert getattr(sys.modules[f"geadim.{module}"], fn) is orig


def test_each_workload_matches_its_expected_output(monkeypatch, tmp_path):
    # one operation per workload, checked as the benchmark checks it: this
    # guards every name perfbench reads, ``cached_entries.cache_clear`` and
    # the relation records' fields included
    monkeypatch.setitem(sys.modules, "models", _load("perfbench/models.py"))
    workloads = _load("perfbench/workloads.py")
    expected = json.loads((ROOT / "perfbench/expected.json").read_text())
    assert set(expected) == set(workloads.WORKLOADS)
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(1, tmp_path)
        got = workload.describe(workload.run())
        assert workloads.check(got, expected[name], name) == []


def test_bench_kernels_runs(capsys):
    bench = _load("benchmarks/bench_kernels.py")
    bench.ROUNDS = 1
    bench.main()
    out = capsys.readouterr().out
    for label in ("axiom_violation n=6", "min_relabel n=4",
                  "is_min_relabel n=4", "brute_exomaps n=8 chain",
                  "sup/inf n<=6", "sk_witnesses n=6", "sk_first_failures n=6",
                  "sk_first_failures n=8 cube", "td_table n<=6",
                  "is_divisible n<=6", "check_hull_system n<=6",
                  "disjoint_families n<=6", "td-largest-map n<=6",
                  "hull-grid-refinement n<=6", "structure_predicates n<=7",
                  "all_ideals n<=7", "td_sets dgea n<=7", "Dgea n<=7",
                  "enumerate_relations n<=7",
                  "build_entry n<=6", "build_entry n=8 cube",
                  "decomposition n=8 cube",
                  "decomposition properties n=8 cube", "record lines n<=7",
                  "run_theorem_suite n<=5"):
        assert label in out
