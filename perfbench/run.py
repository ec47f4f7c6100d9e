"""geadim benchmark: end-to-end and per-layer metrics for three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload verify-n6 --seed 1 --seconds 20 --trace 0

``--trace 0`` times operations untraced and reports the end-to-end metrics
of ``BENCHMARK.json``.  Operation times are given in reference pieces (see
``reference.py``), because raw seconds swing with the host by 20-40%
between runs; raw seconds are printed too.  ``--trace 1`` alternates
untraced and traced operations, reports the per-layer metrics and the
tracing overhead, and writes every span to ``perfbench/out/``.  The last
line of standard output is one JSON object {correct, attempted, failed,
metrics}; the lines before it give the environment, every operation,
quartiles, sample counts and the error rate.

The benchmark imports geadim from ``src/`` of the checkout it lives in and
exits with a non-zero code, printing no result, when that is missing, when
its metrics drift from ``BENCHMARK.json``, or when a control that must
fail passes.
"""

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_REPEATS = 7


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": has_numba,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg": list(os.getloadavg()),
    }


def measure_setup():
    """Wall seconds for a fresh interpreter to import the command line,
    which every ``geadim`` invocation pays before any work."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import geadim.cli"],
            env=env, cwd=ROOT, check=True, timeout=120,
        )
        times.append(time.perf_counter() - t0)
    return times


def cpu_seconds():
    """CPU of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    k = max(0, min(len(ordered) - 1, -(-p * len(ordered) // 100) - 1))
    return ordered[int(k)]


def run_control(cli):
    """The suite with one property inverted has to exit 1; a harness that
    cannot fail proves nothing.  (The other control, a wrong digest, runs on
    the first operation's output.)"""
    from geadim import catalog

    rc = cli.run_command(
        ["verify", "--max-size", "4", "--invert", "core-order-laws", "--json"],
        out=io.StringIO(),
    )
    catalog.cached_entries.cache_clear()
    if rc != 1:
        raise SystemExit(
            f"control failed: verify with an inverted property exited {rc}, not 1"
        )


def run_ops(workload, expected, seconds, tracer):
    """Closed loop: one operation at a time until ``seconds`` have passed.

    Each operation runs under a reference sampler; its time excludes the
    reference pieces.  With a tracer, operations alternate untraced and
    traced, and the loop runs until it has one of each.
    """
    import workloads
    from reference import Sampler

    ops = []  # dicts: wall, cpu, ref (seconds per reference piece), traced, ok
    deltas = []  # per traced operation: calls and counts
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(ops) % 2 == 1
        if traced:
            before = tracer.calls + tracer.counts
            tracer.install()
        error = None
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            with Sampler(tracer if traced else None) as sampler:
                output = workload.run()
        except Exception:  # counted as a failed operation
            output = None
            error = traceback.format_exc()
        finally:
            wall = time.perf_counter() - t0 - sampler.seconds
            cpu = cpu_seconds() - c0 - sampler.seconds
            if traced:
                tracer.uninstall()
                deltas.append(dict((tracer.calls + tracer.counts) - before))
        ref = sampler.piece_seconds()
        if error is None:
            problems = workloads.check(workload.describe(output), expected)
        else:
            problems = [error]
        for p in problems[:5]:
            print(f"FAILED operation {len(ops) + 1}: {p}", file=sys.stderr)
        if not ops and error is None:
            wrong = workloads.with_wrong_digests(expected)
            if not workloads.check(workload.describe(output), wrong):
                raise SystemExit("control failed: a wrong digest was accepted")
        print(f"operation {len(ops) + 1}: wall {wall:.4f} s, cpu {cpu:.4f} s, "
              f"{sampler.pieces} reference pieces of {1000 * ref:.4f} ms, "
              f"run_ref {wall / ref:.1f}, traced {traced}")
        ops.append({"wall": wall, "cpu": cpu, "ref": ref, "traced": traced,
                    "ok": not problems})
        output = None  # so the next operation's peak memory does not include it
        if time.perf_counter() - start >= seconds and (tracer is None or len(ops) >= 2):
            return ops, deltas


def summarize(label, values, unit):
    q1, q3 = quartiles(values)
    print(f"{label}: median {statistics.median(values):.4f} {unit}, "
          f"q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)}")


def end_to_end_metrics(workload, ops, setup):
    run_ref = [o["wall"] / o["ref"] for o in ops]
    cpu_ref = [o["cpu"] / o["ref"] for o in ops]
    summarize("run_s (wall per operation, not a metric: it swings with the host)",
              [o["wall"] for o in ops], "s")
    summarize("run_ref", run_ref, "ref")
    summarize("cpu_ref", cpu_ref, "ref")
    summarize("setup_s (fresh imports)", setup, "s")
    run = statistics.median(run_ref)
    return {
        "run_ref": (run, "ref"),
        "cpu_ref": (statistics.median(cpu_ref), "ref"),
        "models_per_kref": (1000.0 * workload.models_per_op / run, "1/kref"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }


def per_layer_metrics(tracer, ops, deltas):
    from geadim.theorems import REGISTRY

    from spans import TARGETS, span_name

    n = len(deltas)

    def per_op(total):
        return total // n if total % n == 0 else total / n

    own = tracer.self_times()
    m = {}
    for module, fns in TARGETS.items():
        for fn in fns:
            name = span_name(module, fn)
            if name == "cli.run_command":
                m["cli.run_command.self_s"] = (own[name] / n, "s")
                continue
            m[f"{name}.s"] = (own[name] / n, "s")
            if name != "theorems.run_theorem_suite":
                m[f"{name}.calls"] = (per_op(tracer.calls[name]), "count")
    for prop in REGISTRY:
        m[f"theorems.prop.{prop}.s"] = (own[f"theorems.prop.{prop}"] / n, "s")
    for name in ("kernels.enumerate_tables.tables", "core.is_canonical_table.kept",
                 "congruence.check_sk.pass", "catalog.enumerate_relations.partitions"):
        m[name] = (per_op(tracer.counts[name]), "count")
    m["catalog.write_catalog.bytes"] = (
        per_op(tracer.counts["catalog.write_catalog.bytes"]), "bytes"
    )
    tried = tracer.calls["core.is_canonical_table"]
    m["core.canonical_keep_ratio"] = (
        tracer.counts["core.is_canonical_table.kept"] / tried if tried else 0.0, "ratio"
    )
    checked = tracer.calls["congruence.check_sk"]
    m["congruence.sk_pass_ratio"] = (
        tracer.counts["congruence.check_sk.pass"] / checked if checked else 0.0, "ratio"
    )
    builds = [1000.0 * d for d in tracer.durations("catalog.build_entry")]
    m["catalog.build_entry.ms_p50"] = (percentile(builds, 50), "ms")
    m["catalog.build_entry.ms_p90"] = (percentile(builds, 90), "ms")
    plain = statistics.median(o["wall"] / o["ref"] for o in ops if not o["traced"])
    traced = statistics.median(o["wall"] / o["ref"] for o in ops if o["traced"])
    m["trace.overhead"] = (traced / plain, "ratio")
    print(f"tracing overhead: traced run_ref {traced:.2f} over untraced run_ref "
          f"{plain:.2f} = {traced / plain:.4f}")
    repeat = all(d == deltas[0] for d in deltas)
    digest = hashlib.sha256(
        json.dumps(sorted(deltas[0].items())).encode("utf-8")
    ).hexdigest()
    print(f"counters per traced operation: sha256 {digest}, identical across "
          f"{n} traced operations: {repeat}")
    return m


def declared(section):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "geadim" / "__init__.py").is_file():
        print(f"error: no geadim sources under {SRC}", file=sys.stderr)
        return 2
    env = environment()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))

    setup = measure_setup()
    sys.path.insert(0, str(SRC))
    from geadim import cli

    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    with open(BENCH_DIR / "expected.json", encoding="utf-8") as fh:
        expected = json.load(fh)[args.workload]

    run_control(cli)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        tracer = Tracer() if args.trace else None
        ops, deltas = run_ops(workload, expected, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for o in ops if not o["ok"])
    print(f"error_rate: {failed / len(ops)} ({failed} of {len(ops)} operations failed)")
    if tracer is None:
        metrics = end_to_end_metrics(workload, ops, setup)
        section = "end_to_end"
    else:
        metrics = per_layer_metrics(tracer, ops, deltas)
        section = "per_layer"
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(path, {"workload": args.workload, "seed": args.seed,
                           "traced_operations": len(deltas), "env": env})
        print(f"spans written to {path.relative_to(ROOT)}")
        for name, bound in tracer.bindings.items():
            if not name.startswith("theorems.prop."):
                print(f"traced {name} through {', '.join(bound)}")
        props = [n for n in tracer.bindings if n.startswith("theorems.prop.")]
        print(f"traced {len(props)} properties through geadim.theorems.REGISTRY")
    want = declared(section)
    got = {k: unit for k, (_, unit) in metrics.items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        raise SystemExit(
            f"metrics differ from BENCHMARK.json {section}: missing {missing}, "
            f"undeclared {extra}, or units differ"
        )
    for k, (v, unit) in metrics.items():
        print(f"metric {k} = {v} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
