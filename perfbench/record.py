"""Regenerate ``expected.json``: what each workload's operation produces.

    python3 perfbench/record.py

Run it only on a commit whose outputs are known good; the benchmark then
holds every later commit to these bytes and counts.  Before writing, the
recorded facts are checked against values known independently of the
program: 1, 1, 2, 5, 12, 35 models of sizes 1..6, 18 congruences at
N <= 6, and Bell(n - 1) partitions with zero alone per n-element model.
"""

import json
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads  # noqa: E402


def bell(n):
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def main():
    expected = {}
    with tempfile.TemporaryDirectory(dir=BENCH_DIR) as tmp:
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(0, Path(tmp))
            expected[name] = wl.describe(wl.run())
    v, c, r = (expected[k] for k in ("verify-n6", "catalog-n6", "relations-n8"))
    assert (v["exit"], v["status"], v["models"], v["relations"]) == (0, "ok", 56, 18), v
    assert c["exit"] == 0 and c["counts"] == {
        str(n): k for n, k in enumerate([1, 1, 2, 5, 12, 35], start=1)
    }, c
    for family, rec in r.items():
        n = bytes.fromhex(rec["key"])[0]
        assert rec["partitions"] == bell(n - 1), (family, rec["partitions"])
    with open(BENCH_DIR / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
