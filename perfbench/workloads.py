"""The three benchmark workloads: one operation each, and its output check.

Every workload runs serially (``--jobs 1``) in this process, one
operation at a time (a closed loop with one client).

* ``verify-n6``: ``geadim verify --max-size 6 --json`` with the catalog
  cache cleared first, since each command-line call pays for the catalog.
  It is the only workload that runs the property suite.
* ``catalog-n6``: ``geadim catalog --max-size 6`` into a fresh file.
  Enumeration, canonical filtering and the file write, no suite.
* ``relations-n8``: six 7- and 8-element models (see ``models.py``), each
  through ``core.canonical_form`` and ``catalog.build_entry``.  Large n and
  few congruences: the partition sweep with the congruence check dominates,
  with no enumeration and no suite.

``describe`` reduces an operation's output to the facts that are checked;
``expected.json`` holds those facts as the program produced them when the
benchmark was recorded (``record.py``), and ``check`` compares the two.
"""

import hashlib
import io
import json

from geadim import catalog, cli, core

import models


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


class VerifyN6:
    name = "verify-n6"
    models_per_op = 56
    argv = ["verify", "--max-size", "6", "--json"]

    def __init__(self, seed, workdir):
        pass

    def run(self):
        catalog.cached_entries.cache_clear()
        buf = io.StringIO()
        rc = cli.run_command(self.argv, out=buf)
        return rc, buf.getvalue()

    def describe(self, output):
        rc, text = output
        try:
            results = json.loads(text)["results"]
        except (ValueError, KeyError, TypeError):
            results = {}
        return {
            "exit": rc,
            "status": results.get("status"),
            "models": results.get("models"),
            "relations": results.get("relations"),
            "sha256": _sha256(text.encode("utf-8")),
        }


class CatalogN6:
    name = "catalog-n6"
    models_per_op = 56

    def __init__(self, seed, workdir):
        self.workdir = workdir
        self.serial = 0

    def run(self):
        self.serial += 1
        path = self.workdir / f"catalog-{self.serial}.jsonl"
        rc = cli.run_command(
            ["catalog", "--max-size", "6", "--out", str(path)], out=io.StringIO()
        )
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            data = b""
        else:
            path.unlink()
        return rc, data

    def describe(self, output):
        rc, data = output
        counts = {}
        for line in data.decode("utf-8", "replace").splitlines()[1:]:
            try:
                n = json.loads(line)["n"]
            except (ValueError, KeyError, TypeError):
                n = "unreadable"
            counts[str(n)] = counts.get(str(n), 0) + 1
        return {"exit": rc, "counts": counts, "sha256": _sha256(data)}


class RelationsN8:
    name = "relations-n8"
    models_per_op = len(models.FAMILIES)

    def __init__(self, seed, workdir):
        self.inputs = [
            (family, core.build_gea(names, "0", eqs))
            for family, names, eqs in models.pick(seed)
        ]

    def run(self):
        out = []
        for family, E in self.inputs:
            key = core.canonical_form(E)
            out.append((family, key, catalog.build_entry(E.n, key[1:])))
        return out

    def describe(self, output):
        """Per family: canonical key, partitions swept, and the congruences
        as (classes, der, type).  Non-congruences are left out so that a
        pruned partition search still matches."""
        return {
            family: {
                "key": key.hex(),
                "partitions": len(entry.relations),
                "congruences": [
                    [
                        [list(c) for c in r.classes],
                        r.der,
                        r.decomposition["type"] if r.decomposition else None,
                    ]
                    for r in entry.relations
                    if r.sk
                ],
            }
            for family, key, entry in output
        }


WORKLOADS = {w.name: w for w in (VerifyN6, CatalogN6, RelationsN8)}


def check(got, expected, where=""):
    """Differences between a description and its expected form."""
    if isinstance(expected, dict) and isinstance(got, dict):
        problems = []
        for k in sorted(set(expected) | set(got)):
            problems += check(got.get(k), expected.get(k), f"{where}/{k}")
        return problems
    if got != expected:
        return [f"{where}: got {got!r}, expected {expected!r}"]
    return []


def with_wrong_digests(expected):
    """A copy of ``expected`` whose digests and keys are all wrong."""
    if isinstance(expected, dict):
        return {
            k: ("0" * len(v) if k in ("sha256", "key") else with_wrong_digests(v))
            for k, v in expected.items()
        }
    return expected
