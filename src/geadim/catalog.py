"""Exhaustive model catalogs: enumeration, relations, persistence, search.

Models are enumerated by backtracking over partial sum tables; a labeled
table is kept exactly when it is its own canonical representative, so
each isomorphism class appears once, the stream is independent of how the
work is partitioned, and re-runs are bit-identical.
"""

import itertools
import json
import os
from array import array
from dataclasses import dataclass, field
from functools import lru_cache

from . import _kernels, congruence as cg, core, dimension as dm
from .errors import CorruptCatalog, LimitExceeded, UnknownPredicate
from .exocenter import exocenter

FORMAT_VERSION = 1
GENERATOR_VERSION = "0.1.0"
DEFAULT_MAX_N = 7
HARD_MAX_N = 8


@dataclass
class RelationRecord:
    classes: tuple  # tuple of tuples of element indices
    rel: object
    report: object
    sk: bool
    der: object  # bool once computed, None when sk fails
    decomposition: object  # summary dict or None
    # the relation's dm.Dgea when it is a congruence, for the suite; never
    # persisted
    dgea: object = field(default=None, repr=False, compare=False)

    def summary(self, names):
        rec = {
            "classes": [[names[e] for e in c] for c in self.classes],
            "sk": self.sk,
            "der": self.der,
        }
        fail = self.report.first_failure()
        rec["first_failure"] = (
            None if fail is None else {
                "axiom": fail[0],
                "witness": [names[w] for w in fail[1]],
            }
        )
        rec["decomposition"] = self.decomposition
        return rec


@dataclass
class CatalogEntry:
    key: str
    n: int
    table: object
    flags: dict
    relations: tuple

    def record(self):
        """Persistable form, bit-exact across runs."""
        return {
            "key": self.key,
            "n": self.n,
            "sum_table": [list(row) for row in self.table.sum],
            "flags": self.flags,
            "relations": [r.summary(self.table.names) for r in self.relations],
        }


def _canonical_tables(n):
    """Canonical sum tables for size n, as ``core.table_bytes``, sorted."""
    return sorted(
        core.table_bytes(rows)
        for rows in _kernels.enumerate_tables(n)
        if core.is_canonical_table(rows)
    )


def _catalog_tables(max_n, limit):
    """(n, canonical table bytes) of every model up to size ``max_n``, in
    catalog order, lazily; the size limit is checked at the call."""
    if max_n > limit or max_n > HARD_MAX_N:
        raise LimitExceeded(f"max_n={max_n} exceeds the configured limit")
    return ((n, flat) for n in range(1, max_n + 1)
            for flat in _canonical_tables(n))


def enumerate_geas(max_n, limit=DEFAULT_MAX_N):
    """Stream of catalog entries for all models up to isomorphism,
    ordered by (size, canonical key)."""
    for n, flat in _catalog_tables(max_n, limit):
        yield build_entry(n, flat)


def ordered_map(fn, items, jobs):
    """``fn`` over ``items``, lazily and in item order: in this process when
    ``jobs`` is 1, else in ``jobs`` forked workers.

    With workers, ``fn`` must pickle (a module-level function, or a
    ``functools.partial`` of one), and ``items`` is drawn in a thread of
    the pool.  The workers are forked when the pool starts, so they see
    this process's memory as it is then, caches included.
    """
    if jobs == 1:
        yield from map(fn, items)
        return
    from multiprocessing import get_context

    with get_context("fork").Pool(jobs) as pool:
        yield from pool.imap(fn, items)


@lru_cache(maxsize=None)
def cached_entries(max_n):
    """Materialized catalog, kept for reuse in one process.

    No command reads it: ``verify`` and ``search`` build each entry as
    they reach it and drop it after.  Tests and benchmarks use it.
    """
    return tuple(enumerate_geas(max_n))


def build_entry(n, flat_bytes):
    from .errors import InternalInvariant

    flat = array("b", flat_bytes)
    E = core.GeaTable([str(i) for i in range(n)],
                      [flat[i:i + n] for i in range(0, n * n, n)],
                      _validated=True)
    key = core.canonical_form(E).hex()
    if key != (bytes([n]) + flat_bytes).hex():
        raise InternalInvariant("non-canonical table reached the catalog")
    flags = _structure_flags(E)
    relations = tuple(enumerate_relations(E))
    return CatalogEntry(
        key=key,
        n=n,
        table=E,
        flags=flags,
        relations=relations,
    )


def _structure_flags(E):
    s = core.structure_predicates(E)
    gex = exocenter(E)
    cen = dm._center_pairs(E)
    return {
        "directed": s.directed,
        "orthogonally_ordered": s.orthogonally_ordered,
        "is_ea": None if s.is_ea is None else E.names[s.is_ea],
        "lattice": s.lattice,
        "archimedean": s.archimedean,
        "dedekind_orthocomplete": s.dedekind_orthocomplete,
        "orthocomplete": s.orthocomplete,
        "gex_size": len(gex),
        "center": [E.names[c] for c, _ in cen],
        "atoms": [E.names[a] for a in E.atoms],
        "chain_height": E.chain_height,
    }


def partitions_with_zero_singleton(n):
    """Partitions of 1..n-1 as restricted growth strings, zero kept alone."""
    if n == 1:
        yield [0]
        return
    rgs = [0] * (n - 1)

    def rec(i, maxid):
        if i == len(rgs):
            yield list(rgs)
            return
        for c in range(maxid + 2):
            rgs[i] = c
            yield from rec(i + 1, max(maxid, c))

    for assign in rec(0, -1):
        yield [0] + [c + 1 for c in assign]


def enumerate_relations(E):
    """Every partition with zero alone, with its axiom report.

    Each relation that passes the congruence axioms gets its ``dm.Dgea``,
    which checks the separation axiom, and, when that passes, a summary of
    its type decomposition.
    """
    for class_of in partitions_with_zero_singleton(E.n):
        R = cg.EquivRel(E, class_of)
        report = cg.check_sk(E, R)
        d = None
        if report.sk:
            d = dm.Dgea(E, R)
            report = d.report
        yield RelationRecord(
            classes=R.classes,
            rel=R,
            report=report,
            sk=report.sk,
            der=None if d is None else d.der,
            decomposition=(
                _decomposition_summary(E, d.decomposition)
                if d is not None and d.der else None
            ),
            dgea=d,
        )


def _decomposition_summary(E, dec):
    out = {
        "type": dec.type_verdict,
        "finite_type": dec.finite_type,
        "properly_non_finite": dec.properly_non_finite,
        "unit": None if dec.unit is None else E.names[dec.unit],
        "f_tilde": E.names[dec.f_tilde],
    }
    for name in ("I", "II", "III"):
        out[f"summand_{name}"] = [E.names[e] for e in dec.summands[name]]
    return out


# ---------------------------------------------------------------------------
# persistence: line-delimited records with a parameter header
# ---------------------------------------------------------------------------

def _dump(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_catalog(path, max_n, jobs=1, resume=False):
    """Write (or resume) the catalog file; returns the number of entries.

    Records go to ``<path>.part``, one flushed line each, and the file is
    moved onto ``path`` only when complete, so ``path`` never holds a
    partial catalog written here.  A run that fails or is killed leaves
    ``<path>.part`` behind; ``resume`` continues it, or, when there is
    none, a partial ``path`` in place, after checking that it is a prefix
    of the enumeration.  A size over the limit raises before any file is
    touched.
    """
    tables = _catalog_tables(max_n, max_n)
    header = {
        "format_version": FORMAT_VERSION,
        "max_n": max_n,
        "generator_version": GENERATOR_VERSION,
    }
    part = f"{path}.part"
    existing = []
    if resume:
        source = part if os.path.exists(part) else path
        existing = _resumable_keys(source, header)
        if existing and source == path:
            with open(path, "a", encoding="utf-8", buffering=1) as fh:
                return _write_entries(fh, tables, jobs, existing)
    with open(part, "a" if existing else "w", encoding="utf-8", buffering=1) as fh:
        if not existing:
            fh.write(_dump(header) + "\n")
        count = _write_entries(fh, tables, jobs, existing)
    os.replace(part, path)
    return count


def _write_entries(fh, tables, jobs, existing):
    """Write the record of every model of ``tables`` after the ``existing``
    keys, which must be a prefix of them; returns the number of entries.

    The models already written are checked by key and not built again.
    """
    keys = (bytes([n]) + flat for n, flat in tables)
    for key in existing:
        if next(keys, b"").hex() != key:
            raise LimitExceeded(
                "existing catalog is not a prefix of this enumeration"
            )
    count = len(existing)
    for line in ordered_map(_record_line, keys, jobs):
        fh.write(line + "\n")
        count += 1
    return count


def _record_line(key):
    return _dump(build_entry(key[0], key[1:]).record())


def _catalog_lines(path):
    """The JSON objects of a catalog file in file order: the header, then
    one per model record.  A zero-byte file has none.

    Raises ``CorruptCatalog`` as soon as the file turns out not to be
    complete lines of catalog JSON: bytes that are not UTF-8, a last line
    cut short, a line that is not JSON, or a record without a key.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        raise CorruptCatalog(f"{path} is not a catalog file") from None
    if text and not text.endswith("\n"):
        raise CorruptCatalog(f"{path} ends in the middle of a line")
    for number, line in enumerate(text.splitlines(), 1):
        if number > 1 and not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            raise CorruptCatalog(
                f"{path} line {number} is not a JSON record"
            ) from None
        if number > 1 and not (
            isinstance(obj, dict) and isinstance(obj.get("key"), str)
        ):
            raise CorruptCatalog(f"{path} line {number} is not a model record")
        yield obj


def _resumable_keys(path, header):
    """Keys of the records already in a catalog file, in file order.

    A missing or zero-byte file has none.  Raises ``LimitExceeded`` when the
    header names other parameters and ``CorruptCatalog`` when the file is
    damaged (see ``_catalog_lines``), so a damaged file is never appended
    to.
    """
    lines = _catalog_lines(path)
    try:
        first = next(lines, None)
    except FileNotFoundError:
        return []
    if first is None:
        return []
    if first != header:
        raise LimitExceeded("existing catalog has different parameters")
    return [obj["key"] for obj in lines]


# ---------------------------------------------------------------------------
# counterexample search
# ---------------------------------------------------------------------------

def _search_sk_not_der(entry):
    for rec in entry.relations:
        if rec.sk and rec.der is False:
            return {"relation": [list(c) for c in rec.classes]}
    return None


def _search_non_type_i(entry):
    for rec in entry.relations:
        if rec.der and rec.decomposition["type"] != "I":
            return {
                "relation": [list(c) for c in rec.classes],
                "type": rec.decomposition["type"],
            }
    return None


def _search_divisible_with_monads(entry):
    from . import hull as hull_mod

    E = entry.table
    S = exocenter(E)
    for H in hull_mod.enumerate_hull_systems(E, S):
        if not hull_mod.is_divisible(E, H).divisible:
            continue
        monads = [
            e for e in range(1, E.n) if hull_mod.classify_eta(H, e).monad
        ]
        if monads:
            return {
                "hull": [list(m.image) for m in H.maps],
                "monads": [E.names[e] for e in monads],
            }
    return None


def _search_never(entry):
    return None


SEARCH_PREDICATES = {
    "sk-and-not-der": _search_sk_not_der,
    "non-type-i-dgea": _search_non_type_i,
    "divisible-hull-with-monads": _search_divisible_with_monads,
    "trivially-false": _search_never,
}


def search_counterexample(name, max_n):
    """First witness in canonical order, or None when the search exhausts."""
    if name not in SEARCH_PREDICATES:
        raise UnknownPredicate(
            f"{name!r}; known: {', '.join(sorted(SEARCH_PREDICATES))}"
        )
    pred = SEARCH_PREDICATES[name]
    for entry in enumerate_geas(max_n):
        hit = pred(entry)
        if hit is not None:
            return {"key": entry.key, "n": entry.n, "witness": hit}
    return None


def naive_class_count(n):
    """Oracle for small sizes: filter every possible table, then deduplicate.

    Enumerates all assignments of the nonzero cells with no pruning at all,
    keeps those passing the axiom check, and counts orbits under all
    zero-fixing permutations.  Independent of the production enumerator's
    pruning and of the color-refined canonical form.
    """
    cells = [(i, j) for i in range(1, n) for j in range(i, n)]
    perms = [
        (0,) + rest for rest in itertools.permutations(range(1, n))
    ]
    keys = set()
    for choice in itertools.product(range(-1, n), repeat=len(cells)):
        table = [[-1] * n for _ in range(n)]
        for e in range(n):
            table[e][0] = e
            table[0][e] = e
        for (i, j), v in zip(cells, choice):
            table[i][j] = v
            table[j][i] = v
        if _kernels.axiom_violation(table) is not None:
            continue
        orbit_min = None
        for p in perms:
            relab = [[-1] * n for _ in range(n)]
            for a in range(n):
                for b in range(n):
                    v = table[a][b]
                    relab[p[a]][p[b]] = -1 if v < 0 else p[v]
            key = bytes(x + 1 for row in relab for x in row)
            if orbit_min is None or key < orbit_min:
                orbit_min = key
        keys.add(orbit_min)
    return len(keys)
