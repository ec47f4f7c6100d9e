"""Exhaustive model catalogs: enumeration, relations, persistence, search.

Deleting a maximal element of a finite model leaves a model, so the
models of each size are the one-point top extensions of the models one
size smaller (``_kernels.enumerate_tables``).  Extensions that differ by
an automorphism of their parent are isomorphic, so each parent is
extended once per orbit of its automorphisms (``core.automorphisms``).
Each extension is reduced to its canonical representative and the
distinct ones are sorted, so each isomorphism class appears once, the
stream is independent of how the work is partitioned, and re-runs are
bit-identical.  This is isomorph-free generation by augmentation
(B. D. McKay, "Isomorph-free exhaustive generation", J. Algorithms 26
(1998)).
"""

import errno
import itertools
import json
import os
from array import array
from dataclasses import dataclass
from functools import lru_cache

from . import _kernels, congruence as cg, core, dimension as dm, hull as hull_mod
from .errors import (
    CorruptCatalog,
    InternalInvariant,
    LimitExceeded,
    UnknownPredicate,
)
from .exocenter import center, exocenter

FORMAT_VERSION = 1
GENERATOR_VERSION = "0.1.0"
# the largest model size ``verify`` and ``search`` reach; a catalog file
# stops at ``CATALOG_MAX_N``, as the size-9 file would record the 11.2 M
# partitions of its 2 699 models
MAX_N = 9
CATALOG_MAX_N = 8


@dataclass
class RelationRecord:
    class_of: tuple  # the dense class id of each element
    first_failure: object  # (axiom name, witness) or None
    decomposition: object  # summary dict or None
    sk: bool  # whether the relation passes the congruence axioms
    der: object  # whether a congruence is a dimension relation; None
    # for a relation that is no congruence

    @property
    def classes(self):
        """The classes in id order, each a tuple of element indices."""
        return cg.partition_classes(self.class_of)

    def summary(self, names):
        fail = self.first_failure
        return {
            "classes": [[names[e] for e in c] for c in self.classes],
            "sk": self.sk,
            "der": self.der,
            "first_failure": None if fail is None else {
                "axiom": fail[0],
                "witness": [names[w] for w in fail[1]],
            },
            "decomposition": self.decomposition,
        }


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


def _rows(flat, n):
    """The n-element table whose ``core.table_bytes`` are ``flat``, as
    tuple rows."""
    entries = array("b", flat)
    return tuple(tuple(entries[i:i + n]) for i in range(0, n * n, n))


def _extensions(parents, n):
    """Canonical sum tables for size n, as ``core.table_bytes``, sorted:
    the distinct canonical forms of the one-point top extensions of
    ``parents``, the canonical tables for size n - 1, one extension per
    orbit of each parent's automorphisms."""
    out = set()
    for flat in parents:
        rows = _rows(flat, n - 1)
        for child in _kernels.enumerate_tables(rows, core.automorphisms(rows)):
            out.add(core.table_bytes(core.canonical_rows(child)))
    return sorted(out)


def _table_sizes():
    """The canonical tables for sizes 1, 2, ..., each list built from the
    one before it, lazily."""
    one = core.table_bytes(((0,),))
    return itertools.accumulate(itertools.count(2), _extensions, initial=[one])


def _catalog_tables(max_n, limit=MAX_N):
    """(n, canonical table bytes) of every model up to size ``max_n``, in
    catalog order, lazily; a size over ``limit`` raises at the call."""
    if max_n > limit:
        raise LimitExceeded(f"max_n={max_n} exceeds the configured limit")
    return ((n, flat) for n, tables in zip(range(1, max_n + 1), _table_sizes())
            for flat in tables)


def enumerate_geas(max_n):
    """Stream of catalog entries for all models up to isomorphism,
    ordered by (size, canonical key)."""
    for n, flat in _catalog_tables(max_n):
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

    No command reads it: ``verify`` and ``search`` build each model as
    they reach it and drop it after.  Tests and benchmarks use it.
    """
    return tuple(enumerate_geas(max_n))


def _key(n, flat):
    """The catalog key of the n-element table ``flat``."""
    return (bytes([n]) + flat).hex()


def model(n, flat):
    """The n-element catalog model whose ``core.table_bytes`` are ``flat``."""
    E = core.GeaTable([str(i) for i in range(n)], _rows(flat, n),
                      _validated=True)
    if not core.is_canonical_table(E.sum):
        raise InternalInvariant("non-canonical table reached the catalog")
    return E


def build_entry(n, flat_bytes):
    E = model(n, flat_bytes)
    return CatalogEntry(
        key=_key(n, flat_bytes),
        n=n,
        table=E,
        flags=_structure_flags(E),
        relations=tuple(enumerate_relations(E)),
    )


def _structure_flags(E):
    s = core.structure_predicates(E)
    gex = exocenter(E)
    cen = center(E)
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
    """Partitions of 1..n-1 as restricted growth strings, zero kept alone
    in class 0, each a tuple, in lexicographic order."""
    ids = [0] + [1] * (n - 1)
    top = [0] + [1] * (n - 1)  # top[i]: the largest id in ids[:i + 1]
    while True:
        yield tuple(ids)
        # the last element whose id can still grow takes the next id, and
        # every element after it goes back to class 1
        i = n - 1
        while i > 1 and ids[i] > top[i - 1]:
            i -= 1
        if i <= 1:
            return
        ids[i] += 1
        top[i] = max(top[i - 1], ids[i])
        ids[i + 1:] = [1] * (n - 1 - i)
        top[i + 1:] = [top[i]] * (n - 1 - i)


@lru_cache(maxsize=None)
def _swept_partitions(n):
    """The partitions with zero alone of n elements and their
    ``_kernels.class_masks``, built once per size."""
    partitions = tuple(partitions_with_zero_singleton(n))
    return partitions, _kernels.class_masks(partitions)


def _sweep(E):
    """Each partition with zero alone of ``E``'s elements, with its first
    failing congruence axiom and witness, or None for a congruence."""
    partitions, eq = _swept_partitions(E.n)
    return zip(partitions, _kernels.sk_first_failures(E._sk_plan, eq))


def congruences(E):
    """The ``dm.Dgea`` of each congruence of ``E`` with zero alone in its
    class, in partition order."""
    return [dm.Dgea(cg.EquivRel(E, class_of))
            for class_of, fail in _sweep(E) if fail is None]


def enumerate_relations(E):
    """Every partition with zero alone, with its congruence verdict, as
    the records of the catalog file.

    A record that fails the sweep keeps its restricted growth string and
    its first failing axiom and witness; its classes are read off the
    string when it is summarized.  Each relation that passes gets its
    ``dm.Dgea``, which checks the full report and the separation axiom
    SK4a', and, when that passes, a summary of its type decomposition;
    when SK4a' fails, it is the record's first failure.  The ``Dgea`` is
    dropped once its record is made; ``congruences`` keeps them instead.
    """
    for class_of, fail in _sweep(E):
        if fail is not None:
            # restricted growth strings are dense class ids already
            yield RelationRecord(class_of, (cg.AXES[fail[0]], fail[1]), None,
                                 sk=False, der=None)
            continue
        d = dm.Dgea(cg.EquivRel(E, class_of))
        yield RelationRecord(
            d.R.class_of,
            None if d.der else ("SK4a'", d.sk4a_prime),
            _decomposition_summary(E, d.decomposition) if d.der else None,
            sk=True,
            der=d.der,
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
    of the enumeration.  A directory at ``path`` or a size over the limit
    raises before any table is built or any file is touched.
    """
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    tables = _catalog_tables(max_n, CATALOG_MAX_N)
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

def _search_sk_not_der(E, dgeas):
    for d in dgeas:
        if not d.der:
            return {"relation": [list(c) for c in d.R.classes]}
    return None


def _search_non_type_i(E, dgeas):
    for d in dgeas:
        if d.der and d.decomposition.type_verdict != "I":
            return {
                "relation": [list(c) for c in d.R.classes],
                "type": d.decomposition.type_verdict,
            }
    return None


def _search_divisible_with_monads(E, dgeas):
    for H in hull_mod.enumerate_hull_systems(E):
        if not hull_mod.is_divisible(H).divisible:
            continue
        monads = [e for e in range(1, E.n) if hull_mod.is_monad(H, e)]
        if monads:
            return {
                "hull": [list(m.image) for m in H.maps],
                "monads": [E.names[e] for e in monads],
            }
    return None


def _search_never(E, dgeas):
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
    for n, flat in _catalog_tables(max_n):
        E = model(n, flat)
        hit = pred(E, congruences(E))
        if hit is not None:
            return {"key": _key(n, flat), "n": n, "witness": hit}
    return None

