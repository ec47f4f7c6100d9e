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
from .errors import InternalInvariant, LimitExceeded, UnknownPredicate
from .exocenter import center, exocenter

FORMAT_VERSION = 1
GENERATOR_VERSION = "0.1.0"
# the largest model size ``verify`` and ``search`` reach; a catalog file
# stops at ``CATALOG_MAX_N``, as the size-9 file would record the 11.2 M
# partitions of its 2 699 models
MAX_N = 9
CATALOG_MAX_N = 8


@dataclass(slots=True)
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


@dataclass
class CatalogEntry:
    key: bytes  # the model's catalog key
    table: object
    flags: dict
    relations: tuple

    @property
    def n(self):
        return self.key[0]


def _rows(key):
    """The sum table of the model whose catalog key is ``key``, as tuple
    rows."""
    n, entries = key[0], array("b", key[1:])
    return tuple(tuple(entries[i:i + n]) for i in range(0, n * n, n))


def _extensions(parents, n):
    """The catalog keys of size n, sorted: the distinct canonical forms of
    the one-point top extensions of ``parents``, the keys of size n - 1,
    one extension per orbit of each parent's automorphisms."""
    out = set()
    for key in parents:
        rows = _rows(key)
        for child in _kernels.enumerate_tables(rows, core.automorphisms(rows)):
            out.add(bytes([n]) + core.table_bytes(core.canonical_rows(child)))
    return sorted(out)


def _table_sizes():
    """The catalog keys of sizes 1, 2, ..., each list built from the one
    before it, lazily."""
    one = bytes([1]) + core.table_bytes(((0,),))
    return itertools.accumulate(itertools.count(2), _extensions, initial=[one])


def _catalog_tables(max_n, limit=MAX_N):
    """The catalog key of every model up to size ``max_n`` (its size byte
    and canonical ``core.table_bytes``, as ``core.canonical_form`` gives),
    in catalog order, lazily; a size over ``limit`` raises at the call."""
    if max_n > limit:
        raise LimitExceeded(f"max_n={max_n} exceeds the configured limit")
    return itertools.chain.from_iterable(
        itertools.islice(_table_sizes(), max_n))


def enumerate_geas(max_n):
    """Stream of catalog entries for all models up to isomorphism,
    ordered by (size, canonical key)."""
    for key in _catalog_tables(max_n):
        yield build_entry(key[0], key[1:])


def ordered_map(fn, items, jobs):
    """``fn`` over ``items``, lazily and in item order: in this process when
    ``jobs`` is 1, else in ``jobs`` forked workers, at most one per CPU
    (``verify --jobs``).

    With workers, ``fn`` must pickle (a module-level function, or a
    ``functools.partial`` of one), and so must its results and the errors
    it raises.  ``items`` is drawn lazily in the pool's feeder thread
    while the workers run.  The workers are forked when the pool starts,
    so they see this process's memory as it is then, caches included.
    """
    if jobs == 1:
        yield from map(fn, items)
        return
    from multiprocessing import get_context

    with get_context("fork").Pool(min(jobs, os.cpu_count() or 1)) as pool:
        yield from pool.imap(fn, items)


@lru_cache(maxsize=None)
def cached_entries(max_n):
    """Materialized catalog, kept for reuse in one process.

    No command reads it: ``verify`` and ``search`` build each model as
    they reach it and drop it after.  Tests and benchmarks use it.
    """
    return tuple(enumerate_geas(max_n))


def model(key):
    """The catalog model whose catalog key is ``key``."""
    E = core.GeaTable([str(i) for i in range(key[0])], _rows(key),
                      _validated=True)
    if not core.is_canonical_table(E.sum):
        raise InternalInvariant("non-canonical table reached the catalog")
    return E


def build_entry(n, flat_bytes):
    """The catalog entry of the model whose key is ``bytes([n]) +
    flat_bytes``, the two parts the ``relations-n8`` benchmark passes."""
    key = bytes([n]) + flat_bytes
    E = model(key)
    return CatalogEntry(
        key=key,
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
    failure, the ``(axiom name, witness)`` tuple that the sweep kernel
    shares among the partitions failing at that witness, or None for a
    congruence."""
    partitions, eq = _swept_partitions(E.n)
    return zip(partitions, _kernels.sk_first_failures(E._sk_plan, eq))


def congruences(E):
    """The ``dm.Dgea`` of each congruence of ``E`` with zero alone in its
    class, in partition order.

    A model without a unit (``E.greatest()`` None) has no congruence, so
    it is not swept.  Lemma: SK4b, as ``_kernels`` checks it, asks for
    each e not below f a nonzero x <= e related to a nonzero d orthogonal
    to f.  A finite model without a unit has two maximal elements
    m != m'.  Then m' is not below m, and no nonzero d is orthogonal to m,
    since m + d would lie strictly above the maximal m.  So the pair
    (m', m) fails SK4b under every partition.  ``enumerate_relations``
    still sweeps every model, since each record needs its first failure.
    """
    if E.greatest() is None:
        return []
    return [dm.Dgea(cg.EquivRel(E, class_of))
            for class_of, fail in _sweep(E) if fail is None]


def enumerate_relations(E):
    """Every partition with zero alone, with its congruence verdict, as
    the records of the catalog file.

    A record that fails the sweep keeps its restricted growth string,
    which is dense class ids already, and the sweep's failure tuple as
    its first failure.  A relation that passes gets the record of
    ``_congruence_record``.  Each record is built with positional
    arguments and yielded as it is made.
    """
    for class_of, fail in _sweep(E):
        yield (RelationRecord(class_of, fail, None, False, None)
               if fail is not None else _congruence_record(E, class_of))


def _congruence_record(E, class_of):
    """The record of a congruence.  Its ``dm.Dgea`` checks the full report
    and the separation axiom SK4a', and, when that passes, gives a summary
    of its type decomposition; when SK4a' fails, it is the record's first
    failure.  The ``Dgea`` is dropped once the record is made;
    ``congruences`` keeps them instead."""
    d = dm.Dgea(cg.EquivRel(E, class_of))
    if d.der:
        return RelationRecord(d.R.class_of, None,
                              _decomposition_summary(E, d.decomposition),
                              True, True)
    return RelationRecord(d.R.class_of, ("SK4a'", d.sk4a_prime), None,
                          True, False)


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


def write_catalog(path, max_n):
    """Write the catalog file; returns the number of entries.

    Records go to ``<path>.part``, one flushed line each, and the file is
    moved onto ``path`` only when complete, so ``path`` never holds a
    partial catalog.  A run that fails or is killed leaves ``<path>.part``
    behind, and the next run writes it afresh.  A directory at ``path`` or
    a size over the limit raises before any table is built or any file is
    touched.
    """
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    keys = _catalog_tables(max_n, CATALOG_MAX_N)
    header = {
        "format_version": FORMAT_VERSION,
        "max_n": max_n,
        "generator_version": GENERATOR_VERSION,
    }
    part = f"{path}.part"
    count = 0
    with open(part, "w", encoding="utf-8", buffering=1) as fh:
        fh.write(_dump(header) + "\n")
        for key in keys:
            fh.write(_record_line(key) + "\n")
            count += 1
    os.replace(part, path)
    return count


def _record_line(key):
    """The catalog file line of the model whose key is ``key``:
    its record ``_dump``ed, from JSON fragments joined in sorted-key
    order.

    Only the separators between keys are written here; every value
    passes through ``_dump``.  Catalog names are ``str(i)``, so the class
    lists of a size's partitions are the same in every model of that
    size, and the rest of a failing partition's record depends only on
    its axiom and witness; each is encoded once per process.
    """
    entry = build_entry(key[0], key[1:])
    relations = ",".join(
        classes + (_relation_fields(r.sk, r.der, r.first_failure,
                                    r.decomposition)
                   if r.sk else _failure_fields(r.first_failure))
        for classes, r in zip(_class_fragments(entry.n), entry.relations,
                              strict=True))
    return (f'{{"flags":{_dump(entry.flags)},"key":{_dump(key.hex())},'
            f'"n":{_dump(entry.n)},"relations":[{relations}],'
            f'"sum_table":{_dump(entry.table.sum)}}}')


@lru_cache(maxsize=None)
def _class_fragments(n):
    """The start of each swept partition's record, in ``_swept_partitions``
    order: the opening brace, its class lists and the comma after them."""
    partitions, _ = _swept_partitions(n)
    return tuple(
        '{"classes":'
        + _dump([[str(e) for e in c] for c in cg.partition_classes(p)]) + ","
        for p in partitions)


def _relation_fields(sk, der, fail, decomposition):
    """The rest of a relation's record after its classes: its other fields
    ``_dump``ed, without the opening brace."""
    return _dump({
        "decomposition": decomposition,
        "der": der,
        "first_failure": None if fail is None else {
            "axiom": fail[0],
            "witness": [str(w) for w in fail[1]],
        },
        "sk": sk,
    })[1:]


@lru_cache(maxsize=None)
def _failure_fields(fail):
    """``_relation_fields`` of a partition that fails the sweep with
    ``fail``, its (axiom name, witness)."""
    return _relation_fields(False, None, fail, None)


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
        if not hull_mod.is_divisible(H):
            continue
        monads = [e for e in range(1, E.n) if hull_mod.is_monad(H, e)]
        if monads:
            return {
                "hull": [list(m) for m in H.maps],
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
    for key in _catalog_tables(max_n):
        E = model(key)
        hit = pred(E, congruences(E))
        if hit is not None:
            return {"key": key.hex(), "n": E.n, "witness": hit}
    return None

