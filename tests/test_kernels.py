"""The list-based kernels against fixed digests and definitional oracles."""

import hashlib
import itertools

import numpy as np

from geadim import _kernels as K
from geadim import catalog, core

EMPTY = np.empty(0, dtype=np.int8)

# sha256 of the enumerate_tables streams for n = 1..6, concatenated
ENUMERATION_SHA256 = (
    "d89ed23a1d2b58ae84a9e349e8c0ff1e59f5b3441a85fccf09eedaca5290fb9d"
)
# sha256 of sk_witnesses over every partition (zero alone) of every
# catalog model with n <= 5, in catalog and partition order
SK_WITNESSES_SHA256 = (
    "5a706c28cf0a084097576da4ba10b7f138993f548c2c7fcc34d289f2189aed6b"
)


def _all_small_tables():
    tables = []
    for n in (2, 3, 4):
        for flat in K.enumerate_tables(n, EMPTY):
            tables.append(flat.reshape(n, n).copy())
    return tables


def _catalog_models(max_n):
    """One GeaTable per isomorphism class, in catalog order."""
    for n in range(1, max_n + 1):
        for flat in catalog._canonical_tables(n):
            table = np.frombuffer(flat, dtype=np.int8).reshape(n, n)
            yield core.GeaTable([str(i) for i in range(n)], table,
                                _validated=True)


def test_enumeration_stream_digest():
    h = hashlib.sha256()
    for n in range(1, 7):
        tables = K.enumerate_tables(n, EMPTY)
        assert tables.dtype == np.int8 and tables.shape[1] == n * n
        h.update(tables.tobytes())
    assert h.hexdigest() == ENUMERATION_SHA256


def test_prefix_partition_is_exact():
    # branches by first-cell value, in candidate order, concatenate to the
    # full DFS stream; values the DFS never tries give nothing
    for n in (4, 5):
        full = K.enumerate_tables(n, EMPTY).tolist()
        pieces = []
        for prefix in catalog._branch_prefixes(n):
            pieces += K.enumerate_tables(n, prefix).tolist()
        assert pieces == full
        for v in (0, 1, n):
            out = K.enumerate_tables(n, np.array([v], dtype=np.int8))
            assert out.shape == (0, n * n)


def test_full_prefix_returns_the_table():
    for t in _all_small_tables():
        n = t.shape[0]
        prefix = np.array([t[i, j] for i in range(1, n) for j in range(i, n)],
                          dtype=np.int8)
        out = K.enumerate_tables(n, prefix)
        assert out.tolist() == [t.reshape(n * n).tolist()]


def _literal_exomaps(E):
    """Every self-map m of E passing EXC1-EXC4, in the order of the n**n
    counter with m(0) as the fastest digit."""
    n = E.n
    rows = []
    for digits in itertools.product(range(n), repeat=n):
        m = digits[::-1]
        exc1 = all(
            E.sum_of(m[e], m[f]) == m[E.sum_of(e, f)]
            for e in range(n) for f in range(n)
            if E.sum_of(e, f) is not None
        )
        exc2 = all(m[m[e]] == m[e] for e in range(n))
        exc3 = all(E.leq[m[e], e] for e in range(n))
        exc4 = all(
            E.sum_of(e, f) is not None
            for e in range(n) for f in range(n)
            if m[e] == e and m[f] == 0
        )
        if exc1 and exc2 and exc3 and exc4:
            rows.append(list(m))
    return rows


def test_brute_exomaps_matches_literal_filter():
    for E in _catalog_models(5):
        rows = K.brute_exomaps(E.sum, E.leq)
        assert rows.dtype == np.int8 and rows.shape[1] == E.n
        assert rows.tolist() == _literal_exomaps(E)


def test_sk_witnesses_digest():
    h = hashlib.sha256()
    for E in _catalog_models(5):
        for class_of in catalog.partitions_with_zero_singleton(E.n):
            cls = np.array(class_of, dtype=np.int8)
            rows = K.sk_witnesses(E.sum, E.diff, E.leq, cls)
            assert rows.dtype == np.int64 and rows.shape == (6, 5)
            h.update(rows.tobytes())
    assert h.hexdigest() == SK_WITNESSES_SHA256


def test_canonical_key_stable_under_full_relabeling():
    # the candidate-permutation pruning must not change the canonical key
    for t in _all_small_tables():
        n = t.shape[0]
        if n > 4:
            continue
        E = core.GeaTable([str(i) for i in range(n)], t, _validated=True)
        key = core.canonical_form(E)
        for perm in itertools.permutations(range(1, n)):
            other = E.relabel([0, *perm])
            assert core.canonical_form(other) == key
