"""Independent oracles for the catalog's table stage, and small model
helpers that only the tests use.

``enumerate_tables`` is an orderly depth-first search over partial sum
tables of one size; it shares no code with the catalog's one-point top
extensions.  ``naive_class_count`` filters every possible table with no
pruning at all.  ``top_extensions`` and ``canonical_tables`` are the
table stage the catalog replaced: every one-point top extension of every
parent, filtered by ``axiom_violation``, where the catalog checks GEA2
at the new element only and extends once per orbit of the parent's
automorphisms.  ``is_divisible`` and ``td_sets`` are the literal searches
that ``hull.is_divisible``, ``hull.td_sets`` and ``hull.td_table``
replace: a search of ``below(p)`` squared per triple, and a search of
the families of one subset T.  ``disjoint_families`` filters every
subset by its pairs, and ``orthosum_family`` sums a multiset in every
order; the package's
``exocenter.disjoint_families`` finds the families and their orthosums in
one walk.  ``sk3e_split_eta`` searches the refinement grid of e + f once
per splitting s + t, where ``hull-grid-refinement`` collects it once per
(e, f).  ``related``, ``subequiv`` and ``is_hereditary`` are the literal
searches over ``R.sim`` that ``congruence._relation_masks`` replaces.
``structure_predicates`` reads the lattice flag off the literal ``sup``
and ``inf`` per pair and the partial sums of each orthogonal multiset
off ``orthosum_family`` per sub-multiset, where the package uses
bitmasks.  ``sup``, ``inf``, ``ideals`` and ``central_by_definition``
are the literal scans of the order and the sums that ``core.sup``,
``core.inf``, ``core.all_ideals`` and ``exocenter._central_by_definition``
replace with the model's order bitmasks; ``ideals`` tests every subset
holding 0, where ``core.all_ideals`` peels one element at a time.
``downset_exomaps`` filters every self-map below the identity by
EXC1-EXC4, where ``_kernels.brute_exomaps`` searches from the images of
the atoms.
``check_hull_system`` composes two hull maps afresh at every pair of
elements, where ``hull.check_hull_system`` composes each pair of
distinct maps once.
``record`` builds a catalog record as a dict, field by field, where
``catalog._record_line`` joins per-size JSON fragments.
"""

import functools
import itertools
from dataclasses import dataclass

from conftest import table_rows
from geadim import _kernels, congruence as cg, core, hull
from geadim.errors import InternalInvariant, MapNotInExocenter


def le(E, e, f):
    return E.leq[e][f]


def relabel(E, perm):
    """New table with element i renamed to position perm[i]."""
    n = E.n
    if sorted(perm) != list(range(n)) or perm[0] != 0:
        raise ValueError("perm must be a permutation fixing 0")
    new = _kernels.relabeled(E.sum, perm)
    names = [""] * n
    for i in range(n):
        names[perm[i]] = E.names[i]
    return core.GeaTable(names, new, _validated=True)


def top_extensions(rows):
    """Every one-point top extension of a valid table that
    ``_kernels.axiom_violation`` passes, as tuple rows.

    Each set of disjoint pairs {a, b} of nonzero elements with a + b
    undefined is tried, every pair summing to the new element m; the
    element a either stays unpaired or pairs with some b >= a.
    """
    m = len(rows)
    table = [list(row) + [-1] for row in rows] + [[m] + [-1] * m]
    table[0][m] = m
    out = []

    def place(a, paired):
        if a == m:
            if _kernels.axiom_violation(table) is None:
                out.append(tuple(map(tuple, table)))
            return
        place(a + 1, paired)
        if a in paired:
            return
        for b in range(a, m):
            if b not in paired and rows[a][b] < 0:
                table[a][b] = table[b][a] = m
                place(a + 1, paired | {a, b})
                table[a][b] = table[b][a] = -1

    place(1, frozenset())
    return out


@functools.lru_cache(maxsize=None)
def canonical_tables(n):
    """The canonical sum tables for size n, as ``core.table_bytes``,
    sorted: the distinct canonical forms of every ``top_extensions`` of
    the tables for size n - 1, with no orbit step."""
    if n == 1:
        return [core.table_bytes(((0,),))]
    return sorted({
        core.table_bytes(core.canonical_rows(child))
        for flat in canonical_tables(n - 1)
        for child in top_extensions(table_rows(flat, n - 1))
    })


@functools.lru_cache(maxsize=None)
def catalog_models(max_n):
    """One GeaTable per isomorphism class up to ``max_n`` elements, in
    catalog order."""
    return tuple(
        core.GeaTable([str(i) for i in range(n)], table_rows(flat, n),
                      _validated=True)
        for n in range(1, max_n + 1)
        for flat in canonical_tables(n)
    )


def record(entry):
    """The catalog record of a ``catalog.CatalogEntry`` as a dict, built
    field by field; ``catalog._record_line`` writes it ``_dump``ed."""
    return {
        "key": entry.key.hex(),
        "n": entry.n,
        "sum_table": [list(row) for row in entry.table.sum],
        "flags": entry.flags,
        "relations": [relation_summary(r, entry.table.names)
                      for r in entry.relations],
    }


def relation_summary(r, names):
    """The record of one ``catalog.RelationRecord`` in a catalog line."""
    fail = r.first_failure
    return {
        "classes": [[names[e] for e in c] for c in r.classes],
        "sk": r.sk,
        "der": r.der,
        "first_failure": None if fail is None else {
            "axiom": fail[0],
            "witness": [names[w] for w in fail[1]],
        },
        "decomposition": r.decomposition,
    }


def equality_relation(E):
    return cg.EquivRel(E, list(range(E.n)))


def indiscrete_hull(S):
    """eta_e = identity for nonzero e, zero map at zero."""
    return hull.hull_system(S, [S.zero] + [S.one] * (S.E.n - 1))


def enumerate_tables(n):
    """The valid sum tables on n elements whose row degrees are
    non-decreasing.

    The DFS assigns the cells (i, j) with 1 <= i <= j < n in row-major
    order.  Zero row/column are forced by neutrality.  Candidate values per
    cell (i, j) are -1 then v in 1..n-1 with v not in {i, j} (v = i or j
    would force the other summand to 0 by cancellation, v = 0 would break
    positivity).  Returns a list of the tables, each as tuple rows, in DFS
    order.

    The row degree k_e of e is the number of nonzero f with e + f
    defined, and only tables with k_1 <= k_2 <= ... <= k_(n-1) are
    emitted: the others can never be canonical (orderly generation,
    R. C. Read, "Every one a winner", Ann. Discrete Math. 2 (1978)).

    * The first round of ``core._refine_colors`` colors e != 0 by the
      signature (1, ((0,1), (1,1) * k_e), (0, 1 * (b_e - 1))), where b_e
      is the number of elements below e, so the ranks of these
      signatures order the elements by (k_e, b_e), lexicographically.
    * Every later signature starts with the previous color, so the final
      colors keep the order of the first-round colors.
    * ``core.is_canonical_table`` returns False unless the final colors
      are sorted in label order; then the first-round colors are sorted
      too, and so k is non-decreasing.
    * A finite model has a maximal element m, and k_m = 0, since a
      defined m + f with f != 0 lies strictly above m.  So k_1 = 0 in
      every emitted table: row 1 holds no defined cell.
    * A branch is rejected only when it defines a cell of row 1, or when
      some rows a < b already have lo(a) > lo(b) + open(b), where lo
      counts a row's defined nonzero cells and open its unassigned ones:
      no completion can repair either.
    """
    cells = [(i, j) for i in range(1, n) for j in range(i, n)]
    nc = len(cells)
    rng = range(n)
    table = [[-2] * n for _ in rng]
    for e in rng:
        table[e][0] = e
        table[0][e] = e
    out = []  # emitted tables

    def rejects(d, e, f):
        # Associativity screen for one triple, tolerant of -2 (unassigned)
        # entries: it only rejects when every lookup the triple needs is
        # decided, so a completable branch is never pruned.
        g = table[e][f]
        if g < 0:
            return False
        h = table[d][g]
        if h < 0:
            return False
        de = table[d][e]
        if de == -2:
            return False
        if de == -1:
            return True
        df = table[de][f]
        return df != -2 and df != h

    def assoc_ok(i, j):
        # The screen of (d, e, f) reads (e, f), (d, e+f), (d, e) and
        # (d+e, f).  Every triple passed before cell (i, j) was assigned, so
        # only the triples reading (i, j) or (j, i) can fail now: rechecking
        # them gives the verdict of the full n**3 screen.  Rows hold each
        # value at most once (the row-conflict check), so row.index finds
        # the only x + f = b and the only x + e = a.
        for a, b in ((i, j),) if i == j else ((i, j), (j, i)):
            for x in rng:
                if rejects(x, a, b) or rejects(a, b, x):  # (e,f), (d,e)
                    return False
            for x in rng:
                row = table[x]
                if b in row and rejects(a, x, row.index(b)):  # (d, e+f)
                    return False
                if a in row and rejects(x, row.index(a), b):  # (d+e, f)
                    return False
        return True

    # row degree bounds of the nonzero rows: lo counts the defined nonzero
    # cells, hi = lo + the unassigned cells is the most the row can reach
    lo = [0] * n
    hi = [n - 1] * n
    touched = [(i,) if i == j else (i, j) for i, j in cells]

    def place(k, v):
        # Assign cell k and say whether the branch survives.  Rows a < b
        # with lo[a] > hi[b] can never be degree-sorted; only pairs with a
        # row of cell k can have become such a pair: its lo grew when v is
        # defined, its hi shrank when v is -1.
        i, j = cells[k]
        if v >= 0 and i == 1:  # row 1 has the least degree, which is 0
            return False
        table[i][j] = table[j][i] = v
        if v >= 0:
            for r in touched[k]:
                lo[r] += 1
            for r in touched[k]:
                for b in range(r + 1, n):
                    if lo[r] > hi[b]:
                        return False
        else:
            for r in touched[k]:
                hi[r] -= 1
            for r in touched[k]:
                for a in range(1, r):
                    if lo[a] > hi[r]:
                        return False
        return assoc_ok(i, j)

    if nc == 0:  # n <= 1: the zero row is the whole table
        return [tuple(map(tuple, table))]

    # iterative DFS over the cells
    cands = [[-1] + [v for v in range(1, n) if v != i and v != j]
             for i, j in cells]
    nxt = [0] * nc  # index of the next candidate to try per cell
    depth = 0
    while depth >= 0:
        i, j = cells[depth]
        row_i, row_j = table[i], table[j]
        old = row_i[j]
        if old != -2:  # unassign, undoing place's count
            for r in touched[depth]:
                if old >= 0:
                    lo[r] -= 1
                else:
                    hi[r] += 1
            row_i[j] = row_j[i] = -2
        k = nxt[depth]
        if k == len(cands[depth]):
            nxt[depth] = 0
            depth -= 1
            continue
        nxt[depth] = k + 1
        v = cands[depth][k]
        if v != -1 and (v in row_i or v in row_j):
            continue
        if not place(depth, v):
            continue
        if depth == nc - 1:
            out.append(tuple(map(tuple, table)))
            continue
        depth += 1
    return out


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


def check_hull_system(S, maps):
    """HS1-HS3 for a candidate family of maps in ``S``, read literally:
    HS3 composes eta_e and eta_f afresh at every pair (e, f), where
    ``hull.check_hull_system`` composes each pair of distinct maps once.
    Returns (ok, witness) as the package does."""
    E, maps = S.E, tuple(maps)
    for m in maps:
        if m not in S:
            raise MapNotInExocenter(f"{m!r}")
    if any(maps[0]):
        return False, "HS1: map at zero is not the zero map"
    for e in range(E.n):
        if maps[e][e] != e:
            return False, f"HS2: map at {E.names[e]} does not fix it"
    for e, ie in enumerate(maps):
        for f, jf in enumerate(maps):
            m1 = tuple(ie[v] for v in jf)  # eta_e o eta_f
            if m1 != tuple(jf[v] for v in ie) or maps[ie[f]] != m1:
                return False, f"HS3 fails at ({E.names[e]}, {E.names[f]})"
    return True, None


def is_divisible(H):
    """Direct search for the defining splittings, cross-checked per triple
    against the equivalent dyad criterion (the meet-image of the target
    must be a dyad).  Not memoized."""
    E, S, eta = H.E, H.exoset, H.maps
    divisible = True
    for p in range(E.n):
        for s in range(E.n):
            for t in range(E.n):
                if E.sum[s][t] < 0:
                    continue
                if eta[p] != eta[E.sum[s][t]]:
                    continue
                direct = any(
                    E.sum[e][f] == p
                    and eta[e] == eta[s]
                    and eta[f] == eta[t]
                    for e in E.below[p]
                    for f in E.below[p]
                )
                target = S.meet(eta[s], eta[t])[p]
                via_dyad = hull.is_dyad(H, target)
                if direct != via_dyad:
                    raise InternalInvariant(
                        f"divisibility checks disagree at "
                        f"({E.names[p]}, {E.names[s]}, {E.names[t]})"
                    )
                if not direct:
                    divisible = False
    return divisible


def orthosum_family(E, family):
    """Orthosum of a finite multiset of elements, or None when undefined.

    Every ordering of the family must produce the same defined value;
    order-independence is rechecked rather than assumed (a mismatch would
    mean a corrupted table).  The empty family sums to zero.
    """
    memo = {}

    def rec(ms):
        if ms in memo:
            return memo[ms]
        if not ms:
            memo[ms] = 0
            return 0
        results = set()
        seen = set()
        for k, e in enumerate(ms):
            if e in seen:
                continue
            seen.add(e)
            rest = ms[:k] + ms[k + 1:]
            r = rec(rest)
            results.add(None if r is None or E.sum[e][r] < 0 else E.sum[e][r])
        if len(results) != 1:
            raise InternalInvariant(f"order-dependent orthosum for {ms}")
        out = results.pop()
        memo[ms] = out
        return out

    return rec(tuple(sorted(family)))


def disjoint_families(S, maps, elements):
    """The subsets of ``elements`` whose maps (``maps[e]`` for element e)
    are pairwise disjoint in S, as tuples, by size and then in
    ``itertools.combinations`` order; the empty family comes first."""
    return [
        pick
        for r in range(len(elements) + 1)
        for pick in itertools.combinations(elements, r)
        if all(
            S.disjoint(maps[a], maps[b])
            for a, b in itertools.combinations(pick, 2)
        )
    ]


def sk3e_split_eta(H, e, f, s, t):
    """Split e + f = s + t into a 2x2 grid matched by hull equivalence.

    Existence is guaranteed for every hull system, so a fruitless search
    raises ``InternalInvariant``.  Returns (e1, e2, f1, f2) with
    e = e1 + e2, f = f1 + f2, e1 + f1 ~ s and e2 + f2 ~ t under the hull
    relation, found in lexicographic order.
    """
    E = H.E
    if E.sum[e][f] < 0 or E.sum[e][f] != E.sum[s][t]:
        raise ValueError("need e + f = s + t defined")
    for e1 in E.below[e]:
        e2 = E.diff[e][e1]
        for f1 in E.below[f]:
            f2 = E.diff[f][f1]
            a = E.sum[e1][f1]
            b = E.sum[e2][f2]
            if a < 0 or b < 0:
                continue
            if H.maps[a] == H.maps[s] and H.maps[b] == H.maps[t]:
                return (e1, e2, f1, f2)
    raise InternalInvariant(
        f"no hull-matched refinement for {E.names[e]}+{E.names[f]}="
        f"{E.names[s]}+{E.names[t]}"
    )


@dataclass(frozen=True)
class TdReport:
    closure: frozenset  # orthosums of eta-orthogonal families in T
    image: frozenset  # {eta_e t}
    eta_td: bool
    eta_std: bool
    t_star: object  # element index or None


def td_sets(H, T):
    E, S = H.E, H.exoset
    T = sorted(set(T))
    closure = set()  # the empty family comes first and adds 0
    for pick in disjoint_families(S, H.maps, [t for t in T if t != 0]):
        v = orthosum_family(E, pick)
        if v is None:
            raise InternalInvariant(
                f"eta-orthogonal family {pick} is not orthosummable"
            )
        closure.add(v)
    image = {H.maps[e][t] for e in range(E.n) for t in T}
    ts = set(T)
    eta_td = ts == closure == image
    order_ideal = all(x in ts for t in T for x in E.below[t])
    eta_std = order_ideal and ts == closure
    t_star = None
    if eta_td:
        best = [t for t in T if all(S.leq(H.maps[u], H.maps[t]) for u in T)]
        if not best:
            raise InternalInvariant("type-determining set has no largest hull map")
        t_star = best[0]
    if eta_std and not eta_td:
        raise InternalInvariant("strongly type-determining set is not type-determining")
    return TdReport(frozenset(closure), frozenset(image), eta_td, eta_std, t_star)


def related(R, e, f):
    """Nonzero equivalent subelements exist below e and f respectively."""
    below = R.E.below
    return any(R.sim(e1, f1) for e1 in below[e] if e1 for f1 in below[f] if f1)


def subequiv(R, e, f):
    """e is equivalent to some subelement of f."""
    return any(R.sim(e, f1) for f1 in R.E.below[f])


def is_hereditary(R, S):
    """Order ideal closed under taking sub-equivalent elements."""
    E = R.E
    S = frozenset(S)
    return all(
        (e in S) for h in S for e in range(E.n) if subequiv(R, e, h)
    ) and all(t in S for h in S for t in E.below[h])


def structure_predicates(E):
    """The seven global structure flags of ``core.structure_predicates``,
    computed literally and not cached."""
    n = E.n
    directed = all(
        any(E.leq[e][d] and E.leq[f][d] for d in range(n))
        for e in range(n)
        for f in range(n)
    )
    oo = True
    for e in range(n):
        for f in range(n):
            if all(E.sum[d][e] >= 0 for d in range(n) if E.sum[d][f] >= 0):
                if not E.leq[e][f]:
                    oo = False
    lattice = all(
        inf(E, (e, f)) is not None and sup(E, (e, f)) is not None
        for e in range(n)
        for f in range(n)
    )
    archimedean = True
    for e in range(1, n):
        x, steps = e, 1
        while steps <= n:
            nx = E.sum[x][e]
            if nx < 0:
                break
            x, steps = nx, steps + 1
        if steps > n:
            archimedean = False
    ortho = True
    dedekind = True
    for ms, total in core.orthogonal_multisets(E):
        partials = _partial_sums(E, ms)
        if any(not E.leq[p][total] for p in partials):
            ortho = False
        bounded = any(all(E.leq[p][u] for p in partials) for u in range(n))
        if bounded and any(not E.leq[p][total] for p in partials):
            dedekind = False
    return core.StructureFlags(
        directed=directed,
        orthogonally_ordered=oo,
        is_ea=E.greatest(),
        lattice=lattice,
        archimedean=archimedean,
        dedekind_orthocomplete=dedekind,
        orthocomplete=ortho,
    )


def _partial_sums(E, ms):
    """The orthosums of every sub-multiset of ``ms``, the empty one too."""
    sums = {0}
    for r in range(1, len(ms) + 1):
        for sub in set(itertools.combinations(ms, r)):
            v = orthosum_family(E, sub)
            if v is None:
                raise InternalInvariant("sub-multiset of orthogonal multiset undefined")
            sums.add(v)
    return sums


def sup(E, fam):
    """Least upper bound of the elements ``fam``, or None."""
    ub = [d for d in range(E.n) if all(E.leq[x][d] for x in fam)]
    least = [d for d in ub if all(E.leq[d][x] for x in ub)]
    return least[0] if least else None


def inf(E, fam):
    """Greatest lower bound of the elements ``fam``, or None."""
    lb = [d for d in range(E.n) if all(E.leq[d][x] for x in fam)]
    greatest = [d for d in lb if all(E.leq[x][d] for x in lb)]
    return greatest[0] if greatest else None


def is_ideal(E, S):
    """S is a down-set closed under defined sums."""
    for s in S:
        for t in E.below[s]:
            if t not in S:
                return False
        for t in S:
            v = E.sum[s][t]
            if v >= 0 and v not in S:
                return False
    return True


def ideals(E):
    """The subsets holding 0 that ``is_ideal`` passes, by size and then in
    ``itertools.combinations`` order."""
    return [
        frozenset((0,) + pick)
        for r in range(E.n)
        for pick in itertools.combinations(range(1, E.n), r)
        if is_ideal(E, frozenset((0,) + pick))
    ]


def central_by_definition(E, c):
    """Principality, exactly one decomposition e = e1 + e2 with e1 <= c
    and e2 orthogonal to c for each e, searched over every e2, and
    closure of the elements orthogonal to c under sums."""
    if not core.is_principal(E, c):
        return False
    for e in range(E.n):
        decomps = [
            (e1, e2)
            for e1 in E.below[c]
            for e2 in range(E.n)
            if E.sum[e2][c] >= 0 and E.sum[e1][e2] == e
        ]
        if len(decomps) != 1:
            return False
    for p in range(E.n):
        for q in range(E.n):
            if E.sum[p][q] >= 0 and E.sum[p][c] >= 0 and E.sum[q][c] >= 0:
                s = E.sum[p][q]
                if E.sum[s][c] < 0:
                    return False
    return True


def downset_exomaps(E):
    """Filter the self-maps m with m(e) <= e by the exocenter conditions.

    EXC1: preserves orthogonality and sums; EXC2: idempotent;
    EXC3: decreasing; EXC4: pe = e and pf = 0 imply e + f defined.
    EXC3 is applied by letting each digit m(e) range over the elements
    below e only; the surviving maps are still found by filtering, never
    constructed.  The odometer moves digit e = 0 fastest, so the rows come
    out in the lexicographic order of the full n**n counter.  Returns the
    maps as a list of image tuples.
    """
    rng = range(E.n)
    rows = []
    for digits in itertools.product(*reversed(E.below)):
        m = digits[::-1]
        if any(m[x] != x for x in m):  # EXC2
            continue
        if _kernels._exc1_exc4(E.sum, m, rng):
            rows.append(m)
    return rows
