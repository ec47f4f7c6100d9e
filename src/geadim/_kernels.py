"""Hot inner loops shared by the core, catalog, and congruence layers.

Every kernel loops over plain Python lists, which index several times
faster than numpy scalars.  ``axiom_violation``, ``relabeled``,
``min_relabel`` and ``is_min_relabel`` take a table as list rows and
return lists or tuples.  ``enumerate_tables`` returns its tables as one
``int8`` array, ``brute_exomaps`` and ``sk_plan`` take the model's arrays
and convert them once with ``.tolist()``, and ``sk_witnesses`` reads the
per-model ``SkPlan`` that ``sk_plan`` builds and returns tuples.

Table encoding: an n-element model is an n-by-n table where entry
``[i][j]`` is the index of ``i + j`` and ``-1`` means the sum is undefined.
During enumeration a third sentinel ``-2`` marks "not yet assigned".
"""

import itertools
from array import array
from typing import NamedTuple

import numpy as np

__all__ = [
    "axiom_violation",
    "enumerate_tables",
    "relabeled",
    "min_relabel",
    "is_min_relabel",
    "brute_exomaps",
    "sk_plan",
    "sk_witnesses",
]

def axiom_violation(rows):
    """First violated axiom of GEA1-GEA5 on a complete table of list rows.

    Returns None when every axiom holds, else ``(tag, witness)``: the
    axiom's name (``"GEA1"`` .. ``"GEA5"``) and the lexicographically
    least offending index tuple, as the loops run in index order.  The
    axioms are tried in the order GEA1, GEA3, GEA5, GEA4, GEA2.
    """
    rng = range(len(rows))
    for i in rng:  # symmetric definedness and value
        for j in rng:
            if rows[i][j] != rows[j][i]:
                return "GEA1", (i, j)
    for i in rng:  # zero is neutral
        if rows[i][0] != i:
            return "GEA3", (i,)
    for i in rng:  # positivity
        for j in rng:
            if rows[i][j] == 0 and (i or j):
                return "GEA5", (i, j)
    for d, row in enumerate(rows):  # cancellation: rows injective where defined
        for e in rng:
            v = row[e]
            if v >= 0 and v in row[e + 1:]:
                return "GEA4", (d, e, row.index(v, e + 1))
    for d, row in enumerate(rows):  # d+(e+f) defined gives (d+e)+f, equal
        for e in rng:
            de = row[e]
            for f in rng:
                g = rows[e][f]
                if g < 0 or row[g] < 0:
                    continue
                if de < 0 or rows[de][f] != row[g]:
                    return "GEA2", (d, e, f)
    return None


def relabeled(rows, perm):
    """The table with element i renamed to ``perm[i]``, as list rows."""
    inv = [0] * len(perm)
    for a, p in enumerate(perm):
        inv[p] = a
    return [[-1 if rows[a][b] < 0 else perm[rows[a][b]] for b in inv]
            for a in inv]


def min_relabel(rows, perms):
    """Least relabeling of a table over ``perms``, as list rows.

    Each permutation sends old index to new index and must fix 0; the
    identity takes part only when listed.  Tables compare row-major, with
    -1 (undefined) below every defined value.
    """
    return min(relabeled(rows, p) for p in perms)


def is_min_relabel(rows, perms):
    """True when the table equals its least relabeling over ``perms``.

    Requires both that no permutation produces a smaller table and that
    some permutation reproduces the table itself.
    """
    achieved = False
    for p in perms:
        other = relabeled(rows, p)
        if other < rows:
            return False
        achieved = achieved or other == rows
    return achieved


def enumerate_tables(n, prefix):
    """The valid sum tables on n elements extending a cell prefix whose
    row degrees are non-decreasing.

    Cells are the pairs (i, j) with 1 <= i <= j < n in row-major order;
    ``prefix`` assigns values (-1 for undefined) to the first ``len(prefix)``
    cells.  Zero row/column are forced by neutrality.  Candidate values per
    cell (i, j) are -1 then v in 1..n-1 with v not in {i, j} (v = i or j
    would force the other summand to 0 by cancellation, v = 0 would break
    positivity).  Returns an int8 array of shape (count, n*n) of flattened
    tables, in DFS order.

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

    A full prefix of a table that is not degree-sorted gives no table.
    """
    cells = [(i, j) for i in range(1, n) for j in range(i, n)]
    nc = len(cells)
    rng = range(n)
    table = [[-2] * n for _ in rng]
    for e in rng:
        table[e][0] = e
        table[0][e] = e
    out = array("b")  # emitted tables, flattened back to back

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

    def empty():
        return np.empty((0, n * n), dtype=np.int8)

    # apply the prefix through the same checks the DFS uses
    start = len(prefix)
    for k, v in enumerate(prefix.tolist()):
        i, j = cells[k]
        if v != -1:
            if v <= 0 or v == i or v == j or v >= n:
                return empty()
            if v in table[i] or v in table[j]:
                return empty()
        if not place(k, v):
            return empty()

    if start == nc:
        return np.array(table, dtype=np.int8).reshape(1, n * n)

    # iterative DFS over the remaining cells
    cands = [[-1] + [v for v in range(1, n) if v != i and v != j]
             for i, j in cells]
    nxt = [0] * nc  # index of the next candidate to try per cell
    depth = start
    while depth >= start:
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
            for row in table:
                out.extend(row)
            continue
        depth += 1
    return np.frombuffer(out, dtype=np.int8).reshape(-1, n * n)


def brute_exomaps(table, leq):
    """Filter the self-maps m with m(e) <= e by the exocenter conditions.

    EXC1: preserves orthogonality and sums; EXC2: idempotent;
    EXC3: decreasing; EXC4: pe = e and pf = 0 imply e + f defined.
    EXC3 is applied by letting each digit m(e) range over the elements
    below e only; the surviving maps are still found by filtering, never
    constructed.  The odometer moves digit e = 0 fastest, so the rows come
    out in the lexicographic order of the full n**n counter.
    """
    sums = table.tolist()
    order = leq.tolist()
    n = len(sums)
    rng = range(n)
    below = [[x for x in rng if order[x][e]] for e in rng]
    rows = []
    for digits in itertools.product(*reversed(below)):
        m = digits[::-1]
        if any(m[x] != x for x in m):  # EXC2
            continue
        if _exc1_exc4(sums, m, rng):
            rows.append(m)
    return np.array(rows, dtype=np.int8).reshape(len(rows), n)


def _exc1_exc4(sums, m, rng):
    """EXC1 and EXC4 for the map m (a tuple of images)."""
    for e in rng:
        me = m[e]
        row = sums[e]
        mrow = sums[me]
        for f in rng:
            s = row[f]
            if s >= 0:  # EXC1
                if mrow[m[f]] != m[s]:
                    return False
            elif me == e and m[f] == 0:  # EXC4
                return False
    return True


class SkPlan(NamedTuple):
    """The partition-independent part of the congruence check of a model.

    Built once per model by ``sk_plan`` and read by every
    ``sk_witnesses`` call on that model.
    """

    n: int
    sums: list  # sum table rows
    pairs: tuple  # (s, t, s + t) for every defined sum, in lex order
    splits: tuple  # splits[p]: the pairs (e, p - e) for e <= p, in e order
    grids: tuple  # (e, f, grid, cands) for the SK3e entries that can fail
    below: tuple  # below[e]: the nonzero elements below e
    orth: tuple  # orth[f]: the nonzero elements orthogonal to f
    nonorth: tuple  # (e, f) with e + f undefined, in lex order
    notleq: tuple  # (e, f) with e not below f, in lex order


def sk_plan(table, diff, leq):
    """Everything ``sk_witnesses`` needs that does not depend on the classes.

    An SK3e entry is a defined e + f with its refinement grid: the element
    pairs (e1 + f1, e2 + f2) over e = e1 + e2 and f = f1 + f2, at most one
    per summand of e + f.  Its candidates are the decompositions s + t of
    e + f that are not themselves in the grid, in s order; a grid pair's
    classes are in the grid's class pairs under every partition.  Two
    kinds of entry are dropped, neither of which can be the first to fail:
    one without candidates never fails, and one whose (e + f, grid)
    repeats an earlier entry fails exactly when that entry does.
    ``diff`` and ``leq`` must be derived from ``table``, which satisfies
    cancellation, so the decompositions s + t of g are the splittings
    (s, g - s) for s <= g.
    """
    sums = table.tolist()
    diffs = diff.tolist()
    order = leq.tolist()
    n = len(sums)
    rng = range(n)
    below = [[x for x in rng if order[x][e]] for e in rng]
    pairs = tuple((s, t, sums[s][t]) for s in rng for t in rng
                  if sums[s][t] >= 0)
    splits = tuple(tuple((e, diffs[p][e]) for e in below[p]) for p in rng)
    grids = []
    seen = set()
    for e, f, ef in pairs:
        grid = set()
        for e1 in below[e]:
            e2 = diffs[e][e1]
            for f1 in below[f]:
                a = sums[e1][f1]
                if a < 0:
                    continue
                b = sums[e2][diffs[f][f1]]
                if b >= 0:
                    grid.add((a, b))
        cands = tuple(st for st in splits[ef] if st not in grid)
        key = (ef, frozenset(grid))
        if cands and key not in seen:
            seen.add(key)
            grids.append((e, f, tuple(sorted(grid)), cands))
    return SkPlan(
        n=n,
        sums=sums,
        pairs=pairs,
        splits=splits,
        grids=tuple(grids),
        below=tuple(tuple(x for x in below[e] if x) for e in rng),
        orth=tuple(tuple(d for d in range(1, n) if sums[d][f] >= 0)
                   for f in rng),
        nonorth=tuple((e, f) for e in rng for f in rng if sums[e][f] < 0),
        notleq=tuple((e, f) for e in rng for f in rng if not order[e][f]),
    )


def sk_witnesses(plan, cls):
    """First failing witness for each congruence axiom.

    ``plan`` is the model's ``sk_plan`` and ``cls`` maps element index to
    class id.  Returns six witnesses for SK1, SK2, SK3d, SK3e, SK4a, SK4b
    in that order, each None where the axiom holds and otherwise the
    lexicographically least failing tuple.  SK2 is checked in its pair
    (finite additivity) form, which extends to all finite families by
    induction.  Class pairs are encoded as ``c1 * n + c2``.
    """
    cls = cls.tolist()
    below_cls = [{cls[x] for x in b} for b in plan.below]
    return (
        _sk1(plan, cls),
        _sk2(plan, cls),
        _sk3d(plan, cls),
        _sk3e(plan, cls),
        _sk4a(plan, below_cls),
        _sk4b(plan, cls, below_cls),
    )


def _sk1(plan, cls):
    # zero is alone in its class
    for e in range(1, plan.n):
        if cls[e] == cls[0]:
            return (e,)
    return None


def _sk2(plan, cls):
    # pair form: equivalent orthogonal pairs have equivalent sums.  A class
    # pair whose defined sums fall in two classes is bad; the least (e1, e2)
    # with a bad class pair pairs with some (f1, f2) into a witness.
    n = plan.n
    sum_cls = {}
    bad = set()
    for s, t, st in plan.pairs:
        key = cls[s] * n + cls[t]
        if sum_cls.setdefault(key, cls[st]) != cls[st]:
            bad.add(key)
    if not bad:
        return None
    for e1, e2, se in plan.pairs:
        c1, c2 = cls[e1], cls[e2]
        if c1 * n + c2 not in bad:
            continue
        for f1 in range(n):
            if cls[f1] != c1:
                continue
            row = plan.sums[f1]
            for f2 in range(n):
                sf = row[f2]
                if cls[f2] == c2 and sf >= 0 and cls[sf] != cls[se]:
                    return (e1, e2, f1, f2)
    return None


def _sk3d(plan, cls):
    # p ~ s+t splits as p = e+f with e ~ s, f ~ t
    n = plan.n
    made = {}  # class -> class pairs of the defined sums in it
    for s, t, st in plan.pairs:
        made.setdefault(cls[st], set()).add(cls[s] * n + cls[t])
    for p, split in enumerate(plan.splits):
        c = cls[p]
        need = made.get(c)
        if need is None:
            continue
        have = {cls[e] * n + cls[d] for e, d in split}
        if need <= have:
            continue
        for s, t, st in plan.pairs:
            if cls[st] == c and cls[s] * n + cls[t] not in have:
                return (p, s, t)
    return None


def _sk3e(plan, cls):
    # e+f = s+t refines into a 2x2 grid
    n = plan.n
    for e, f, grid, cands in plan.grids:
        have = {cls[a] * n + cls[b] for a, b in grid}
        for s, t in cands:
            if cls[s] * n + cls[t] not in have:
                return (e, f, s, t)
    return None


def _sk4a(plan, below_cls):
    # non-orthogonal elements are related
    for e, f in plan.nonorth:
        if below_cls[e].isdisjoint(below_cls[f]):
            return (e, f)
    return None


def _sk4b(plan, cls, below_cls):
    # e not below f gives nonzero e1 <= e equivalent to some d1 _|_ f
    orth_cls = [{cls[d] for d in o} for o in plan.orth]
    for e, f in plan.notleq:
        if below_cls[e].isdisjoint(orth_cls[f]):
            return (e, f)
    return None
