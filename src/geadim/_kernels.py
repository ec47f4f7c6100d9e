"""Hot inner loops shared by the core, catalog, and congruence layers.

Every kernel loops over plain Python sequences.  A table is a tuple of
row tuples, the form of a model's ``sum``: ``enumerate_tables`` reads
and emits its tables so, ``relabeled`` and ``min_relabel`` return them
so, and ``is_min_relabel`` compares against them.  ``axiom_violation``
also reads list rows.  ``brute_exomaps`` and ``sk_plan`` read the model's
tuples, and ``sk_witnesses`` and ``sk_first_failures`` read the per-model
``SkPlan`` that ``sk_plan`` builds.  ``sk_witnesses`` checks one partition,
given as a class list; ``sk_first_failures`` checks many at once, given
as the bit masks of ``class_masks``, one bit per partition.

Table encoding: an n-element model is an n-by-n table where entry
``[i][j]`` is the index of ``i + j`` and ``-1`` means the sum is undefined.
"""

import itertools
from typing import NamedTuple

__all__ = [
    "axiom_violation",
    "enumerate_tables",
    "relabeled",
    "min_relabel",
    "is_min_relabel",
    "brute_exomaps",
    "sk_plan",
    "sk_witnesses",
    "class_masks",
    "sk_first_failures",
]

def axiom_violation(rows):
    """First violated axiom of GEA1-GEA5 on a complete table of rows.

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
    """The table with element i renamed to ``perm[i]``, as tuple rows."""
    inv = [0] * len(perm)
    for a, p in enumerate(perm):
        inv[p] = a
    out = []
    for a in inv:
        row = rows[a]
        out.append(tuple([-1 if row[b] < 0 else perm[row[b]] for b in inv]))
    return tuple(out)


def min_relabel(rows, perms):
    """Least relabeling of a table over ``perms``, as tuple rows.

    Each permutation sends old index to new index and must fix 0; the
    identity takes part only when listed.  Tables compare row-major, with
    -1 (undefined) below every defined value.
    """
    return min(relabeled(rows, p) for p in perms)


def is_min_relabel(rows, perms):
    """True when the table, given as tuple rows, equals its least
    relabeling over ``perms``.

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


def enumerate_tables(rows):
    """The one-point top extensions of a table that pass the axioms.

    ``rows`` is a valid table on m elements.  Each extension adds the
    element m as a maximal element: m + f is undefined for every f != 0,
    and m is the sum of each pair {a, b} of a set of nonzero pairs whose
    sum was undefined.  By cancellation each element lies in at most one
    pair (a pair {a, a} gives a + a = m).  Deleting a maximal element of
    a finite model leaves a model, so every table on m + 1 elements whose
    last element is maximal extends the table of the others.  Returns the
    extensions that ``axiom_violation`` passes, as tuple rows, each set of
    pairs once.
    """
    m = len(rows)
    table = [list(row) + [-1] for row in rows] + [[m] + [-1] * m]
    table[0][m] = m
    out = []

    def pair_from(a):
        # a + b = m for some b >= a, or for none; m is in a's row once a
        # lies in a pair
        if a == m:
            if axiom_violation(table) is None:
                out.append(tuple(map(tuple, table)))
            return
        pair_from(a + 1)
        if m in table[a]:
            return
        for b in range(a, m):
            if table[a][b] < 0 and m not in table[b]:
                table[a][b] = table[b][a] = m
                pair_from(a + 1)
                table[a][b] = table[b][a] = -1

    pair_from(1)
    return out


def brute_exomaps(table, leq):
    """Every exocenter map of a model, found from the images of its atoms.

    EXC1 makes an exocenter map m additive, and every nonzero element is
    a sum of atoms, so m is fixed by its images of the atoms; EXC2 and
    EXC3 leave each atom the image 0 or itself.  For each such choice the
    other nonzero elements are visited in a linear extension of the order,
    and each x = e + f, with e and f nonzero and so placed before x, is
    forced to m(e) + m(f).  A choice is dropped when that sum is undefined,
    is not below x, or breaks EXC2 at x; the maps left are checked against
    EXC1 and EXC4 in full, which imply the three pruned conditions, so
    the pruning only ends a choice early.  The rows come out sorted by
    their reversed tuples, the order of the odometer over all n**n
    self-maps with m(0) fastest.  The name predates the search and is
    kept because the benchmark's tracer (``perfbench/spans.py``) binds
    it; ``tests/oracles.py`` keeps the filter of the maps below the
    identity that it replaced.  Returns the maps as a list of image
    tuples.
    """
    n = len(table)
    rng = range(n)
    split = [None] * n  # split[x]: two nonzero summands of x; atoms have none
    for e in range(1, n):
        for f in range(1, n):
            x = table[e][f]
            if x >= 0 and split[x] is None:
                split[x] = (e, f)
    atoms = [x for x in range(1, n) if split[x] is None]
    sums = sorted((x for x in range(1, n) if split[x] is not None),
                  key=lambda x: sum(leq[y][x] for y in rng))
    m = [0] * n
    rows = []
    for keep in itertools.product((False, True), repeat=len(atoms)):
        for a, kept in zip(atoms, keep):
            m[a] = a if kept else 0
        for x in sums:
            e, f = split[x]
            v = table[m[e]][m[f]]
            if v < 0 or not leq[v][x] or (v != x and m[v] != v):
                break
            m[x] = v
        else:
            if _exc1_exc4(table, m, rng):
                rows.append(tuple(m))
    rows.sort(key=lambda r: r[::-1])
    return rows


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
    ``sk_witnesses`` and ``sk_first_failures`` call on that model.
    """

    n: int
    sums: tuple  # sum table rows
    pairs: tuple  # (s, t, s + t) for every defined sum, in lex order
    splits: tuple  # splits[p]: the pairs (e, p - e) for e <= p, in e order
    grids: tuple  # (e, f, grid, cands) for the SK3e entries that can fail
    below: tuple  # below[e]: the nonzero elements below e
    orth: tuple  # orth[f]: the nonzero elements orthogonal to f
    nonorth: tuple  # (e, f) with e + f undefined, in lex order
    notleq: tuple  # (e, f) with e not below f, in lex order


def sk_plan(table, diff, leq):
    """Everything the congruence checks need that does not depend on the
    classes.

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
    n = len(table)
    rng = range(n)
    below = [[x for x in rng if leq[x][e]] for e in rng]
    pairs = tuple((s, t, table[s][t]) for s in rng for t in rng
                  if table[s][t] >= 0)
    splits = tuple(tuple((e, diff[p][e]) for e in below[p]) for p in rng)
    grids = []
    seen = set()
    for e, f, ef in pairs:
        grid = set()
        for e1 in below[e]:
            e2 = diff[e][e1]
            for f1 in below[f]:
                a = table[e1][f1]
                if a < 0:
                    continue
                b = table[e2][diff[f][f1]]
                if b >= 0:
                    grid.add((a, b))
        cands = tuple(st for st in splits[ef] if st not in grid)
        key = (ef, frozenset(grid))
        if cands and key not in seen:
            seen.add(key)
            grids.append((e, f, tuple(sorted(grid)), cands))
    return SkPlan(
        n=n,
        sums=table,
        pairs=pairs,
        splits=splits,
        grids=tuple(grids),
        below=tuple(tuple(x for x in below[e] if x) for e in rng),
        orth=tuple(tuple(d for d in range(1, n) if table[d][f] >= 0)
                   for f in rng),
        nonorth=tuple((e, f) for e in rng for f in rng if table[e][f] < 0),
        notleq=tuple((e, f) for e in rng for f in rng if not leq[e][f]),
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
    below_cls = [{cls[x] for x in b} for b in plan.below]
    return (_sk1(plan, cls), _sk2(plan, cls), _sk3d(plan, cls),
            _sk3e(plan, cls), _sk4a(plan, below_cls),
            _sk4b(plan, cls, below_cls))


def class_masks(partitions):
    """The class relations of many partitions, one bit each.

    ``partitions`` is a nonempty sequence of class lists of the same n
    elements, and bit i of a mask stands for ``partitions[i]``.  Returns
    ``eq`` as tuple rows: ``eq[x][y]`` is the mask of the partitions in
    which x and y share a class, so every ``eq[x][x]`` has all bits set.
    """
    n = len(partitions[0])
    every = (1 << len(partitions)) - 1
    eq = [[every] * n for _ in range(n)]
    for x in range(n):
        for y in range(x):
            bits = "".join("1" if cls[x] == cls[y] else "0"
                           for cls in reversed(partitions))
            eq[x][y] = eq[y][x] = int(bits, 2)
    return tuple(map(tuple, eq))


def sk_first_failures(plan, eq):
    """The first failing congruence axiom and its witness of many
    partitions of one model at once.

    ``plan`` is the model's ``sk_plan`` and ``eq`` the ``class_masks`` of
    the partitions.  Returns a list in partition order of ``(k,
    witness)``, where ``k`` indexes SK1, SK2, SK3d, SK3e, SK4a, SK4b and
    ``witness`` is the one ``sk_witnesses`` gives for that axiom, or None
    where all six hold.  Each axiom walks its candidate witnesses in the
    order ``sk_witnesses`` tries them.  A candidate's failing partitions
    are a mask of AND and NOT operations on ``eq``; those not yet failed
    take the candidate as their first failure and drop out.
    """
    n = plan.n
    live = eq[0][0]
    out = [None] * live.bit_length()
    # SK1: zero is alone in its class
    for e in range(1, n):
        hit = live & eq[0][e]
        if hit:
            live ^= hit
            _take(out, hit, (0, (e,)))
    # SK2, pair form: e1 ~ f1 and e2 ~ f2 give e1 + e2 ~ f1 + f2.  A bad
    # class pair always holds a conflicting f-pair, so the first conflict
    # in (e-pair, f-pair) order is sk_witnesses' witness.  Zero is alone
    # in every partition left, so a pair with zero never conflicts.
    pairs = [(s, t, st) for s, t, st in plan.pairs if s and t]
    for e1, e2, se in pairs:
        if not live:
            return out
        r1, r2, rs = eq[e1], eq[e2], eq[se]
        for f1, f2, sf in pairs:
            hit = live & r1[f1] & r2[f2] & ~rs[sf]
            if hit:
                live ^= hit
                _take(out, hit, (1, (e1, e2, f1, f2)))
    # SK3d: p ~ s + t splits as p = e + d with e ~ s, d ~ t.  A pair with
    # zero never fails, as p = 0 + p = p + 0.
    for p, split in enumerate(plan.splits):
        rp = eq[p]
        for s, t, st in pairs:
            hit = live & rp[st]
            if not hit:
                continue
            rs, rt = eq[s], eq[t]
            for e, d in split:
                hit &= ~(rs[e] & rt[d])
                if not hit:
                    break
            else:
                live ^= hit
                _take(out, hit, (2, (p, s, t)))
    # SK3e: e + f = s + t refines into a 2x2 grid
    for e, f, grid, cands in plan.grids:
        for s, t in cands:
            hit = live
            rs, rt = eq[s], eq[t]
            for a, b in grid:
                hit &= ~(rs[a] & rt[b])
            if hit:
                live ^= hit
                _take(out, hit, (3, (e, f, s, t)))
    # SK4a and SK4b: e + f undefined, or e not below f, gives a nonzero
    # e1 <= e related to a nonzero f1 <= f, or to a nonzero d _|_ f
    for k, cands, near in ((4, plan.nonorth, plan.below),
                           (5, plan.notleq, plan.orth)):
        for e, f in cands:
            hit = live
            for x in plan.below[e]:
                rx = eq[x]
                for y in near[f]:
                    hit &= ~rx[y]
                if not hit:
                    break
            else:
                live ^= hit
                _take(out, hit, (k, (e, f)))
    return out


def _take(out, hit, failure):
    # the failure of every partition whose bit is set in the mask hit
    while hit:
        low = hit & -hit
        out[low.bit_length() - 1] = failure
        hit ^= low


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
