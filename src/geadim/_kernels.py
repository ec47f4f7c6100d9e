"""Hot inner loops shared by the core, catalog, and congruence layers.

Every kernel loops over plain Python sequences.  A table is a tuple of
row tuples, the form of a model's ``sum``: ``enumerate_tables`` reads
and emits its tables so, ``relabeled``, ``min_relabel`` and
``least_relabel`` return them so, and ``is_min_relabel`` compares
against them.  ``least_relabel`` finds the least relabeling over the
candidate permutations of a coloring by a pruned search; ``min_relabel``
and ``is_min_relabel`` relabel the table under every candidate, the
literal path the tests compare it with.  ``axiom_violation``
also reads list rows.  ``brute_exomaps`` and ``sk_plan`` read the model's
tuples.  The congruence axioms SK1-SK4b, named in ``AXES``, have one
check each, which reads the per-model ``SkPlan`` of ``sk_plan`` and the
partitions' class relations as bit masks, one bit per partition.  A check
records each failure as one ``(axiom name, witness)`` tuple, shared by
every partition that fails at that witness.  ``sk_first_failures`` runs
the checks over many partitions at once; ``sk_witnesses`` runs each
check alone on one partition.

Table encoding: an n-element model is an n-by-n table where entry
``[i][j]`` is the index of ``i + j`` and ``-1`` means the sum is undefined.
"""

import itertools
from operator import itemgetter
from typing import NamedTuple

__all__ = [
    "AXES",
    "axiom_violation",
    "enumerate_tables",
    "relabeled",
    "min_relabel",
    "is_min_relabel",
    "least_relabel",
    "brute_exomaps",
    "sk_plan",
    "sk_witnesses",
    "class_masks",
    "sk_first_failures",
]

# the congruence axioms, in the order their checks run
AXES = ("SK1", "SK2", "SK3d", "SK3e", "SK4a", "SK4b")


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


def least_relabel(rows, classes, stop=False):
    """The least relabeling over the candidate permutations of a coloring,
    found by an exact depth-first search, and automorphisms it met.

    ``rows`` is a table as tuple rows and ``classes`` its color classes
    in color order, each a list of elements; class i takes the slots
    after those of the classes before it, and a candidate sends each
    element to a slot of its class.  This is the minimum ``min_relabel``
    takes over ``core._candidate_perms``, with the same row-major order.

    The search fills the slots in order.  A class of one element is
    placed at the start and never branched on; each other slot tries
    every unused element of its class, in label order.  A leaf whose
    table equals the best one so far gives the automorphism
    ``s[x] = best_inv[perm[x]]``.  Two cuts are exact (B. D. McKay and
    A. Piperno, "Practical graph isomorphism, II", J. Symbolic Comput. 60
    (2014)).  Let an automorphism s fix every placed element and send a
    to b.  Then q -> q o s maps the leaves that place b at this slot onto
    leaves that place a there, with equal tables.  So a choice b is
    skipped when the automorphisms found that fix every placed element
    move it onto a choice already explored.  And a leaf that gives s ends
    the subtree of the first choice it does not share with the best leaf,
    since s maps that subtree into the one explored before it.  Every
    leaf is thus the image of a visited leaf under the group the found
    automorphisms generate, so no table is lost, and every automorphism
    of the table lies in that group.  A leaf is compared with the best
    table row by row, up to the first row that differs.

    Returns ``(least, auts)``: the least table as tuple rows and the
    automorphisms found, as tuples sending old index to new.  With
    ``stop`` the search returns None at the first leaf smaller than the
    first leaf; when the colors are sorted in label order the first leaf
    is the identity, so the table is its own least relabeling exactly
    when None is not returned.
    """
    n = len(rows)
    perm = [0] * n + [-1]  # old index -> slot; perm[-1] keeps -1 undefined
    inv = [0] * n  # slot -> old index
    slots = []  # (slot, its class) where the class has several elements
    base = 0
    for cls in classes:
        if len(cls) == 1:
            perm[cls[0]] = base
            inv[base] = cls[0]
        else:
            slots.extend((base + i, cls) for i in range(len(cls)))
        base += len(cls)
    if not slots:
        return tuple(tuple([perm[rows[a][b]] for b in inv]) for a in inv), []
    depth = len(slots)
    used = [False] * n
    chosen = []  # the element placed at each open slot so far
    auts = []
    best = best_inv = None

    def leaf():
        # the open-slot index the search returns to: depth to go on, -1
        # to stop
        nonlocal best, best_inv
        k = 0
        if best is not None:
            for k, a in enumerate(inv):
                row = rows[a]
                new = tuple([perm[row[b]] for b in inv])
                if new != best[k]:
                    break
            else:
                auts.append(tuple([best_inv[perm[x]] for x in range(n)]))
                return next(i for i, x in enumerate(chosen)
                            if x != best_inv[slots[i][0]])
            if new > best[k]:
                return depth
            if stop:
                return -1
        best = (best[:k] if best else ()) + tuple(
            tuple([perm[rows[a][b]] for b in inv]) for a in inv[k:])
        best_inv = inv[:]
        return depth

    def moved_onto(b, explored):
        # whether the automorphisms fixing every placed element move b
        # onto an explored choice
        fixing = [s for s in auts if all(s[x] == x for x in chosen)]
        orbit = {b}
        frontier = [b]
        while frontier:
            x = frontier.pop()
            for s in fixing:
                y = s[x]
                if y in explored:
                    return True
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        return False

    def search(i):
        # fills the open slots from i on; returns what leaf returns
        if i == depth:
            return leaf()
        k, cls = slots[i]
        explored = set()
        for b in cls:
            if used[b] or explored and moved_onto(b, explored):
                continue
            used[b] = True
            perm[b] = k
            inv[k] = b
            chosen.append(b)
            back = search(i + 1)
            chosen.pop()
            used[b] = False
            if back < i:
                return back
            explored.add(b)
        return depth

    if search(0) < 0:
        return None
    return best, auts


def enumerate_tables(rows, auts=()):
    """The one-point top extensions of a table that pass the axioms, one
    per orbit of the permutations ``auts``.

    ``rows`` is a valid table on m elements.  Each extension adds the
    element m as a maximal element: m + f is undefined for every f != 0,
    and m is the sum of each pair {a, b} of a set of nonzero pairs whose
    sum was undefined.  By cancellation each element lies in at most one
    pair (a pair {a, a} gives a + a = m).  Deleting a maximal element of
    a finite model leaves a model, so every table on m + 1 elements whose
    last element is maximal extends the table of the others.

    Such an extension keeps GEA1, GEA3, GEA4 and GEA5 by construction:
    its rows stay symmetric, m + 0 = m, m is in each row at most once and
    m != 0.  GEA2 can fail only where d + (e + f) = m, that is for a new
    pair {a, b} and a split b = e + f of nonzero parent elements; it then
    asks that a + e is defined and (a + e) + f = m.  The parent sum a + e
    is fixed before any pair is chosen, so a pair that needs an undefined
    one is never tried, and the sums (a + e) + f are read at each leaf.
    The extensions that pass are exactly those ``axiom_violation`` passes.

    ``auts`` are zero-fixing automorphisms of the table, as sequences
    sending old index to new; a set of pairs is kept only when none of
    them maps it to a lexicographically smaller set, so that isomorphic
    extensions that differ by one of them are emitted once (B. D. McKay,
    "Isomorph-free exhaustive generation", J. Algorithms 26 (1998)).
    The least set of each orbit of the group they generate is always
    kept, so pruning with any of its automorphisms loses no class.
    Returns the extensions as tuple rows, each set of pairs once.
    """
    m = len(rows)
    table = [list(row) + [-1] for row in rows] + [[m] + [-1] * m]
    table[0][m] = m
    splits = [[] for _ in range(m)]  # splits[g]: (e, f) nonzero, e + f = g
    for e in range(1, m):
        for f in range(1, m):
            g = rows[e][f]
            if g >= 0:
                splits[g].append((e, f))

    def joins(d, g):
        # d + e is defined for every split g = e + f
        return all(rows[d][e] >= 0 for e, _ in splits[g])

    partners = [[b for b in range(a, m)
                 if rows[a][b] < 0 and joins(a, b) and joins(b, a)]
                for a in range(m)]
    pairs = []  # the chosen pairs (a, b), a <= b, by increasing a
    out = []

    def gea2():
        for a, b in pairs:
            for d, g in ((a, b), (b, a)):
                row = table[d]
                for e, f in splits[g]:
                    if table[row[e]][f] != m:
                        return False
        return True

    def least():
        for p in auts:
            image = sorted((p[a], p[b]) if p[a] <= p[b] else (p[b], p[a])
                           for a, b in pairs)
            if image < pairs:
                return False
        return True

    def pair_from(a):
        # a + b = m for some b >= a, or for none; m is in a's row once a
        # lies in a pair
        if a == m:
            if gea2() and least():
                out.append(tuple(map(tuple, table)))
            return
        pair_from(a + 1)
        if m in table[a]:
            return
        for b in partners[a]:
            if m not in table[b]:
                table[a][b] = table[b][a] = m
                pairs.append((a, b))
                pair_from(a + 1)
                pairs.pop()
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
        pairs=pairs,
        splits=splits,
        grids=tuple(grids),
        below=tuple(tuple(x for x in below[e] if x) for e in rng),
        orth=tuple(tuple(d for d in range(1, n) if table[d][f] >= 0)
                   for f in rng),
        nonorth=tuple((e, f) for e in rng for f in rng if table[e][f] < 0),
        notleq=tuple((e, f) for e in rng for f in rng if not leq[e][f]),
    )


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


def sk_witnesses(plan, cls):
    """First failing witness for each congruence axiom.

    ``plan`` is the model's ``sk_plan`` and ``cls`` maps element index to
    class id.  Returns six witnesses, one per axiom in ``AXES`` order,
    each None where the axiom holds and otherwise the
    lexicographically least failing tuple.  SK2 is checked in its pair
    (finite additivity) form, which extends to all finite families by
    induction.  Each axiom's check runs alone on the one partition, over
    every defined sum, since zero may share its class here.
    """
    eq = class_masks([cls])
    found = []
    for check in _SK_CHECKS:
        out = [None]
        check(plan, eq, 1, out, plan.pairs)
        found.append(None if out[0] is None else out[0][1])
    return tuple(found)


def sk_first_failures(plan, eq):
    """The first failing congruence axiom and its witness of many
    partitions of one model at once.

    ``plan`` is the model's ``sk_plan`` and ``eq`` the ``class_masks`` of
    the partitions.  Returns a list in partition order of ``(axiom,
    witness)``, where ``axiom`` is the name in ``AXES`` of the first
    failing axiom and ``witness`` the one ``sk_witnesses`` gives for it,
    or None where all six hold.  The partitions that fail at one witness
    share one such tuple.  The axioms' checks run in ``AXES`` order, each
    on the partitions that passed the ones before.  Every partition that
    passes SK1 has zero alone in its class, and then no sum with a zero
    summand can fail SK2 or SK3d, so the checks walk only the others.
    """
    live = eq[0][0]
    out = [None] * live.bit_length()
    pairs = [(s, t, st) for s, t, st in plan.pairs if s and t]
    for check in _SK_CHECKS:
        live = check(plan, eq, live, out, pairs)
        if not live:
            break
    return out


# Each check(plan, eq, live, out, pairs) walks its axiom's witnesses in
# lex order over the defined sums (s, t, s + t) in pairs; the partitions
# of live that fail one record (axiom name, witness) in out and drop
# out.  It returns the partitions left, early once none are.

def _zero_alone(plan, eq, live, out, pairs):
    # SK1: zero is alone in its class
    for e in range(1, len(eq)):
        hit = live & eq[0][e]
        if hit:
            live = _take(out, live, hit, ("SK1", (e,)))
            if not live:
                break
    return live


def _sums_related(plan, eq, live, out, pairs):
    # SK2, pair form: e1 ~ f1 and e2 ~ f2 give e1 + e2 ~ f1 + f2.  The
    # sums (f1, f2) are walked in groups of one f1, and a group whose f1
    # no live partition relates to e1 is skipped whole.
    groups = [(f1, [(f2, sf) for _, f2, sf in group])
              for f1, group in itertools.groupby(pairs, key=itemgetter(0))]
    for e1, e2, se in pairs:
        r1, r2, rs = eq[e1], eq[e2], eq[se]
        for f1, group in groups:
            near = live & r1[f1]
            if not near:
                continue
            for f2, sf in group:
                hit = near & r2[f2] & ~rs[sf]
                if hit:
                    live = _take(out, live, hit, ("SK2", (e1, e2, f1, f2)))
                    if not live:
                        return live
                    near &= live
    return live


def _sums_split(plan, eq, live, out, pairs):
    # SK3d: p ~ s + t splits as p = e + d with e ~ s, d ~ t
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
                live = _take(out, live, hit, ("SK3d", (p, s, t)))
                if not live:
                    return live
    return live


def _grids_refine(plan, eq, live, out, pairs):
    # SK3e: e + f = s + t refines into a 2x2 grid
    for e, f, grid, cands in plan.grids:
        for s, t in cands:
            hit = live
            rs, rt = eq[s], eq[t]
            for a, b in grid:
                hit &= ~(rs[a] & rt[b])
            if hit:
                live = _take(out, live, hit, ("SK3e", (e, f, s, t)))
                if not live:
                    return live
    return live


def _nonorth_related(plan, eq, live, out, pairs):
    # SK4a: e + f undefined gives nonzero e1 <= e, f1 <= f with e1 ~ f1
    return _related_below(plan, eq, live, out, "SK4a", plan.nonorth,
                          plan.below)


def _notleq_related(plan, eq, live, out, pairs):
    # SK4b: e not below f gives nonzero e1 <= e, d _|_ f with e1 ~ d
    return _related_below(plan, eq, live, out, "SK4b", plan.notleq,
                          plan.orth)


def _related_below(plan, eq, live, out, axiom, cands, near):
    # (e, f) fails unless a nonzero x <= e is related to some y in near[f]
    for e, f in cands:
        hit = live
        for x in plan.below[e]:
            rx = eq[x]
            for y in near[f]:
                hit &= ~rx[y]
            if not hit:
                break
        else:
            live = _take(out, live, hit, (axiom, (e, f)))
            if not live:
                break
    return live


_SK_CHECKS = (_zero_alone, _sums_related, _sums_split, _grids_refine,
              _nonorth_related, _notleq_related)


def _take(out, live, hit, failure):
    # record the one failure tuple for every partition whose bit is set
    # in the mask hit, and return the live partitions without them
    live ^= hit
    while hit:
        low = hit & -hit
        out[low.bit_length() - 1] = failure
        hit ^= low
    return live
