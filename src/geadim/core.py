"""Finite generalized effect algebras as validated partial-sum tables.

An n-element model is stored as an n-by-n table of the partial
orthosummation, a tuple of row tuples whose entry -1 means the sum is
undefined, together with the derived order ``leq`` (e <= f iff e + d = f
for some d) and difference table ``diff`` (``diff[f][e]`` is f - e when
e <= f), in the same form, and the tuple ``below`` (``below[p]`` lists
the elements e <= p in ascending order).  Every layer reads these tables
directly.  Element 0 is always the zero element; the builders reorder
inputs so this holds.

Everything here is immutable after construction and safe to share.
"""

import itertools
from array import array
from dataclasses import dataclass
from functools import cached_property, wraps

from . import _kernels
from .errors import AxiomViolation, ConflictingEquation, InternalInvariant

# the most elements a model may have: ``table_bytes`` stores every element
# index in one signed byte
MAX_ELEMENTS = 128


def memo(fn):
    """Keep ``fn(owner)`` in ``owner._cache``, keyed by ``fn``.  A call that
    raises stores nothing, so the failure repeats on every call."""
    @wraps(fn)
    def cached(owner):
        cache = owner._cache
        if fn not in cache:
            cache[fn] = fn(owner)
        return cache[fn]
    return cached


class GeaTable:
    """A validated finite GEA over named elements (zero at index 0)."""

    def __init__(self, names, sum_table, _validated=False):
        self.names = tuple(names)
        self.n = len(self.names)
        if self.n > MAX_ELEMENTS:
            raise ValueError(f"a model has at most {MAX_ELEMENTS} elements")
        table = tuple(map(tuple, sum_table))
        if len(table) != self.n or any(len(row) != self.n for row in table):
            raise ValueError("sum table shape does not match element count")
        if not _validated:
            violation = _kernels.axiom_violation(table)
            if violation is not None:
                tag, witness = violation
                raise AxiomViolation(tag, tuple(self.names[w] for w in witness))
        self.sum = table
        self.leq = _derive_leq(table)
        self.diff = _derive_diff(table)
        self._cache = {}
        self._check_order()

    def _check_order(self):
        n, leq = self.n, self.leq
        for e in range(n):
            if not leq[0][e] or not leq[e][e]:
                raise InternalInvariant("derived order is not reflexive with least 0")
        for e in range(n):
            for f in range(n):
                if e != f and leq[e][f] and leq[f][e]:
                    raise InternalInvariant("derived order is not antisymmetric")
                if leq[e][f]:
                    d = self.diff[f][e]
                    if d < 0 or self.sum[e][d] != f:
                        raise InternalInvariant("difference disagrees with sum")

    # -- basic queries ------------------------------------------------

    @cached_property
    def _sk_plan(self):
        return _kernels.sk_plan(self.sum, self.diff, self.leq)

    @cached_property
    def below(self):
        """Per element p, the tuple of the elements e <= p, ascending."""
        return tuple(
            tuple(e for e in range(self.n) if self.leq[e][p]) for p in range(self.n)
        )

    @cached_property
    def _masks(self):
        """(down, up): per element, the bitmask of the elements below it
        and of those above it (bit x for element x)."""
        down = tuple(sum(1 << d for d in below) for below in self.below)
        up = [0] * self.n
        for p, below in enumerate(self.below):
            for d in below:
                up[d] |= 1 << p
        return down, tuple(up)

    @cached_property
    def atoms(self):
        """Minimal nonzero elements."""
        out = []
        for a in range(1, self.n):
            if not any(self.leq[e][a] for e in range(1, self.n) if e != a):
                out.append(a)
        return tuple(out)

    def greatest(self):
        for t in range(self.n):
            if all(self.leq[e][t] for e in range(self.n)):
                return t
        return None

    @cached_property
    def chain_height(self):
        """Length of a longest chain (number of elements)."""
        n = self.n
        depth = [1] * n
        order = sorted(range(n), key=lambda e: len(self.below[e]))
        for e in order:
            for f in range(n):
                if f != e and self.leq[f][e]:
                    depth[e] = max(depth[e], depth[f] + 1)
        return max(depth)

    def __eq__(self, other):
        return (
            isinstance(other, GeaTable)
            and self.names == other.names
            and self.sum == other.sum
        )

    def __hash__(self):
        return hash((self.names, self.sum))

    def __repr__(self):
        return f"GeaTable({list(self.names)}, n={self.n})"


def _derive_leq(table):
    n = len(table)
    leq = [[False] * n for _ in range(n)]
    for e, row in enumerate(table):
        for v in row:
            if v >= 0:
                leq[e][v] = True
    return tuple(map(tuple, leq))


def _derive_diff(table):
    n = len(table)
    diff = [[-1] * n for _ in range(n)]
    for e, row in enumerate(table):
        for d, v in enumerate(row):
            if v >= 0:
                if diff[v][e] >= 0 and diff[v][e] != d:
                    raise InternalInvariant("difference is not unique")
                diff[v][e] = d
    return tuple(map(tuple, diff))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def build_gea(names, zero, equations):
    """Build and validate a model from named sum equations.

    ``equations`` is an iterable of (a, b, c) name triples meaning a + b = c.
    The table is completed by symmetry and by e + 0 = e; conflicting
    equations raise ConflictingEquation, axiom failures raise
    AxiomViolation with the axiom tag and a witness.
    """
    names = list(names)
    if len(set(names)) != len(names):
        raise ValueError("element names must be distinct")
    if zero not in names:
        raise ValueError(f"zero element {zero!r} not among names")
    ordered = [zero] + [x for x in names if x != zero]
    idx = {x: i for i, x in enumerate(ordered)}
    n = len(ordered)
    table = [[-1] * n for _ in range(n)]
    for e in range(n):
        table[e][0] = e
        table[0][e] = e

    def put(i, j, k):
        if table[i][j] >= 0 and table[i][j] != k:
            raise ConflictingEquation(
                f"{ordered[i]} + {ordered[j]} given as both "
                f"{ordered[table[i][j]]} and {ordered[k]}"
            )
        table[i][j] = k
        table[j][i] = k

    for a, b, c in equations:
        for x in (a, b, c):
            if x not in idx:
                raise ValueError(f"equation references unknown element {x!r}")
        put(idx[a], idx[b], idx[c])

    return GeaTable(ordered, table)


def t3():
    """Three elements, no nonzero sums; the minimal non-EA model."""
    return build_gea(["0", "a", "b"], "0", [])


def c3():
    """Chain 0 < 1 < 2 with 1 + 1 = 2."""
    return build_gea(["0", "1", "2"], "0", [("1", "1", "2")])


def b4():
    """Boolean 2x2: atoms a, b with a + b = 1."""
    return build_gea(["0", "a", "b", "1"], "0", [("a", "b", "1")])


# ---------------------------------------------------------------------------
# orthogonal families
# ---------------------------------------------------------------------------

def orthogonal_multisets(E):
    """All orthogonal multisets of nonzero elements, as sorted tuples.

    A finite multiset is orthogonal exactly when its total sum is defined.
    Each element added raises the total, so the search ends.
    """
    out = []

    def extend(ms, total, start):
        out.append((ms, total))
        for e in range(start, E.n):
            t = E.sum[total][e]
            if t >= 0:
                extend(ms + (e,), t, e)

    extend((), 0, 1)
    return out


# ---------------------------------------------------------------------------
# element and subset predicates
# ---------------------------------------------------------------------------

def is_principal(E, p):
    for e in E.below[p]:
        for f in E.below[p]:
            s = E.sum[e][f]
            if s >= 0 and not E.leq[s][p]:
                return False
    return True


def is_sharp(E, p):
    for d in E.below[p]:
        if d != 0 and E.sum[d][p] >= 0:
            return False
    return True


def sup(E, fam):
    """Least upper bound of the elements ``fam``, or None."""
    return _extreme(E._masks[1], fam)


def inf(E, fam):
    """Greatest lower bound of the elements ``fam``, or None."""
    return _extreme(E._masks[0], fam)


def _extreme(cones, fam):
    # the common bounds of fam are the AND of its members' cones (up-sets
    # for sup, down-sets for inf); the answer is the bound whose own cone
    # holds every bound, and by antisymmetry there is at most one
    common = (1 << len(cones)) - 1
    for x in fam:
        common &= cones[x]
    rest = common
    while rest:
        low = rest & -rest
        d = low.bit_length() - 1
        if common & ~cones[d] == 0:
            return d
        rest ^= low
    return None


# ---------------------------------------------------------------------------
# global structure flags
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StructureFlags:
    directed: bool
    orthogonally_ordered: bool
    is_ea: object  # greatest element index or None
    lattice: bool
    archimedean: bool
    dedekind_orthocomplete: bool
    orthocomplete: bool


@memo
def structure_predicates(E):
    """The global structure flags of a model, read off bitmasks: e and f
    have an upper bound when their up-sets meet, and the model is
    orthogonally ordered when e <= f for every pair with every element
    orthogonal to f also orthogonal to e."""
    n = E.n
    up = E._masks[1]
    directed = all(up[e] & up[f] for e in range(n) for f in range(e + 1, n))
    # orth[e]: the elements d with d + e defined
    orth = [sum(1 << d for d, v in enumerate(row) if v >= 0) for row in E.sum]
    oo = all(E.leq[e][f] for e in range(n) for f in range(n)
             if orth[f] & ~orth[e] == 0)
    lattice = all(
        sup(E, (e, f)) is not None and inf(E, (e, f)) is not None
        for e in range(n)
        for f in range(e + 1, n)
    )
    return StructureFlags(
        directed=directed,
        orthogonally_ordered=oo,
        is_ea=E.greatest(),
        lattice=lattice,
        # these three hold on every finite GEA: e < e + e < ... must
        # leave the table, and each partial sum p of an orthogonal multiset
        # lies below its total, p + (the rest), itself a partial sum
        archimedean=True,
        dedekind_orthocomplete=True,
        orthocomplete=True,
    )


# ---------------------------------------------------------------------------
# ideals, direct sums, orthodensity
# ---------------------------------------------------------------------------

@memo
def all_ideals(E):
    """Every ideal (down-set closed under defined sums), as a tuple of
    frozensets, by size and then by their sorted elements (the order of
    ``itertools.combinations``).

    Found by peeling, not by testing every subset.  Take the elements in a
    linear extension of the order, 0 first; each prefix P is a down-set.
    Call J an ideal of P when J holds 0, lies in P, is a down-set and holds
    every sum of two of its members that lands in P; the ideals of the
    whole model are then the ideals of its longest prefix.  Let P' be P
    with the next element e added, so e is maximal in P'.  The ideals of
    P' are exactly:

    - each ideal J of P in which no two members sum to e;
    - J with e added, for each ideal J of P that holds every element
      strictly below e.

    Proof.  Let J' be an ideal of P' and J = J' minus e.  J is a down-set,
    since nothing in P' other than e lies above e, and it holds the sums of
    its members that land in P, so it is an ideal of P.  If e is not in J',
    then J' = J and no two members sum to e; if e is in J', J holds what
    lies strictly below e.  Conversely, J is a down-set in either case, so
    only the sums landing in P' need checking.  Sums landing in P stay in
    J by assumption, and a sum landing on e needs e: in the first case no
    such sum exists, in the second e is there.  A sum e + f with e in the
    set lies above e, so it is e itself.  J' determines J and whether it
    holds e, so no ideal is found twice."""
    order = sorted(range(E.n), key=lambda e: (len(E.below[e]), e))
    down, diff = E._masks[0], E.diff
    ideals = [1]
    for e in order[1:]:
        # the pairs a + b = e are (a, e - a) for a <= e, by cancellation
        pairs = [1 << a | 1 << diff[e][a] for a in E.below[e] if a not in (0, e)]
        strictly = down[e] ^ 1 << e
        grown = []
        for J in ideals:
            if not any(J & m == m for m in pairs):
                grown.append(J)
            if J & strictly == strictly:
                grown.append(J | 1 << e)
        ideals = grown
    members = [tuple(x for x in range(E.n) if J >> x & 1) for J in ideals]
    members.sort(key=lambda xs: (len(xs), xs))
    return tuple(map(frozenset, members))


def _ideal_flags(E, S):
    """Whether the set S of elements is an ideal, read off its bitmask."""
    mask = sum(1 << x for x in set(S))
    down = E._masks[0]
    for s in S:
        if down[s] & ~mask:
            return False
        row = E.sum[s]
        for t in S:
            v = row[t]
            if v >= 0 and not mask >> v & 1:
                return False
    return True


def is_orthodense(E, D, P):
    """Every element of P is an orthosum of a multiset drawn from D."""
    D = frozenset(D)
    P = frozenset(P)
    if not D <= P:
        raise ValueError("D must be a subset of P")
    reach = {0}
    frontier = [0]
    while frontier:
        r = frontier.pop()
        for d in D:
            v = E.sum[r][d]
            if v >= 0 and v not in reach:
                reach.add(v)
                frontier.append(v)
    return P <= reach


# ---------------------------------------------------------------------------
# intervals
# ---------------------------------------------------------------------------

def interval_ea(E, p):
    """The interval E[0, p] organized as an effect algebra with unit p.

    Sums inside the interval are the parent sums that stay below p.  Its
    element i is the parent's element ``E.below[p][i]``.  ``GeaTable``
    raises ``AxiomViolation`` when the interval is no GEA;
    ``core-order-laws`` checks that it is one, with top p and the
    restricted order.
    """
    members = E.below[p]
    pos = {e: i for i, e in enumerate(members)}
    k = len(members)
    table = [[-1] * k for _ in range(k)]
    for a in members:
        for b in members:
            v = E.sum[a][b]
            if v >= 0 and E.leq[v][p]:
                table[pos[a]][pos[b]] = pos[v]
    return GeaTable([E.names[e] for e in members], table)


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------

def _refine_colors(rows):
    """Iterated structural coloring of a table given as rows.

    Color ids are ranks of label-invariant signatures, so relabeling the
    table permutes the colors the same way.  The order is read off the
    rows: f <= e iff e is in row f.  This is the partition-refinement
    scheme of McKay and Piperno, "Practical graph isomorphism, II",
    J. Symbolic Comput. 60 (2014).
    """
    rng = range(len(rows))
    sums = [[(f, v) for f, v in enumerate(row) if v >= 0] for row in rows]
    below = [[f for f in rng if e in rows[f]] for e in rng]
    colors = [0 if e == 0 else 1 for e in rng]
    for _ in rng:
        sigs = [
            (colors[e],
             tuple(sorted((colors[f], colors[v]) for f, v in sums[e])),
             tuple(sorted(colors[f] for f in below[e])))
            for e in rng
        ]
        ranking = {sig: r for r, sig in enumerate(sorted(set(sigs)))}
        new = [ranking[s] for s in sigs]
        if new == colors:
            break
        colors = new
    return colors


def _candidate_perms(colors):
    """Permutations compatible with a refined coloring, as lists, lazily.

    Elements of each color class may only move within the class's slot
    range; classes are laid out in color order (zero's class first).
    """
    classes = {}
    for e, c in enumerate(colors):
        classes.setdefault(c, []).append(e)
    ordered = [classes[c] for c in sorted(classes)]
    slots = []
    base = 0
    for cls in ordered:
        slots.append(range(base, base + len(cls)))
        base += len(cls)
    for arrangement in itertools.product(*map(itertools.permutations, slots)):
        p = [0] * len(colors)
        for cls, targets in zip(ordered, arrangement):
            for e, target in zip(cls, targets):
                p[e] = target
        yield p


def canonical_rows(rows):
    """The canonical representative of a table given as tuple rows: its
    least relabeling over the candidate permutations, the same table for
    every labeling of one model."""
    return _kernels.min_relabel(rows, _candidate_perms(_refine_colors(rows)))


def automorphisms(rows):
    """The zero-fixing automorphisms of a table given as tuple rows, other
    than the identity, as lists: the candidate permutations that
    reproduce it.

    Refined colors are invariant under isomorphism, so an automorphism
    maps each color class onto itself.  When the colors are sorted in
    label order, as a canonical table's are, each class is its own slot
    range and every automorphism is a candidate; otherwise the list may
    miss some.
    """
    identity = list(range(len(rows)))
    return [p for p in _candidate_perms(_refine_colors(rows))
            if p != identity and _kernels.relabeled(rows, p) == rows]


def canonical_form(E):
    """Isomorphism-class key: minimal relabeling over zero-fixing maps.

    Two models get equal byte strings exactly when some relabeling that
    fixes zero carries one sum table onto the other.
    """
    return bytes([E.n]) + table_bytes(canonical_rows(E.sum))


def table_bytes(rows):
    """The table's entries row-major as signed bytes, -1 as ``0xff``."""
    return array("b", itertools.chain.from_iterable(rows)).tobytes()


def is_canonical_table(rows):
    """True when the table, given as rows (a model's ``sum``, say), is its
    own canonical representative: the least relabeling over the candidate
    permutations.

    A table whose refined colors are not sorted in label order is never
    canonical, and is rejected before any permutation is built.  Colors
    are invariant under isomorphism, so a candidate permutation that
    reproduces the table maps each color class onto itself; being a
    candidate, it also maps the class into the class's slot range, so
    every class sits on its own slots.  Then the colors are sorted, which
    holds exactly when the identity is a candidate.
    """
    colors = _refine_colors(rows)
    if colors != sorted(colors):
        return False
    rows = tuple(map(tuple, rows))  # the kernels' row type
    return _kernels.is_min_relabel(rows, _candidate_perms(colors))
