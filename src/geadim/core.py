"""Finite generalized effect algebras as validated partial-sum tables.

An n-element model is stored as an n-by-n table of the partial
orthosummation, a tuple of row tuples whose entry -1 means the sum is
undefined, together with the derived order ``leq`` (e <= f iff e + d = f
for some d) and difference table ``diff`` (``diff[f][e]`` is f - e when
e <= f), in the same form.  Element 0 is always the zero element; the
builders reorder inputs so this holds.

Everything here is immutable after construction and safe to share.
"""

import itertools
from array import array
from dataclasses import dataclass
from functools import cached_property

from . import _kernels
from .errors import AxiomViolation, ConflictingEquation, InternalInvariant

# the most elements a model may have: ``table_bytes`` stores every element
# index in one signed byte
MAX_ELEMENTS = 128


class GeaTable:
    """A validated finite GEA over named elements (zero at index 0)."""

    def __init__(self, names, sum_table, _validated=False):
        self.names = tuple(names)
        self.n = len(self.names)
        self.zero = 0
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
    def _below(self):
        return tuple(
            tuple(e for e in range(self.n) if self.leq[e][p]) for p in range(self.n)
        )

    def sum_of(self, e, f):
        v = self.sum[e][f]
        return None if v < 0 else v

    def sub(self, f, e):
        """f - e for e <= f, else None."""
        v = self.diff[f][e]
        return None if v < 0 else v

    def perp(self, e, f):
        return self.sum[e][f] >= 0

    def le(self, e, f):
        return self.leq[e][f]

    def below(self, p):
        return list(self._below[p])

    def index(self, name):
        return self.names.index(name)

    @cached_property
    def atoms(self):
        """Minimal nonzero elements."""
        out = []
        for a in range(1, self.n):
            if not any(self.leq[e][a] for e in range(1, self.n) if e != a):
                out.append(a)
        return tuple(out)

    @cached_property
    def maximal(self):
        out = []
        for a in range(self.n):
            if not any(self.leq[a][e] for e in range(self.n) if e != a):
                out.append(a)
        return tuple(out)

    def greatest(self):
        for t in range(self.n):
            if all(self.leq[e][t] for e in range(self.n)):
                return t
        return None

    def meet(self, e, f):
        lower = [d for d in range(self.n) if self.leq[d][e] and self.leq[d][f]]
        tops = [d for d in lower if all(self.leq[x][d] for x in lower)]
        return tops[0] if tops else None

    def join(self, e, f):
        upper = [d for d in range(self.n) if self.leq[e][d] and self.leq[f][d]]
        bots = [d for d in upper if all(self.leq[d][x] for x in upper)]
        return bots[0] if bots else None

    @cached_property
    def chain_height(self):
        """Length of a longest chain (number of elements)."""
        n = self.n
        depth = [1] * n
        order = sorted(range(n), key=lambda e: len(self._below[e]))
        for e in order:
            for f in range(n):
                if f != e and self.leq[f][e]:
                    depth[e] = max(depth[e], depth[f] + 1)
        return max(depth)

    def relabel(self, perm):
        """New table with element i renamed to position perm[i]."""
        n = self.n
        if sorted(perm) != list(range(n)) or perm[0] != 0:
            raise ValueError("perm must be a permutation fixing 0")
        new = _kernels.relabeled(self.sum, perm)
        names = [""] * n
        for i in range(n):
            names[perm[i]] = self.names[i]
        return GeaTable(names, new, _validated=True)

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
            results.add(None if r is None else E.sum_of(e, r))
        if len(results) != 1:
            raise InternalInvariant(f"order-dependent orthosum for {ms}")
        out = results.pop()
        memo[ms] = out
        return out

    return rec(tuple(sorted(family)))


def orthogonal_multisets(E, within=None, max_mult=None):
    """All orthogonal multisets of nonzero elements, as sorted tuples.

    A finite multiset is orthogonal exactly when its total sum is defined;
    multiplicity is naturally bounded by the chain height, which guarantees
    termination.  ``within`` restricts the support set.
    """
    pool = sorted(within) if within is not None else range(1, E.n)
    pool = [e for e in pool if e != 0]
    bound = max_mult if max_mult is not None else E.chain_height
    out = []

    def extend(ms, total, start):
        out.append((ms, total))
        for i in range(start, len(pool)):
            e = pool[i]
            if ms.count(e) >= bound:
                continue
            t = E.sum_of(total, e)
            if t is not None:
                extend(ms + (e,), t, i)

    extend((), 0, 0)
    return out


# ---------------------------------------------------------------------------
# element and subset predicates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ElementFlags:
    principal: bool
    sharp: bool
    atom: bool
    greatest: bool  # E[0, p] is all of E


def element_predicates(E, p):
    principal = is_principal(E, p)
    sharp = is_sharp(E, p)
    if principal and not sharp:
        raise InternalInvariant("principal element is not sharp")
    return ElementFlags(
        principal=principal,
        sharp=sharp,
        atom=p in E.atoms,
        greatest=all(E.leq[e][p] for e in range(E.n)),
    )


def is_principal(E, p):
    for e in E.below(p):
        for f in E.below(p):
            s = E.sum_of(e, f)
            if s is not None and not E.leq[s][p]:
                return False
    return True


def is_sharp(E, p):
    for d in E.below(p):
        if d != 0 and E.perp(d, p):
            return False
    return True


@dataclass(frozen=True)
class SubsetFlags:
    order_ideal: bool
    ideal: bool
    sub_gea: bool
    sup_inf_closed: bool


def subset_predicates(E, S):
    S = frozenset(S)
    order_ideal = all(t in S for s in S for t in E.below(s))
    closed_sum = all(
        E.sum_of(s, t) is None or E.sum_of(s, t) in S for s in S for t in S
    )
    ideal = order_ideal and closed_sum
    sub = bool(S) and closed_sum and all(
        E.sub(t, s) in S for s in S for t in S if E.leq[s][t]
    )
    sup_inf = True
    members = sorted(S)
    for r in range(1, len(members) + 1):
        for fam in itertools.combinations(members, r):
            sup = _sup_of(E, fam)
            inf = _inf_of(E, fam)
            if sup is not None and sup not in S:
                sup_inf = False
            if inf is not None and inf not in S:
                sup_inf = False
    if ideal and 0 in S and not sub:
        raise InternalInvariant("ideal is not a sub-GEA")
    return SubsetFlags(order_ideal, ideal, sub, sup_inf)


def _sup_of(E, fam):
    ub = [d for d in range(E.n) if all(E.leq[x][d] for x in fam)]
    least = [d for d in ub if all(E.leq[d][x] for x in ub)]
    return least[0] if least else None


def _inf_of(E, fam):
    lb = [d for d in range(E.n) if all(E.leq[d][x] for x in fam)]
    greatest = [d for d in lb if all(E.leq[x][d] for x in lb)]
    return greatest[0] if greatest else None


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


def structure_predicates(E):
    """The global structure flags of a model.  Cached per table."""
    if "structure" in E._cache:
        return E._cache["structure"]
    n = E.n
    directed = all(
        any(E.leq[e][d] and E.leq[f][d] for d in range(n))
        for e in range(n)
        for f in range(n)
    )
    oo = True
    for e in range(n):
        for f in range(n):
            if all(E.perp(d, e) for d in range(n) if E.perp(d, f)):
                if not E.leq[e][f]:
                    oo = False
    lattice = all(
        E.meet(e, f) is not None and E.join(e, f) is not None
        for e in range(n)
        for f in range(n)
    )
    # archimedean: iterating e + e + ... must leave the table before
    # exceeding the chain height; verified, not assumed
    archimedean = True
    for e in range(1, n):
        x, steps = e, 1
        while steps <= n:
            nx = E.sum_of(x, e)
            if nx is None:
                break
            x, steps = nx, steps + 1
        if steps > n:
            archimedean = False

    # every orthogonal multiset must be orthosummable with the total as
    # supremum of its partial sums; exhaustive over bounded multisets
    ortho = True
    dedekind = True
    for ms, total in orthogonal_multisets(E):
        partials = _partial_sums(E, ms)
        if any(not E.leq[p][total] for p in partials):
            ortho = False
        bounded = any(all(E.leq[p][u] for p in partials) for u in range(n))
        if bounded and any(not E.leq[p][total] for p in partials):
            dedekind = False
    out = StructureFlags(
        directed=directed,
        orthogonally_ordered=oo,
        is_ea=E.greatest(),
        lattice=lattice,
        archimedean=archimedean,
        dedekind_orthocomplete=dedekind,
        orthocomplete=ortho,
    )
    E._cache["structure"] = out
    return out


def _partial_sums(E, ms):
    sums = {0}
    for r in range(1, len(ms) + 1):
        for sub in set(itertools.combinations(ms, r)):
            v = orthosum_family(E, sub)
            if v is None:
                raise InternalInvariant("sub-multiset of orthogonal multiset undefined")
            sums.add(v)
    return sums


# ---------------------------------------------------------------------------
# ideals, direct sums, orthodensity
# ---------------------------------------------------------------------------

def all_ideals(E):
    """Every ideal (down-set closed under defined sums), as frozensets."""
    n = E.n
    rest = list(range(1, n))
    out = []
    for r in range(0, n):
        for pick in itertools.combinations(rest, r):
            S = frozenset((0,) + pick)
            flags = _ideal_flags(E, S)
            if flags:
                out.append(S)
    return out


def _ideal_flags(E, S):
    for s in S:
        for t in E.below(s):
            if t not in S:
                return False
        for t in S:
            v = E.sum_of(s, t)
            if v is not None and v not in S:
                return False
    return True


def direct_sum_check(E, ideals):
    """Is E the direct sum of the given ideals?  Returns (bool, witness)."""
    from .errors import NotAnIdeal

    sets = [frozenset(S) for S in ideals]
    for S in sets:
        if 0 not in S or not _ideal_flags(E, S):
            raise NotAnIdeal(f"{sorted(S)} is not an ideal")
    for combo in itertools.product(*sets):
        if orthosum_family(E, combo) is None:
            return False, f"selection {combo} is not orthogonal"
    decomp = {e: [] for e in range(E.n)}
    for combo in itertools.product(*sets):
        v = orthosum_family(E, combo)
        decomp[v].append(combo)
    for e in range(E.n):
        if len(decomp[e]) != 1:
            return False, f"element {e} has {len(decomp[e])} coordinate decompositions"
    return True, None


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
            v = E.sum_of(r, d)
            if v is not None and v not in reach:
                reach.add(v)
                frontier.append(v)
    return P <= reach


# ---------------------------------------------------------------------------
# intervals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntervalEa:
    parent: GeaTable
    top: int
    embed: tuple  # interval index -> parent index
    table: GeaTable


def interval_ea(E, p):
    """The interval E[0, p] organized as an effect algebra with unit p.

    Sums inside the interval are the parent sums that stay below p.
    """
    members = E.below(p)
    embed = tuple(members)
    pos = {e: i for i, e in enumerate(members)}
    k = len(members)
    table = [[-1] * k for _ in range(k)]
    for a in members:
        for b in members:
            v = E.sum_of(a, b)
            if v is not None and E.leq[v][p]:
                table[pos[a]][pos[b]] = pos[v]
    try:
        sub = GeaTable([E.names[e] for e in members], table)
    except AxiomViolation as exc:
        raise InternalInvariant(f"interval at {E.names[p]} is not a GEA: {exc}")
    if sub.greatest() != pos[p]:
        raise InternalInvariant("interval does not have its top as greatest element")
    for a in members:
        for b in members:
            if sub.leq[pos[a]][pos[b]] != E.leq[a][b]:
                raise InternalInvariant("interval order is not the restricted order")
    return IntervalEa(E, p, embed, sub)


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


def canonical_form(E):
    """Isomorphism-class key: minimal relabeling over zero-fixing maps.

    Two models get equal byte strings exactly when some relabeling that
    fixes zero carries one sum table onto the other.
    """
    rows = E.sum
    best = _kernels.min_relabel(rows, _candidate_perms(_refine_colors(rows)))
    return bytes([E.n]) + table_bytes(best)


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
