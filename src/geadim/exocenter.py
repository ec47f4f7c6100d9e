"""The exocenter: idempotent decreasing endomorphisms, and the center.

A map is its image tuple: ``pi[e]`` is the image of e, and
``fixed_points(pi)`` is the direct summand pi(E).  An ``ExoSet`` holds
such tuples and computes their meets and complements.

The exocenter of a model is computed by enumerating complementary ideal
pairs (every direct-sum decomposition E = H + K induces the coordinate
projection onto H and vice versa).  An independent atom search, which
shares no code with it and must agree, fixes each map by its images of
the atoms (0 or the atom itself) and forces the image of every sum;
``tests/oracles.py`` keeps the filter of every self-map below the
identity as its oracle.  ``disjoint_families`` finds the families whose
maps are pairwise disjoint, each with its orthosum, in one walk; the
oracles filter every subset and sum it in every order.
"""

from . import _kernels, core
from .errors import InternalInvariant


def fixed_points(pi):
    """The direct summand pi(E) of the map ``pi``: its fixed points."""
    return tuple(e for e, v in enumerate(pi) if v == e)


def is_identity(pi):
    return all(v == e for e, v in enumerate(pi))


class ExoSet:
    """A finite set of exocenter maps with the induced boolean operations.

    Order: pi <= xi iff pi o xi = pi.  Meet is composition, complement is
    pointwise difference, join is by De Morgan.  Operations assert that
    their results stay inside the set (they do for the full exocenter and
    for any boolean subalgebra of it).  Meets and complements are
    remembered per set once they succeed; a failing operation is never
    remembered, so it raises again on every call.
    """

    def __init__(self, E, maps):
        self.E = E
        self.maps = tuple(sorted(set(maps)))
        self._pos = {m: i for i, m in enumerate(self.maps)}
        self.zero = (0,) * E.n
        self.one = tuple(range(E.n))
        self._meets = {}
        self._complements = {}

    def __iter__(self):
        return iter(self.maps)

    def __len__(self):
        return len(self.maps)

    def __contains__(self, m):
        return m in self._pos

    def _member(self, image):
        """The member whose image is ``image`` (a list of element indices)."""
        image = tuple(image)
        i = self._pos.get(image)
        if i is None:
            raise InternalInvariant(f"operation left the set: {image!r}")
        return self.maps[i]

    def complement(self, p):
        out = self._complements.get(p)
        if out is None:
            diff = self.E.diff
            out = self._member([diff[e][v] for e, v in enumerate(p)])
            self._complements[p] = out
        return out

    def meet(self, p, q):
        out = self._meets.get((p, q))
        if out is None:
            a = [p[x] for x in q]
            if a != [q[x] for x in p]:
                raise InternalInvariant("composition of exocenter maps is not commutative")
            out = self._member(a)
            self._meets[(p, q)] = out
            self._meets[(q, p)] = out
        return out

    def join(self, p, q):
        return self.complement(self.meet(self.complement(p), self.complement(q)))

    def leq(self, p, q):
        return all(p[x] == y for x, y in zip(q, p))

    def disjoint(self, p, q):
        return not any(self.meet(p, q))

    def meet_all(self, maps):
        out = self.one
        for m in maps:
            out = self.meet(out, m)
        return out

    def join_all(self, maps):
        out = self.zero
        for m in maps:
            out = self.join(out, m)
        return out


def disjoint_families(S, maps):
    """The sets of nonzero elements whose maps (``maps[e]`` for element e)
    are pairwise disjoint in S, with their orthosums (None if undefined),
    as (family, orthosum) pairs, by size and then in the order of
    ``itertools.combinations``; the empty family, with sum 0, comes first.

    One depth-first walk extends a family only by a later element whose
    map is disjoint from every member's, adding it to the family's sum (by
    GEA1-GEA2 the order of the terms does not matter); an undefined sum
    stays None."""
    E = S.E
    out = []

    def extend(family, total, start):
        out.append((family, total))
        for e in range(start, E.n):
            if all(S.disjoint(maps[a], maps[e]) for a in family):
                v = -1 if total is None else E.sum[total][e]
                extend(family + (e,), None if v < 0 else v, e + 1)

    extend((), 0, 1)
    out.sort(key=lambda pair: len(pair[0]))
    return out


@core.memo
def exocenter(E):
    """GEX(E) via complementary ideal pairs."""
    ideals = core.all_ideals(E)
    maps = set()
    for H in ideals:
        for K in ideals:
            pi = _projection(E, H, K)
            if pi is not None:
                maps.add(pi)
    out = ExoSet(E, maps)
    if out.zero not in out or out.one not in out:
        raise InternalInvariant("exocenter is missing zero or identity")
    return out


def _projection(E, H, K):
    """Coordinate projection onto H when E = H + K, else None."""
    if H & K != {0}:
        return None
    img = [-1] * E.n
    for h in H:
        for k in K:
            v = E.sum[h][k]
            if v < 0:
                return None
            if img[v] >= 0:
                return None  # decomposition not unique
            img[v] = h
    if -1 in img:
        return None
    return tuple(img)


@core.memo
def brute_force_exomaps(E):
    """Oracle: the exocenter by the atom search of
    ``_kernels.brute_exomaps``, independent of the ideal pairs.  The name
    is kept because the benchmark's tracer binds it."""
    rows = _kernels.brute_exomaps(E.sum, E.leq)
    if not rows and E.n >= 1:
        raise InternalInvariant("brute-force exocenter search found nothing")
    return ExoSet(E, rows)


@core.memo
def center(E):
    """Central elements with their projections in the exocenter: c is
    central iff some exocenter map's summand is the interval [0, c].
    ``center-characterizations`` compares them with the three-condition
    characterization (``_central_by_definition``)."""
    via_gex = {}
    for pi in exocenter(E):
        M = set(fixed_points(pi))
        tops = [c for c in M if all(E.leq[m][c] for m in M)]
        if tops and M == set(E.below[tops[0]]):
            via_gex[tops[0]] = pi
    return tuple((c, via_gex[c]) for c in sorted(via_gex))


def _central_by_definition(E, c):
    """Principality, a unique decomposition e = e1 + e2 with e1 <= c and
    e2 orthogonal to c for every e, and closure of the elements orthogonal
    to c under sums.  By cancellation the decompositions of e are
    (e1, e - e1) for e1 below both c and e."""
    if not core.is_principal(E, c):
        return False
    orth = [E.sum[x][c] >= 0 for x in range(E.n)]
    down = E._masks[0]
    for e in range(E.n):
        common = down[c] & down[e]
        if sum(orth[E.diff[e][x]] for x in range(E.n) if common >> x & 1) != 1:
            return False
    for p in range(E.n):
        if orth[p]:
            for q, s in enumerate(E.sum[p]):
                if s >= 0 and orth[q] and not orth[s]:
                    return False
    return True


def exocentral_cover(S, e):
    """The smallest map in S fixing e."""
    fixing = [pi for pi in S if pi[e] == e]
    if not fixing:
        raise InternalInvariant(f"no exocenter map fixes element {e}")
    cover = S.meet_all(fixing)
    if cover[e] != e:
        raise InternalInvariant("cover does not fix its element")
    return cover


def cogea_check(E):
    """The first witness, in ``disjoint_families`` order, that central
    orthocompleteness fails: ``("CO1", family)`` for a family whose
    orthosum is undefined, ``("CO2", family, f)`` for an f orthogonal to
    every member but not to the orthosum; None when CO1 and CO2 hold.

    Finite models must pass; a failure flags a bug, but the verdict is
    computed honestly by exhaustion rather than assumed.  A family with a
    repeated nonzero element can never be GEX-orthogonal, so the subsets
    of nonzero elements whose exocentral covers are disjoint (plus
    irrelevant zeros) are all GEX-orthogonal families of a finite model.
    """
    S = exocenter(E)
    covers = {e: exocentral_cover(S, e) for e in range(1, E.n)}
    for pick, total in disjoint_families(S, covers):
        if total is None:
            return ("CO1", pick)
        for f in range(E.n):
            if all(E.sum[f][a] >= 0 for a in pick) and E.sum[f][total] < 0:
                return ("CO2", pick, f)
    return None


def _is_boolean_algebra(S):
    if S.zero not in S or S.one not in S:
        return False
    try:
        for p in S:
            c = S.complement(p)
            if any(S.meet(p, c)) or not is_identity(S.join(p, c)):
                return False
            for q in S:
                S.meet(p, q)
                S.join(p, q)
        for p in S:
            for q in S:
                for r in S:
                    lhs = S.meet(p, S.join(q, r))
                    rhs = S.join(S.meet(p, q), S.meet(p, r))
                    if lhs != rhs:
                        return False
    except InternalInvariant:
        return False
    return True
