"""The exocenter: idempotent decreasing endomorphisms, and the center.

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

from dataclasses import dataclass

from . import _kernels, core
from .errors import InternalInvariant


class ExoMap:
    """A decreasing idempotent endomorphism, stored as its image tuple."""

    __slots__ = ("image",)

    def __init__(self, image):
        self.image = tuple(image)

    def __call__(self, e):
        return self.image[e]

    @property
    def summand(self):
        """The direct summand pi(E), i.e. the fixed points."""
        return tuple(e for e, v in enumerate(self.image) if v == e)

    @property
    def is_zero(self):
        return not any(self.image)

    @property
    def is_identity(self):
        return all(v == e for e, v in enumerate(self.image))

    def __eq__(self, other):
        return isinstance(other, ExoMap) and self.image == other.image

    def __lt__(self, other):
        return self.image < other.image

    def __hash__(self):
        return hash(self.image)

    def __repr__(self):
        return f"ExoMap({list(self.image)})"


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
        self._pos = {m.image: i for i, m in enumerate(self.maps)}
        self.zero = ExoMap((0,) * E.n)
        self.one = ExoMap(range(E.n))
        self._meets = {}
        self._complements = {}

    def __iter__(self):
        return iter(self.maps)

    def __len__(self):
        return len(self.maps)

    def __contains__(self, m):
        return isinstance(m, ExoMap) and m.image in self._pos

    def __eq__(self, other):
        return isinstance(other, ExoSet) and self.maps == other.maps

    def __hash__(self):
        return hash(self.maps)

    def _member(self, image):
        """The member whose image is ``image`` (a list of element indices)."""
        i = self._pos.get(tuple(image))
        if i is None:
            raise InternalInvariant(f"operation left the set: {ExoMap(image)!r}")
        return self.maps[i]

    def complement(self, p):
        out = self._complements.get(p.image)
        if out is None:
            sub = self.E.sub
            out = self._member([sub(e, v) for e, v in enumerate(p.image)])
            self._complements[p.image] = out
        return out

    def meet(self, p, q):
        pi, qi = p.image, q.image
        out = self._meets.get((pi, qi))
        if out is None:
            a = [pi[x] for x in qi]
            if a != [qi[x] for x in pi]:
                raise InternalInvariant("composition of exocenter maps is not commutative")
            out = self._member(a)
            self._meets[(pi, qi)] = out
            self._meets[(qi, pi)] = out
        return out

    def join(self, p, q):
        return self.complement(self.meet(self.complement(p), self.complement(q)))

    def leq(self, p, q):
        pi = p.image
        return all(pi[x] == y for x, y in zip(q.image, pi))

    def disjoint(self, p, q):
        return self.meet(p, q).is_zero

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
            v = E.sum_of(h, k)
            if v is None:
                return None
            if img[v] >= 0:
                return None  # decomposition not unique
            img[v] = h
    if -1 in img:
        return None
    return ExoMap(img)


@core.memo
def brute_force_exomaps(E):
    """Oracle: the exocenter by the atom search of
    ``_kernels.brute_exomaps``, independent of the ideal pairs.  The name
    is kept because the benchmark's tracer binds it."""
    rows = _kernels.brute_exomaps(E.sum, E.leq)
    if not rows and E.n >= 1:
        raise InternalInvariant("brute-force exocenter search found nothing")
    return ExoSet(E, (ExoMap(r) for r in rows))


@core.memo
def center(E):
    """Central elements with their projections in the exocenter,
    cross-validated.

    An element is central iff its interval is a direct summand; this is
    recomputed from the three-condition characterization (unique bounded/
    orthogonal decomposition, principality, orthogonality closure) and the
    two answers must agree.
    """
    via_gex = {}
    for pi in exocenter(E):
        M = set(pi.summand)
        tops = [c for c in M if all(E.leq[m][c] for m in M)]
        if tops and M == set(E.below(tops[0])):
            via_gex[tops[0]] = pi
    via_def = set()
    for c in range(E.n):
        if _central_by_definition(E, c):
            via_def.add(c)
    if set(via_gex) != via_def:
        raise InternalInvariant(
            f"central-element characterizations disagree: "
            f"{sorted(via_gex)} vs {sorted(via_def)}"
        )
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
    fixing = [pi for pi in S if pi(e) == e]
    if not fixing:
        raise InternalInvariant(f"no exocenter map fixes element {e}")
    cover = S.meet_all(fixing)
    if cover(e) != e:
        raise InternalInvariant("cover does not fix its element")
    return cover


@dataclass(frozen=True)
class CogeaReport:
    co1: bool
    co2: bool
    gex_complete_boolean: bool
    witness: object


def cogea_check(E):
    """Central orthocompleteness (CO1, CO2) and boolean completeness of
    the exocenter.

    Finite models must pass all three; a failure flags a bug, but the
    verdicts are computed honestly by exhaustion rather than assumed.  A
    family with a repeated nonzero element can never be GEX-orthogonal,
    so the subsets of nonzero elements whose exocentral covers are
    disjoint (plus irrelevant zeros) are all GEX-orthogonal families of a
    finite model.
    """
    S = exocenter(E)
    covers = {e: exocentral_cover(S, e) for e in range(1, E.n)}
    co1, co2, witness = True, True, None
    for pick, total in disjoint_families(S, covers):
        if total is None:
            co1, witness = False, ("CO1", pick)
            continue
        for f in range(E.n):
            if all(E.perp(f, a) for a in pick) and not E.perp(f, total):
                co2 = co2 and False
                witness = witness or ("CO2", pick, f)
    boolean = _is_boolean_algebra(S)
    return CogeaReport(co1, co2, boolean, witness)


def _is_boolean_algebra(S):
    if S.zero not in S or S.one not in S:
        return False
    try:
        for p in S:
            c = S.complement(p)
            if not S.meet(p, c).is_zero or not S.join(p, c).is_identity:
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
