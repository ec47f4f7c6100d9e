"""Hull systems, hull-determining sets, monads, dyads, and divisibility.

A hull system assigns to every element e a map eta_e in the exocenter
with eta_0 = 0, eta_e(e) = e, and eta_{eta_e f} = eta_e o eta_f =
eta_e ^ eta_f.  The relation e ~ f iff eta_e = eta_f behaves like a
dimension equivalence when the system is divisible.

``core.memo`` keeps the hull systems on their model, and the
divisibility report and the table of type-determining subsets
(``td_table``, which ``td_sets`` reads) on their hull system;
``tests/oracles.py`` keeps the literal searches as oracles, among them
the search per splitting that ``hull-grid-refinement`` replaces.
"""

from dataclasses import dataclass
from typing import NamedTuple

from .core import memo
from .errors import InternalInvariant, MapNotInExocenter, NotHullDetermining
from .exocenter import disjoint_families, exocentral_cover, exocenter


class HullSystem:
    """A fully materialized family of hull maps, one per element."""

    __slots__ = ("E", "exoset", "maps", "_cache")

    def __init__(self, exoset, maps):
        self.E = exoset.E
        self.exoset = exoset
        self.maps = tuple(maps)
        if len(self.maps) != self.E.n:
            raise ValueError("need one map per element")
        self._cache = {}  # core.memo's store

    def eta(self, e):
        return self.maps[e]

    @property
    def theta(self):
        """The set of distinct hull maps (the eta-exocenter)."""
        return tuple(sorted(set(self.maps)))

    def __eq__(self, other):
        return isinstance(other, HullSystem) and self.maps == other.maps

    def __hash__(self):
        return hash(self.maps)

    def __repr__(self):
        return f"HullSystem({[list(m.image) for m in self.maps]})"


def check_hull_system(S, maps):
    """Verify HS1-HS3 for a candidate family; returns (ok, witness)."""
    E, maps = S.E, tuple(maps)
    for m in maps:
        if m not in S:
            raise MapNotInExocenter(f"{m!r}")
    if not maps[0].is_zero:
        return False, "HS1: map at zero is not the zero map"
    for e in range(E.n):
        if maps[e](e) != e:
            return False, f"HS2: map at {E.names[e]} does not fix it"
    images = [m.image for m in maps]
    for e, ie in enumerate(images):
        for f, jf in enumerate(images):
            m1 = tuple(ie[v] for v in jf)  # eta_e o eta_f
            if m1 != tuple(jf[v] for v in ie) or images[ie[f]] != m1:
                return False, f"HS3 fails at ({E.names[e]}, {E.names[f]})"
    return True, None


def hull_system(S, maps):
    ok, witness = check_hull_system(S, maps)
    if not ok:
        raise InternalInvariant(f"not a hull system: {witness}")
    return HullSystem(S, maps)


def hull_from_hd(E, theta):
    """Hull system determined by a hull-determining subset of the exocenter.

    HD1: for each element some smallest member fixes it; HD2: the set is
    closed under theta ^ xi'.  The resulting family is verified to be a
    hull system.
    """
    S = exocenter(E)
    theta = list(theta)
    for m in theta:
        if m not in S:
            raise MapNotInExocenter(f"{m!r}")
    members = set(theta)
    for t in theta:
        for x in theta:
            if S.meet(t, S.complement(x)) not in members:
                raise NotHullDetermining(
                    "HD2", f"{t!r} ^ {x!r}' is missing from the set"
                )
    maps = []
    for e in range(E.n):
        fixing = [t for t in theta if t(e) == e]
        smallest = [t for t in fixing if all(S.leq(t, u) for u in fixing)]
        if not smallest:
            raise NotHullDetermining(
                "HD1", f"no smallest map fixing {E.names[e]}"
            )
        maps.append(smallest[0])
    return hull_system(S, maps)


def gamma_hull(S):
    """The exocentral cover system: the smallest map in S fixing each
    element."""
    return hull_system(S, [exocentral_cover(S, e) for e in range(S.E.n)])


@memo
def enumerate_hull_systems(E):
    """All hull systems on the model in a fixed order, memoized on it.

    Backtracks over assignments in a linear extension of the order so the
    HS3 constraint eta_{eta_e f} = eta_e ^ eta_f only ever references maps
    that are already placed.
    """
    S = exocenter(E)
    n = E.n
    order = sorted(range(n), key=lambda e: (len(E.below(e)), e))
    assert order[0] == 0
    fixing = {e: [m for m in S if m(e) == e] for e in range(n)}
    maps = [None] * n
    maps[0] = S.zero
    found = []

    def consistent(upto):
        # only the pairs with the newly placed x: the others were checked
        # when the later of their two elements was placed.  g = eta_a(b)
        # lies below b, so it is placed already, and S.meet is the
        # composition eta_a o eta_b, raising if the two maps do not commute
        x = order[upto]
        for e in order[: upto + 1]:
            for a, b in ((x, e), (e, x)):
                if maps[maps[a](b)] != S.meet(maps[a], maps[b]):
                    return False
        return True

    def rec(k):
        if k == n:
            found.append(HullSystem(S, list(maps)))
            return
        e = order[k]
        for cand in fixing[e]:
            maps[e] = cand
            if consistent(k):
                rec(k + 1)
        maps[e] = None

    rec(1)
    found.sort(key=lambda h: tuple(m.image for m in h.maps))
    return tuple(found)


# ---------------------------------------------------------------------------
# the relation eta_e = eta_f and its classification
# ---------------------------------------------------------------------------

def sim_eta(H, e, f):
    return H.eta(e) == H.eta(f)


def is_monad(H, p):
    """No element strictly below p has p's hull map."""
    return all(e == p for e in H.E.below(p) if sim_eta(H, e, p))


def is_dyad(H, p):
    """p is a sum e + f of two elements with equal hull maps."""
    E = H.E
    return any(
        E.sum_of(e, f) == p and sim_eta(H, e, f)
        for e in E.below(p)
        for f in E.below(p)
    )


@dataclass(frozen=True)
class DivisibilityReport:
    divisible: bool
    witness: object


@memo
def is_divisible(H):
    """Whether each p with eta_p = eta_(s+t) splits as p = e + f with
    eta_e = eta_s and eta_f = eta_t; the witness is the lex-least failing
    (p, s, t).  By cancellation the splittings of p are (e, p - e) for
    e <= p, so the test is a lookup in p's pairs of hull maps.  Each triple
    is cross-checked against the dyad criterion (the meet-image of p is a
    dyad).  Memoized on the hull system; a failed cross-check is not, so
    it raises again on every call.
    """
    E, S, eta = H.E, H.exoset, H.maps
    splits = [{(eta[e], eta[E.sub(p, e)]) for e in E.below(p)} for p in range(E.n)]
    dyad = [is_dyad(H, x) for x in range(E.n)]
    witness = None
    for p in range(E.n):
        for s in range(E.n):
            for t in range(E.n):
                st = E.sum_of(s, t)
                if st is None or eta[p] != eta[st]:
                    continue
                direct = (eta[s], eta[t]) in splits[p]
                if direct != dyad[S.meet(eta[s], eta[t])(p)]:
                    raise InternalInvariant(
                        f"divisibility checks disagree at "
                        f"({E.names[p]}, {E.names[s]}, {E.names[t]})"
                    )
                if not direct and witness is None:
                    witness = (p, s, t)
    return DivisibilityReport(witness is None, witness)


# ---------------------------------------------------------------------------
# type-determining subsets
# ---------------------------------------------------------------------------

class TdReport(NamedTuple):
    eta_td: bool
    eta_std: bool
    t_star: object  # least t in T with the largest hull map, or None


@memo
def td_table(H):
    """The closure, the hull image and the order ideal of every subset T
    at once, as three lists of bitmasks indexed by the mask of T (bit x
    for element x), and ``under``: per element t, the mask of the
    elements whose hull map lies below eta_t.

    The eta-orthogonal families inside T are exactly the families of all
    nonzero elements that lie in T, so each family's orthosum is placed at
    the family's mask and a subset-OR transform spreads it to every
    superset.  The image and the ideal of T extend those of T minus its
    lowest element.  Memoized on the hull system; a family that is not
    orthosummable raises ``InternalInvariant`` on every call.
    """
    E = H.E
    n = E.n
    size = 1 << n
    closure = [0] * size
    for pick, v in disjoint_families(H.exoset, H.maps):
        if v is None:
            raise InternalInvariant(
                f"eta-orthogonal family {pick} is not orthosummable"
            )
        closure[sum(1 << t for t in pick)] |= 1 << v
    for x in range(n):
        bit = 1 << x
        for T in range(size):
            if T & bit:
                closure[T] |= closure[T ^ bit]
    leq = H.exoset.leq
    down = E._masks[0]
    img = [0] * n
    under = [0] * n
    for t in range(n):
        for e in range(n):
            img[t] |= 1 << H.eta(e)(t)
            if leq(H.eta(e), H.eta(t)):
                under[t] |= 1 << e
    image = [0] * size
    ideal = [0] * size
    for T in range(1, size):
        low = T & -T
        t = low.bit_length() - 1
        image[T] = image[T ^ low] | img[t]
        ideal[T] = ideal[T ^ low] | down[t]
    return closure, image, ideal, under


def td_sets(H, T):
    """Whether T is eta-type-determining (its closure and its hull image
    are T) and strongly so (its closure and its order ideal are T), and
    the least t in T with the largest hull map, read from ``td_table``."""
    closure, image, ideal, under = td_table(H)
    mask = sum(1 << t for t in set(T))
    eta_td = mask == closure[mask] == image[mask]
    eta_std = mask == closure[mask] == ideal[mask]
    t_star = None
    if eta_td:
        best = [t for t in range(H.E.n) if mask >> t & 1 and mask & ~under[t] == 0]
        if not best:
            raise InternalInvariant("type-determining set has no largest hull map")
        t_star = best[0]
    if eta_std and not eta_td:
        raise InternalInvariant("strongly type-determining set is not type-determining")
    return TdReport(eta_td, eta_std, t_star)


def eta_partition(H):
    """Partition of the elements by equal hull maps (the relation classes)."""
    groups = {}
    for e in range(H.E.n):
        groups.setdefault(H.eta(e), []).append(e)
    return sorted(groups.values())
