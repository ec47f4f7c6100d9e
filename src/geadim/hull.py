"""Hull systems, hull-determining sets, monads, dyads, and divisibility.

A hull system assigns to every element e a map eta_e in the exocenter
with eta_0 = 0, eta_e(e) = e, and eta_{eta_e f} = eta_e o eta_f =
eta_e ^ eta_f.  ``HullSystem.maps`` holds the maps as image tuples, so
eta_e(f) reads ``H.maps[e][f]``.  The relation e ~ f iff eta_e = eta_f
behaves like a dimension equivalence when the system is divisible.

Each query computes its value by one reading; the equivalent readings
are compared in the properties of ``theorems`` (the dyad criterion of
divisibility in ``divisibility-dyad-criterion``, the type-determining
sets of every subset in ``td-largest-map``).

``core.memo`` keeps the hull systems on their model, and on each hull
system its divisibility report and the parts that type-determining
subsets are read from (``_td_parts``: one walk over the families with
disjoint hull maps, plus per-element masks).  ``td_sets`` reads those
parts at one subset; ``td_table`` spreads them over every subset for
``td-largest-map``.  ``tests/oracles.py`` keeps the literal searches as
oracles, among them the search per splitting that
``hull-grid-refinement`` replaces.
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

    @property
    def theta(self):
        """The set of distinct hull maps (the eta-exocenter)."""
        return tuple(sorted(set(self.maps)))

    def __eq__(self, other):
        return isinstance(other, HullSystem) and self.maps == other.maps


def check_hull_system(S, maps):
    """Verify HS1-HS3 for a candidate family; returns (ok, witness).

    HS3 asks, at each pair (e, f) in lex order, that eta_e and eta_f
    commute and that eta_(eta_e f) is their composition.  Each pair of
    distinct maps is composed once, so the pairs (e, f) read whether
    their maps commute, and the composition, off a table."""
    E, maps = S.E, tuple(maps)
    for m in maps:
        if m not in S:
            raise MapNotInExocenter(f"{m!r}")
    if any(maps[0]):
        return False, "HS1: map at zero is not the zero map"
    for e in range(E.n):
        if maps[e][e] != e:
            return False, f"HS2: map at {E.names[e]} does not fix it"
    distinct = list(dict.fromkeys(maps))
    ids = {m: i for i, m in enumerate(distinct)}
    # comp[i][j]: distinct[i] o distinct[j] when the two commute, else None
    comp = [[None] * len(distinct) for _ in distinct]
    for i, a in enumerate(distinct):
        comp[i][i] = tuple(a[v] for v in a)
        for j in range(i + 1, len(distinct)):
            b = distinct[j]
            ab = tuple(a[v] for v in b)
            if ab == tuple(b[v] for v in a):
                comp[i][j] = comp[j][i] = ab
    at = [ids[m] for m in maps]
    for e, ie in enumerate(maps):
        row = comp[at[e]]
        for f in range(E.n):
            m1 = row[at[f]]
            if m1 is None or maps[ie[f]] != m1:
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
        fixing = [t for t in theta if t[e] == e]
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
    order = sorted(range(n), key=lambda e: (len(E.below[e]), e))
    assert order[0] == 0
    fixing = {e: [m for m in S if m[e] == e] for e in range(n)}
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
                if maps[maps[a][b]] != S.meet(maps[a], maps[b]):
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
    found.sort(key=lambda h: h.maps)
    return tuple(found)


# ---------------------------------------------------------------------------
# the relation eta_e = eta_f and its classification
# ---------------------------------------------------------------------------

def is_monad(H, p):
    """No element strictly below p has p's hull map."""
    eta = H.maps
    return all(e == p for e in H.E.below[p] if eta[e] == eta[p])


def is_dyad(H, p):
    """p is a sum e + f of two elements with equal hull maps."""
    E, eta = H.E, H.maps
    return any(
        E.sum[e][f] == p and eta[e] == eta[f]
        for e in E.below[p]
        for f in E.below[p]
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
    e <= p, so the test is a lookup in p's pairs of hull maps
    (``split_pairs``).  ``divisibility-dyad-criterion`` compares it per
    triple with the dyad criterion.  Memoized on the hull system."""
    E, eta = H.E, H.maps
    pairs = split_pairs(H)
    for p in range(E.n):
        for s in range(E.n):
            for t in range(E.n):
                st = E.sum[s][t]
                if st >= 0 and eta[p] == eta[st] and (
                    (eta[s], eta[t]) not in pairs[p]
                ):
                    return DivisibilityReport(False, (p, s, t))
    return DivisibilityReport(True, None)


def split_pairs(H):
    """Per element p, the set of (eta_e, eta_(p - e)) over e <= p."""
    E, eta = H.E, H.maps
    return [{(eta[e], eta[E.diff[p][e]]) for e in E.below[p]} for p in range(E.n)]


# ---------------------------------------------------------------------------
# type-determining subsets
# ---------------------------------------------------------------------------

class TdReport(NamedTuple):
    eta_td: bool
    eta_std: bool
    t_star: object  # least t in T with the largest hull map, or None


@memo
def _td_parts(H):
    """What the type-determining reports of every subset T are read from,
    as bitmasks (bit x for element x): the (family mask, orthosum bit) of
    each eta-orthogonal family, and per element t the mask of the hull
    images eta_e(t), of the elements below t, and (``under``) of the
    elements whose hull map lies below eta_t.

    The eta-orthogonal families inside T are exactly the families of
    nonzero elements with pairwise disjoint hull maps that lie in T, so
    the closure of T is the OR of the orthosum bits of the families whose
    mask lies in T's; the empty family puts 0 in every closure.  The hull
    image and the order ideal of T are the ORs over T's members.  Memoized
    on the hull system; a family that is not orthosummable raises
    ``InternalInvariant`` on every call."""
    E, eta = H.E, H.maps
    n = E.n
    families = []
    for pick, v in disjoint_families(H.exoset, eta):
        if v is None:
            raise InternalInvariant(
                f"eta-orthogonal family {pick} is not orthosummable"
            )
        families.append((sum(1 << t for t in pick), 1 << v))
    carriers = {}  # each distinct hull map: the mask of its elements
    for e, m in enumerate(eta):
        carriers[m] = carriers.get(m, 0) | 1 << e
    leq = H.exoset.leq
    below = {q: sum(mask for p, mask in carriers.items() if leq(p, q))
             for q in carriers}
    img = [sum({1 << m[t] for m in carriers}) for t in range(n)]
    return families, img, E._masks[0], [below[m] for m in eta]


@memo
def td_table(H):
    """The closure, the hull image and the order ideal of every subset T
    at once, as three lists of bitmasks indexed by the mask of T, and
    ``under``, all spread from ``_td_parts``.

    Each family's orthosum is placed at the family's mask and a subset-OR
    transform spreads it to every superset; the image and the ideal of T
    extend those of T minus its lowest element.  ``td-largest-map`` reads
    every T; ``td_sets`` reads the parts at one T instead.  Memoized on
    the hull system; a family that is not orthosummable raises
    ``InternalInvariant`` on every call."""
    families, img, down, under = _td_parts(H)
    n = H.E.n
    size = 1 << n
    closure = [0] * size
    for fam, bit in families:
        closure[fam] |= bit
    for x in range(n):
        bit = 1 << x
        for T in range(size):
            if T & bit:
                closure[T] |= closure[T ^ bit]
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
    are T) and strongly so (its closure and its order ideal are T), and,
    when T is either, the least t in T with the largest hull map, read
    from ``_td_parts`` at T's mask alone.  ``td-largest-map`` checks that
    every strongly type-determining set is type-determining."""
    families, img, down, under = _td_parts(H)
    ts = set(T)
    mask = sum(1 << t for t in ts)
    closure = image = ideal = 0
    for fam, bit in families:
        if fam & mask == fam:
            closure |= bit
    for t in ts:
        image |= img[t]
        ideal |= down[t]
    eta_td = mask == closure == image
    eta_std = mask == closure == ideal
    t_star = None
    if eta_td or eta_std:
        best = [t for t in sorted(ts) if mask & ~under[t] == 0]
        if not best:
            raise InternalInvariant("type-determining set has no largest hull map")
        t_star = best[0]
    return TdReport(eta_td, eta_std, t_star)


def eta_partition(H):
    """Partition of the elements by equal hull maps (the relation classes)."""
    groups = {}
    for e in range(H.E.n):
        groups.setdefault(H.maps[e], []).append(e)
    return sorted(groups.values())
