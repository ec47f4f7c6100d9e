"""Equivalence relations on a model: congruence axioms, splitting maps,
the induced hull system, and pair decomposition.

The congruence axioms are the Sherstnev-Kalinin conditions SK1-SK4b; a
relation additionally satisfying SK4a' (unrelated elements are separated
by a splitting map) is a dimension equivalence relation (DER).

``core.memo`` keeps on each relation its axiom report and one table of
bitmasks per element (``_relation_masks``), which ``related``,
``subequiv`` and ``is_hereditary`` read; ``tests/oracles.py`` keeps
their literal searches as oracles.  ``splits`` (the definition that
``sigma_sim`` reads), the splitting characterization (b) in
``splitting-algebra``, the definition in ``dimension.Dgea.invariants``
and one more reading of invariance in ``invariance-characterizations``
read ``sim`` directly, so their cross-checks compare the table against
literal answers.

Each function here computes its value by one reading.  The equivalent
characterizations of splitting maps, of the induced hull system and of
SK4a' are compared in the ``splitting-algebra`` and
``induced-hull-contract`` properties of ``theorems``.
"""

from typing import NamedTuple

from . import _kernels, hull as hull_mod
from ._kernels import AXES
from .core import memo
from .exocenter import ExoSet, exocenter, exocentral_cover, fixed_points
from .errors import NotSkCongruence, OverlappingClasses, UnknownElement


class EquivRel:
    """A partition of the elements; class ids are dense, zero's class first."""

    __slots__ = ("E", "class_of", "classes", "_cache")

    def __init__(self, E, class_of):
        # relabeling by first occurrence numbers the classes by their least
        # members, so zero's class comes first
        ids = _dense(class_of)
        self.E = E
        self.class_of = tuple(ids)
        self.classes = partition_classes(ids)
        self._cache = {}  # core.memo's store

    def sim(self, e, f):
        return self.class_of[e] == self.class_of[f]


def build_equiv(E, classes):
    """Partition from explicit classes; unlisted elements become singletons."""
    seen = set()
    for cls in classes:
        for x in cls:
            i = x if isinstance(x, int) else None
            if i is None:
                if x not in E.names:
                    raise UnknownElement(f"{x!r}")
                i = E.names.index(x)
            if i < 0 or i >= E.n:
                raise UnknownElement(f"index {i}")
            if i in seen:
                raise OverlappingClasses(f"element {E.names[i]} listed twice")
            seen.add(i)
    class_of = list(range(E.n))
    nxt = E.n
    for cls in classes:
        ids = [x if isinstance(x, int) else E.names.index(x) for x in cls]
        for i in ids:
            class_of[i] = nxt
        nxt += 1
    return EquivRel(E, class_of)


def partition_classes(ids):
    """The classes of dense class ids (every id below the largest is used),
    in id order, each a tuple of element indices."""
    classes = [[] for _ in range(max(ids) + 1)]
    for e, c in enumerate(ids):
        classes[c].append(e)
    return tuple(map(tuple, classes))


def _dense(ids):
    remap = {}
    out = []
    for c in ids:
        if c not in remap:
            remap[c] = len(remap)
        out.append(remap[c])
    return out


# ---------------------------------------------------------------------------
# axiom reports
# ---------------------------------------------------------------------------

class SkReport(NamedTuple):
    """The witnesses of SK1-SK4b for one relation, in ``AXES`` order, each
    None where its axiom holds."""

    sk1: tuple
    sk2: tuple
    sk3d: tuple
    sk3e: tuple
    sk4a: tuple
    sk4b: tuple

    @property
    def sk(self):
        return all(w is None for w in self)

    def first_failure(self):
        """(axiom name, witness) of the first failing axiom, or None."""
        return next(
            ((name, w) for name, w in zip(AXES, self) if w is not None), None
        )


@memo
def check_sk(R):
    """Exhaustive verification of SK1-SK4b on ``R``'s model with lex-least
    witnesses, memoized on ``R``.

    SK2 is checked as finite additivity over orthogonal pairs, which by
    induction covers every finite family a desk-scale model can carry.
    """
    return SkReport(*_kernels.sk_witnesses(R.E._sk_plan, R.class_of))


@memo
def _relation_masks(R):
    """Two bitmasks per element f, memoized on ``R``: the class ids of the
    nonzero elements below f, and the elements equivalent to some element
    below f (zero and f included)."""
    members = [0] * len(R.classes)
    for e, c in enumerate(R.class_of):
        members[c] |= 1 << e
    classes, reach = [], []
    for below in R.E.below:
        cm = em = 0
        for x in below:
            c = R.class_of[x]
            em |= members[c]
            if x:
                cm |= 1 << c
        classes.append(cm)
        reach.append(em)
    return tuple(classes), tuple(reach)


def related(R, e, f):
    """Nonzero equivalent subelements exist below e and f respectively."""
    classes = _relation_masks(R)[0]
    return classes[e] & classes[f] != 0


def subequiv(R, e, f):
    """e is equivalent to some subelement of f."""
    return _relation_masks(R)[1][f] >> e & 1 == 1


def is_hereditary(R, S):
    """Order ideal closed under taking sub-equivalent elements.

    An element below h is sub-equivalent to h, so one test per member h
    covers both: every element sub-equivalent to h lies in S.
    """
    reach = _relation_masks(R)[1]
    S = frozenset(S)
    mask = 0
    for h in S:
        mask |= 1 << h
    return all(reach[h] & ~mask == 0 for h in S)


def is_descendent(R, d, e):
    return all(related(R, x, e) for x in R.E.below[d] if x != 0)


# ---------------------------------------------------------------------------
# splitting maps and the induced hull system
# ---------------------------------------------------------------------------

def splits(R, pi):
    """No nonzero equivalent pair straddles the summand and its complement."""
    comp = [e for e in range(R.E.n) if pi[e] == 0]
    return not any(
        R.sim(e, f) and (e, f) != (0, 0)
        for e in fixed_points(pi)
        for f in comp
    )


def sigma_sim(R):
    """The splitting members of the exocenter of a congruence, read by the
    definition (``splits``); ``NotSkCongruence`` for a relation that is
    none.  ``splitting-algebra`` compares them with the three equivalent
    characterizations and checks that they form a boolean subalgebra."""
    base = check_sk(R)
    if not base.sk:
        raise NotSkCongruence(str(base.first_failure()))
    return ExoSet(R.E, [pi for pi in exocenter(R.E) if splits(R, pi)])


def induced_hull(sigma):
    """Hull system eta_e = meet of splitting maps fixing e (the
    exocentral cover system of the splitting algebra ``sigma``);
    ``induced-hull-contract`` checks it against the splitting maps."""
    return hull_mod.hull_system(
        sigma, [exocentral_cover(sigma, e) for e in range(sigma.E.n)])


def check_der(R, sigma):
    """The witness of the separation axiom SK4a' for a congruence, given
    its splitting algebra: the lex-least unrelated pair that no splitting
    map separates, or None when SK4a' holds.  ``induced-hull-contract``
    compares the separation with its hull-meet form on every unrelated
    pair."""
    base = check_sk(R)
    if not base.sk:
        raise NotSkCongruence(str(base.first_failure()))
    E = R.E
    for e in range(E.n):
        for f in range(E.n):
            if not related(R, e, f) and not any(
                pi[e] == e and pi[f] == 0 for pi in sigma
            ):
                return e, f
    return None


# ---------------------------------------------------------------------------
# pair decomposition
# ---------------------------------------------------------------------------

def decompose_pair(R, p, q):
    """Split p and q into an equivalent part and an unrelated remainder.

    Greedily accumulates a maximal family of equivalent orthogonal pairs
    inside the two intervals (deterministically, in element order); the
    running sums stay equivalent by finite additivity.  Returns
    (p1, p2, q1, q2) with p = p1 + p2, q = q1 + q2, p1 ~ q1 and p2
    unrelated to q2; ``pair-decomposition`` checks the last two.
    """
    E = R.E
    a, b = 0, 0
    grown = True
    while grown:
        grown = False
        for x in range(1, E.n):
            ax = E.sum[a][x]
            if ax < 0 or not E.leq[ax][p]:
                continue
            for y in range(1, E.n):
                if not R.sim(x, y):
                    continue
                by = E.sum[b][y]
                if by < 0 or not E.leq[by][q]:
                    continue
                a, b = ax, by
                grown = True
                break
            if grown:
                break
    return a, E.diff[p][a], b, E.diff[q][b]
