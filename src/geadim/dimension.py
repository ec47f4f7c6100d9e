"""Invariant, simple, and finite elements; factors; the type decomposition.

Each set and each map here is computed one way, by its definition or
the paper's closed formula.  The equivalent characterizations and the
cross-checks live in the registered properties of ``theorems``, one
place each: the readings of invariant elements in
``invariance-characterizations``, of simple elements in
``simple-element-criteria``, of factors in ``factor-characterizations``,
and the decomposition's splitting and uniqueness in
``type-decomposition``.
"""

from dataclasses import dataclass
from functools import cached_property

from . import congruence as cg
from . import core
from .exocenter import fixed_points, is_identity
from .errors import (
    InternalInvariant,
    NotDer,
    NotHereditary,
    NotSplitting,
    Unbounded,
)


class Dgea:
    """A congruence ``R`` on its model ``R.E``, and everything derived from
    the pair.

    The constructor checks SK1-SK4b (``NotDer`` when they fail), then
    builds the splitting algebra and the induced hull system and checks
    the separation axiom SK4a', each once; ``sk4a_prime`` is its witness,
    None when it holds, and ``der`` says whether it holds.  The simple and
    finite elements and the type decomposition are derived on first use,
    each by one reading, and raise ``NotDer`` unless the relation is a
    dimension relation.
    ``summand`` builds each summand once; element i of the summand of
    ``pi`` is ``fixed_points(pi)[i]``.  The summand of the identity map is the
    ``Dgea`` itself: same table, same relation.
    """

    def __init__(self, R):
        self.E = R.E
        self.R = R
        report = cg.check_sk(R)
        if not report.sk:
            raise NotDer(f"relation fails {report.first_failure()[0]}")
        self.sigma = cg.sigma_sim(R)
        self.hull = cg.induced_hull(self.sigma)
        self.sk4a_prime = cg.check_der(R, self.sigma)
        self._summands = {}

    @property
    def der(self):
        return self.sk4a_prime is None

    def _require_der(self):
        if not self.der:
            raise NotDer("relation fails SK4a'")

    def summand(self, pi):
        """The summand of the splitting map ``pi`` as a model of its own
        with the restricted relation, built on the first call for ``pi``;
        ``NotSplitting`` when ``pi`` does not split the relation.

        When ``pi`` is the identity the summand is ``self``; it is not
        kept in ``_summands``, which would make a reference cycle.
        """
        if pi in self._summands:
            return self._summands[pi]
        E, R = self.E, self.R
        if pi not in self.sigma or not cg.splits(R, pi):
            raise NotSplitting(f"{pi!r} does not split the relation")
        if is_identity(pi):
            return self
        members = fixed_points(pi)
        pos = {e: i for i, e in enumerate(members)}
        k = len(members)
        table = [[-1] * k for _ in range(k)]
        for a in members:
            for b in members:
                v = E.sum[a][b]
                if v >= 0:
                    if v not in pos:
                        raise InternalInvariant("summand is not closed under sums")
                    table[pos[a]][pos[b]] = pos[v]
        sub = core.GeaTable([E.names[e] for e in members], table)
        subrel = cg.EquivRel(sub, [R.class_of[e] for e in members])
        self._summands[pi] = Dgea(subrel)
        return self._summands[pi]

    @cached_property
    def simple(self):
        """Elements all of whose interval-splittings are unrelated, read by
        that definition; ``simple-element-criteria`` compares it with the
        hull-monad reading, e = eta_e k on the interval, and two readings
        through disjoint hull maps."""
        self._require_der()
        E, R = self.E, self.R
        return tuple(
            k
            for k in range(E.n)
            if all(not cg.related(R, e, E.diff[k][e]) for e in E.below[k])
        )

    @cached_property
    def finite(self):
        """Elements not equivalent to any proper subelement; ``kf-std-sets``
        checks that they form a hereditary ideal that is strongly
        type-determining for the hull system."""
        self._require_der()
        E, R = self.E, self.R
        return tuple(
            f
            for f in range(E.n)
            if all(e == f for e in E.below[f] if R.sim(e, f))
        )

    @cached_property
    def invariants(self):
        """The invariant elements, read by the definition: c is invariant
        iff c is principal and no nonzero subelement of c is equivalent to
        anything orthogonal to c.  ``invariance-characterizations``
        compares it with five equivalent readings."""
        E, R = self.E, self.R
        return tuple(
            c
            for c in range(E.n)
            if core.is_principal(E, c) and not any(
                R.sim(c1, f) and E.sum[f][c] >= 0 and (c1 != 0 or f != 0)
                for c1 in E.below[c]
                for f in range(E.n)
            )
        )

    @cached_property
    def finite_invariant(self):
        """Largest finite invariant element, with the set it tops."""
        E = self.E
        ftset = sorted(set(self.finite) & set(self.invariants))
        tops = [m for m in ftset if all(E.leq[x][m] for x in ftset)]
        if not tops:
            raise InternalInvariant("finite invariant elements have no largest member")
        return tops[0], tuple(ftset)

    @cached_property
    def decomposition(self):
        """The splitting of the model into type I, II and III summands, from
        the closed formulas: pi_I is the join eta_K of the simple elements'
        hull maps, pi_II is eta_F meet eta_K', pi_III is eta_F', and the
        largest finite invariant element's hull map splits types I and II
        into their finite and non-finite parts.

        ``type-decomposition`` checks the splitting and that it is the
        only one, ``type-criteria-summands`` the summands' types read off
        this model, and ``hereditary-std-largest`` and ``kf-std-sets`` the
        joins against the largest maps of their sets.
        """
        sigma, H = self.sigma, self.hull
        ft, _ = self.finite_invariant
        eta_k = sigma.join_all([H.maps[k] for k in self.simple])
        eta_f = sigma.join_all([H.maps[f] for f in self.finite])
        eta_ft = H.maps[ft]
        comp, meet = sigma.complement, sigma.meet
        pi_ii = meet(eta_f, comp(eta_k))
        projections = {
            "I": eta_k,
            "II": pi_ii,
            "III": comp(eta_f),
            "I_F": meet(eta_k, eta_ft),
            "I_notF": meet(eta_k, comp(eta_ft)),
            "II_F": meet(pi_ii, eta_ft),
            "II_notF": meet(pi_ii, comp(eta_ft)),
        }
        verdict = next(
            (t for t in ("I", "II", "III") if is_identity(projections[t])), "mixed"
        )
        finite_type = is_identity(eta_ft)
        return Decomposition(
            projections=projections,
            eta_f=eta_f,
            eta_ftilde=eta_ft,
            f_tilde=ft,
            type_verdict=verdict,
            finite_type=finite_type,
            properly_non_finite=ft == 0,
            unit=ft if finite_type else None,
        )

    def summand_types(self, m):
        """The type I, II and III flags of the summand of the splitting map
        ``m``, read off this model without building the summand.

        For x in the summand, eta_x lies below m, so x is faithful there
        exactly when eta_x is m; the summand's simple and finite elements
        are the images under m of this model's
        (``summand-restriction-contract``).
        ``type-criteria-summands`` compares the flags with the summand's own.
        """
        ks = {m[k] for k in self.simple}
        fs = {m[f] for f in self.finite}
        faithful = lambda xs: any(self.hull.maps[x] == m for x in xs)
        return faithful(ks), faithful(fs) and ks == {0}, fs == {0}

    @cached_property
    def type_flags(self):
        """Direct type classification of the model under the relation."""
        ft, ftset = self.finite_invariant
        faithful = lambda e: is_identity(self.hull.maps[e])
        return TypeFlags(
            type_i=any(faithful(k) for k in self.simple),
            type_ii=any(faithful(f) for f in self.finite) and set(self.simple) == {0},
            type_iii=set(self.finite) == {0},
            finite_type=any(faithful(f) for f in ftset),
            properly_non_finite=ft == 0,
        )


# ---------------------------------------------------------------------------
# factors
# ---------------------------------------------------------------------------

def is_factor(dgea):
    """Trivial splitting algebra; ``factor-characterizations`` compares it
    with three equivalent readings."""
    if not dgea.der:
        raise NotDer("factor test needs a verified dimension relation")
    sigma = dgea.sigma
    return set(sigma.maps) == {sigma.zero, sigma.one}


def comparability(dgea, e, f):
    """A splitting direction d with eta_d e below-equivalent to eta_d f
    and the complement the other way around: the unrelated remainder of
    f in the pair decomposition of (e, f).  ``general-comparability``
    checks both directions."""
    if not dgea.der:
        raise NotDer("comparability needs a verified dimension relation")
    return cg.decompose_pair(dgea.R, e, f)[3]


# ---------------------------------------------------------------------------
# suprema of hereditary ideals
# ---------------------------------------------------------------------------

def hereditary_sup(dgea, S):
    """Supremum of a bounded hereditary ideal via a maximal orthogonal family.

    Greedily accumulates elements of the ideal while the running sum stays
    defined, and returns the sum; ``hereditary-ideal-supremum`` checks
    that it is the supremum, that its hull map is the join of the
    members', and the theorem's conclusions at it (sharpness, hereditary
    interval, invariance under a directedness hypothesis).
    """
    E, R = dgea.E, dgea.R
    S = frozenset(S)
    if not cg.is_hereditary(R, S) or not core._ideal_flags(E, S):
        raise NotHereditary(f"{sorted(S)}")
    if not any(all(E.leq[h][u] for h in S) for u in range(E.n)):
        raise Unbounded(f"{sorted(S)}")
    c = 0
    while True:
        ext = next(
            (h for h in sorted(S) if h != 0 and E.sum[c][h] >= 0),
            None,
        )
        if ext is None:
            return c
        c = E.sum[c][ext]


# ---------------------------------------------------------------------------
# the type decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TypeFlags:
    type_i: bool
    type_ii: bool
    type_iii: bool
    finite_type: bool
    properly_non_finite: bool


@dataclass(frozen=True)
class Decomposition:
    projections: dict  # "I", "II", "III", "I_F", "I_notF", "II_F", "II_notF"
    eta_f: tuple
    eta_ftilde: tuple
    f_tilde: int
    type_verdict: str
    finite_type: bool
    properly_non_finite: bool
    unit: object  # element index of the unit when of finite type, else None

    @cached_property
    def summands(self):
        """The elements of each projection's summand, by the same names."""
        return {name: fixed_points(m) for name, m in self.projections.items()}


def decompose_types(R):
    """The type decomposition of ``R``'s model under ``R``; ``NotDer``
    when ``R`` is not a dimension relation."""
    return Dgea(R).decomposition
