"""Invariant, simple, and finite elements; factors; the type decomposition.

Every computation here carries its own cross-checks: invariant elements
are recomputed through six equivalent characterizations, simple elements
through three, and the decomposition's projection triple is verified
unique by exhaustive search over the splitting algebra.  That search
reads each summand's type off the model itself; the three type summands
are also built as models of their own, which must agree.
"""

import itertools
from dataclasses import dataclass
from functools import cached_property

from . import congruence as cg
from . import core
from . import hull as hull_mod
from .exocenter import center, exocenter, fixed_points, is_identity
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
    finite elements and the type decomposition are derived on first use
    and raise ``NotDer`` unless the relation is a dimension relation.
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
        self.hull = cg.induced_hull(R, self.sigma)
        self.sk4a_prime = cg.check_der(R, self.sigma, self.hull)
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
                v = E.sum_of(a, b)
                if v is not None:
                    if v not in pos:
                        raise InternalInvariant("summand is not closed under sums")
                    table[pos[a]][pos[b]] = pos[v]
        sub = core.GeaTable([E.names[e] for e in members], table)
        subrel = cg.EquivRel(sub, [R.class_of[e] for e in members])
        self._summands[pi] = Dgea(subrel)
        return self._summands[pi]

    @cached_property
    def simple(self):
        """Elements all of whose interval-splittings are unrelated.

        Three independent characterizations (definitional, hull monads, and
        e = eta_e k on the interval) must coincide.
        """
        self._require_der()
        E, R, H = self.E, self.R, self.hull
        direct, monads, crit = [], [], []
        for k in range(E.n):
            if all(
                not cg.related(R, e, E.sub(k, e))
                for e in E.below(k)
            ):
                direct.append(k)
            if hull_mod.is_monad(H, k):
                monads.append(k)
            if all(H.maps[e][k] == e for e in E.below(k)):
                crit.append(k)
        if not (direct == monads == crit):
            raise InternalInvariant(
                f"simple-element characterizations disagree: "
                f"{direct} vs {monads} vs {crit}"
            )
        return tuple(direct)

    @cached_property
    def finite(self):
        """Elements not equivalent to any proper subelement.

        Verified to form a hereditary ideal that is strongly type-determining
        for the hull system.
        """
        self._require_der()
        E, R = self.E, self.R
        F = tuple(
            f
            for f in range(E.n)
            if all(e == f for e in E.below(f) if R.sim(e, f))
        )
        if not cg.is_hereditary(R, F) or not core._ideal_flags(E, frozenset(F)):
            raise InternalInvariant("finite elements do not form a hereditary ideal")
        if not hull_mod.td_sets(self.hull, F).eta_std:
            raise InternalInvariant("finite elements are not strongly type-determining")
        return F

    @cached_property
    def invariants(self):
        """The invariant elements, each computed six equivalent ways and
        compared.

        The definitional reading bounds the subelement by the candidate
        itself: c is invariant iff c is principal and no nonzero subelement
        of c is equivalent to anything orthogonal to c.
        """
        E, R, H = self.E, self.R, self.hull
        cen = dict(center(E))
        gamma = []
        for c in range(E.n):
            principal = core.is_principal(E, c)
            # (3) definitional
            inv = principal and not any(
                R.sim(c1, f) and E.perp(f, c) and (c1 != 0 or f != 0)
                for c1 in E.below(c)
                for f in range(E.n)
            )
            # (2) hull image is the interval
            eta_inv = set(fixed_points(H.maps[c])) == set(E.below(c))
            # (1) central with splitting projection
            central_split = c in cen and cg.splits(R, cen[c])
            # (4) principal with hereditary interval
            heredi = principal and cg.is_hereditary(R, E.below(c))
            # (5) principal and equivalents stay below
            below_only = principal and all(
                E.leq[e][c] for e in range(E.n) if R.sim(e, c)
            )
            # (6) principal with hereditary orthogonal complement set
            perp_hered = principal and cg.is_hereditary(
                R, [f for f in range(E.n) if E.perp(f, c)]
            )
            if not (inv == eta_inv == central_split == heredi == below_only == perp_hered):
                raise InternalInvariant(
                    f"invariance characterizations disagree at {E.names[c]}: "
                    f"{(central_split, eta_inv, inv, heredi, below_only, perp_hered)}"
                )
            if inv:
                gamma.append(c)
        return tuple(gamma)

    @cached_property
    def finite_invariant(self):
        """Largest finite invariant element, with the set it tops."""
        E, H = self.E, self.hull
        ftset = sorted(set(self.finite) & set(self.invariants))
        tops = [m for m in ftset if all(E.leq[x][m] for x in ftset)]
        if not tops:
            raise InternalInvariant("finite invariant elements have no largest member")
        ft = tops[0]
        if not hull_mod.td_sets(H, ftset).eta_td:
            raise InternalInvariant("finite invariant set is not type-determining")
        if set(fixed_points(H.maps[ft])) != set(E.below(ft)):
            raise InternalInvariant("largest finite invariant element is not eta-invariant")
        return ft, tuple(ftset)

    @cached_property
    def decomposition(self):
        """The unique splitting of the model into type I, II, and III
        summands.

        Builds the three projections (and their finite refinements) from
        the closed formulas, then verifies: the hull-map joins against the
        largest-map elements of the corresponding type-determining sets,
        the membership of each projection in the hull family, heredity of
        every summand, the type of each type summand, read off this model
        and as a model of its own, uniqueness of the triple by exhaustive
        search over the splitting algebra, and the unit elements of the
        finite-type parts.
        """
        E, R, sigma, H = self.E, self.R, self.sigma, self.hull
        K, F = self.simple, self.finite
        if not set(K) <= set(F):
            raise InternalInvariant("simple elements are not all finite")
        ft, ftset = self.finite_invariant

        eta_k = sigma.join_all([H.maps[k] for k in K])
        eta_f = sigma.join_all([H.maps[f] for f in F])
        eta_ft = H.maps[ft]
        checks = ["simple-set-three-way", "invariant-six-way", "finite-hereditary-ideal"]

        # cross-check the joins against the largest-map elements
        td_k = hull_mod.td_sets(H, K)
        td_f = hull_mod.td_sets(H, F)
        if not td_k.eta_std or H.maps[td_k.t_star] != eta_k:
            raise InternalInvariant("simple-set join disagrees with its largest map")
        if not td_f.eta_std or H.maps[td_f.t_star] != eta_f:
            raise InternalInvariant("finite-set join disagrees with its largest map")
        td_ft = hull_mod.td_sets(H, ftset)
        if H.maps[td_ft.t_star] != eta_ft:
            raise InternalInvariant("finite-invariant join disagrees with its largest map")
        checks.append("hull-joins-vs-largest-maps")

        comp = sigma.complement
        meet = sigma.meet
        pi_i = eta_k
        pi_ii = meet(eta_f, comp(eta_k))
        pi_iii = comp(eta_f)
        pi_i_f = meet(eta_k, eta_ft)
        pi_i_nf = meet(eta_k, comp(eta_ft))
        pi_ii_f = meet(pi_ii, eta_ft)
        pi_ii_nf = meet(pi_ii, comp(eta_ft))

        theta = set(H.maps)
        for m in (pi_i, pi_ii, pi_i_f, pi_i_nf, pi_ii_f, pi_ii_nf):
            if m not in theta:
                raise InternalInvariant("projection escapes the hull family")
        checks.append("projections-in-hull-family")

        triple = (pi_i, pi_ii, pi_iii)
        for a, b in itertools.combinations(triple, 2):
            if not sigma.disjoint(a, b):
                raise InternalInvariant("type projections are not pairwise disjoint")
        if not is_identity(sigma.join_all(triple)):
            raise InternalInvariant("type projections do not cover the identity")
        if sigma.join(pi_i_f, pi_i_nf) != pi_i or sigma.join(pi_ii_f, pi_ii_nf) != pi_ii:
            raise InternalInvariant("finite refinements do not cover their types")
        checks.append("disjoint-cover")

        for m in (pi_i, pi_ii, pi_iii, pi_i_f, pi_i_nf, pi_ii_f, pi_ii_nf):
            s = set(fixed_points(m))
            if not cg.is_hereditary(R, s) or not core._ideal_flags(E, frozenset(s)):
                raise InternalInvariant("summand is not a hereditary ideal")
        checks.append("summands-hereditary-ideals")

        flags = {m: self.summand_types(m) for m in sigma}
        for k, m in enumerate(triple):
            own = self.summand(m).type_flags
            if flags[m] != (own.type_i, own.type_ii, own.type_iii):
                raise InternalInvariant(
                    "summand types read off the model disagree with the summand's own"
                )
            if not flags[m][k]:
                nth = ("first", "second", "third")[k]
                raise InternalInvariant(f"{nth} summand is not of its type")
        checks.append("summand-types-direct")

        # in a boolean algebra the one map disjoint from s1 and s2 that
        # completes a cover of the identity is (s1 v s2)'
        for s1 in sigma:
            for s2 in sigma:
                if not sigma.disjoint(s1, s2):
                    continue
                s3 = comp(sigma.join(s1, s2))
                if (
                    flags[s1][0]
                    and flags[s2][1]
                    and flags[s3][2]
                    and (s1, s2, s3) != triple
                ):
                    raise InternalInvariant(
                        "alternative type triple found; decomposition not unique"
                    )
        checks.append("unique-type-triple")

        for m, unit in ((pi_i_f, pi_i[ft]), (pi_ii_f, comp(pi_i)[ft])):
            sub = self.summand(m)
            top = sub.E.greatest()
            if top is None or fixed_points(m)[top] != unit:
                raise InternalInvariant("finite-type summand unit mismatch")
        checks.append("finite-part-units")

        if is_identity(pi_i):
            verdict = "I"
        elif is_identity(pi_ii):
            verdict = "II"
        elif is_identity(pi_iii):
            verdict = "III"
        else:
            verdict = "mixed"
        finite_type = is_identity(eta_ft)
        summands = {
            "I": fixed_points(pi_i),
            "II": fixed_points(pi_ii),
            "III": fixed_points(pi_iii),
            "I_F": fixed_points(pi_i_f),
            "I_notF": fixed_points(pi_i_nf),
            "II_F": fixed_points(pi_ii_f),
            "II_notF": fixed_points(pi_ii_nf),
        }
        return Decomposition(
            pi_i=pi_i,
            pi_ii=pi_ii,
            pi_iii=pi_iii,
            summands=summands,
            eta_k=eta_k,
            eta_f=eta_f,
            eta_ftilde=eta_ft,
            f_tilde=ft,
            type_verdict=verdict,
            finite_type=finite_type,
            properly_non_finite=ft == 0,
            unit=ft if finite_type else None,
            cross_checks=tuple(checks),
        )

    def summand_types(self, m):
        """The type I, II and III flags of the summand of the splitting map
        ``m``, read off this model without building the summand.

        For x in the summand, eta_x lies below m, so x is faithful there
        exactly when eta_x is m; the summand's simple and finite elements
        are the images under m of this model's (``check_restriction``).
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
    """Trivial splitting algebra, checked four equivalent ways."""
    if not dgea.der:
        raise NotDer("factor test needs a verified dimension relation")
    E, R, sigma, H = dgea.E, dgea.R, dgea.sigma, dgea.hull
    trivial = set(sigma.maps) == {sigma.zero, sigma.one}
    hull_full = all(is_identity(H.maps[d]) for d in range(1, E.n))
    comparable = all(
        cg.subequiv(R, e, f) or cg.subequiv(R, f, e)
        for e in range(E.n)
        for f in range(E.n)
    )
    all_related = all(
        cg.related(R, e, f)
        for e in range(1, E.n)
        for f in range(1, E.n)
    )
    if not (trivial == hull_full == comparable == all_related):
        raise InternalInvariant("factor characterizations disagree")
    if trivial:
        for e in range(1, E.n):
            atom = e in E.atoms
            dyad = hull_mod.is_dyad(H, e)
            if atom == dyad:
                raise InternalInvariant(
                    f"factor element {E.names[e]} is not exactly one of atom/dyad"
                )
    return trivial


def comparability(dgea, e, f):
    """A splitting direction d with eta_d e below-equivalent to eta_d f
    and the complement the other way around."""
    if not dgea.der:
        raise NotDer("comparability needs a verified dimension relation")
    R = dgea.R
    d = cg.decompose_pair(R, e, f)[3]  # the unrelated remainder of f
    pi = dgea.hull.maps[d]
    pic = dgea.sigma.complement(pi)
    if not cg.subequiv(R, pi[e], pi[f]) or not cg.subequiv(R, pic[f], pic[e]):
        raise InternalInvariant("comparability contract fails")
    return d


# ---------------------------------------------------------------------------
# summand restriction
# ---------------------------------------------------------------------------

def check_restriction(dgea, pi):
    """Check that the summand of the splitting map ``pi`` carries a
    dimension relation, and that its exocenter, splitting algebra, simple
    set, finite set and largest finite invariant element are exactly the
    restrictions of the parent's."""
    sub = dgea.summand(pi)
    members = fixed_points(pi)
    pos = {e: i for i, e in enumerate(members)}

    def restrict(xi):
        return tuple(pos[xi[e]] for e in members)

    gex, gex_sub = exocenter(dgea.E), exocenter(sub.E)
    if {restrict(xi) for xi in gex} != set(gex_sub.maps):
        raise InternalInvariant("restriction does not map onto the summand exocenter")
    for a in gex:
        ra = restrict(a)
        if restrict(gex.complement(a)) != gex_sub.complement(ra):
            raise InternalInvariant("restriction does not preserve complement")
        for b in gex:
            if restrict(gex.meet(a, b)) != gex_sub.meet(ra, restrict(b)):
                raise InternalInvariant("restriction does not preserve meets")
    sub._require_der()  # the restriction is a dimension relation
    if {restrict(xi) for xi in dgea.sigma} != set(sub.sigma.maps):
        raise InternalInvariant("splitting algebra does not restrict correctly")
    if set(sub.simple) != {pos[pi[k]] for k in dgea.simple}:
        raise InternalInvariant("simple elements do not restrict correctly")
    if set(sub.finite) != {pos[pi[f]] for f in dgea.finite}:
        raise InternalInvariant("finite elements do not restrict correctly")
    ft, _ = dgea.finite_invariant
    ft_sub, _ = sub.finite_invariant
    if ft_sub != pos[pi[ft]]:
        raise InternalInvariant(
            "largest finite invariant element does not restrict correctly"
        )


# ---------------------------------------------------------------------------
# suprema of hereditary ideals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HereditarySupReport:
    c: int
    sharp: bool
    interval_hereditary: bool
    central_if_directed: object  # bool, or None when neither hypothesis holds


def hereditary_sup(dgea, S):
    """Supremum of a bounded hereditary ideal via a maximal orthogonal family.

    Greedily accumulates elements of the ideal while the running sum stays
    defined; the result is asserted to be the supremum, and the theorem's
    conclusions (sharpness, hereditary interval, invariance under a
    directedness hypothesis) are reported.  The hull maps and the
    invariant elements are read from ``dgea``.
    """
    E, R = dgea.E, dgea.R
    S = frozenset(S)
    if not cg.is_hereditary(R, S) or not core._ideal_flags(E, S):
        raise NotHereditary(f"{sorted(S)}")
    if not any(all(E.leq[h][u] for h in S) for u in range(E.n)):
        raise Unbounded(f"{sorted(S)}")
    total = 0
    while True:
        ext = next(
            (h for h in sorted(S) if h != 0 and E.sum_of(total, h) is not None),
            None,
        )
        if ext is None:
            break
        total = E.sum_of(total, ext)
    c = total
    sup = core.sup(E, sorted(S) or [0])
    if sup != c:
        raise InternalInvariant(
            f"orthosum of maximal family ({E.names[c]}) is not the supremum"
        )
    H = dgea.hull
    eta_join = dgea.sigma.join_all([H.maps[h] for h in S])
    if eta_join != H.maps[c]:
        raise InternalInvariant("hull map of the supremum is not the join")
    flags = core.structure_predicates(E)
    central = None
    if flags.directed or flags.orthogonally_ordered:
        central = c in dgea.invariants
    return HereditarySupReport(
        c=c,
        sharp=core.is_sharp(E, c),
        interval_hereditary=cg.is_hereditary(R, E.below(c)),
        central_if_directed=central,
    )


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
    pi_i: tuple
    pi_ii: tuple
    pi_iii: tuple
    summands: dict
    eta_k: tuple
    eta_f: tuple
    eta_ftilde: tuple
    f_tilde: int
    type_verdict: str
    finite_type: bool
    properly_non_finite: bool
    unit: object  # element index of the unit when of finite type, else None
    cross_checks: tuple


def decompose_types(R):
    """The type decomposition of ``R``'s model under ``R``; ``NotDer``
    when ``R`` is not a dimension relation."""
    return Dgea(R).decomposition
