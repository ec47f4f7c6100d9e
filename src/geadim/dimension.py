"""Invariant, simple, and finite elements; factors; the type decomposition.

Every computation here carries its own cross-checks: invariant elements
are recomputed through six equivalent characterizations, simple elements
through three, the decomposition's projection triple is verified unique
by exhaustive search over the splitting algebra, and the summand types
are confirmed on the restricted models themselves.
"""

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import congruence as cg
from . import core
from . import hull as hull_mod
from .exocenter import ExoMap, exocenter
from .errors import (
    InternalInvariant,
    NotDer,
    NotHereditary,
    NotSplitting,
    Unbounded,
)


class Dgea:
    """A model paired with a congruence, and everything derived from the
    pair.

    The constructor checks SK1-SK4b (``NotDer`` when they fail), then
    builds the splitting algebra and the induced hull system and checks
    the separation axiom SK4a', each once; ``der`` says whether SK4a'
    holds.  The element sets and the type decomposition are derived on
    first use and raise ``NotDer`` unless the relation is a dimension
    relation.
    """

    def __init__(self, E, R):
        self.E = E
        self.R = R
        report = cg.check_sk(E, R)
        if not report.sk:
            raise NotDer(f"relation fails {report.first_failure()[0]}")
        self.sigma = cg.sigma_sim(E, R, exocenter(E))
        self.hull = cg.induced_hull(E, R, self.sigma)
        self.report = cg.check_der(E, R, self.sigma, self.hull)
        self.der = self.report.der

    def _require_der(self):
        if not self.der:
            raise NotDer("relation fails SK4a'")

    @cached_property
    def simple(self):
        self._require_der()
        return simple_elements(self.E, self.R, self.hull)

    @cached_property
    def finite(self):
        self._require_der()
        return finite_elements(self.E, self.R, self.hull)

    @cached_property
    def invariants(self):
        self._require_der()
        return invariant_sets(self.E, self.R, self.sigma, self.hull)

    @cached_property
    def finite_invariant(self):
        """Largest finite invariant element, with the set it tops."""
        E, H = self.E, self.hull
        ftset = sorted(set(self.finite) & set(self.invariants.gamma_sim))
        tops = [m for m in ftset if all(E.leq[x, m] for x in ftset)]
        if not tops:
            raise InternalInvariant("finite invariant elements have no largest member")
        ft = tops[0]
        if not hull_mod.td_sets(E, H, ftset).eta_td:
            raise InternalInvariant("finite invariant set is not type-determining")
        if set(H.eta(ft).summand) != set(E.below(ft)):
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
        every summand, the direct type classification of each restricted
        summand, uniqueness of the triple by exhaustive search over the
        splitting algebra, and the unit elements of the finite-type parts.
        """
        E, R, sigma, H = self.E, self.R, self.sigma, self.hull
        K, F = self.simple, self.finite
        if not set(K) <= set(F):
            raise InternalInvariant("simple elements are not all finite")
        ft, ftset = self.finite_invariant

        eta_k = sigma.join_all([H.eta(k) for k in K])
        eta_f = sigma.join_all([H.eta(f) for f in F])
        eta_ft = H.eta(ft)
        checks = ["simple-set-three-way", "invariant-six-way", "finite-hereditary-ideal"]

        # cross-check the joins against the largest-map elements
        td_k = hull_mod.td_sets(E, H, K)
        td_f = hull_mod.td_sets(E, H, F)
        if not td_k.eta_std or H.eta(td_k.t_star) != eta_k:
            raise InternalInvariant("simple-set join disagrees with its largest map")
        if not td_f.eta_std or H.eta(td_f.t_star) != eta_f:
            raise InternalInvariant("finite-set join disagrees with its largest map")
        td_ft = hull_mod.td_sets(E, H, ftset)
        if H.eta(td_ft.t_star) != eta_ft:
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
        if not sigma.join_all(triple).is_identity:
            raise InternalInvariant("type projections do not cover the identity")
        if sigma.join(pi_i_f, pi_i_nf) != pi_i or sigma.join(pi_ii_f, pi_ii_nf) != pi_ii:
            raise InternalInvariant("finite refinements do not cover their types")
        checks.append("disjoint-cover")

        for m in (pi_i, pi_ii, pi_iii, pi_i_f, pi_i_nf, pi_ii_f, pi_ii_nf):
            s = set(m.summand)
            if not cg.is_hereditary(E, R, s) or not core._ideal_flags(E, frozenset(s)):
                raise InternalInvariant("summand is not a hereditary ideal")
        checks.append("summands-hereditary-ideals")

        flags = {m._key: summand_type_flags(self, m) for m in set(sigma.maps)}
        if not flags[pi_i._key].type_i:
            raise InternalInvariant("first summand is not of its type")
        if not flags[pi_ii._key].type_ii:
            raise InternalInvariant("second summand is not of its type")
        if not flags[pi_iii._key].type_iii:
            raise InternalInvariant("third summand is not of its type")
        checks.append("summand-types-direct")

        for s1 in sigma:
            for s2 in sigma:
                if not sigma.disjoint(s1, s2):
                    continue
                for s3 in sigma:
                    if not (sigma.disjoint(s1, s3) and sigma.disjoint(s2, s3)):
                        continue
                    if not sigma.join_all((s1, s2, s3)).is_identity:
                        continue
                    if (
                        flags[s1._key].type_i
                        and flags[s2._key].type_ii
                        and flags[s3._key].type_iii
                    ):
                        if (s1, s2, s3) != triple:
                            raise InternalInvariant(
                                "alternative type triple found; decomposition not unique"
                            )
        checks.append("unique-type-triple")

        for m, unit in ((pi_i_f, pi_i(ft)), (pi_ii_f, comp(pi_i)(ft))):
            sub, _, members = restrict_summand(self, m, verify=False)
            top = sub.greatest()
            if top is None or members[top] != unit:
                raise InternalInvariant("finite-type summand unit mismatch")
        checks.append("finite-part-units")

        if pi_i.is_identity:
            verdict = "I"
        elif pi_ii.is_identity:
            verdict = "II"
        elif pi_iii.is_identity:
            verdict = "III"
        else:
            verdict = "mixed"
        finite_type = eta_ft.is_identity
        summands = {
            "I": pi_i.summand,
            "II": pi_ii.summand,
            "III": pi_iii.summand,
            "I_F": pi_i_f.summand,
            "I_notF": pi_i_nf.summand,
            "II_F": pi_ii_f.summand,
            "II_notF": pi_ii_nf.summand,
        }
        return Decomposition(
            pi_i=pi_i,
            pi_ii=pi_ii,
            pi_iii=pi_iii,
            pi_i_f=pi_i_f,
            pi_i_nf=pi_i_nf,
            pi_ii_f=pi_ii_f,
            pi_ii_nf=pi_ii_nf,
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


# ---------------------------------------------------------------------------
# invariant elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InvariantReport:
    gamma_sim: tuple
    gamma_eta: tuple
    cross_checks: tuple


def invariant_sets(E, R, sigma, H):
    """Invariant elements, computed six equivalent ways and compared.

    The definitional reading bounds the subelement by the candidate
    itself: c is invariant iff c is principal and no nonzero subelement
    of c is equivalent to anything orthogonal to c.
    """
    cen = dict(_center_pairs(E))
    gamma_sim, gamma_eta = [], []
    for c in range(E.n):
        principal = core.is_principal(E, c)
        # (3) definitional
        inv = principal and not any(
            R.sim(c1, f) and E.perp(f, c) and (c1 != 0 or f != 0)
            for c1 in E.below(c)
            for f in range(E.n)
        )
        # (2) hull image is the interval
        eta_inv = set(H.eta(c).summand) == set(E.below(c))
        # (1) central with splitting projection
        central_split = c in cen and cg.splits(E, R, cen[c])
        # (4) principal with hereditary interval
        heredi = principal and cg.is_hereditary(E, R, E.below(c))
        # (5) principal and equivalents stay below
        below_only = principal and all(
            E.leq[e, c] for e in range(E.n) if R.sim(e, c)
        )
        # (6) principal with hereditary orthogonal complement set
        perp_hered = principal and cg.is_hereditary(
            E, R, [f for f in range(E.n) if E.perp(f, c)]
        )
        if not (inv == eta_inv == central_split == heredi == below_only == perp_hered):
            raise InternalInvariant(
                f"invariance characterizations disagree at {E.names[c]}: "
                f"{(central_split, eta_inv, inv, heredi, below_only, perp_hered)}"
            )
        if inv:
            gamma_sim.append(c)
        if eta_inv:
            gamma_eta.append(c)
    checks = (
        "central-with-splitting-projection",
        "hull-image-is-interval",
        "no-equivalent-across-orthocomplement",
        "hereditary-interval",
        "equivalents-stay-below",
        "hereditary-orthogonal-set",
    )
    return InvariantReport(tuple(gamma_sim), tuple(gamma_eta), checks)


def _center_pairs(E):
    from .exocenter import center

    if "center" not in E._cache:
        E._cache["center"] = tuple(center(E, exocenter(E)))
    return E._cache["center"]


# ---------------------------------------------------------------------------
# simple and finite elements
# ---------------------------------------------------------------------------

def simple_elements(E, R, H):
    """Elements all of whose interval-splittings are unrelated.

    Three independent characterizations (definitional, hull monads, and
    e = eta_e k on the interval) must coincide.
    """
    direct, monads, crit = [], [], []
    for k in range(E.n):
        if all(
            not cg.related(E, R, e, E.sub(k, e))
            for e in E.below(k)
        ):
            direct.append(k)
        if hull_mod.classify_eta(H, k).monad:
            monads.append(k)
        if all(H.eta(e)(k) == e for e in E.below(k)):
            crit.append(k)
    if not (direct == monads == crit):
        raise InternalInvariant(
            f"simple-element characterizations disagree: "
            f"{direct} vs {monads} vs {crit}"
        )
    return tuple(direct)


def finite_elements(E, R, H):
    """Elements not equivalent to any proper subelement.

    Verified to form a hereditary ideal that is strongly type-determining
    for the hull system.
    """
    F = tuple(
        f
        for f in range(E.n)
        if all(e == f for e in E.below(f) if R.sim(e, f))
    )
    if not cg.is_hereditary(E, R, F) or not core._ideal_flags(E, frozenset(F)):
        raise InternalInvariant("finite elements do not form a hereditary ideal")
    if not hull_mod.td_sets(E, H, F).eta_std:
        raise InternalInvariant("finite elements are not strongly type-determining")
    return F


# ---------------------------------------------------------------------------
# factors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FactorReport:
    factor: bool
    cross_checks: tuple


def is_factor(dgea):
    """Trivial splitting algebra, checked four equivalent ways."""
    if not dgea.der:
        raise NotDer("factor test needs a verified dimension relation")
    E, R, sigma, H = dgea.E, dgea.R, dgea.sigma, dgea.hull
    trivial = set(sigma.maps) == {sigma.zero, sigma.one}
    hull_full = all(H.eta(d).is_identity for d in range(1, E.n))
    comparable = all(
        cg.subequiv(E, R, e, f) or cg.subequiv(E, R, f, e)
        for e in range(E.n)
        for f in range(E.n)
    )
    all_related = all(
        cg.related(E, R, e, f)
        for e in range(1, E.n)
        for f in range(1, E.n)
    )
    if not (trivial == hull_full == comparable == all_related):
        raise InternalInvariant("factor characterizations disagree")
    if trivial:
        for e in range(1, E.n):
            atom = e in E.atoms
            dyad = hull_mod.classify_eta(H, e).dyad
            if atom == dyad:
                raise InternalInvariant(
                    f"factor element {E.names[e]} is not exactly one of atom/dyad"
                )
    return FactorReport(
        trivial,
        (
            "splitting-algebra-trivial",
            "hull-maps-full",
            "all-pairs-comparable",
            "all-nonzero-related",
            "atom-xor-dyad" if trivial else "atom-xor-dyad (not applicable)",
        ),
    )


def comparability(dgea, e, f):
    """A splitting direction d with eta_d e below-equivalent to eta_d f
    and the complement the other way around."""
    if not dgea.der:
        raise NotDer("comparability needs a verified dimension relation")
    E, R = dgea.E, dgea.R
    e1, e2, f1, f2 = cg.decompose_pair(E, R, e, f)
    d = f2
    pi = dgea.hull.eta(d)
    pic = dgea.sigma.complement(pi)
    if not cg.subequiv(E, R, pi(e), pi(f)) or not cg.subequiv(E, R, pic(f), pic(e)):
        raise InternalInvariant("comparability contract fails")
    return d


# ---------------------------------------------------------------------------
# summand restriction
# ---------------------------------------------------------------------------

def restrict_summand(dgea, pi, verify=True):
    """The summand of a splitting map of ``dgea`` as a standalone model
    with the restricted relation; returns (table, relation, index mapping).

    With ``verify``, and when ``dgea`` holds a dimension relation, the
    restriction is checked to be a model with a dimension relation whose
    splitting algebra, simple set, finite set, and largest finite
    invariant element are exactly the restrictions of the parent's.
    """
    E, R = dgea.E, dgea.R
    if pi not in dgea.sigma or not cg.splits(E, R, pi):
        raise NotSplitting(f"{pi!r} does not split the relation")
    members = sorted(pi.summand)
    pos = {e: i for i, e in enumerate(members)}
    k = len(members)
    table = np.full((k, k), -1, dtype=np.int8)
    for a in members:
        for b in members:
            v = E.sum_of(a, b)
            if v is not None:
                if v not in pos:
                    raise InternalInvariant("summand is not closed under sums")
                table[pos[a], pos[b]] = pos[v]
    sub = core.GeaTable([E.names[e] for e in members], table)
    subrel = cg.EquivRel(sub, [R.class_of[e] for e in members])
    if verify and dgea.der:
        _verify_restriction(dgea, pi, sub, subrel, members, pos)
    return sub, subrel, tuple(members)


def _restrict_map(xi, members, pos):
    return ExoMap([pos[xi(e)] for e in members])


def _verify_restriction(dgea, pi, sub, subrel, members, pos):
    E = dgea.E
    gex_sub = exocenter(sub)
    restricted = {_restrict_map(xi, members, pos) for xi in exocenter(E)}
    if restricted != set(gex_sub.maps):
        raise InternalInvariant("restriction does not map onto the summand exocenter")
    for a in exocenter(E):
        ra = _restrict_map(a, members, pos)
        if _restrict_map(exocenter(E).complement(a), members, pos) != gex_sub.complement(ra):
            raise InternalInvariant("restriction does not preserve complement")
        for b in exocenter(E):
            if _restrict_map(exocenter(E).meet(a, b), members, pos) != gex_sub.meet(
                ra, _restrict_map(b, members, pos)
            ):
                raise InternalInvariant("restriction does not preserve meets")
    sub_dgea = Dgea(sub, subrel)
    sub_dgea._require_der()  # the restriction is a dimension relation
    expect_sigma = {_restrict_map(xi, members, pos) for xi in dgea.sigma}
    if expect_sigma != set(sub_dgea.sigma.maps):
        raise InternalInvariant("splitting algebra does not restrict correctly")
    if set(sub_dgea.simple) != {pos[pi(k)] for k in dgea.simple}:
        raise InternalInvariant("simple elements do not restrict correctly")
    if set(sub_dgea.finite) != {pos[pi(f)] for f in dgea.finite}:
        raise InternalInvariant("finite elements do not restrict correctly")
    ft, _ = dgea.finite_invariant
    ft_sub, _ = sub_dgea.finite_invariant
    if ft_sub != pos[pi(ft)]:
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
    S = frozenset(int(x) for x in S)
    if not cg.is_hereditary(E, R, S) or not core._ideal_flags(E, S):
        raise NotHereditary(f"{sorted(S)}")
    if not any(all(E.leq[h, u] for h in S) for u in range(E.n)):
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
    sup = core._sup_of(E, sorted(S) or [0])
    if sup != c:
        raise InternalInvariant(
            f"orthosum of maximal family ({E.names[c]}) is not the supremum"
        )
    H = dgea.hull
    eta_join = dgea.sigma.join_all([H.eta(h) for h in S])
    if eta_join != H.eta(c):
        raise InternalInvariant("hull map of the supremum is not the join")
    flags = core.structure_predicates(E)
    central = None
    if flags.directed or flags.orthogonally_ordered:
        central = c in dgea.invariants.gamma_sim
    return HereditarySupReport(
        c=c,
        sharp=core.is_sharp(E, c),
        interval_hereditary=cg.is_hereditary(E, R, E.below(c)),
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


def summand_type_flags(dgea, pi):
    """Direct type classification of a summand, on the restricted model."""
    sub, subrel, _ = restrict_summand(dgea, pi, verify=False)
    d = Dgea(sub, subrel)
    ft, ftset = d.finite_invariant
    faithful = lambda e: d.hull.eta(e).is_identity
    return TypeFlags(
        type_i=any(faithful(k) for k in d.simple),
        type_ii=any(faithful(f) for f in d.finite) and set(d.simple) == {0},
        type_iii=set(d.finite) == {0},
        finite_type=any(faithful(f) for f in ftset),
        properly_non_finite=ft == 0,
    )


@dataclass(frozen=True)
class Decomposition:
    pi_i: ExoMap
    pi_ii: ExoMap
    pi_iii: ExoMap
    pi_i_f: ExoMap
    pi_i_nf: ExoMap
    pi_ii_f: ExoMap
    pi_ii_nf: ExoMap
    summands: dict
    eta_k: ExoMap
    eta_f: ExoMap
    eta_ftilde: ExoMap
    f_tilde: int
    type_verdict: str
    finite_type: bool
    properly_non_finite: bool
    unit: object  # element index of the unit when of finite type, else None
    cross_checks: tuple


def decompose_types(E, R):
    """The type decomposition of a model under a dimension relation;
    ``NotDer`` when the relation is not one."""
    return Dgea(E, R).decomposition
