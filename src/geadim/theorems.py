"""The verification suite: every structural fact the toolkit relies on,
checked exhaustively over the cataloged models.

Each property is registered under a content-describing name with a scope:

* ``model``    -- evaluated once per cataloged model;
* ``relation`` -- once per (model, congruence) pair that passes the
                  congruence axioms;
* ``der``      -- once per (model, relation) pair whose relation is a
                  verified dimension relation.

A property returns a list of witness strings (empty when it holds).
Each characterization the paper proves equivalent is compared here, in
the one property that states it: a ``Dgea`` computes its splitting
algebra, its induced hull, SK4a', each of its sets and its
decomposition by one reading, and so do divisibility, the
type-determining sets and the center, so a broken reading is reported
under its own property alone.  An ``InternalInvariant`` raised while a
property runs (``run_property``) becomes a violation rather than
aborting the run.  A congruence's ``Dgea`` is built before the runner,
so a raise there still ends the run; only a value that cannot be
computed raises there (a family of maps that is no hull system, or an
operation that leaves its set of maps).  ``invert`` flips a single
property's verdict per instance, as a sanity control that the harness
can actually fail.
"""

import itertools
from dataclasses import dataclass
from functools import partial

from . import _kernels, catalog, congruence as cg, core, dimension as dm, hull as hull_mod
from .errors import (
    AxiomViolation, GeadimError, InternalInvariant, NotDer, NotHereditary,
    NotSplitting, Unbounded, UnknownPredicate,
)
from .exocenter import (
    _central_by_definition,
    _is_boolean_algebra,
    _projection,
    brute_force_exomaps,
    center,
    cogea_check,
    disjoint_families,
    exocenter,
    fixed_points,
    is_identity,
)

REGISTRY = {}


@dataclass(frozen=True)
class Property:
    name: str
    scope: str  # "model" | "relation" | "der"
    fn: object
    review_only: bool = False


def prop(name, scope, review_only=False):
    def register(fn):
        REGISTRY[name] = Property(name, scope, fn, review_only)
        return fn

    return register


def _names(E, xs):
    return "(" + ", ".join(E.names[x] for x in xs) + ")"


# ---------------------------------------------------------------------------
# model-scope properties
# ---------------------------------------------------------------------------

@prop("core-order-laws", "model")
def _core_order_laws(E):
    # GeaTable checks the difference law itself, on every table
    out = []
    for d in range(E.n):
        for e in range(E.n):
            for f in range(E.n):
                de, df = E.sum[d][e], E.sum[d][f]
                if de >= 0 and df >= 0 and E.leq[de][df]:
                    if not E.leq[e][f]:
                        out.append(f"order cancellation fails at {_names(E, (d, e, f))}")
    for p in range(E.n):
        if core.is_principal(E, p) and not core.is_sharp(E, p):
            out.append(f"principal but not sharp: {E.names[p]}")
    # catalog tables skip GeaTable's axiom check, so check GEA1-GEA5 here
    violation = _kernels.axiom_violation(E.sum)
    if violation is not None:
        tag, witness = violation
        out.append(f"{tag} fails at {_names(E, witness)}")
    top = E.greatest()
    if top is not None:
        # each interval is a GEA with top p and the restricted order, and
        # the one at the top is the model itself; first failure per p
        for p in range(E.n):
            members = E.below[p]
            try:
                iv = core.interval_ea(E, p)
            except AxiomViolation as exc:
                out.append(f"interval at {E.names[p]} is not a GEA: {exc}")
                continue
            if iv.greatest() != members.index(p):
                out.append("interval does not have its top as greatest element")
            elif any(
                iv.leq[i][j] != E.leq[a][b]
                for i, a in enumerate(members)
                for j, b in enumerate(members)
            ):
                out.append("interval order is not the restricted order")
            elif p == top and iv.sum != E.sum:
                out.append("interval at the greatest element differs from the model")
    return out


@prop("exocenter-oracle", "model")
def _exocenter_oracle(E):
    fast = exocenter(E)
    brute = brute_force_exomaps(E)
    if fast != brute:
        return ["ideal-pair exocenter differs from brute-force filter"]
    return []


@prop("exocenter-summand-bijection", "model")
def _exo_summand_bijection(E):
    S = exocenter(E)
    out = []
    summands = {}
    for pi in S:
        key = fixed_points(pi)
        if key in summands:
            out.append(f"two maps share summand {key}")
        summands[key] = pi
    ideals = set(map(frozenset, core.all_ideals(E)))
    direct = set()
    for H in ideals:
        for K in ideals:
            if _projection(E, H, K) is not None:
                direct.add(tuple(sorted(H)))
    if direct != set(summands):
        out.append("direct summands and map images differ")
    for p in S:
        for q in S:
            if S.leq(p, q) != (set(fixed_points(p)) <= set(fixed_points(q))):
                out.append("map order disagrees with summand inclusion")
    return out


@prop("exocenter-boolean-laws", "model")
def _exo_boolean_laws(E):
    S = exocenter(E)
    if not _is_boolean_algebra(S):
        return ["exocenter is not a boolean algebra"]
    out = []
    for p in S:
        for q in S:
            m, j = S.meet(p, q), S.join(p, q)
            for e in range(E.n):
                pm = core.inf(E, (p[e], q[e]))
                pj = core.sup(E, (p[e], q[e]))
                if pm is None or m[e] != pm:
                    out.append(f"pointwise meet fails at element {E.names[e]}")
                if pj is None or j[e] != pj:
                    out.append(f"pointwise join fails at element {E.names[e]}")
    return out


@prop("center-characterizations", "model")
def _center_checks(E):
    S = exocenter(E)
    out = []
    pairs = center(E)
    via_gex = [c for c, _ in pairs]
    via_def = [c for c in range(E.n) if _central_by_definition(E, c)]
    if via_gex != via_def:
        out.append(
            f"central-element characterizations disagree: {via_gex} vs {via_def}"
        )
    top = E.greatest()
    if top is not None:
        if len(pairs) != len(S):
            out.append("unit model: center and exocenter sizes differ")
        for c, pi in pairs:
            if pi[top] != c:
                out.append(f"central element {E.names[c]} is not its map's top image")
    return out


@prop("cogea-conditions", "model")
def _cogea(E):
    witness = cogea_check(E)
    if witness is None:
        return []
    return [f"central orthocompleteness fails: {witness}"]


@prop("hull-roundtrip", "model")
def _hull_roundtrip(E):
    out = []
    for H in hull_mod.enumerate_hull_systems(E):
        try:
            again = hull_mod.hull_from_hd(E, H.theta)
        except GeadimError as exc:
            out.append(f"hull family is not hull-determining: {exc}")
            continue
        if again != H:
            out.append("hull family does not re-determine itself")
    return out


@prop("hull-meet-projections", "model")
def _hull_meet_projections(E):
    S = exocenter(E)
    out = []
    for H in hull_mod.enumerate_hull_systems(E):
        eta = H.maps
        for e in range(E.n):
            for f in range(E.n):
                e1 = eta[f][e]
                f1 = eta[e][f]
                if eta[e1] != eta[f1]:
                    out.append(f"projected pair differs in hull at {_names(E, (e, f))}")
                nonzero = e1 != 0 and f1 != 0
                if nonzero != (not S.disjoint(eta[e], eta[f])):
                    out.append(f"nonzero-meet criterion fails at {_names(E, (e, f))}")
                if E.sum[e][f] < 0 and not nonzero:
                    out.append(f"non-orthogonal pair projects to zero at {_names(E, (e, f))}")
    return out


@prop("divisibility-dyad-criterion", "model")
def _divisibility(E):
    # p splits along s + t exactly when the meet-image of p under eta_s
    # and eta_t is a dyad
    out = []
    for H in hull_mod.enumerate_hull_systems(E):
        S, eta = H.exoset, H.maps
        pairs = hull_mod.split_pairs(H)
        dyad = [hull_mod.is_dyad(H, x) for x in range(E.n)]
        for p in range(E.n):
            for s in range(E.n):
                for t in range(E.n):
                    st = E.sum[s][t]
                    if st < 0 or eta[p] != eta[st]:
                        continue
                    direct = (eta[s], eta[t]) in pairs[p]
                    if direct != dyad[S.meet(eta[s], eta[t])[p]]:
                        out.append(
                            f"divisibility checks disagree at {_names(E, (p, s, t))}"
                        )
    return out


@prop("no-monads-implies-divisible", "model")
def _no_monads_divisible(E):
    out = []
    for H in hull_mod.enumerate_hull_systems(E):
        monads = [e for e in range(1, E.n) if hull_mod.is_monad(H, e)]
        if not monads and not hull_mod.is_divisible(H).divisible:
            out.append("monad-free hull system is not divisible")
    return out


@prop("hull-grid-refinement", "model")
def _hull_grid(E):
    # each s + t = v = e + f needs a grid e = e1 + e2, f = f1 + f2 with
    # e1 + f1 ~ s and e2 + f2 ~ t, so the grid's pairs of hull classes are
    # collected once per (e, f); by cancellation the decompositions of v
    # are (s, v - s) for s <= v, in the order of s
    out = []
    sums, diff = E.sum, E.diff
    for H in hull_mod.enumerate_hull_systems(E):
        k = [H.theta.index(m) for m in H.maps]  # hull class of each element
        for e in range(E.n):
            for f in range(E.n):
                v = sums[e][f]
                if v < 0:
                    continue
                grid = set()
                for e1 in E.below[e]:
                    r1, r2 = sums[e1], sums[diff[e][e1]]  # rows of e1, e2
                    for f1 in E.below[f]:
                        a, b = r1[f1], r2[diff[f][f1]]  # e1 + f1, e2 + f2
                        if a >= 0 and b >= 0:
                            grid.add((k[a], k[b]))
                for s in E.below[v]:
                    t = diff[v][s]
                    if (k[s], k[t]) not in grid:
                        out.append(
                            f"no hull-matched grid for {_names(E, (e, f, s, t))}"
                        )
    return out


@prop("td-largest-map", "model")
def _td_largest(E):
    # every subset T at once from hull.td_table, as bitmasks; the tests
    # compare the table with the oracle td_sets for one T
    out = []
    for H in hull_mod.enumerate_hull_systems(E):
        try:
            closure, image, ideal, under = hull_mod.td_table(H)
        except InternalInvariant as exc:
            out.append(str(exc))
            continue
        fired = []  # (elements of T, what fails)
        for T in range(1 << E.n):
            eta_td = T == closure[T] == image[T]
            if T == closure[T] == ideal[T] and not eta_td:
                msg = "strongly type-determining set is not type-determining"
            elif eta_td and not any(
                T >> t & 1 and T & ~under[t] == 0 for t in range(E.n)
            ):
                msg = "type-determining set has no largest hull map"
            else:
                continue
            fired.append((tuple(x for x in range(E.n) if T >> x & 1), msg))
        # in the order of itertools.combinations by size
        for T, msg in sorted(fired, key=lambda w: (len(w[0]), w[0])):
            out.append(f"{msg} for T={_names(E, T)}")
    return out


@prop("eta-orthosum-supremum", "model")
def _eta_orthosum_sup(E):
    out = []
    for H in hull_mod.enumerate_hull_systems(E):
        for pick, total in disjoint_families(H.exoset, H.maps):
            if total is None:
                out.append(f"hull-orthogonal family not summable: {_names(E, pick)}")
                continue
            if core.sup(E, pick or (0,)) != total:
                out.append(f"orthosum is not the supremum for {_names(E, pick)}")
    return out


@prop("eta-relation-congruence-iff-divisible", "model")
def _eta_rel_sk(E):
    S = exocenter(E)
    if not core.structure_predicates(E).orthogonally_ordered:
        return []
    out = []
    for H in hull_mod.enumerate_hull_systems(E):
        classes = hull_mod.eta_partition(H)
        R = cg.build_equiv(E, [c for c in classes if len(c) > 1])
        sk = cg.check_sk(R).sk
        divisible = hull_mod.is_divisible(H).divisible
        if sk != divisible:
            out.append("hull relation congruence status differs from divisibility")
        if sk:
            for e in range(E.n):
                for f in range(E.n):
                    rel = cg.related(R, e, f)
                    meets = not S.disjoint(H.maps[e], H.maps[f])
                    if rel != meets:
                        out.append(f"relatedness vs hull meet fails at {_names(E, (e, f))}")
    return out


@prop("eta-splitting-roundtrip", "model")
def _eta_sigma_roundtrip(E):
    if not core.structure_predicates(E).orthogonally_ordered:
        return []
    out = []
    for H in hull_mod.enumerate_hull_systems(E):
        if not hull_mod.is_divisible(H).divisible:
            continue
        classes = hull_mod.eta_partition(H)
        R = cg.build_equiv(E, [c for c in classes if len(c) > 1])
        if not cg.check_sk(R).sk:
            continue  # covered by the previous property
        sigma = cg.sigma_sim(R)
        try:
            again = hull_mod.hull_from_hd(E, sigma.maps)
        except GeadimError as exc:
            out.append(f"splitting algebra is not hull-determining: {exc}")
            continue
        if again != H:
            out.append("splitting algebra does not re-determine the hull system")
    return out


# ---------------------------------------------------------------------------
# relation-scope properties (congruence verified)
# ---------------------------------------------------------------------------

@prop("splitting-algebra", "relation")
def _splitting_algebra(ctx):
    # the literal definition over the brute-force exocenter: pi splits
    # when no nonzero e ~ f has pi(e) = e and pi(f) = 0.  Per exocenter
    # map, the definition (a) agrees with (b) its summand is closed under
    # ~, (c) its summand is hereditary and (d) no summand element is
    # related to one the map kills; the splitting maps hold 0 and 1 and
    # are closed under complement, meet and join.
    E, R, sigma = ctx.E, ctx.R, ctx.sigma
    nonzero = range(1, E.n)
    literal = tuple(
        pi for pi in brute_force_exomaps(E)
        if not any(R.sim(e, f) and pi[e] == e and pi[f] == 0
                   for e in nonzero for f in nonzero)
    )
    out = []
    if literal != sigma.maps:
        out.append("splitting algebra differs from the literal splitting filter")
    G = exocenter(E)
    for pi in G:
        summand = fixed_points(pi)
        comp = [e for e in range(E.n) if pi[e] == 0]
        a = cg.splits(R, pi)
        b = all(pi[f] == f for e in summand for f in range(E.n) if R.sim(f, e))
        c = cg.is_hereditary(R, summand)
        d = not any(cg.related(R, e, f) for e in summand for f in comp)
        if not (a == b == c == d):
            out.append(f"splitting characterizations disagree for {pi!r}")
    if sigma.zero not in sigma or sigma.one not in sigma:
        out.append("splitting algebra misses 0 or 1")
        return out
    for p in sigma:
        if G.complement(p) not in sigma:
            out.append(f"splitting algebra is not closed under complement at {p!r}")
    for p, q in itertools.combinations(sigma, 2):
        if G.meet(p, q) not in sigma:
            out.append(f"splitting algebra is not closed under meet at {p!r}, {q!r}")
        if G.join(p, q) not in sigma:
            out.append(f"splitting algebra is not closed under join at {p!r}, {q!r}")
    return out


@prop("splitting-coordinatewise", "relation")
def _split_coordinatewise(ctx):
    E, R = ctx.E, ctx.R
    out = []
    for pi in ctx.sigma:
        pic = ctx.sigma.complement(pi)
        for e in range(E.n):
            for f in range(E.n):
                lhs = R.sim(e, f)
                rhs = R.sim(pi[e], pi[f]) and R.sim(pic[e], pic[f])
                if lhs != rhs:
                    out.append(f"coordinatewise equivalence fails at {_names(E, (e, f))}")
    return out


@prop("induced-hull-contract", "relation")
def _induced_hull_contract(ctx):
    # HS1-HS3 read off the map images, each map in the splitting algebra
    # and below every splitting map that fixes its element, a splitting
    # map kills e exactly when it is disjoint from eta_e, and, on every
    # unrelated pair (e, f) as SK4a' reads them, a splitting map fixes e
    # and kills f exactly when eta_e and eta_f are disjoint
    E, R, S, eta = ctx.E, ctx.R, ctx.sigma, ctx.hull.maps
    out = ["hull map at zero is not the zero map"] if any(eta[0]) else []
    for e, m in enumerate(eta):
        if m[e] != e:
            out.append(f"hull map at {E.names[e]} does not fix it")
        if m not in S:
            out.append(f"hull map at {E.names[e]} is not a splitting map")
        elif any(pi[e] == e and not S.leq(m, pi) for pi in S):
            out.append(f"hull map at {E.names[e]} is not below a splitting map fixing it")
        else:
            for pi in S:
                if (pi[e] == 0) != (S.meet(pi, m) == S.zero):
                    out.append(
                        f"kill/disjointness equivalence fails at {E.names[e]} for {pi!r}"
                    )
        for f, k in enumerate(eta):
            mk = tuple(m[k[x]] for x in range(E.n))
            if not eta[m[f]] == mk == tuple(k[m[x]] for x in range(E.n)):
                out.append(f"hull maps do not compose at {_names(E, (e, f))}")
    for e in range(E.n):
        for f in range(E.n):
            if cg.related(R, e, f) or eta[e] not in S or eta[f] not in S:
                continue
            direct = any(pi[e] == e and pi[f] == 0 for pi in S)
            if direct != S.disjoint(eta[e], eta[f]):
                out.append(
                    "separation and hull-meet forms disagree at "
                    f"{_names(E, (e, f))}"
                )
    return out


@prop("splitting-preserves-subequiv", "relation")
def _split_subequiv(ctx):
    E, R = ctx.E, ctx.R
    eta = ctx.hull.maps
    out = []
    for e in range(E.n):
        for f in range(E.n):
            if cg.subequiv(R, e, f):
                if not ctx.sigma.leq(eta[e], eta[f]):
                    out.append(f"hull order misses sub-equivalence at {_names(E, (e, f))}")
                for pi in ctx.sigma:
                    if not cg.subequiv(R, pi[e], pi[f]):
                        out.append(f"projection breaks sub-equivalence at {_names(E, (e, f))}")
            lhs = ctx.sigma.leq(eta[e], eta[f])
            rhs = any(eta[e] == eta[f1] for f1 in E.below[f])
            if lhs != rhs:
                out.append(f"hull order vs hull-equivalent subelement at {_names(E, (e, f))}")
            if R.sim(e, f) and eta[e] != eta[f]:
                out.append(f"equivalent pair has different hull maps {_names(E, (e, f))}")
    return out


@prop("equivalent-sum-cancellation", "relation")
def _equiv_sum_cancel(ctx):
    E, R = ctx.E, ctx.R
    out = []
    for e in range(E.n):
        for f in range(E.n):
            ef = E.sum[e][f]
            if ef < 0:
                continue
            for d in range(E.n):
                efd = E.sum[ef][d]
                if efd < 0:
                    continue
                if R.sim(e, efd) and not R.sim(e, ef):
                    out.append(f"sum cancellation fails at {_names(E, (e, f, d))}")
    return out


@prop("subequiv-preorder-csb", "relation")
def _preorder_csb(ctx):
    E, R = ctx.E, ctx.R
    out = []
    for e in range(E.n):
        if not cg.subequiv(R, e, e):
            out.append(f"sub-equivalence not reflexive at {E.names[e]}")
    for e in range(E.n):
        for f in range(E.n):
            for d in range(E.n):
                if (
                    cg.subequiv(R, e, f)
                    and cg.subequiv(R, f, d)
                    and not cg.subequiv(R, e, d)
                ):
                    out.append(f"sub-equivalence not transitive at {_names(E, (e, f, d))}")
            if cg.subequiv(R, e, f) and cg.subequiv(R, f, e):
                if not R.sim(e, f):
                    out.append(f"mutual sub-equivalence without equivalence {_names(E, (e, f))}")
    return out


@prop("subequiv-additivity", "relation")
def _subequiv_additive(ctx):
    E, R = ctx.E, ctx.R
    out = []
    for e1 in range(E.n):
        for e2 in range(E.n):
            s = E.sum[e1][e2]
            if s < 0:
                continue
            for f1 in range(E.n):
                for f2 in range(E.n):
                    t = E.sum[f1][f2]
                    if t < 0:
                        continue
                    if (
                        cg.subequiv(R, e1, f1)
                        and cg.subequiv(R, e2, f2)
                        and not cg.subequiv(R, s, t)
                    ):
                        out.append(
                            f"additivity of sub-equivalence fails at "
                            f"{_names(E, (e1, e2, f1, f2))}"
                        )
    return out


@prop("pair-decomposition", "relation")
def _pair_decomposition(ctx):
    # p = p1 + p2 and q = q1 + q2 with p1 ~ q1 and p2 unrelated to q2
    E, R = ctx.E, ctx.R
    out = []
    for p in range(E.n):
        for q in range(E.n):
            p1, p2, q1, q2 = cg.decompose_pair(R, p, q)
            if not R.sim(p1, q1) or cg.related(R, p2, q2):
                out.append(
                    f"pair decomposition contract fails for ({E.names[p]}, {E.names[q]})"
                )
    return out


@prop("hereditary-interval-disjointness", "relation")
def _hered_interval_disjoint(ctx):
    E, R = ctx.E, ctx.R
    out = []
    for c in range(E.n):
        if not cg.is_hereditary(R, E.below[c]):
            continue
        for d in range(E.n):
            common = [x for x in range(1, E.n) if E.leq[x][d] and E.leq[x][c]]
            if not common and E.sum[d][c] < 0:
                out.append(f"disjoint element not orthogonal at {_names(E, (c, d))}")
    return out


def _invariance_four_way(R, c):
    E = R.E
    a = all(
        not (E.leq[c1][c] and R.sim(c1, f) and E.sum[f][c] >= 0 and (c1 != 0 or f != 0))
        for c1 in range(E.n)
        for f in range(E.n)
    )
    sharp = core.is_sharp(E, c)
    b = sharp and cg.is_hereditary(R, E.below[c])
    cc = sharp and all(E.leq[e][c] for e in range(E.n) if R.sim(e, c))
    dd = sharp and cg.is_hereditary(R, [f for f in range(E.n) if E.sum[f][c] >= 0])
    return a, b, cc, dd


@prop("invariance-characterizations", "relation")
def _invariance(ctx):
    E, R, H = ctx.E, ctx.R, ctx.hull
    out = []
    centrals = dict(center(E))
    flags = core.structure_predicates(E)
    for c in range(E.n):
        a, b, cc, dd = _invariance_four_way(R, c)
        if not (a == b == cc == dd):
            out.append(f"unboundedness characterizations disagree at {E.names[c]}")
        decomposable = all(
            any(
                E.sum[e1][e2] == e
                for e1 in E.below[c]
                for e2 in range(E.n)
                if E.sum[e2][c] >= 0
            )
            for e in range(E.n)
        )
        if a and decomposable and c not in centrals:
            out.append(f"decomposable invariant candidate not central: {E.names[c]}")
        # readings (1), (2), (4), (5) and (6) of invariance against the
        # definition (3), which ``Dgea.invariants`` reads
        principal = core.is_principal(E, c)
        readings = (
            c in centrals and cg.splits(R, centrals[c]),
            set(fixed_points(H.maps[c])) == set(E.below[c]),
            principal and cg.is_hereditary(R, E.below[c]),
            principal and all(E.leq[e][c] for e in range(E.n) if R.sim(e, c)),
            principal and cg.is_hereditary(
                R, [f for f in range(E.n) if E.sum[f][c] >= 0]
            ),
        )
        if any(r != (c in ctx.invariants) for r in readings):
            out.append(
                f"invariance characterizations disagree at {E.names[c]}: {readings}"
            )
        if a and flags.directed and c not in centrals:
            out.append(f"directed model: invariant candidate not central {E.names[c]}")
        if a and flags.orthogonally_ordered and not principal:
            out.append(f"orthogonally ordered: candidate not principal {E.names[c]}")
    return out


@prop("invariant-lattice", "relation")
def _invariant_lattice(ctx):
    E = ctx.E
    out = []
    H = ctx.hull
    centrals = dict(center(E))
    ge = ctx.invariants
    if not set(ge) <= set(centrals):
        out.append("invariant elements are not all central")
    for r in range(1, len(ge) + 1):
        for fam in itertools.combinations(ge, r):
            i = core.inf(E, fam)
            if i is None or i not in ge:
                out.append(f"infimum missing or not invariant for {_names(E, fam)}")
            elif ctx.sigma.meet_all([H.maps[c] for c in fam]) != H.maps[i]:
                out.append(f"hull map of infimum is not the meet for {_names(E, fam)}")
            if any(all(E.leq[c][u] for c in fam) for u in range(E.n)):
                s = core.sup(E, fam)
                if s is None or s not in ge:
                    out.append(f"supremum missing or not invariant for {_names(E, fam)}")
                elif ctx.sigma.join_all([H.maps[c] for c in fam]) != H.maps[s]:
                    out.append(f"hull map of supremum is not the join for {_names(E, fam)}")
    return out


# ---------------------------------------------------------------------------
# dimension-relation properties
# ---------------------------------------------------------------------------

@prop("unrelated-five-way", "der")
def _unrelated_five_way(ctx):
    E, R = ctx.E, ctx.R
    S, eta = ctx.sigma, ctx.hull.maps
    out = []
    for e in range(E.n):
        for f in range(E.n):
            c1 = not cg.related(R, e, f)
            c2 = any(pi[e] == e and pi[f] == 0 for pi in S)
            c3 = S.disjoint(eta[e], eta[f])
            c4 = eta[e][f] == 0
            c5 = not cg.related(R, eta[f][e], eta[e][f])
            if not (c1 == c2 == c3 == c4 == c5):
                out.append(f"unrelatedness conditions disagree at {_names(E, (e, f))}")
    return out


@prop("descendent-summand-split", "der")
def _descendent_summand(ctx):
    E, R = ctx.E, ctx.R
    out = []
    for e in range(E.n):
        eta = ctx.hull.maps[e]
        desc = {d for d in range(E.n) if cg.is_descendent(R, d, e)}
        if set(fixed_points(eta)) != desc:
            out.append(f"hull summand is not the descendent set of {E.names[e]}")
        unrel = {f for f in range(E.n) if not cg.related(R, f, e)}
        if set(fixed_points(ctx.sigma.complement(eta))) != unrel:
            out.append(f"complement summand is not the unrelated set of {E.names[e]}")
    return out


@prop("unrelated-to-orthosum", "der")
def _unrelated_orthosum(ctx):
    E, R = ctx.E, ctx.R
    out = []
    for ms, total in core.orthogonal_multisets(E):
        for f in range(E.n):
            if all(not cg.related(R, f, e) for e in set(ms)):
                if cg.related(R, f, total):
                    out.append(f"{E.names[f]} related to orthosum of {_names(E, ms)}")
    return out


@prop("hereditary-ideal-supremum", "der")
def _hereditary_sup_prop(ctx):
    # the orthosum of a maximal orthogonal family in a bounded hereditary
    # ideal is its supremum, with the join of the members' hull maps; the
    # supremum is sharp, its interval hereditary, and, when the model is
    # directed or orthogonally ordered, invariant
    E, H = ctx.E, ctx.hull
    flags = core.structure_predicates(E)
    directed = flags.directed or flags.orthogonally_ordered
    out = []
    for S in core.all_ideals(E):
        try:
            c = dm.hereditary_sup(ctx, S)
        except (NotHereditary, Unbounded):
            continue
        if core.sup(E, S) != c:
            out.append(f"orthosum of maximal family ({E.names[c]}) is not the supremum")
        if ctx.sigma.join_all([H.maps[h] for h in S]) != H.maps[c]:
            out.append("hull map of the supremum is not the join")
        if not (core.is_sharp(E, c) and cg.is_hereditary(ctx.R, E.below[c])):
            out.append(f"supremum of {sorted(S)} fails sharp/hereditary")
        if directed and c not in ctx.invariants:
            out.append(f"supremum of {sorted(S)} not invariant under directedness")
    return out


@prop("general-comparability", "der")
def _comparability(ctx):
    # eta_d e is sub-equivalent to eta_d f, and the other way round in
    # the complement of eta_d
    E, R, H = ctx.E, ctx.R, ctx.hull
    out = []
    for e in range(E.n):
        for f in range(E.n):
            pi = H.maps[dm.comparability(ctx, e, f)]
            pic = ctx.sigma.complement(pi)
            if not cg.subequiv(R, pi[e], pi[f]) or not cg.subequiv(R, pic[f], pic[e]):
                out.append("comparability contract fails")
    return out


@prop("factor-characterizations", "der")
def _factor(ctx):
    E, R, H = ctx.E, ctx.R, ctx.hull
    trivial = dm.is_factor(ctx)
    hull_full = all(is_identity(H.maps[d]) for d in range(1, E.n))
    comparable = all(
        cg.subequiv(R, e, f) or cg.subequiv(R, f, e)
        for e in range(E.n)
        for f in range(E.n)
    )
    all_related = all(
        cg.related(R, e, f) for e in range(1, E.n) for f in range(1, E.n)
    )
    if not (trivial == hull_full == comparable == all_related):
        return ["factor characterizations disagree"]
    if not trivial:
        return []
    return [
        f"factor element {E.names[e]} is not exactly one of atom/dyad"
        for e in range(1, E.n)
        if (e in E.atoms) == hull_mod.is_dyad(H, e)
    ]


def _kf_sets(ctx):
    return {"simple": ctx.simple, "finite": ctx.finite}


@prop("hereditary-std-largest", "der")
def _hereditary_std_largest(ctx):
    E = ctx.E
    S, H = ctx.sigma, ctx.hull
    out = []
    for label, hset in _kf_sets(ctx).items():
        td = hull_mod.td_sets(H, hset)
        if not td.eta_std:
            continue  # reported by kf-std-sets
        star = td.t_star
        estar = H.maps[star]
        if S.join_all([H.maps[h] for h in hset]) != estar:
            out.append(f"{label} set: largest map is not the join")
        for h in hset:
            for e in range(E.n):
                he = H.maps[h][e]
                if he != 0 and not any(
                    x != 0 and E.leq[x][he] for x in hset
                ):
                    out.append(f"{label} set misses a nonzero piece under {_names(E, (h, e))}")
        has_faithful = any(is_identity(H.maps[h]) for h in hset)
        if has_faithful != is_identity(estar):
            out.append(f"{label} set: faithful member test disagrees")
        for pi in exocenter(E):
            lhs = set(hset) & set(fixed_points(pi))
            rhs = {pi[h] for h in hset}
            if lhs != rhs:
                out.append(f"{label} set does not project onto its trace")
    return out


@prop("summand-meets-hereditary", "der")
def _summand_meets_hereditary(ctx):
    S, H = ctx.sigma, ctx.hull
    out = []
    for label, hset in _kf_sets(ctx).items():
        star = hull_mod.td_sets(H, hset).t_star
        if star is None:
            continue  # reported by kf-std-sets
        for pi in S:
            a = set(hset) & set(fixed_points(pi)) == {0}
            b = all(pi[h] == 0 for h in hset)
            c = S.disjoint(pi, H.maps[star])
            d = all(S.disjoint(pi, H.maps[h]) for h in hset)
            if not (a == b == c == d):
                out.append(f"{label} set: avoidance conditions disagree for {pi!r}")
    return out


@prop("summand-star-projection", "der")
def _summand_star_projection(ctx):
    E = ctx.E
    S, H = ctx.sigma, ctx.hull
    out = []
    for label, hset in _kf_sets(ctx).items():
        star = hull_mod.td_sets(H, hset).t_star
        if star is None:
            continue  # reported by kf-std-sets
        for pi in set(H.maps):
            hsharp = pi[star]
            if hsharp not in hset or pi[hsharp] != hsharp:
                out.append(f"{label}: projected star escapes the set under {pi!r}")
            if H.maps[hsharp] != S.meet(H.maps[star], pi):
                out.append(f"{label}: hull of projected star is not the meet under {pi!r}")
            for h in hset:
                if pi[h] != h:
                    continue
                lhs = S.meet(H.maps[h], pi)
                rhs = S.meet(H.maps[hsharp], pi)
                if S.meet(lhs, rhs) != lhs:
                    out.append(f"{label}: projected star is not largest under {pi!r}")
            if not core.is_orthodense(
                E,
                set(hset) & set(fixed_points(pi)),
                set(fixed_points(S.meet(H.maps[star], pi))),
            ):
                out.append(f"{label}: trace not orthodense under {pi!r}")
    return out


@prop("faithful-in-summand", "der")
def _faithful_in_summand(ctx):
    E = ctx.E
    S, H = ctx.sigma, ctx.hull
    out = []
    for pi in S:
        summand = fixed_points(pi)
        for p in summand:
            a = all(H.maps[p][x] == x for x in summand)
            b = S.leq(pi, H.maps[p])
            c = pi == H.maps[p]
            if not (a == b == c):
                out.append(f"faithfulness conditions disagree at {E.names[p]} in {pi!r}")
    return out


@prop("faithful-restriction", "der")
def _faithful_restriction(ctx):
    E = ctx.E
    S, H = ctx.sigma, ctx.hull
    out = []
    for label, hset in _kf_sets(ctx).items():
        star = hull_mod.td_sets(H, hset).t_star
        if star is None:
            continue  # reported by kf-std-sets
        for pi in set(H.maps):
            hsharp = pi[star]
            a = any(H.maps[h] == pi for h in hset)
            b = S.leq(pi, H.maps[star])
            c = pi == H.maps[hsharp]
            d = any(
                pi == H.maps[h] for h in hset if pi[h] == h
            )
            if not (a == b == c == d):
                out.append(f"{label}: faithful-restriction conditions disagree for {pi!r}")
            summand = set(fixed_points(pi))
            if a and not core.is_orthodense(E, set(hset) & summand, summand):
                out.append(f"{label}: trace not orthodense in summand for {pi!r}")
    return out


def _restriction_failures(ctx, pi):
    """The failures of ``summand-restriction-contract`` at the splitting
    map ``pi``, in the order they are checked, computed lazily."""
    try:
        sub = ctx.summand(pi)
        sub._require_der()
    except (NotDer, NotSplitting) as exc:
        yield f"summand is not a dimension relation: {exc}"
        return
    members = fixed_points(pi)
    pos = {e: i for i, e in enumerate(members)}

    def restrict(xi):
        return tuple(pos[xi[e]] for e in members)

    gex, gex_sub = exocenter(ctx.E), exocenter(sub.E)
    if {restrict(xi) for xi in gex} != set(gex_sub.maps):
        yield "restriction does not map onto the summand exocenter"
    for a in gex:
        ra = restrict(a)
        if restrict(gex.complement(a)) != gex_sub.complement(ra):
            yield "restriction does not preserve complement"
        for b in gex:
            if restrict(gex.meet(a, b)) != gex_sub.meet(ra, restrict(b)):
                yield "restriction does not preserve meets"
    if {restrict(xi) for xi in ctx.sigma} != set(sub.sigma.maps):
        yield "splitting algebra does not restrict correctly"
    if set(sub.simple) != {pos[pi[k]] for k in ctx.simple}:
        yield "simple elements do not restrict correctly"
    if set(sub.finite) != {pos[pi[f]] for f in ctx.finite}:
        yield "finite elements do not restrict correctly"
    if sub.finite_invariant[0] != pos[pi[ctx.finite_invariant[0]]]:
        yield "largest finite invariant element does not restrict correctly"


def _der_summand(ctx, pi):
    """The summand of the splitting map ``pi``, or None when it carries no
    dimension relation, which ``summand-restriction-contract`` reports."""
    try:
        sub = ctx.summand(pi)
    except (NotDer, NotSplitting):
        return None
    return sub if sub.der else None


@prop("summand-restriction-contract", "der")
def _summand_restriction(ctx):
    # the summand of each splitting map carries a dimension relation, and
    # its exocenter, splitting algebra, simple and finite sets and largest
    # finite invariant element are the restrictions of the model's; each
    # map reports its first failure
    out = []
    for pi in ctx.sigma:
        failure = next(_restriction_failures(ctx, pi), None)
        if failure is not None:
            out.append(f"{failure} for {pi!r}")
    return out


@prop("simple-element-criteria", "der")
def _simple_criteria(ctx):
    E = ctx.E
    S, H = ctx.sigma, ctx.hull
    out = []
    K = ctx.simple
    for k in range(E.n):
        splits_ok = all(
            S.disjoint(H.maps[k1], H.maps[E.diff[k][k1]]) for k1 in E.below[k]
        )
        # the sums of the interval at k: a + b defined and at most k
        pairs_ok = all(
            S.disjoint(H.maps[a], H.maps[b])
            for a in E.below[k]
            for b in E.below[k]
            if (a != 0 or b != 0) and E.sum[a][b] >= 0 and E.leq[E.sum[a][b]][k]
        )
        monad = hull_mod.is_monad(H, k)
        fixed = all(H.maps[e][k] == e for e in E.below[k])
        direct = k in K
        if not (direct == splits_ok == pairs_ok == monad == fixed):
            out.append(f"simple-element conditions disagree at {E.names[k]}")
    return out


@prop("simple-subequiv-hull", "der")
def _simple_subequiv(ctx):
    E, R = ctx.E, ctx.R
    S, H = ctx.sigma, ctx.hull
    out = []
    K = ctx.simple
    for q in K:
        for k in K:
            if S.leq(H.maps[q], H.maps[k]) != cg.subequiv(R, q, k):
                out.append(f"hull order vs sub-equivalence on simples {_names(E, (q, k))}")
            if (H.maps[q] == H.maps[k]) != R.sim(q, k):
                out.append(f"hull equality vs equivalence on simples {_names(E, (q, k))}")
    return out


@prop("simple-implies-finite", "der")
def _simple_finite(ctx):
    K, F = ctx.simple, ctx.finite
    S, H = ctx.sigma, ctx.hull
    out = []
    if not set(K) <= set(F):
        out.append("a simple element is not finite")
    ek = S.join_all([H.maps[k] for k in K])
    ef = S.join_all([H.maps[f] for f in F])
    if S.meet(ek, ef) != ek:
        out.append("simple-set map is not below the finite-set map")
    return out


@prop("finite-subtraction", "der")
def _finite_subtraction(ctx):
    E, R = ctx.E, ctx.R
    F = ctx.finite
    out = []
    for f in F:
        for e in E.below[f]:
            if e not in F:
                out.append(f"finite set is not an order ideal at {E.names[e]}")
    for e in F:
        for f in F:
            if not R.sim(e, f):
                continue
            for e1 in E.below[e]:
                e2 = E.diff[e][e1]
                for f1 in E.below[f]:
                    f2 = E.diff[f][f1]
                    if R.sim(e1, f1) and not R.sim(e2, f2):
                        out.append(
                            f"subtraction property fails at {_names(E, (e, f, e1, f1))}"
                        )
    return out


@prop("kf-std-sets", "der")
def _kf_std(ctx):
    E, R = ctx.E, ctx.R
    H = ctx.hull
    out = []
    for label, hset in _kf_sets(ctx).items():
        if not cg.is_hereditary(R, hset):
            out.append(f"{label} set is not hereditary")
        if not hull_mod.td_sets(H, hset).eta_std:
            out.append(f"{label} set is not strongly type-determining")
    if not core._ideal_flags(E, frozenset(ctx.finite)):
        out.append("finite set is not an ideal")
    _, ftset = ctx.finite_invariant
    td = hull_mod.td_sets(H, ftset)
    if not td.eta_td:
        out.append("finite invariant set is not type-determining")
    elif H.maps[td.t_star] != ctx.decomposition.eta_ftilde:
        out.append("finite-invariant join disagrees with its largest map")
    return out


@prop("kf-orthodense", "der")
def _kf_orthodense(ctx):
    E = ctx.E
    S, H = ctx.sigma, ctx.hull
    out = []
    theta = set(H.maps)
    for label, hset in _kf_sets(ctx).items():
        join = S.join_all([H.maps[h] for h in hset])
        if join not in theta:
            out.append(f"{label}-set map is not a hull map")
        summand = set(fixed_points(join))
        if not set(hset) <= summand:
            out.append(f"{label} set escapes its summand")
        if not core.is_orthodense(E, set(hset), summand):
            out.append(f"{label} set not orthodense in its summand")
        if (set(hset) == {0}) != (not any(join)):
            out.append(f"{label} set triviality disagrees with its map")
    return out


@prop("finite-invariant-largest", "der")
def _finite_invariant_largest(ctx):
    E = ctx.E
    out = []
    ft, ftset = ctx.finite_invariant
    F = set(ctx.finite)
    below = set(E.below[ft])
    if not set(ftset) <= below:
        out.append("finite invariant set escapes the interval of its largest member")
    if not below <= F:
        out.append("interval of the largest finite invariant element leaves the finite set")
    return out


@prop("finite-invariant-faithful", "der")
def _finite_invariant_faithful(ctx):
    E = ctx.E
    H = ctx.hull
    out = []
    ft, ftset = ctx.finite_invariant
    a = any(is_identity(H.maps[f]) for f in ftset)
    b = is_identity(H.maps[ft])
    c = set(E.below[ft]) == set(range(E.n))
    if not (a == b == c):
        out.append("finite-type characterizations disagree")
    if b:
        if E.greatest() != ft:
            out.append("finite-type model is not an effect algebra with that unit")
        if set(ctx.finite) != set(range(E.n)):
            out.append("finite-type model has non-finite elements")
    return out


@prop("type-criteria-global", "der")
def _type_criteria_global(ctx):
    E = ctx.E
    out = []
    dec = ctx.decomposition
    flags = ctx.summand(ctx.sigma.one).type_flags
    if flags.type_i != is_identity(dec.eta_k):
        out.append("global type-I criterion disagrees")
    if flags.type_i and not core.is_orthodense(E, set(ctx.simple), set(range(E.n))):
        out.append("type-I model whose simples are not orthodense")
    if flags.type_ii != (is_identity(dec.eta_f) and not any(dec.eta_k)):
        out.append("global type-II criterion disagrees")
    if flags.type_ii and not core.is_orthodense(E, set(ctx.finite), set(range(E.n))):
        out.append("type-II model whose finite elements are not orthodense")
    if flags.type_iii != (not any(dec.eta_f)):
        out.append("global type-III criterion disagrees")
    if flags.finite_type != is_identity(dec.eta_ftilde):
        out.append("global finite-type criterion disagrees")
    if flags.properly_non_finite != (dec.f_tilde == 0):
        out.append("global properly-non-finite criterion disagrees")
    return out


@prop("type-criteria-summands", "der")
def _type_criteria_summands(ctx):
    S = ctx.sigma
    out = []
    dec = ctx.decomposition
    theta = set(ctx.hull.maps)
    comp = S.complement
    for pi in S:
        sub = _der_summand(ctx, pi)
        if sub is None:
            continue
        flags = sub.type_flags
        if ctx.summand_types(pi) != (flags.type_i, flags.type_ii, flags.type_iii):
            out.append(
                f"summand types read off the model disagree with its own for {pi!r}"
            )
        in_theta = pi in theta
        if flags.type_i != (in_theta and S.leq(pi, dec.eta_k)):
            out.append(f"summand type-I criterion disagrees for {pi!r}")
        if flags.type_ii != (
            in_theta and S.leq(pi, S.meet(dec.eta_f, comp(dec.eta_k)))
        ):
            out.append(f"summand type-II criterion disagrees for {pi!r}")
        if flags.type_iii != S.leq(pi, comp(dec.eta_f)):
            out.append(f"summand type-III criterion disagrees for {pi!r}")
        if flags.finite_type != (in_theta and S.leq(pi, dec.eta_ftilde)):
            out.append(f"summand finite-type criterion disagrees for {pi!r}")
        if flags.properly_non_finite != S.disjoint(pi, dec.eta_ftilde):
            out.append(f"summand properly-non-finite criterion disagrees for {pi!r}")
    return out


@prop("type-decomposition", "der")
def _type_decomposition(ctx):
    # the projections of types I and II and of their finite and non-finite
    # parts are hull maps; the three type projections are disjoint and
    # cover the identity, and the two parts of each type cover it.  Read
    # off the table alone, every summand is a down-set closed under the
    # sums it defines, the three type summands meet pairwise in zero, and
    # every element is one sum of an element of each.  Every summand is
    # hereditary, each type summand is of its type as a model of its own,
    # no other triple of splitting maps has the three types (read off this
    # model), and the finite parts of types I and II have the units
    # pi_I(f~) and pi_I'(f~).  A summand that carries no dimension
    # relation is skipped: summand-restriction-contract reports it.
    E, R, S = ctx.E, ctx.R, ctx.sigma
    dec = ctx.decomposition
    maps = dec.projections
    types = ("I", "II", "III")
    triple = tuple(maps[t] for t in types)
    out = []
    theta = set(ctx.hull.maps)
    for name, m in maps.items():
        if name != "III" and m not in theta:
            out.append(f"projection {name} escapes the hull family")
    if not all(S.disjoint(a, b) for a, b in itertools.combinations(triple, 2)):
        out.append("type projections are not pairwise disjoint")
    if not is_identity(S.join_all(triple)):
        out.append("type projections do not cover the identity")
    for t in ("I", "II"):
        if S.join(maps[f"{t}_F"], maps[f"{t}_notF"]) != maps[t]:
            out.append(f"finite parts do not cover type {t}")
    subs = [_der_summand(ctx, pi) for pi in triple]
    for name, sub, is_type in zip(types, subs, ("type_i", "type_ii", "type_iii")):
        if sub is not None and not getattr(sub.type_flags, is_type):
            out.append(f"summand {name} is not of type {name}")
    summands = dec.summands
    parts = [summands[t] for t in types]
    for (a, s), (b, t) in itertools.combinations(zip(types, parts), 2):
        common = sorted(set(s) & set(t))
        if common != [0]:
            out.append(f"summands {a} and {b} meet in {_names(E, common)}")
    for name, s in summands.items():
        inside = set(s)
        if any(E.leq[e][f] and e not in inside for f in s for e in range(E.n)):
            out.append(f"summand {name} is not a down-set")
        sums = (E.sum[e][f] for e in s for f in s)
        if any(v >= 0 and v not in inside for v in sums):
            out.append(f"summand {name} is not closed under sums")
        if not cg.is_hereditary(R, s):
            out.append(f"summand {name} is not hereditary")
    ways = [0] * E.n
    for s1, s2 in itertools.product(parts[0], parts[1]):
        v = E.sum[s1][s2]
        if v < 0:
            continue
        for s3 in parts[2]:
            w = E.sum[v][s3]
            if w >= 0:
                ways[w] += 1
    bad = [e for e in range(E.n) if ways[e] != 1]
    if bad:
        out.append(f"not one sum of the three summands: {_names(E, bad)}")
    # in a boolean algebra the one map disjoint from s1 and s2 that
    # completes a cover of the identity is (s1 v s2)'
    flags = {m: ctx.summand_types(m) for m in S}
    for s1 in S:
        for s2 in S:
            if not S.disjoint(s1, s2):
                continue
            s3 = S.complement(S.join(s1, s2))
            if flags[s1][0] and flags[s2][1] and flags[s3][2] and (s1, s2, s3) != triple:
                out.append(f"second type triple {s1!r}, {s2!r}, {s3!r}")
    ft = dec.f_tilde
    for name, unit in (("I_F", maps["I"][ft]), ("II_F", S.complement(maps["I"])[ft])):
        sub = _der_summand(ctx, maps[name])
        if sub is None:
            continue
        top = sub.E.greatest()
        if top is None or fixed_points(maps[name])[top] != unit:
            out.append(f"summand {name} does not have the unit {E.names[unit]}")
    return out


@prop("all-finite-models-type-one", "der", review_only=True)
def _all_type_one(ctx):
    dec = ctx.decomposition
    if dec.type_verdict != "I":
        return [
            f"finite model of type {dec.type_verdict}; "
            "contradicts the atom argument, review needed"
        ]
    return []


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------

def run_property(p, ctx):
    """The witnesses of the property ``p`` on ``ctx``, or the message of
    the ``InternalInvariant`` it raised."""
    try:
        return p.fn(ctx)
    except InternalInvariant as exc:
        return [str(exc)]


def _evaluate_model(names, invert, key):
    """Evaluate the properties ``names`` on the model whose catalog key is
    ``key`` and on its congruences; returns the per-property (instances,
    violations), the review entries and the number of congruences."""
    E = catalog.model(key)
    congruences = catalog.congruences(E)
    scopes = {
        "model": [E],
        "relation": congruences,
        "der": [d for d in congruences if d.der],
    }
    out = {}
    review = []
    for name in names:
        p = REGISTRY[name]
        instances = 0
        violations = []
        for ctx in scopes[p.scope]:
            instances += 1
            details = run_property(p, ctx)
            if invert == name:
                details = [] if details else ["inverted-check: property held"]
            rel = None
            if details and p.scope != "model":
                rel = [[E.names[e] for e in c] for c in ctx.R.classes]
            for d in details:
                rec = {
                    "model": key.hex(),
                    "n": E.n,
                    "relation": rel,
                    "detail": d,
                    "property": name,
                }
                if p.review_only:
                    review.append(rec)
                else:
                    violations.append(rec)
        out[name] = (instances, violations)
    return out, review, len(congruences)


def run_theorem_suite(max_n, theorems=None, jobs=1, invert=None):
    """Evaluate the registered properties over the catalog and return the
    ``results`` payload of ``verify``, its properties in name order;
    deterministic regardless of worker count.

    Each model and its congruences are built and evaluated in one call,
    in a worker when ``jobs`` is above 1, and dropped once its results
    are in.
    """
    if theorems:
        unknown = [t for t in theorems if t not in REGISTRY]
        if unknown:
            raise UnknownPredicate(
                f"unknown theorems: {', '.join(unknown)}"
            )
        names = tuple(t for t in REGISTRY if t in set(theorems))
    else:
        names = tuple(REGISTRY)
    if invert is not None and invert not in REGISTRY:
        raise UnknownPredicate(f"unknown theorem: {invert}")
    if invert is not None and invert not in names:
        # inverting a property that is not run would change nothing
        raise GeadimError(f"inverted theorem {invert} is not among those selected")
    keys = catalog._catalog_tables(max_n)
    evaluate = partial(_evaluate_model, names, invert)
    properties = {name: {"instances": 0, "violations": []} for name in sorted(names)}
    review = []
    models = relations = 0
    for per_prop, rev, congruences in catalog.ordered_map(evaluate, keys, jobs):
        for name, (instances, violations) in per_prop.items():
            properties[name]["instances"] += instances
            properties[name]["violations"].extend(violations)
        review.extend(rev)
        models += 1
        relations += congruences
    violated = any(p["violations"] for p in properties.values())
    return {
        "models": models,
        "relations": relations,
        "properties": properties,
        "review": review,
        "status": "violations" if violated else "review" if review else "ok",
    }


def suite_text(max_n, results):
    """The text report of ``verify`` over models up to size ``max_n``,
    rendered from its ``results`` payload."""
    lines = [
        f"theorem suite over models up to size {max_n}: "
        f"{results['models']} models, {results['relations']} congruences"
    ]
    for name, p in results["properties"].items():
        mark = "ok" if not p["violations"] else f"{len(p['violations'])} VIOLATIONS"
        lines.append(f"  {name}: {p['instances']} instances, {mark}")
        for v in p["violations"][:10]:
            lines.append(f"    - {v['model']} (n={v['n']}): {v['detail']}")
    for v in results["review"]:
        lines.append(f"  REVIEW: {v['model']}: {v['detail']}")
    lines.append(f"status: {results['status']}")
    return "\n".join(lines)
