"""Time each kernel in ``geadim._kernels`` on fixed small inputs, and the
property suite over the models up to size 5.

Run from the repository root after installing the package::

    python benchmarks/bench_kernels.py

Every kernel runs ``repeat`` times per round over several rounds; the
table gives the fastest round's time per call, which is the least
disturbed by other load on the machine.  The table rows time the
one-point top extensions of the 35 catalog tables of size 6, one per
orbit of each table's automorphisms (found once, outside the timing),
and the whole table stage up to size 8, which builds each size from the
one below.  The ``brute_exomaps`` rows find the exocenter maps of the 5-,
6- and 8-chain from the images of their atoms; on the 8-chain the
filter that the atom search replaced visited 8! maps.  The ``sup/inf
n<=6`` row takes the join and the meet of every pair of elements of the
56 models up to size 6, from the order bitmasks each model builds on
first use.  The ``sk_first_failures`` rows sweep all 52 partitions with zero
alone of the 6-chain and all 877 of the 2 x 2 x 2 cube in one call each.
The ``td_table`` and ``is_divisible`` rows build the
type-determining table and the divisibility report of each of the 59
hull systems on the models up to size 6, clearing the hull system's memo
before each call, and the ``check_hull_system`` row checks HS1-HS3 on
each of them.  The ``disjoint_families`` row finds the families of
nonzero elements with pairwise disjoint hull maps, and their orthosums,
of each of those hull systems.  The ``td-largest-map`` row runs that
property over those models, so it reads the memoized tables and times
the checks per subset, and the ``hull-grid-refinement`` row runs that
property over them.  The ``structure_predicates n<=7`` row computes the structure
flags of each of the 175 models up to size 7, clearing the model's memo
before each call, and the ``all_ideals n<=7`` row finds the ideals of
each of them the same way.  The ``td_sets dgea n<=7`` row reads, for the
``Dgea`` of each dimension relation among the congruences of those
models, whether its simple, its finite and its finite-invariant elements
are type-determining for its induced hull system, clearing the hull
system's memo before each call, as a fresh ``Dgea`` would.  The ``Dgea
n<=7`` row builds a fresh ``Dgea`` of each of the 22 congruences of
those models, on a fresh relation: the SK report, the splitting
algebra, the induced hull and SK4a'.  The ``enumerate_relations n<=7``
row makes the record of every partition with zero alone of each of those
models, the sweep and each congruence's fresh ``Dgea`` included, on
models whose sweep plans are built already.  The
``build_entry n<=6`` row builds the catalog entry of each of the 56
models up to size 6 from its catalog key, so each model and its caches
are fresh: the structure flags, the partition sweep
and the decomposition of each dimension relation.  The ``build_entry n=8
cube`` row does the same for the cube alone, and the ``decomposition
n=8 cube`` row builds a fresh ``Dgea`` of each of the cube's 5
congruences, on a fresh relation, and its type decomposition.  The
``decomposition properties n=8 cube`` row builds the same fresh
``Dgea``s and runs on each the six properties that compare the readings
of its invariant, simple and finite elements, its factor test and its
decomposition (``MOVED_CHECKS``); with the row before, it shows where
that work runs and what it costs.  The
``record lines n<=7`` row writes the catalog file line of each of the
175 models up to size 7 with ``catalog._record_line``, which builds the
entry and joins the line from JSON fragments; the fragments of each
size are built in the first round, so the fastest round reuses them.
The suite row times ``run_theorem_suite(5)``, which builds each model
and its congruences as it reaches them.
"""

import platform
import time

from geadim import _kernels as K
from geadim import catalog, congruence as cg, core, dimension as dm
from geadim import hull, theorems
from geadim.exocenter import disjoint_families

ROUNDS = 5


def _chain(n):
    """The n-chain: i + j = i + j when the total stays below n."""
    table = [[i + j if i + j < n else -1 for j in range(n)] for i in range(n)]
    return core.GeaTable([str(i) for i in range(n)], table)


def _cube():
    """The 2 x 2 x 2 cube: the subsets of three atoms as bit sets, a + b
    defined as the union when a and b are disjoint."""
    table = [[a | b if not a & b else -1 for b in range(8)] for a in range(8)]
    return core.GeaTable([str(i) for i in range(8)], table)


def _extend_each(parents):
    """The one-point top extensions of each (parent table, automorphisms),
    one per orbit."""
    return [K.enumerate_tables(rows, auts) for rows, auts in parents]


def _each(fn, items):
    for item in items:
        fn(item)


def _build_each(fn, items):
    """``fn`` on each hull system or model with its memo cleared, so it
    builds."""
    for item in items:
        item._cache.clear()
        fn(item)


def _td_sets_each(pairs):
    """``hull.td_sets`` on each (hull system, set) with the hull system's
    memo cleared, so its parts are built."""
    for H, T in pairs:
        H._cache.clear()
        hull.td_sets(H, T)


def _dgea_sets(models):
    """The simple, finite and finite-invariant sets of the ``Dgea`` of
    each dimension relation on ``models``, each with its hull system."""
    out = []
    for E in models:
        for d in catalog.congruences(E):
            if d.der:
                for T in (d.simple, d.finite, d.finite_invariant[1]):
                    out.append((d.hull, T))
    return out


def _sup_inf_each(models):
    for E in models:
        for e in range(E.n):
            for f in range(E.n):
                core.sup(E, (e, f))
                core.inf(E, (e, f))


def _check_each(systems):
    for H in systems:
        hull.check_hull_system(H.exoset, H.maps)


def _families_each(systems):
    for H in systems:
        disjoint_families(H.exoset, H.maps)


def _build_entries(keys):
    """The catalog entry of each catalog key, built fresh."""
    for key in keys:
        catalog.build_entry(key[0], key[1:])


def _record_lines(keys):
    """The catalog file line of each catalog key, its entry built fresh."""
    for key in keys:
        catalog._record_line(key)


def _relations_each(models):
    """Every relation record of each model."""
    for E in models:
        tuple(catalog.enumerate_relations(E))


def _dgea_each(relations):
    """A fresh ``Dgea`` of each relation, on a fresh relation."""
    for R in relations:
        dm.Dgea(cg.EquivRel(R.E, R.class_of))


def _decompose_each(relations):
    """The type decomposition of a fresh ``Dgea`` of each relation."""
    for R in relations:
        dm.Dgea(cg.EquivRel(R.E, R.class_of)).decomposition


MOVED_CHECKS = ("invariance-characterizations", "factor-characterizations",
                "simple-element-criteria", "kf-std-sets",
                "type-criteria-summands", "type-decomposition")


def _moved_checks_each(relations):
    """The ``MOVED_CHECKS`` properties on a fresh ``Dgea`` of each
    relation, the der-scope ones only where it is a dimension relation."""
    for R in relations:
        d = dm.Dgea(cg.EquivRel(R.E, R.class_of))
        for name in MOVED_CHECKS:
            p = theorems.REGISTRY[name]
            if p.scope == "relation" or d.der:
                p.fn(d)


def _table_stage(max_n):
    """The catalog key of every model up to size ``max_n``."""
    return list(catalog._catalog_tables(max_n))


def bench(label, fn, args, repeat):
    best = float("inf")
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        for _ in range(repeat):
            fn(*args)
        best = min(best, (time.perf_counter() - t0) / repeat)
    print(f"{label:26s} {best * 1e3:10.3f} ms")


def main():
    print(f"python {platform.python_version()}, {platform.machine()}")
    c5, c6 = _chain(5), _chain(6)
    bench("axiom_violation n=6", K.axiom_violation, (c6.sum,),
          repeat=200)
    sixes = [catalog._rows(key) for key in catalog._catalog_tables(6)
             if key[0] == 6]
    sixes = [(rows, core.automorphisms(rows)) for rows in sixes]
    bench("enumerate_tables 35 n=6", _extend_each, (sixes,), repeat=3)
    bench("_catalog_tables n<=8", _table_stage, (8,), repeat=1)
    bench("brute_exomaps n=5", K.brute_exomaps, (c5.sum, c5.leq), repeat=20)
    bench("brute_exomaps n=6", K.brute_exomaps, (c6.sum, c6.leq), repeat=20)
    c8 = _chain(8)
    bench("brute_exomaps n=8 chain", K.brute_exomaps, (c8.sum, c8.leq),
          repeat=20)
    cls = [0, 1, 1, 2, 2, 3]  # fails SK2 first
    bench("sk_plan n=6", K.sk_plan, (c6.sum, c6.diff, c6.leq), repeat=20)
    plan = K.sk_plan(c6.sum, c6.diff, c6.leq)
    bench("sk_witnesses n=6", K.sk_witnesses, (plan, cls), repeat=200)
    _, eq6 = catalog._swept_partitions(6)
    bench("sk_first_failures n=6", K.sk_first_failures, (plan, eq6),
          repeat=20)
    cube = _cube()
    _, eq8 = catalog._swept_partitions(8)
    bench("sk_first_failures n=8 cube", K.sk_first_failures,
          (cube._sk_plan, eq8), repeat=5)
    rows = core.b4().sum
    perms = list(core._candidate_perms(core._refine_colors(rows)))
    bench("min_relabel n=4", K.min_relabel, (rows, perms), repeat=500)
    bench("is_min_relabel n=4", K.is_min_relabel, (rows, perms), repeat=500)
    models = [entry.table for entry in catalog.cached_entries(6)]
    systems = [H for E in models for H in hull.enumerate_hull_systems(E)]
    bench("sup/inf n<=6", _sup_inf_each, (models,), repeat=3)
    bench("td_table n<=6", _build_each, (hull.td_table, systems), repeat=3)
    bench("is_divisible n<=6", _build_each, (hull.is_divisible, systems),
          repeat=3)
    bench("check_hull_system n<=6", _check_each, (systems,), repeat=3)
    bench("disjoint_families n<=6", _families_each, (systems,), repeat=3)
    td_largest = theorems.REGISTRY["td-largest-map"].fn
    bench("td-largest-map n<=6", _each, (td_largest, models), repeat=3)
    grid = theorems.REGISTRY["hull-grid-refinement"].fn
    bench("hull-grid-refinement n<=6", _each, (grid, models), repeat=3)
    sevens = [catalog.model(key) for key in catalog._catalog_tables(7)]
    bench("structure_predicates n<=7", _build_each,
          (core.structure_predicates, sevens), repeat=3)
    bench("all_ideals n<=7", _build_each, (core.all_ideals, sevens),
          repeat=3)
    bench("td_sets dgea n<=7", _td_sets_each, (_dgea_sets(sevens),),
          repeat=3)
    relations = [d.R for E in sevens for d in catalog.congruences(E)]
    bench("Dgea n<=7", _dgea_each, (relations,), repeat=3)
    bench("enumerate_relations n<=7", _relations_each, (sevens,), repeat=3)
    bench("build_entry n<=6", _build_entries,
          (list(catalog._catalog_tables(6)),), repeat=1)
    cube_key = core.canonical_form(cube)
    bench("build_entry n=8 cube", catalog.build_entry, (8, cube_key[1:]),
          repeat=1)
    congruences = [d.R for d in catalog.congruences(catalog.model(cube_key))]
    bench("decomposition n=8 cube", _decompose_each, (congruences,),
          repeat=1)
    bench("decomposition properties n=8 cube", _moved_checks_each,
          (congruences,), repeat=1)
    bench("record lines n<=7", _record_lines,
          (list(catalog._catalog_tables(7)),), repeat=1)
    bench("run_theorem_suite n<=5", theorems.run_theorem_suite, (5,), repeat=1)


if __name__ == "__main__":
    main()
