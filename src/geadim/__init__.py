"""Finite-model computation and verification for generalized effect
algebras equipped with dimension equivalence relations."""

from .core import (
    GeaTable,
    b4,
    build_gea,
    c3,
    canonical_form,
    interval_ea,
    is_orthodense,
    structure_predicates,
    t3,
)
from .exocenter import ExoSet, center, cogea_check, exocentral_cover
from .hull import (
    HullSystem,
    check_hull_system,
    hull_from_hd,
    is_divisible,
    is_dyad,
    is_monad,
    td_sets,
)
from .congruence import (
    EquivRel,
    SkReport,
    build_equiv,
    check_der,
    check_sk,
    decompose_pair,
    induced_hull,
    sigma_sim,
)
from .dimension import (
    Decomposition,
    Dgea,
    comparability,
    decompose_types,
    hereditary_sup,
    is_factor,
)
from .catalog import enumerate_geas, enumerate_relations, search_counterexample
from .theorems import run_theorem_suite

__version__ = "0.1.0"
