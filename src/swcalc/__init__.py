"""Exact-arithmetic Seiberg-Witten invariant bookkeeping for closed
oriented 4-manifolds.

The package computes, from purely topological and complex-geometric
input: expected moduli dimensions, Spin-structure admissibility sets,
chamber classification for bplus = 1, the universal wall-crossing
difference in the integer exterior algebra on H^1, full invariant
tables for positive-scalar-curvature and Kahler p_g = 0 inputs,
ideal-monopole strata, and the stability predicates for oriented sheaf
pairs. Every computation is exact; there is no floating point anywhere.

All types are immutable after construction and all operations are pure
functions, so values can be shared freely across threads.
"""

from .chambers import (
    Chamber,
    OrientationData,
    PeriodRay,
    classify_chamber_oriented,
    is_c_good,
)
from .errors import (
    DimensionMismatchError,
    DomainError,
    InvalidTopologyError,
    ManifoldFileError,
)
from .extalg import ExtForm, cup_form, wall_crossing_delta, wedge, wedge_power
from .kahler import (
    KahlerFacts,
    SolvabilitySide,
    SWRow,
    abelian_solvability_side,
    douady_nonempty,
    sw_pg0_invariants,
    sw_table,
    validate_kahler_facts,
)
from .manifoldfile import (
    ManifoldData,
    emit_manifold_text,
    load_manifold_file,
    parse_manifold_text,
)
from .stability import (
    HilbertPoly,
    Ordering,
    PairProfile,
    Stability,
    framing_defect,
    oriented_pair_status_rank2,
    oriented_sheaf_semistable,
    poly_compare,
    rho_interval,
    slope,
)
from .topology import (
    ManifoldTopology,
    UhlenbeckStratum,
    c2_spinor_bundle,
    characteristic_range,
    expected_dim_abelian,
    expected_dim_pu2,
    is_characteristic,
    require_characteristic,
    spin_sp1_admissible,
    spin_u2_admissible,
    spinc_count_per_chern,
    spinor_sup_bound,
    triple_cup_from_entries,
    uhlenbeck_strata,
    validate_topology,
)

__version__ = "0.1.0"

__all__ = [
    "Chamber",
    "DimensionMismatchError",
    "DomainError",
    "ExtForm",
    "HilbertPoly",
    "InvalidTopologyError",
    "KahlerFacts",
    "ManifoldData",
    "ManifoldFileError",
    "ManifoldTopology",
    "Ordering",
    "OrientationData",
    "PairProfile",
    "PeriodRay",
    "SWRow",
    "SolvabilitySide",
    "Stability",
    "UhlenbeckStratum",
    "abelian_solvability_side",
    "c2_spinor_bundle",
    "characteristic_range",
    "classify_chamber_oriented",
    "cup_form",
    "douady_nonempty",
    "emit_manifold_text",
    "expected_dim_abelian",
    "expected_dim_pu2",
    "framing_defect",
    "is_c_good",
    "is_characteristic",
    "load_manifold_file",
    "oriented_pair_status_rank2",
    "oriented_sheaf_semistable",
    "parse_manifold_text",
    "poly_compare",
    "require_characteristic",
    "rho_interval",
    "slope",
    "spin_sp1_admissible",
    "spin_u2_admissible",
    "spinc_count_per_chern",
    "spinor_sup_bound",
    "sw_pg0_invariants",
    "sw_table",
    "triple_cup_from_entries",
    "uhlenbeck_strata",
    "validate_kahler_facts",
    "validate_topology",
    "wall_crossing_delta",
    "wedge",
    "wedge_power",
]
