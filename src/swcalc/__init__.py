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

Every exported name loads its home module on first use (PEP 562), so
``import swcalc`` imports no submodule and a program pays only for the
modules it calls. A name, once looked up, is an ordinary attribute.
"""

import importlib

__version__ = "0.1.0"

# Each submodule and the names the package exports from it. Every
# submodule listed resolves as an attribute, as ``swcalc.kahler``.
_EXPORTS = {
    "chambers": (
        "Chamber",
        "OrientationData",
        "PeriodRay",
        "classify_chamber_oriented",
        "is_c_good",
    ),
    "errors": (
        "DimensionMismatchError",
        "DomainError",
        "InvalidTopologyError",
        "ManifoldFileError",
    ),
    "extalg": ("ExtForm", "cup_form", "wall_crossing_delta", "wedge", "wedge_power"),
    "kahler": (
        "KahlerFacts",
        "SolvabilitySide",
        "SWRow",
        "abelian_solvability_side",
        "douady_nonempty",
        "sw_pg0_invariants",
        "sw_table",
        "validate_kahler_facts",
    ),
    "linalg": (),
    "manifoldfile": (
        "ManifoldData",
        "emit_manifold_text",
        "load_manifold_file",
        "parse_manifold_text",
    ),
    "stability": (
        "HilbertPoly",
        "Ordering",
        "PairProfile",
        "Stability",
        "framing_defect",
        "oriented_pair_status_rank2",
        "oriented_sheaf_semistable",
        "poly_compare",
        "rho_interval",
        "slope",
    ),
    "topology": (
        "ManifoldTopology",
        "UhlenbeckStratum",
        "c2_spinor_bundle",
        "characteristic_range",
        "expected_dim_abelian",
        "expected_dim_pu2",
        "is_characteristic",
        "require_characteristic",
        "spin_sp1_admissible",
        "spin_u2_admissible",
        "spinc_count_per_chern",
        "spinor_sup_bound",
        "triple_cup_from_entries",
        "uhlenbeck_strata",
        "validate_topology",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """An exported name or a submodule, imported on first lookup and then
    kept in the package namespace."""
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
