"""Exact classification of singular points on tropical surfaces in R^3."""

from __future__ import annotations

from .catalogs import NoMatch, NormalizedForm, normalize
from .engine import (
    Certificate,
    LiftReject,
    Refusal,
    SingularityReport,
    classify,
    eq_b114_distance,
    is_generic,
    lift_check,
    lineality_vector,
    oracle_singular_points,
    shifted_heights,
    singular_family,
)
from .lattice import (
    CircuitType,
    NotACircuit,
    UnimodularMap,
    classify_circuit,
    convex_hull,
    lattice_points,
    lattice_volume,
    radon_partition,
)
from .matroid import (
    ChainsCase,
    ChainsReject,
    chains_case,
    enumerate_flags_of_flats,
    flag_of_subsets,
    gale_dual,
    is_defective,
)
from .subdivision import (
    Circuit,
    InvalidConfig,
    MarkedCell,
    NotCodimOne,
    PointConfig,
    extract_circuit,
    is_maximal_dimensional_type,
    regular_subdivision,
)
from .surface import (
    build_complex,
    render_off,
    tropical_eval,
    vertex_multiplicity,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "ChainsCase",
    "ChainsReject",
    "Circuit",
    "CircuitType",
    "InvalidConfig",
    "LiftReject",
    "MarkedCell",
    "NoMatch",
    "NormalizedForm",
    "NotACircuit",
    "NotCodimOne",
    "PointConfig",
    "Refusal",
    "SingularityReport",
    "UnimodularMap",
    "build_complex",
    "chains_case",
    "classify",
    "classify_circuit",
    "convex_hull",
    "enumerate_flags_of_flats",
    "eq_b114_distance",
    "extract_circuit",
    "flag_of_subsets",
    "gale_dual",
    "is_defective",
    "is_generic",
    "is_maximal_dimensional_type",
    "lattice_points",
    "lattice_volume",
    "lift_check",
    "lineality_vector",
    "normalize",
    "oracle_singular_points",
    "radon_partition",
    "regular_subdivision",
    "render_off",
    "shifted_heights",
    "singular_family",
    "tropical_eval",
    "vertex_multiplicity",
]
