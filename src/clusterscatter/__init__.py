"""Exact symbolic computation for generalized cluster algebras and their
scattering diagrams: seed mutation, g-vector frames, chart variables, rank-2
order-by-order scattering completion, mutation invariance, cluster chamber
walls, broken lines, and theta functions.
"""

__version__ = "0.1.0"

from .semifield import p_plus, p_minus
from .cluster_core import (
    FixedData,
    Seed,
    GVectorFrame,
    RationalFunction,
    initial_seed,
    seed_mutate,
    matrix_mutate,
    pattern_walk,
    explore_pattern,
    seeds_equal,
    initial_g_frame,
    g_frame_mutate,
    chart_variables,
    seed_to_json,
    seed_from_json,
)

from .scattering import (
    ConsistencyReport,
    PathSpec,
    PositivityError,
    ScatteringDiagram,
    Wall,
    build_initial,
    canonical_form,
    check_consistency,
    cluster_chamber_walls,
    complete_rank2,
    diagram_to_json,
    diagram_truncate,
    diagrams_equivalent,
    path_ordered_product,
    render_svg,
    tk_invariance_check,
    tk_transform,
    wall_label,
)
from .theta import (
    BrokenLine,
    GenericityError,
    enumerate_broken_lines,
    theta,
    theta_via_transport,
)

__all__ = [
    "p_plus",
    "p_minus",
    "FixedData",
    "Seed",
    "GVectorFrame",
    "RationalFunction",
    "initial_seed",
    "seed_mutate",
    "matrix_mutate",
    "pattern_walk",
    "explore_pattern",
    "seeds_equal",
    "initial_g_frame",
    "g_frame_mutate",
    "chart_variables",
    "seed_to_json",
    "seed_from_json",
    "ConsistencyReport",
    "PathSpec",
    "PositivityError",
    "ScatteringDiagram",
    "Wall",
    "build_initial",
    "canonical_form",
    "check_consistency",
    "cluster_chamber_walls",
    "complete_rank2",
    "diagram_to_json",
    "diagram_truncate",
    "diagrams_equivalent",
    "path_ordered_product",
    "render_svg",
    "tk_invariance_check",
    "tk_transform",
    "wall_label",
    "BrokenLine",
    "GenericityError",
    "enumerate_broken_lines",
    "theta",
    "theta_via_transport",
]
