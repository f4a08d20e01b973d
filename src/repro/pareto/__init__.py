"""Multi-objective machinery: dominance, Pareto sets, hypervolume, extrema."""

from .algorithms import (
    pareto_points,
    pareto_set_brute,
    pareto_set_numpy,
    pareto_set_simple,
)
from .dominance import (
    dominates,
    incomparable,
    is_pareto_optimal,
    weakly_dominates,
)
from .extrema import (
    ExtremaDistance,
    ExtremePoints,
    extrema_distance,
    extreme_points,
)
from .front import ConfigFront, ConfigPoint
from .hypervolume import (
    PAPER_REFERENCE_POINT,
    coverage_difference,
    hypervolume,
    relative_coverage,
)

__all__ = [
    "ConfigFront",
    "ConfigPoint",
    "ExtremaDistance",
    "ExtremePoints",
    "PAPER_REFERENCE_POINT",
    "coverage_difference",
    "dominates",
    "extrema_distance",
    "extreme_points",
    "hypervolume",
    "incomparable",
    "is_pareto_optimal",
    "pareto_points",
    "pareto_set_brute",
    "pareto_set_numpy",
    "pareto_set_simple",
    "relative_coverage",
    "weakly_dominates",
]
