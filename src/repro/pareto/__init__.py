"""Multi-objective machinery: dominance, Pareto sets, hypervolume, extrema."""

from .algorithms import (
    pareto_points,
    pareto_set_numpy,
    pareto_set_simple,
)
from .dominance import dominates
from .extrema import (
    ExtremaDistance,
    ExtremePoints,
    extrema_distance,
    extreme_points,
)
from .hypervolume import (
    PAPER_REFERENCE_POINT,
    coverage_difference,
    hypervolume,
)

__all__ = [
    "ExtremaDistance",
    "ExtremePoints",
    "PAPER_REFERENCE_POINT",
    "coverage_difference",
    "dominates",
    "extrema_distance",
    "extreme_points",
    "hypervolume",
    "pareto_points",
    "pareto_set_numpy",
    "pareto_set_simple",
]
