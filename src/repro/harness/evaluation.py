"""Pareto-set evaluation (Fig. 8 and Table 2).

For each benchmark:

* sweep the sampled frequency settings (all four memory domains) to get the
  measured point cloud and the **real Pareto front** P*;
* run the predictor to get the **predicted set** P' of configurations;
* place each predicted configuration at its *measured* objectives ("our
  predicted set may include points that, in actual measured performance,
  are not dominant each other" — §4.5), and compute the binary-hypervolume
  coverage difference D(P*, P'), the set cardinalities, and the
  extreme-point distances.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.dataset import MeasuredPoint
from ..core.predictor import ParetoPredictor, PredictedParetoSet
from ..pareto.algorithms import pareto_set_numpy
from ..pareto.extrema import ExtremaDistance, extrema_distance
from ..pareto.hypervolume import PAPER_REFERENCE_POINT, coverage_difference
from ..workloads import KernelSpec
from .runner import SweepResult, measure_configs, sweep_kernel


@dataclass(frozen=True)
class ParetoEvaluation:
    """One row of Table 2 plus the data to draw one panel of Fig. 8."""

    benchmark: str
    coverage_diff: float
    predicted_size: int
    true_size: int
    extrema: ExtremaDistance
    predicted_set: PredictedParetoSet
    predicted_measured: list[MeasuredPoint]
    true_front: list[MeasuredPoint]
    sweep: SweepResult

    def table_row(self) -> tuple[str, float, int, int, str, str]:
        """Formatted Table 2 row: name, D, |P'|, |P*|, extremes."""
        ms = self.extrema.max_speedup_delta
        me = self.extrema.min_energy_delta
        return (
            self.benchmark,
            self.coverage_diff,
            self.predicted_size,
            self.true_size,
            f"({ms[0]:.3f}, {ms[1]:.3f})",
            f"({me[0]:.3f}, {me[1]:.3f})",
        )


def evaluate_pareto_prediction(
    backend,
    predictor: ParetoPredictor,
    spec: KernelSpec,
    settings: list[tuple[float, float]],
    reference: tuple[float, float] = PAPER_REFERENCE_POINT,
) -> ParetoEvaluation:
    """Evaluate the predicted Pareto set of one benchmark against truth.

    ``backend`` is any measurement backend (or a bare ``GPUSimulator``).
    """
    sweep = sweep_kernel(backend, spec, settings)
    measured_points = sweep.points

    true_idx = pareto_set_numpy([p.objectives for p in measured_points])
    true_front = [measured_points[i] for i in true_idx]
    true_objs = sorted({p.objectives for p in true_front})

    predicted = predictor.predict_for_spec(spec)
    # Measure the predicted configurations (they may lie outside `settings`).
    pred_measured_map = measure_configs(backend, spec, predicted.configs)
    predicted_measured = [pred_measured_map[c] for c in predicted.configs]
    pred_objs = [p.objectives for p in predicted_measured]

    d_value = coverage_difference(true_objs, pred_objs, reference)
    extrema = extrema_distance(true_objs, pred_objs)

    return ParetoEvaluation(
        benchmark=spec.name,
        coverage_diff=d_value,
        predicted_size=len(pred_objs),
        true_size=len(true_objs),
        extrema=extrema,
        predicted_set=predicted,
        predicted_measured=predicted_measured,
        true_front=true_front,
        sweep=sweep,
    )


def evaluate_suite(
    backend,
    predictor: ParetoPredictor,
    specs: list[KernelSpec],
    settings: list[tuple[float, float]],
) -> list[ParetoEvaluation]:
    """Table 2 for a whole suite, sorted by coverage difference (paper order)."""
    rows = [
        evaluate_pareto_prediction(backend, predictor, spec, settings) for spec in specs
    ]
    rows.sort(key=lambda r: r.coverage_diff)
    return rows
