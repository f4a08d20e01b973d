"""Single-objective prediction-error analysis (Figs. 6 and 7).

For every test benchmark and sampled frequency setting we predict speedup
(and normalized energy), measure the true value on the simulator, and group
the signed relative errors by memory frequency.  Output is one
:class:`~repro.ml.metrics.GroupedErrorReport` per memory domain — exactly
one panel of Fig. 6 or Fig. 7 with its per-benchmark boxes and panel RMSE.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.pipeline import TrainedModels
from ..gpusim.device import DeviceSpec
from ..gpusim.executor import GPUSimulator
from ..ml.metrics import GroupedErrorReport
from ..workloads import KernelSpec
from .runner import measure_configs


#: Measured truths with magnitude below this are excluded from relative
#: error: dividing by a near-zero measurement (the paper's §4.2 erratic
#: low-memory-clock power states can report ~0 energy/speedup) turns one
#: noisy sample into an error of absurd magnitude that swamps every
#: aggregate, exactly like the constant-column scaler bug did pre-PR-3.
MIN_ABS_TRUTH = 1e-6


@dataclass
class ErrorAnalysis:
    """Per-memory-domain error reports for one objective.

    ``excluded`` counts (benchmark, setting) points dropped because the
    measured truth was below :data:`MIN_ABS_TRUTH` in magnitude — reported
    rather than silently absorbed, so a sweep over an erratic power state
    cannot quietly thin out a panel.
    """

    objective: str  # "speedup" or "energy"
    reports: dict[str, GroupedErrorReport]  # keyed by domain label
    excluded: int = 0  # near-zero-truth points dropped from the analysis


def prediction_errors(
    sim: GPUSimulator,
    models: TrainedModels,
    specs: list[KernelSpec],
    settings: list[tuple[float, float]],
    objective: str = "speedup",
    min_truth: float = MIN_ABS_TRUTH,
) -> ErrorAnalysis:
    """Signed relative errors (%) grouped by memory domain and benchmark.

    Follows §4.3's method: "For each application, we predicted the speedup
    value for all the sampled frequency configurations, and then we
    calculated the error after actually running that configuration."

    Points whose measured truth is below ``min_truth`` in magnitude are
    excluded (and counted in ``ErrorAnalysis.excluded``) instead of being
    divided by — pass ``min_truth=0.0`` to keep every point.
    """
    if objective not in ("speedup", "energy"):
        raise ValueError("objective must be 'speedup' or 'energy'")
    device: DeviceSpec = sim.device

    # errors[domain_label][benchmark] -> list of signed % errors
    errors: dict[str, dict[str, list[float]]] = {
        d.label: {} for d in device.domains
    }
    excluded = 0

    for spec in specs:
        # The bundle's recipe decides the static layout, as at prediction.
        static = spec.static_features(models.feature_recipe)
        measured = measure_configs(sim, spec, settings)
        speedups, energies = models.predict_objective_arrays([static], settings)
        predicted = speedups[0] if objective == "speedup" else energies[0]
        for (config, pred) in zip(settings, predicted):
            point = measured[config]
            true_value = point.speedup if objective == "speedup" else point.norm_energy
            if abs(true_value) < min_truth:
                excluded += 1
                continue
            err_pct = 100.0 * (pred - true_value) / true_value
            label = device.domain(config[1]).label
            errors[label].setdefault(spec.name, []).append(float(err_pct))

    reports = {
        label: GroupedErrorReport.build(
            group_label=label,
            errors_by_key={k: np.asarray(v) for k, v in per_bench.items()},
        )
        for label, per_bench in errors.items()
        if per_bench
    }
    return ErrorAnalysis(objective=objective, reports=reports, excluded=excluded)
