"""Ablation — training-sample size (paper §3.3's 40-setting choice).

Sweeps the number of sampled frequency settings per training code (16 …
exhaustive) and reports held-out test error on the twelve benchmarks.
Justifies the paper's sweet spot: a 40-setting sample buys nearly the
accuracy of the 70-minute exhaustive sweep at ~30% of the cost.
"""

import numpy as np
from _common import write_artifact

from repro.core.config import make_sampling_plans
from repro.core.pipeline import train_from_specs
from repro.gpusim.executor import GPUSimulator
from repro.harness.context import paper_context
from repro.harness.report import format_heading, format_table
from repro.harness.runner import measure_configs
from repro.suite import test_benchmarks


def _test_rmse(ctx_sim, models, settings) -> tuple[float, float]:
    """Held-out absolute RMSE of both models over the twelve benchmarks."""
    speed_sq, energy_sq, n = 0.0, 0.0, 0
    for spec in test_benchmarks():
        static = spec.static_features()
        measured = measure_configs(ctx_sim, spec, settings)
        (pred_s,), (pred_e,) = models.predict_objective_arrays([static], settings)
        for config, ps, pe in zip(settings, pred_s, pred_e):
            point = measured[config]
            speed_sq += (ps - point.speedup) ** 2
            energy_sq += (pe - point.norm_energy) ** 2
            n += 1
    return (np.sqrt(speed_sq / n), np.sqrt(energy_sq / n))


def regenerate_training_ablation() -> str:
    ctx = paper_context()
    # Train on a thinned micro-suite to keep the sweep affordable; the
    # *relative* effect of sample size is what this ablation measures.
    micro = ctx.micro_benchmarks[::4]
    eval_settings = ctx.settings

    plans = [
        p
        for p in make_sampling_plans(ctx.device)
        if p.name in ("sampled-16", "sampled-40", "sampled-64", "exhaustive")
    ]
    rows = []
    for plan in plans:
        sim = GPUSimulator(ctx.device)
        models, _ = train_from_specs(sim, micro, list(plan.settings))
        speed_rmse, energy_rmse = _test_rmse(sim, models, eval_settings)
        rows.append(
            (plan.name, plan.size, f"{speed_rmse:.4f}", f"{energy_rmse:.4f}")
        )
    table = format_table(
        ["plan", "settings/code", "test speedup RMSE", "test energy RMSE"], rows
    )
    return (
        format_heading("Ablation — training-sample size (§3.3)")
        + "\n"
        + table
        + "\npaper: 40 sampled settings ≈ 20 min/code; exhaustive ≈ 70 min/code"
    )


def test_training_size_ablation(benchmark):
    text = benchmark.pedantic(regenerate_training_ablation, rounds=1, iterations=1)
    write_artifact("ablation_training_size", text)
    assert "exhaustive" in text


def test_more_settings_do_not_hurt_much():
    """Accuracy at 40 settings must be close to the exhaustive sweep's
    (within 25% relative) — the paper's justification for sampling."""
    ctx = paper_context()
    micro = ctx.micro_benchmarks[::3]
    plans = {p.name: p for p in make_sampling_plans(ctx.device)}

    sim = GPUSimulator(ctx.device)
    models_40, _ = train_from_specs(sim, micro, list(plans["sampled-40"].settings))
    rmse_40 = _test_rmse(sim, models_40, ctx.settings)[0]

    models_full, _ = train_from_specs(sim, micro, list(plans["exhaustive"].settings))
    rmse_full = _test_rmse(sim, models_full, ctx.settings)[0]

    assert rmse_40 <= rmse_full * 1.25 + 0.02
