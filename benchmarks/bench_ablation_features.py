"""Ablation — feature representation (paper §3.2, DESIGN.md §5).

Four feature-engineering decisions are swept:

1. **Combination columns** — our multiplicative reading of Fig. 3's
   "combined together" (``k·f_core``, ``k·f_mem``) vs the plain 12-column
   concatenation.  Without the products a linear model can express only
   one global frequency slope.
2. **Share normalization** (paper §3.2) vs raw weighted counts.
3. **Unknown-loop trip-count default** in the extractor (1 vs 16 vs 64).
4. **Named feature recipes** (``repro.analysis.recipes``) — every
   registered recipe is trained and evaluated on the held-out suite;
   per-recipe speedup/energy MAPE lands in ``BENCH_ablation_features.json``
   alongside an identity check that the ``paper10`` recipe reproduces the
   legacy extractor bit-for-bit.
"""

import json

import numpy as np
from _common import write_artifact

from repro.analysis.recipes import registered_recipes
from repro.core.pipeline import train_from_specs
from repro.features.extractor import ExtractorConfig, FeatureExtractor
from repro.features.vector import build_design_matrix
from repro.gpusim.executor import GPUSimulator
from repro.harness.context import paper_context
from repro.harness.report import format_heading, format_table
from repro.harness.runner import measure_configs
from repro.ml.metrics import mape
from repro.suite import test_benchmarks


def _test_speedup_rmse(sim, models, settings) -> float:
    total, n = 0.0, 0
    for spec in test_benchmarks():
        static = spec.static_features()
        measured = measure_configs(sim, spec, settings)
        x = build_design_matrix(static, settings, interactions=models.interactions)
        for config, pred in zip(settings, models.predict_speedup(x)):
            total += (pred - measured[config].speedup) ** 2
            n += 1
    return float(np.sqrt(total / n))


def _suite_mape(sim, models, settings) -> tuple[float, float]:
    """(speedup MAPE %, energy MAPE %) on the held-out suite.

    Static vectors are extracted with the bundle's own recipe so the
    design-matrix width matches what the models were trained on.
    """
    pred_s, pred_e, true_s, true_e = [], [], [], []
    for spec in test_benchmarks():
        static = spec.static_features(models.feature_recipe)
        measured = measure_configs(sim, spec, settings)
        predicted = models.predict_objectives(static, settings)
        for config, (speedup, energy) in zip(settings, predicted):
            pred_s.append(speedup)
            pred_e.append(energy)
            true_s.append(measured[config].speedup)
            true_e.append(measured[config].norm_energy)
    return (
        mape(np.array(true_s), np.array(pred_s)),
        mape(np.array(true_e), np.array(pred_e)),
    )


def sweep_recipes() -> dict:
    """Train/evaluate every registered recipe; check paper10 identity.

    Returns the ``data`` payload recorded in ``BENCH_ablation_features.json``.
    """
    ctx = paper_context()
    micro = ctx.micro_benchmarks[::4]

    # Identity leg: the paper10 recipe must reproduce the legacy extractor
    # bit-for-bit — same static vectors, same serialized model state.
    legacy = FeatureExtractor()
    named = FeatureExtractor(ExtractorConfig(recipe="paper10"))
    vectors_identical = all(
        np.array_equal(
            legacy.extract(spec.source, spec.kernel_name).as_array(),
            named.extract(spec.source, spec.kernel_name).as_array(),
        )
        for spec in test_benchmarks()
    )
    sim = GPUSimulator(ctx.device)
    default_models, _ = train_from_specs(sim, micro, ctx.settings)
    explicit_models, _ = train_from_specs(
        GPUSimulator(ctx.device), micro, ctx.settings, feature_recipe="paper10"
    )
    state_identical = json.dumps(
        default_models.to_state(), sort_keys=True
    ) == json.dumps(explicit_models.to_state(), sort_keys=True)

    recipes: dict[str, dict] = {}
    for name in registered_recipes():
        sim = GPUSimulator(ctx.device)
        models, _ = train_from_specs(sim, micro, ctx.settings, feature_recipe=name)
        speedup_mape, energy_mape = _suite_mape(sim, models, ctx.settings)
        recipes[name] = {
            "speedup_mape_pct": speedup_mape,
            "energy_mape_pct": energy_mape,
            "n_features": int(models.scaler.mean_.shape[0]),
        }

    return {
        "assertions_active": True,
        "recipes": recipes,
        "paper10_matches_legacy": {
            "static_vectors": vectors_identical,
            "model_state": state_identical,
        },
        "assertions": {
            "min_recipes_swept": 3,
            "paper10_matches_legacy": True,
            "per_recipe_mape_finite": True,
        },
    }


def _recipe_table(data: dict) -> str:
    rows = [
        (name, f"{d['n_features']}", f"{d['speedup_mape_pct']:.2f}", f"{d['energy_mape_pct']:.2f}")
        for name, d in sorted(data["recipes"].items())
    ]
    return format_table(
        ["feature recipe", "columns", "speedup MAPE %", "energy MAPE %"], rows
    )


def regenerate_feature_ablation() -> str:
    ctx = paper_context()
    micro = ctx.micro_benchmarks[::2]
    rows = []
    for label, interactions in (
        ("combined k*f columns (ours)", True),
        ("plain concatenation (k, f)", False),
    ):
        sim = GPUSimulator(ctx.device)
        models, _ = train_from_specs(sim, micro, ctx.settings, interactions=interactions)
        rmse = _test_speedup_rmse(sim, models, ctx.settings)
        rows.append((label, f"{rmse:.4f}"))
    table1 = format_table(["feature layout", "test speedup RMSE"], rows)

    # Trip-count default: how far do the static features move?
    shifts = []
    base = FeatureExtractor(ExtractorConfig(default_trip_count=16))
    for tc in (1, 64):
        other = FeatureExtractor(ExtractorConfig(default_trip_count=tc))
        deltas = []
        for spec in test_benchmarks():
            a = base.extract(spec.source, spec.kernel_name).as_array()
            b = other.extract(spec.source, spec.kernel_name).as_array()
            deltas.append(float(np.abs(a - b).max()))
        shifts.append((f"trip-count default {tc} (vs 16)", f"{max(deltas):.4f}"))
    table2 = format_table(["extractor config", "max feature shift"], shifts)

    data = sweep_recipes()
    table3 = _recipe_table(data)

    text = (
        format_heading("Ablation — feature representation (§3.2)")
        + "\n"
        + table1
        + "\n\n"
        + table2
        + "\nnote: suite kernels have mostly constant loop bounds, so the"
        + "\ntrip-count default moves features little; synthetic unbounded"
        + "\nloops are where the default matters."
        + "\n\n"
        + table3
        + "\nnote: paper10 is the paper's exact layout; +blocks append"
        + "\nanalysis-pass columns (repro.analysis.recipes)."
    )
    return text, data


def test_feature_ablation(benchmark):
    text, data = benchmark.pedantic(
        regenerate_feature_ablation, rounds=1, iterations=1
    )
    write_artifact("ablation_features", text, data)
    assert "combined" in text
    # The recipe sweep must cover at least three recipes, every MAPE must
    # be finite, and the paper10 recipe must reproduce the legacy
    # extractor exactly (the default artifact byte-identity guarantee).
    assert len(data["recipes"]) >= 3
    for entry in data["recipes"].values():
        assert np.isfinite(entry["speedup_mape_pct"])
        assert np.isfinite(entry["energy_mape_pct"])
    assert data["paper10_matches_legacy"]["static_vectors"] is True
    assert data["paper10_matches_legacy"]["model_state"] is True


def test_interactions_beat_concatenation():
    """The multiplicative combination must not be worse than the plain
    concatenation for the linear speedup model."""
    ctx = paper_context()
    micro = ctx.micro_benchmarks[::3]
    sim = GPUSimulator(ctx.device)
    with_int, _ = train_from_specs(sim, micro, ctx.settings, interactions=True)
    without, _ = train_from_specs(sim, micro, ctx.settings, interactions=False)
    rmse_with = _test_speedup_rmse(sim, with_int, ctx.settings)
    rmse_without = _test_speedup_rmse(sim, without, ctx.settings)
    assert rmse_with <= rmse_without * 1.05


def test_normalized_features_scale_invariant():
    """§3.2: 'codes with the same arithmetic intensity but different
    number of total instructions will have the same feature
    representation' — check on a doubled-body kernel."""
    single = """
    __kernel void f(__global float* x) {
        x[0] = x[1] * 2.0f + 1.0f;
    }
    """
    double = """
    __kernel void f(__global float* x) {
        x[0] = x[1] * 2.0f + 1.0f;
        x[2] = x[3] * 2.0f + 1.0f;
    }
    """
    fe = FeatureExtractor()
    a = fe.extract(single).as_array()
    b = fe.extract(double).as_array()
    assert np.allclose(a, b)
