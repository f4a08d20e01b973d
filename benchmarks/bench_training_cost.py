"""§3.3 — training cost: sampled vs exhaustive sweeps, and the exact fit.

Two cost stories share this bench.  The paper's own (§3.3): "for a given
micro-benchmark, it takes 20 minutes to test 40 frequency settings, 70
minutes to test all the 174 frequency settings" — regenerated from the
paper's implied 30 s per setting.  And the reproduction's: the wall time
and training-set MAPE of the exact fit (linear speedup SVR, RBF energy
SVR) on the paper-scale 106-code x 40-setting workload, plus each
solver's own record: the energy solver's rounds, remaining KKT violation,
convergence, kernel rows computed and fit time alone, and the speedup
solver's L-BFGS iterations, convergence and fit time alone.  The timing key keeps
its historical name, ``exact_dense_fit``, though no Gram matrix is built.
Beside the fit, ``energy_predict`` records the serving-side model pass:
the energy model over the 12 suite kernels × the modeled candidates (one
``predict`` call, median ms), with the rows per block its support-vector
count gives and the slab budget (a record, not a floor).  Beside it are
the float64 one-shot expansion it replaced (the test oracle, ``oracle_ms``)
and the largest relative difference between the two (``max_rel_diff``).

Quick mode (``REPRO_BENCH_QUICK=1`` or ``REPRO_QUICK=1``) shrinks the
workload so CI's smoke step stays fast.
"""

import os
import sys
import time

import numpy as np
import pytest
from _common import REPO_ROOT, write_artifact

from repro.core.config import (
    exhaustive_settings,
    modeled_subset,
    sample_training_settings,
)
from repro.core.dataset import build_training_dataset
from repro.core.pipeline import build_batch_design_matrix, train_models
from repro.gpusim.device import make_titan_x
from repro.gpusim.executor import GPUSimulator
from repro.harness.report import format_heading, format_table
from repro.measure import SimulatorBackend
from repro.ml.svr import GRAM_BLOCK_ENTRIES, make_energy_svr, make_speedup_svr
from repro.suite import test_benchmarks as suite_kernels
from repro.synthetic import generate_micro_benchmarks

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK") or os.environ.get("REPRO_QUICK"))
#: None = the full 106-code corpus (paper scale); quick keeps CI smoke fast.
N_KERNELS = 12 if QUICK else None
N_SETTINGS = 16 if QUICK else 40
#: Hardware wall-clock per frequency setting implied by §3.3 (20 minutes
#: for 40 settings): clock switching, settling, repeats and verification.
SECONDS_PER_SETTING = 20.0 * 60.0 / 40.0
#: Timed repeats of the energy model pass (after one warm-up call).
PREDICT_REPEATS = 50


def campaign_minutes(n_settings: int) -> float:
    """Hardware wall-clock of sweeping ``n_settings`` settings (§3.3)."""
    return n_settings * SECONDS_PER_SETTING / 60.0


def regenerate_campaign_cost_table() -> tuple[str, dict]:
    """The paper's §3.3 numbers from its per-setting measurement cost."""
    device = make_titan_x()
    sampled = sample_training_settings(device)
    exhaustive = exhaustive_settings(device)
    sampled_min = campaign_minutes(len(sampled))
    exhaustive_min = campaign_minutes(len(exhaustive))
    full_hours = campaign_minutes(106 * len(sampled)) / 60.0
    rows = [
        ("sampled (paper: 40 → ~20 min)", len(sampled), f"{sampled_min:.0f} min"),
        (
            "exhaustive (paper: 174 → ~70 min)",
            len(exhaustive),
            f"{exhaustive_min:.0f} min",
        ),
        (
            "full training campaign (106 codes x 40 settings)",
            106 * len(sampled),
            f"{full_hours:.0f} h",
        ),
    ]
    table = format_table(["campaign", "settings", "wall-clock"], rows)
    data = {
        "sampled_settings": len(sampled),
        "exhaustive_settings": len(exhaustive),
        "sampled_minutes": sampled_min,
        "exhaustive_minutes": exhaustive_min,
        "full_campaign_hours": full_hours,
    }
    return format_heading("§3.3 — measurement campaign cost") + "\n" + table, data


def _mape(pred: np.ndarray, actual: np.ndarray) -> float:
    return float(np.mean(np.abs((pred - actual) / actual)))


def _oracle_predict():
    """The float64 one-shot expansion, from the tests' oracle module."""
    root = str(REPO_ROOT)
    sys.path.insert(0, root)
    try:
        from tests.ml.oracle_expansion import oracle_predict
    finally:
        sys.path.remove(root)
    return oracle_predict


def time_energy_predict(models, device) -> dict:
    """The energy model pass of serving: the suite kernels × the modeled
    candidates as one design matrix, timed as the median of repeats, beside
    the float64 oracle it replaced (timed alternately with it)."""
    candidates = modeled_subset(device, models.settings)
    statics = [spec.static_features(models.feature_recipe) for spec in suite_kernels()]
    x = models.scaler.transform(build_batch_design_matrix(statics, candidates))
    energy = models.energy_model
    oracle_predict = _oracle_predict()
    predicted, expected = energy.predict(x), oracle_predict(energy, x)
    times, oracle_times = [], []
    for _ in range(PREDICT_REPEATS):
        start = time.perf_counter()
        energy.predict(x)
        times.append(time.perf_counter() - start)
        start = time.perf_counter()
        oracle_predict(energy, x)
        oracle_times.append(time.perf_counter() - start)
    return {
        "kernels": len(statics),
        "candidates": len(candidates),
        "rows": x.shape[0],
        "ms": float(np.median(times)) * 1e3,
        "oracle_ms": float(np.median(oracle_times)) * 1e3,
        "max_rel_diff": float(np.max(np.abs(predicted - expected) / np.abs(expected))),
        "block_rows": energy.block_rows,
        "slab_entries": GRAM_BLOCK_ENTRIES,
    }


_CACHE: dict = {}


def measure_training_cost() -> dict:
    """One shared measurement pass for every test in this module: build
    the dataset, fit both models once, and score them on their own rows."""
    if _CACHE:
        return _CACHE["result"]

    device = make_titan_x()
    backend = SimulatorBackend(device)
    specs = generate_micro_benchmarks()
    if N_KERNELS is not None:
        specs = specs[:N_KERNELS]
    settings = sample_training_settings(device, total=N_SETTINGS)

    start = time.perf_counter()
    dataset = build_training_dataset(backend, specs, settings)
    t_measure = time.perf_counter() - start
    start = time.perf_counter()
    models = train_models(dataset, settings=settings)
    t_fit = time.perf_counter() - start
    # Each fit alone, timed on a refit of the same scaled rows; neither
    # solver has an RNG, so each refit is the shipped model bit for bit.
    x_scaled = models.scaler.transform(dataset.x)
    start = time.perf_counter()
    speedup = make_speedup_svr().fit(x_scaled, dataset.y_speedup)
    t_speedup = time.perf_counter() - start
    assert np.array_equal(speedup.coef_, models.speedup_model.coef_)
    start = time.perf_counter()
    energy = make_energy_svr().fit(x_scaled, dataset.y_energy)
    t_energy = time.perf_counter() - start
    assert np.array_equal(energy.beta_, models.energy_model.beta_)

    result = {
        "n_kernels": len(specs),
        "n_settings": len(settings),
        "rows": dataset.n_samples,
        "timings_s": {
            "measure": t_measure,
            "exact_dense_fit": t_fit,
        },
        "energy_solver": {
            "iterations": energy.iterations_,
            "kkt_violation": energy.kkt_violation_,
            "converged": energy.converged_,
            "rows_computed": energy.rows_computed_,
            "active_size": energy.active_size_,
            "full_checks": energy.full_checks_,
            "n_support": energy.n_support_,
            "fit_s": t_energy,
        },
        "speedup_solver": {
            "iterations": speedup.iterations_,
            "converged": speedup.converged_,
            "fit_s": t_speedup,
        },
        "energy_predict": time_energy_predict(models, device),
        "model_error": {
            "exact_energy_mape": _mape(energy.predict(x_scaled), dataset.y_energy),
            "exact_speedup_mape": _mape(
                speedup.predict(x_scaled), dataset.y_speedup
            ),
        },
    }
    _CACHE["result"] = result
    return result


def regenerate_training_cost() -> tuple[str, dict]:
    cost_text, cost_data = regenerate_campaign_cost_table()
    m = measure_training_cost()
    t = m["timings_s"]
    err = m["model_error"]
    fit_table = format_table(
        ["stage", "rows", "ms"],
        [
            ("measure + assemble", str(m["rows"]), f"{t['measure'] * 1e3:9.1f}"),
            ("exact fit (both models)", str(m["rows"]), f"{t['exact_dense_fit'] * 1e3:9.1f}"),
        ],
    )
    solver = m["energy_solver"]
    speedup = m["speedup_solver"]
    predict = m["energy_predict"]
    text = (
        cost_text
        + "\n\n"
        + format_heading(
            f"training cost — {m['n_kernels']} codes x {m['n_settings']} settings"
        )
        + "\n"
        + fit_table
        + f"\ntraining-set MAPE: speedup {err['exact_speedup_mape'] * 100:.2f}%, "
        + f"energy {err['exact_energy_mape'] * 100:.2f}%"
        + f"\nenergy solver: {solver['iterations']} rounds, KKT violation "
        + f"{solver['kkt_violation']:.2e} (converged: {solver['converged']}), "
        + f"{solver['rows_computed']} of {m['rows']} kernel rows, "
        + f"{solver['active_size']} active at the end, "
        + f"{solver['full_checks']} full-gradient checks, "
        + f"{solver['fit_s'] * 1e3:.1f} ms"
        + f"\nspeedup solver: {speedup['iterations']} L-BFGS iterations "
        + f"(converged: {speedup['converged']}), {speedup['fit_s'] * 1e3:.1f} ms"
        + f"\nenergy predict: {predict['kernels']} kernels x "
        + f"{predict['candidates']} candidates, {predict['ms']:.2f} ms "
        + f"({predict['block_rows']} rows per block against "
        + f"{solver['n_support']} support vectors, "
        + f"{predict['slab_entries']}-entry slabs); float64 one-shot oracle "
        + f"{predict['oracle_ms']:.2f} ms, largest relative difference "
        + f"{predict['max_rel_diff']:.1e}"
    )
    data = {"quick": QUICK, "campaign_cost": cost_data, **m}
    return text, data


def test_training_cost():
    text, data = regenerate_training_cost()
    write_artifact("training_cost", text, data=data)
    assert "20 min" in text
    assert data["timings_s"]["exact_dense_fit"] > 0.0
    assert data["model_error"]["exact_energy_mape"] > 0.0
    assert data["energy_solver"]["converged"] is True
    assert data["energy_solver"]["rows_computed"] < data["rows"]
    assert 0 < data["energy_solver"]["active_size"] <= data["rows"]
    assert data["speedup_solver"]["converged"] is True


def test_sampled_sweep_simulated(benchmark):
    """Benchmark the simulated 40-setting sweep of one micro-benchmark:
    one ``sweep_batch`` call, which is what ``SimulatorBackend`` runs."""
    device = make_titan_x()
    sim = GPUSimulator(device)
    spec = generate_micro_benchmarks()[0]
    profile = spec.profile()
    settings = sample_training_settings(device)
    batch = benchmark(sim.sweep_batch, profile, settings)
    assert len(batch) == 40


def test_exhaustive_sweep_simulated(benchmark):
    device = make_titan_x()
    sim = GPUSimulator(device)
    spec = generate_micro_benchmarks()[0]
    profile = spec.profile()
    settings = exhaustive_settings(device)
    batch = benchmark(sim.sweep_batch, profile, settings)
    assert len(batch) == len(settings)


def test_exhaustive_costs_more_than_sampled():
    device = make_titan_x()
    sampled_min = campaign_minutes(len(sample_training_settings(device)))
    exhaustive_min = campaign_minutes(len(exhaustive_settings(device)))
    assert exhaustive_min > 2.0 * sampled_min
    assert sampled_min == pytest.approx(20.0)
