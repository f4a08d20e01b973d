"""§3.3 — training cost: sampled vs exhaustive sweeps, scratch vs incremental.

Two cost stories share this bench.  The paper's own (§3.3): "for a given
micro-benchmark, it takes 20 minutes to test 40 frequency settings, 70
minutes to test all the 174 frequency settings" — regenerated from the
paper's implied 30 s per setting.  And the reproduction's: once a campaign
trace exists, *retraining* should not cost a full rebuild.  The streaming
trainer (``repro.core.incremental``) persists O(d²) normal-equation
accumulators keyed to a trace prefix, so when the trace merely grew the
retrain consumes only the appended records.  This bench measures that —
scratch-vs-incremental wall time on an append scenario at paper scale —
plus the accuracy cost of the streaming stack's random-Fourier energy
model against the exact-RBF dense path.

Quick mode (``REPRO_BENCH_QUICK=1`` or ``REPRO_QUICK=1``) shrinks the
trace so CI's smoke step stays fast; the ≥5× incremental bar is only
asserted at paper scale, where fixed solve costs no longer dominate (the
``assertions_active`` block in the JSON records which bars were enforced).
"""

import os
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from _common import write_artifact

from repro.core.config import exhaustive_settings, sample_training_settings
from repro.core.dataset import build_training_dataset, iter_kernel_measurements
from repro.core.incremental import train_streaming_from_trace
from repro.core.pipeline import train_models
from repro.gpusim.device import make_titan_x
from repro.gpusim.executor import GPUSimulator
from repro.harness.report import format_heading, format_table
from repro.measure import SimulatorBackend
from repro.measure.trace import TraceWriter
from repro.synthetic import generate_micro_benchmarks

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK") or os.environ.get("REPRO_QUICK"))
#: None = the full 106-code corpus (paper scale); quick keeps CI smoke fast.
N_KERNELS = 12 if QUICK else None
N_SETTINGS = 16 if QUICK else 40
#: Kernels appended after the base fit — the campaign's "trace grew" delta.
N_DELTA = 2 if QUICK else 4
BATCH_ROWS = 512 if QUICK else 4096
#: The acceptance bar: delta-fitting an append must beat a scratch rebuild
#: of the grown trace by this much.  Only meaningful at paper scale — at
#: quick sizes the fixed model-solve cost dominates both sides.
MIN_INCREMENTAL_SPEEDUP = 5.0
#: Random-Fourier energy model may cost at most this much training-set
#: MAPE over the exact-RBF dense path (absolute, e.g. 0.05 = 5 points).
MAX_RFF_MAPE_DELTA = 0.05
#: Hardware wall-clock per frequency setting implied by §3.3 (20 minutes
#: for 40 settings): clock switching, settling, repeats and verification.
SECONDS_PER_SETTING = 20.0 * 60.0 / 40.0


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


def _record(writer_path: Path, backend, specs, settings, append: bool) -> float:
    writer = TraceWriter(writer_path, device=backend.device.name, append=append)
    start = time.perf_counter()
    try:
        for _spec, _static, measurements in iter_kernel_measurements(
            backend, specs, settings
        ):
            writer.write_measurements(measurements)
    finally:
        writer.close(success=True)
    return time.perf_counter() - start


#: Wall-clock repeats for the timed fits (best-of, like the throughput
#: bench): the incremental fit is milliseconds, so a single sample would
#: be timer-noise-limited.
FIT_REPEATS = 1 if QUICK else 3


def _best_of(fn, repeats=FIT_REPEATS):
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


_CACHE: dict = {}


def measure_training_cost() -> dict:
    """One shared measurement pass for every test in this module.

    Scenario: record a base trace, scratch-fit it (streaming), append
    ``N_DELTA`` kernels, then retrain both ways — scratch over the grown
    trace vs delta-fit from the persisted accumulator state — and compare
    the streaming bundle's accuracy against the exact dense path.
    """
    if _CACHE:
        return _CACHE["result"]

    device = make_titan_x()
    backend = SimulatorBackend(device)
    specs = generate_micro_benchmarks()
    if N_KERNELS is not None:
        specs = specs[:N_KERNELS]
    settings = sample_training_settings(device, total=N_SETTINGS)
    base, delta = specs[:-N_DELTA], specs[-N_DELTA:]

    with tempfile.TemporaryDirectory(prefix="repro-bench-train-") as tmp:
        trace = Path(tmp) / "trace.jsonl"
        t_measure_base = _record(trace, backend, base, settings, append=False)

        t_scratch_base, scratch = _best_of(
            lambda: train_streaming_from_trace(
                trace, specs, settings, batch_rows=BATCH_ROWS
            )
        )

        t_measure_delta = _record(trace, backend, delta, settings, append=True)

        t_scratch_ext, scratch_ext = _best_of(
            lambda: train_streaming_from_trace(
                trace, specs, settings, batch_rows=BATCH_ROWS
            )
        )

        t_incremental, incremental = _best_of(
            lambda: train_streaming_from_trace(
                trace,
                specs,
                settings,
                batch_rows=BATCH_ROWS,
                prior_state=scratch.state,
            )
        )

    # The exact dense path over the same grown workload: in-memory design
    # matrix, batch scaler, exact-RBF energy model.
    dataset = build_training_dataset(backend, specs, settings)
    t_exact_fit, exact = _best_of(
        lambda: train_models(dataset, settings=settings), repeats=1
    )

    streaming_models = incremental.models
    errors = {
        "exact_energy_mape": _mape(exact.predict_energy(dataset.x), dataset.y_energy),
        "rff_energy_mape": _mape(
            streaming_models.predict_energy(dataset.x), dataset.y_energy
        ),
        "exact_speedup_mape": _mape(
            exact.predict_speedup(dataset.x), dataset.y_speedup
        ),
        "streaming_speedup_mape": _mape(
            streaming_models.predict_speedup(dataset.x), dataset.y_speedup
        ),
    }
    errors["rff_energy_mape_delta"] = (
        errors["rff_energy_mape"] - errors["exact_energy_mape"]
    )

    result = {
        "n_kernels": len(specs),
        "n_base_kernels": len(base),
        "n_delta_kernels": len(delta),
        "n_settings": len(settings),
        "rows_base": len(base) * len(settings),
        "rows_extended": len(specs) * len(settings),
        "batch_rows": BATCH_ROWS,
        "timings_s": {
            "measure_base": t_measure_base,
            "measure_delta": t_measure_delta,
            "scratch_fit_base": t_scratch_base,
            "scratch_fit_extended": t_scratch_ext,
            "incremental_fit_extended": t_incremental,
            "exact_dense_fit_extended": t_exact_fit,
        },
        "ratios": {
            "incremental_speedup": t_scratch_ext / t_incremental,
        },
        "model_error": errors,
        "incremental": {
            "mode": incremental.mode,
            "delta_records": incremental.delta_records,
            "scratch_mode": scratch.mode,
            "scratch_ext_mode": scratch_ext.mode,
        },
    }
    _CACHE["result"] = result
    return result


def regenerate_training_cost() -> tuple[str, dict]:
    cost_text, cost_data = regenerate_campaign_cost_table()
    m = measure_training_cost()
    t = m["timings_s"]
    speedup = m["ratios"]["incremental_speedup"]
    err = m["model_error"]
    rows = [
        (
            "streaming scratch (base trace)",
            f"{m['rows_base']}",
            f"{t['scratch_fit_base'] * 1e3:9.1f}",
            "-",
        ),
        (
            "streaming scratch (grown trace)",
            f"{m['rows_extended']}",
            f"{t['scratch_fit_extended'] * 1e3:9.1f}",
            "1.0x",
        ),
        (
            f"incremental delta-fit (+{m['n_delta_kernels']} kernels)",
            f"{m['rows_extended']}",
            f"{t['incremental_fit_extended'] * 1e3:9.1f}",
            f"{speedup:.1f}x",
        ),
        (
            "exact dense fit (grown trace)",
            f"{m['rows_extended']}",
            f"{t['exact_dense_fit_extended'] * 1e3:9.1f}",
            "-",
        ),
    ]
    retrain_table = format_table(["retrain path", "rows", "ms / fit", "speedup"], rows)
    text = (
        cost_text
        + "\n\n"
        + format_heading(
            f"retraining cost — {m['n_kernels']} codes x {m['n_settings']} "
            f"settings, append of {m['n_delta_kernels']} kernels"
        )
        + "\n"
        + retrain_table
        + f"\nincremental retrain consumed {m['incremental']['delta_records']} "
        + f"delta record(s) in mode {m['incremental']['mode']!r}"
        + f"\nenergy MAPE: exact RBF {err['exact_energy_mape'] * 100:.2f}% vs "
        + f"random-Fourier {err['rff_energy_mape'] * 100:.2f}% "
        + f"(delta {err['rff_energy_mape_delta'] * 100:+.2f} points)"
        + f"\nspeedup MAPE: exact {err['exact_speedup_mape'] * 100:.2f}% vs "
        + f"streaming {err['streaming_speedup_mape'] * 100:.2f}%"
    )
    data = {
        "quick": QUICK,
        "campaign_cost": cost_data,
        **m,
        "asserted": {
            "incremental_speedup_min": MIN_INCREMENTAL_SPEEDUP,
            "rff_energy_mape_delta_max": MAX_RFF_MAPE_DELTA,
        },
        "assertions_active": {
            # Quick traces are too small for the wall-clock bar: fixed
            # solve costs dominate, so the ratio is recorded but unasserted.
            "incremental_speedup": not QUICK,
            "rff_energy_mape_delta": True,
        },
    }
    return text, data


def test_training_cost():
    text, data = regenerate_training_cost()
    write_artifact("training_cost", text, data=data)
    assert "20 min" in text
    assert data["timings_s"]["incremental_fit_extended"] > 0.0
    assert data["model_error"]["rff_energy_mape"] > 0.0


def test_incremental_retrain_consumes_only_delta():
    m = measure_training_cost()
    assert m["incremental"]["mode"] == "incremental"
    assert m["incremental"]["delta_records"] == m["n_delta_kernels"]
    assert m["incremental"]["scratch_mode"] == "scratch"
    assert m["incremental"]["scratch_ext_mode"] == "scratch"


def test_rff_energy_model_close_to_exact():
    m = measure_training_cost()
    assert m["model_error"]["rff_energy_mape_delta"] <= MAX_RFF_MAPE_DELTA, (
        m["model_error"]
    )


@pytest.mark.skipif(
    QUICK, reason="quick traces are solve-dominated; the bar needs paper scale"
)
def test_incremental_at_least_5x_faster_than_scratch():
    m = measure_training_cost()
    assert m["ratios"]["incremental_speedup"] >= MIN_INCREMENTAL_SPEEDUP, (
        m["ratios"],
        m["timings_s"],
    )


def test_sampled_sweep_simulated(benchmark):
    """Benchmark the simulated 40-setting sweep of one micro-benchmark."""
    device = make_titan_x()
    sim = GPUSimulator(device)
    spec = generate_micro_benchmarks()[0]
    profile = spec.profile()
    settings = sample_training_settings(device)

    def sweep():
        return [sim.run_at(profile, c, m) for c, m in settings]

    records = benchmark(sweep)
    assert len(records) == 40


def test_exhaustive_sweep_simulated(benchmark):
    device = make_titan_x()
    sim = GPUSimulator(device)
    spec = generate_micro_benchmarks()[0]
    profile = spec.profile()
    settings = exhaustive_settings(device)

    def sweep():
        return [sim.run_at(profile, c, m) for c, m in settings]

    records = benchmark(sweep)
    assert len(records) == len(settings)


def test_exhaustive_costs_more_than_sampled():
    device = make_titan_x()
    sampled_min = campaign_minutes(len(sample_training_settings(device)))
    exhaustive_min = campaign_minutes(len(exhaustive_settings(device)))
    assert exhaustive_min > 2.0 * sampled_min
    assert sampled_min == pytest.approx(20.0)
