"""Measurement-engine throughput: per-point loop vs vectorized vs campaign.

The paper's experimental backbone is "run every code at every sampled
(core, mem) setting" — 106 codes × 40 settings = 4240 measurements per
training pass.  Two engine generations are measured here:

* **vectorized** — :meth:`GPUSimulator.sweep_batch` behind
  :class:`SimulatorBackend` measures each kernel's settings in one numpy
  pass (≥10× over the scalar baseline — one batch of one per point —
  and bit-identical to it);
* **campaign mode** — :class:`DevicePool` fans the kernel sweeps across
  worker processes on top of the vectorized engine (features extracted
  worker-side) and a :class:`DatasetAssembler` folds them in task order,
  the way ``repro campaign`` sweeps a device.  Also bit-identical (the noise is
  counter-based, never call-order-based); the wall-clock win scales with
  available cores, asserted ≥2× at 4 workers on machines with ≥4 CPUs.

Quick mode (``REPRO_BENCH_QUICK=1`` or ``REPRO_QUICK=1``) shrinks the
workload so CI's smoke step stays fast.
"""

import os
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from _common import write_artifact

from repro.analysis.recipes import DEFAULT_RECIPE
from repro.campaign import CampaignPlan, run_campaign
from repro.core.config import sample_training_settings
from repro.core.dataset import (
    DatasetAssembler,
    TrainingDataset,
    build_training_dataset,
)
from repro.features.vector import build_design_matrix
from repro.gpusim.executor import GPUSimulator
from repro.harness.report import format_heading, format_table
from repro.measure import (
    DevicePool,
    RecordingBackend,
    ReplayBackend,
    SimulatorBackend,
    compact_trace,
)
from repro.synthetic import generate_micro_benchmarks

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK") or os.environ.get("REPRO_QUICK"))
N_SPECS = 8 if QUICK else 30
N_SETTINGS = 16 if QUICK else 40
REPEATS = 1 if QUICK else 3
#: At quick-mode sizes fixed per-spec costs (baseline run, feature reuse)
#: dominate the 16-setting batches, so the bar is lower there; the paper-
#: scale workload must clear 10x.
MIN_SPEEDUP = 5.0 if QUICK else 10.0

#: Campaign-mode fan-out width (the acceptance setup: 4 workers).
CAMPAIGN_WORKERS = 4
#: Whole-campaign comparison: interleaved scheduler vs sequential legs.
CAMPAIGN_DEVICES = ("titan-x", "tesla-p100")
#: The scheduler's bar: one shared pool + overlapped training must beat
#: one-pool-per-leg sequential execution by this much at 4 workers.
MIN_INTERLEAVE_SPEEDUP = 1.5
#: The parallel win is physical — it needs the cores to exist.  CI smoke
#: runners and 1-core containers still *run* campaign mode (and verify
#: bit-identity); only the wall-clock assertion requires ≥4 CPUs.
HAVE_CAMPAIGN_CORES = (os.cpu_count() or 1) >= CAMPAIGN_WORKERS
MIN_CAMPAIGN_SPEEDUP = 2.0

#: replay-columnar mode: serving a recorded sweep off the memory-mapped v3
#: sidecar must beat cold JSONL replay (scan + per-kernel JSON decode) by
#: this much at paper scale.  Quick mode records the ratio unasserted —
#: at 8 kernels the constant costs drown the per-row win.
MIN_REPLAY_COLUMNAR_SPEEDUP = 5.0


def _workload():
    specs = generate_micro_benchmarks()[:N_SPECS]
    device = GPUSimulator().device
    settings = sample_training_settings(device, total=N_SETTINGS)
    return specs, settings


def scalar_build_training_dataset(sim, specs, settings) -> TrainingDataset:
    """The per-point assembly: one M=1 ``sweep_batch`` call per point.

    Kept here as the benchmark baseline (and as an executable spec of what
    one batch per kernel must reproduce bit-for-bit: a row never depends
    on its batch-mates).
    """
    blocks, speedups, energies, groups, feats = [], [], [], [], {}
    for spec in specs:
        static = spec.static_features()
        feats[spec.name] = static
        profile = spec.profile()
        baseline = sim.run_default(profile)
        blocks.append(build_design_matrix(static, settings))
        for core, mem in settings:
            record = sim.sweep_batch(profile, [(core, mem)]).record(0)
            speedups.append(baseline.time_ms / record.time_ms)
            energies.append(record.energy_j / baseline.energy_j)
            groups.append(spec.name)
    return TrainingDataset(
        x=np.vstack(blocks),
        y_speedup=np.asarray(speedups),
        y_energy=np.asarray(energies),
        groups=groups,
        static_features=feats,
    )


def _best_of(fn, repeats=REPEATS):
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def measure_assembly():
    """(scalar seconds, vectorized seconds, datasets) for one training pass."""
    specs, settings = _workload()
    sim = GPUSimulator()
    backend = SimulatorBackend(sim=sim)

    backend.measure(specs[0], settings[:2])  # warm numpy/frontend paths
    t_scalar, ds_scalar = _best_of(
        lambda: scalar_build_training_dataset(sim, specs, settings)
    )
    t_vector, ds_vector = _best_of(
        lambda: build_training_dataset(backend, specs, settings)
    )
    return t_scalar, t_vector, ds_scalar, ds_vector


def pooled_training_dataset(pool, specs, settings) -> TrainingDataset:
    """The scheduler's shape: one sweep task per kernel on the pool, folded
    in task order by a :class:`DatasetAssembler`."""
    device_name = GPUSimulator().device.name
    tasks = [(device_name, spec, settings, DEFAULT_RECIPE) for spec in specs]
    assembler = DatasetAssembler(settings)
    for spec, (measurements, static, _seconds) in zip(
        specs, pool.imap_sweeps(tasks)
    ):
        assembler.add(spec, static, measurements)
    return assembler.finish()


def measure_campaign(workers: int = CAMPAIGN_WORKERS, baseline=None):
    """(serial seconds, campaign seconds, datasets) for the multi-kernel sweep.

    Serial is the vectorized single-process backend; campaign fans the same
    kernel list over ``workers`` processes (feature extraction included),
    exactly as ``repro campaign --workers N`` drives a device sweep.
    ``baseline=(seconds, dataset)`` reuses an already-timed serial pass
    instead of re-running one.
    """
    specs, settings = _workload()
    if baseline is None:
        serial_backend = SimulatorBackend()
        serial_backend.measure(specs[0], settings[:2])  # warm paths
        baseline = _best_of(
            lambda: build_training_dataset(serial_backend, specs, settings)
        )
    t_serial, ds_serial = baseline
    with DevicePool(workers=workers) as pool:
        # Warm the pool: workers spawn and build their device backends.
        pooled_training_dataset(pool, specs, settings[:2])
        t_campaign, ds_campaign = _best_of(
            lambda: pooled_training_dataset(pool, specs, settings)
        )
    return t_serial, t_campaign, ds_serial, ds_campaign


def measure_interleaved_campaign(workers: int = CAMPAIGN_WORKERS, repeats: int = 1):
    """(sequential-legs seconds, interleaved seconds, identical?) for a
    whole two-device campaign — sweeps, training, trace + model registry.

    The sequential baseline is PR 3's shape: one single-device
    ``run_campaign`` per device, each standing up its own pool and
    training while the pool idles.  The interleaved run is one two-device
    plan on the shared scheduler.  Every repetition uses fresh stores so
    the model-reuse fast path can never flatter either side; bit-identity
    of the registered artifacts is checked on the last repetition.
    """
    t_seq = t_int = float("inf")
    identical = False
    for _ in range(repeats):
        with tempfile.TemporaryDirectory() as tmp:
            seq_store, int_store = Path(tmp, "seq"), Path(tmp, "int")
            start = time.perf_counter()
            seq_results = []
            for device in CAMPAIGN_DEVICES:
                plan = CampaignPlan(
                    devices=(device,), recipe="quick", workers=workers
                )
                seq_results.extend(run_campaign(plan, seq_store).results)
            t_seq = min(t_seq, time.perf_counter() - start)

            plan = CampaignPlan(
                devices=CAMPAIGN_DEVICES, recipe="quick", workers=workers
            )
            start = time.perf_counter()
            report = run_campaign(plan, int_store)
            t_int = min(t_int, time.perf_counter() - start)

            identical = all(
                a.trace_path.read_bytes() == b.trace_path.read_bytes()
                and a.model_path.read_bytes() == b.model_path.read_bytes()
                for a, b in zip(seq_results, report.results)
            )
    return t_seq, t_int, identical


def measure_replay_columnar():
    """Replay-mode sweep service, JSONL vs memory-mapped columnar sidecar.

    One trace is recorded at workload scale, then served four ways:
    cold (fresh :class:`ReplayBackend` plus one full pass over every
    kernel — what ``repro train --backend replay`` pays) and warm (a
    second pass on the same backend, LRU/mmap already primed), for each
    of the v2 JSONL path and the v3 columnar sidecar.  Returns
    ``(timings, identical)`` where ``timings`` maps
    ``jsonl_cold/jsonl_warm/columnar_cold/columnar_warm`` to best-of
    seconds and ``identical`` is bit-identity of the fully assembled
    training datasets (checked on every run, quick or not).

    Unlike the simulator benches (whose scalar baseline caps ``_workload``
    at 30 codes), replay is cheap enough to time at full paper
    scale — all 106 codes — which is exactly where the JSONL decode cost
    and the LRU bound bite.
    """
    if QUICK:
        specs, settings = _workload()
    else:
        specs = generate_micro_benchmarks()
        settings = sample_training_settings(
            GPUSimulator().device, total=N_SETTINGS
        )
    with tempfile.TemporaryDirectory(prefix="repro-bench-replay-") as tmp:
        trace_path = Path(tmp) / "bench.jsonl"
        recorder = RecordingBackend(SimulatorBackend())
        for spec in specs:
            recorder.measure(spec, settings)
        recorder.save(trace_path)

        def passes(prefer: bool):
            def cold():
                backend = ReplayBackend(trace_path, prefer_columnar=prefer)
                for spec in specs:
                    backend.measure(spec, settings)
                return backend

            t_cold, backend = _best_of(cold)

            def warm():
                for spec in specs:
                    backend.measure(spec, settings)

            t_warm, _ = _best_of(warm)
            return t_cold, t_warm

        # JSONL first — the sidecar does not exist yet, but pin the path
        # explicitly so a stray sidecar could never flatter the baseline.
        t_jsonl_cold, t_jsonl_warm = passes(prefer=False)
        compact_trace(trace_path)
        t_col_cold, t_col_warm = passes(prefer=True)

        ds_jsonl = build_training_dataset(
            ReplayBackend(trace_path, prefer_columnar=False), specs, settings
        )
        ds_col = build_training_dataset(
            ReplayBackend(trace_path, prefer_columnar=True), specs, settings
        )
        identical = (
            np.array_equal(ds_jsonl.x, ds_col.x)
            and np.array_equal(ds_jsonl.y_speedup, ds_col.y_speedup)
            and np.array_equal(ds_jsonl.y_energy, ds_col.y_energy)
            and ds_jsonl.groups == ds_col.groups
        )
    timings = {
        "jsonl_cold": t_jsonl_cold,
        "jsonl_warm": t_jsonl_warm,
        "columnar_cold": t_col_cold,
        "columnar_warm": t_col_warm,
    }
    return timings, identical, len(specs) * len(settings)


def regenerate_throughput() -> tuple[str, dict]:
    t_scalar, t_vector, ds_scalar, ds_vector = measure_assembly()
    # The vectorized pass just timed IS the campaign's serial baseline.
    t_serial, t_campaign, ds_serial, ds_campaign = measure_campaign(
        baseline=(t_vector, ds_vector)
    )
    n_points = ds_scalar.n_samples
    campaign_label = (
        f"campaign DevicePool ({CAMPAIGN_WORKERS} workers, "
        f"{os.cpu_count() or 1} cores)"
    )
    rows = [
        ("per-point batch-of-one loop", f"{t_scalar * 1e3:9.1f}",
         f"{n_points / t_scalar:12.0f}", "1.0x"),
        ("vectorized sweep_batch backend", f"{t_vector * 1e3:9.1f}",
         f"{n_points / t_vector:12.0f}", f"{t_scalar / t_vector:.1f}x"),
        (campaign_label, f"{t_campaign * 1e3:9.1f}",
         f"{n_points / t_campaign:12.0f}", f"{t_scalar / t_campaign:.1f}x"),
    ]
    table = format_table(
        ["training-dataset assembly", "ms / pass", "points/sec", "speedup"], rows
    )
    identical = (
        np.array_equal(ds_scalar.x, ds_vector.x)
        and np.array_equal(ds_scalar.y_speedup, ds_vector.y_speedup)
        and np.array_equal(ds_scalar.y_energy, ds_vector.y_energy)
    )
    campaign_identical = (
        np.array_equal(ds_serial.x, ds_campaign.x)
        and np.array_equal(ds_serial.y_speedup, ds_campaign.y_speedup)
        and np.array_equal(ds_serial.y_energy, ds_campaign.y_energy)
    )
    t_seq, t_int, store_identical = measure_interleaved_campaign()
    replay_t, replay_identical, replay_n_rows = measure_replay_columnar()
    replay_ratio_cold = replay_t["jsonl_cold"] / replay_t["columnar_cold"]
    replay_ratio_warm = replay_t["jsonl_warm"] / replay_t["columnar_warm"]
    replay_rows = [
        (
            f"replay {kind}",
            f"{replay_t[f'{kind}_cold'] * 1e3:9.1f}",
            f"{replay_n_rows / replay_t[f'{kind}_cold']:12.0f}",
            f"{replay_t[f'{kind}_warm'] * 1e3:9.1f}",
            f"{replay_n_rows / replay_t[f'{kind}_warm']:12.0f}",
        )
        for kind in ("jsonl", "columnar")
    ]
    replay_table = format_table(
        ["trace replay service", "cold ms", "cold rows/s", "warm ms", "warm rows/s"],
        replay_rows,
    )
    data = {
        "quick": QUICK,
        "n_specs": N_SPECS,
        "n_settings": N_SETTINGS,
        "n_points": n_points,
        "workers": CAMPAIGN_WORKERS,
        "cores": os.cpu_count() or 1,
        "timings_s": {
            "assembly_scalar": t_scalar,
            "assembly_vectorized": t_vector,
            "assembly_campaign": t_campaign,
            "campaign_sequential_legs": t_seq,
            "campaign_interleaved": t_int,
            "replay_jsonl_cold": replay_t["jsonl_cold"],
            "replay_jsonl_warm": replay_t["jsonl_warm"],
            "replay_columnar_cold": replay_t["columnar_cold"],
            "replay_columnar_warm": replay_t["columnar_warm"],
        },
        "ratios": {
            "vectorized_speedup": t_scalar / t_vector,
            "campaign_speedup": t_serial / t_campaign,
            "interleave_speedup": t_seq / t_int,
            "replay_columnar_speedup": replay_ratio_cold,
            "replay_columnar_warm_speedup": replay_ratio_warm,
        },
        "identical": {
            "scalar_vs_vectorized": identical,
            "serial_vs_campaign": campaign_identical,
            "store_artifacts": store_identical,
            "replay_jsonl_vs_columnar": replay_identical,
        },
        "asserted": {
            "vectorized_speedup_min": MIN_SPEEDUP,
            "campaign_speedup_min": MIN_CAMPAIGN_SPEEDUP,
            "interleave_speedup_min": MIN_INTERLEAVE_SPEEDUP,
            "replay_columnar_speedup_min": MIN_REPLAY_COLUMNAR_SPEEDUP,
        },
        # Which of those minimums a test actually enforced on THIS run.
        # Quick mode and small machines still *record* every ratio above,
        # but skip the wall-clock assertions — a consumer of this file
        # must not read an unasserted quick-run ratio as a met bar.
        "assertions_active": {
            "vectorized_speedup": True,  # always asserted (quick lowers the bar)
            "campaign_speedup": HAVE_CAMPAIGN_CORES and not QUICK,
            "interleave_speedup": HAVE_CAMPAIGN_CORES and not QUICK,
            "replay_columnar_speedup": not QUICK,
        },
    }
    return (
        format_heading(
            f"measurement engine — {N_SPECS} codes x {N_SETTINGS} settings "
            f"({n_points} points)"
        )
        + "\n" + table
        + f"\nscalar and vectorized datasets bit-identical: {identical}"
        + "\nserial and campaign-parallel datasets bit-identical: "
        + f"{campaign_identical}"
        + f"\ncampaign vs vectorized serial: {t_serial / t_campaign:.2f}x "
        + f"at {CAMPAIGN_WORKERS} workers on {os.cpu_count() or 1} core(s)"
        + "\ninterleaved scheduler vs sequential legs "
        + f"({len(CAMPAIGN_DEVICES)} devices): {t_seq / t_int:.2f}x "
        + f"({t_seq * 1e3:.0f}ms -> {t_int * 1e3:.0f}ms), "
        + f"store artifacts bit-identical: {store_identical}"
        + "\n" + replay_table
        + f"\ncolumnar vs JSONL replay: {replay_ratio_cold:.1f}x cold, "
        + f"{replay_ratio_warm:.1f}x warm; "
        + f"replay datasets bit-identical: {replay_identical}"
    ), data


def test_measurement_throughput():
    text, data = regenerate_throughput()
    write_artifact("measurement_throughput", text, data=data)
    assert "bit-identical: True" in text
    assert "campaign-parallel datasets bit-identical: True" in text
    assert "store artifacts bit-identical: True" in text
    assert "replay datasets bit-identical: True" in text


def test_interleaved_campaign_matches_sequential_bitwise():
    """Bit-identity is unconditional: any core count, any worker count."""
    _t_seq, _t_int, identical = measure_interleaved_campaign(workers=2)
    assert identical


def test_vectorized_at_least_10x_faster():
    t_scalar, t_vector, _, _ = measure_assembly()
    assert t_scalar / t_vector >= MIN_SPEEDUP, (t_scalar, t_vector)


def test_vectorized_matches_scalar_bitwise():
    _, _, ds_scalar, ds_vector = measure_assembly()
    assert np.array_equal(ds_scalar.x, ds_vector.x)
    assert np.array_equal(ds_scalar.y_speedup, ds_vector.y_speedup)
    assert np.array_equal(ds_scalar.y_energy, ds_vector.y_energy)
    assert ds_scalar.groups == ds_vector.groups


def test_campaign_matches_serial_bitwise():
    """Fanning the kernel sweep over processes changes nothing, bit for bit."""
    _, _, ds_serial, ds_campaign = measure_campaign(workers=2)
    assert np.array_equal(ds_serial.x, ds_campaign.x)
    assert np.array_equal(ds_serial.y_speedup, ds_campaign.y_speedup)
    assert np.array_equal(ds_serial.y_energy, ds_campaign.y_energy)
    assert ds_serial.groups == ds_campaign.groups


@pytest.mark.skipif(
    not HAVE_CAMPAIGN_CORES,
    reason=f"campaign speedup needs >= {CAMPAIGN_WORKERS} CPUs "
    f"(have {os.cpu_count() or 1})",
)
@pytest.mark.skipif(
    QUICK, reason="quick mode exercises campaign mode but does not time it"
)
def test_campaign_at_least_2x_faster_at_4_workers():
    t_serial, t_campaign, _, _ = measure_campaign(workers=CAMPAIGN_WORKERS)
    assert t_serial / t_campaign >= MIN_CAMPAIGN_SPEEDUP, (t_serial, t_campaign)


@pytest.mark.skipif(
    not HAVE_CAMPAIGN_CORES,
    reason=f"interleave speedup needs >= {CAMPAIGN_WORKERS} CPUs "
    f"(have {os.cpu_count() or 1})",
)
@pytest.mark.skipif(
    QUICK, reason="quick mode exercises the scheduler but does not time it"
)
def test_interleaved_campaign_at_least_1_5x_faster():
    """The PR 4 acceptance bar: a 2-device campaign on one shared pool
    (sweeps interleaved, leg trainings overlapped) beats sequential legs."""
    t_seq, t_int, identical = measure_interleaved_campaign(repeats=3)
    assert identical
    assert t_seq / t_int >= MIN_INTERLEAVE_SPEEDUP, (t_seq, t_int)


def test_replay_columnar_matches_jsonl_bitwise():
    """Bit-identity of the served datasets holds at any scale, every run."""
    _timings, identical, _n_rows = measure_replay_columnar()
    assert identical


@pytest.mark.skipif(
    QUICK, reason="quick mode exercises columnar replay but does not time it"
)
def test_replay_columnar_at_least_5x_faster():
    """The PR 8 acceptance bar: cold replay off the memory-mapped v3
    sidecar beats cold JSONL replay by >= 5x at paper scale."""
    timings, identical, _n_rows = measure_replay_columnar()
    assert identical
    ratio = timings["jsonl_cold"] / timings["columnar_cold"]
    assert ratio >= MIN_REPLAY_COLUMNAR_SPEEDUP, timings
