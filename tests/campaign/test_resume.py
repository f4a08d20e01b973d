"""Crash-resume: a killed campaign finishes byte-identically via --resume."""

import pathlib

import numpy as np
import pytest

from repro.campaign import CampaignPlan, run_campaign
from repro.campaign.engine import TRACES_SUBDIR
from repro.cli import main as cli_main
from repro.core.dataset import DatasetAssembler, build_training_dataset
from repro.measure import ReplayBackend, TraceRegistry
from repro.measure import parallel as parallel_mod
from repro.workloads import KernelSpec

DEVICES = ("titan-x", "tesla-p100")


@pytest.fixture(scope="module")
def plan():
    return CampaignPlan(devices=DEVICES, recipe="quick", workers=1)


@pytest.fixture(scope="module")
def reference(plan, tmp_path_factory):
    """An uninterrupted campaign — the byte-identity oracle."""
    store = tmp_path_factory.mktemp("oneshot")
    return run_campaign(plan, store)


def crash_store(
    root: pathlib.Path, reference, leg_index: int, keep_records: int, cut: bool = True
) -> pathlib.Path:
    """Fabricate what a killed campaign leaves behind: a ``.partial``
    stream holding the header, ``keep_records`` intact records and (with
    ``cut``) the front half of the next record — the flush the kill raced.
    """
    trace_path = reference.results[leg_index].trace_path
    lines = trace_path.read_bytes().splitlines(keepends=True)
    partial = root / TRACES_SUBDIR / (trace_path.name + ".partial")
    partial.parent.mkdir(parents=True, exist_ok=True)
    content = b"".join(lines[: 1 + keep_records])
    if cut and 1 + keep_records < len(lines):
        torn = lines[1 + keep_records]
        content += torn[: len(torn) // 2]
    partial.write_bytes(content)
    return partial


def measured_kernels(monkeypatch):
    """Record every (device, kernel) the pool actually sweeps."""
    swept = []
    original = parallel_mod._run_sweep_task

    def spying(task, cache, factory):
        swept.append((task[0], task[1].name))
        return original(task, cache, factory)

    monkeypatch.setattr(parallel_mod, "_run_sweep_task", spying)
    return swept


def dataset_work(monkeypatch):
    """Count the dataset-building calls a run makes, by kind."""
    calls = {"static_features": 0, "add": 0}
    features, add = KernelSpec.static_features, DatasetAssembler.add

    def counting_features(self, *args, **kwargs):
        calls["static_features"] += 1
        return features(self, *args, **kwargs)

    def counting_add(self, *args, **kwargs):
        calls["add"] += 1
        return add(self, *args, **kwargs)

    monkeypatch.setattr(KernelSpec, "static_features", counting_features)
    monkeypatch.setattr(DatasetAssembler, "add", counting_add)
    return calls


class TestCrashResume:
    def test_truncated_leg_finishes_byte_identical(
        self, plan, reference, tmp_path, monkeypatch
    ):
        """The satellite bar: partial trace in, identical artifacts out."""
        partial = crash_store(tmp_path, reference, leg_index=0, keep_records=7)
        swept = measured_kernels(monkeypatch)

        report = run_campaign(plan, tmp_path, resume=True)

        specs = [s.name for s in plan.kernel_specs()]
        completed = set(specs[:7])
        titan = plan.device_specs()[0].name
        titan_swept = [k for d, k in swept if d == titan]
        # Not one already-recorded kernel was re-measured...
        assert not completed & set(titan_swept)
        assert titan_swept == specs[7:]
        assert report.results[0].resumed_sweeps == 7
        # ...the torn partial is gone (published over the real path)...
        assert not partial.exists()
        # ...and every artifact is byte-identical to the one-shot run.
        for got, want in zip(report.results, reference.results):
            assert got.trace_path.read_bytes() == want.trace_path.read_bytes()
            assert got.model_path.read_bytes() == want.model_path.read_bytes()

    def test_resume_of_complete_store_reuses_everything(
        self, plan, reference, tmp_path, monkeypatch
    ):
        first = run_campaign(plan, tmp_path)
        swept = measured_kernels(monkeypatch)
        built = dataset_work(monkeypatch)
        again = run_campaign(plan, tmp_path, resume=True)
        assert swept == []  # zero sweeps measured
        # Current bundles need no dataset: no record replayed, no feature
        # extracted.
        assert built == {"static_features": 0, "add": 0}
        for before, after in zip(first.results, again.results):
            assert after.resumed_sweeps == len(plan.kernel_specs())
            assert not after.trained  # model bundle proven current via hash
            assert after.n_samples == before.n_samples
            assert after.trace_path.read_bytes() == before.trace_path.read_bytes()
            assert after.model_path.read_bytes() == before.model_path.read_bytes()
        assert again.progress is not None
        assert again.progress.skipped == 2 * len(plan.kernel_specs())

    def test_missing_bundle_retrains_from_the_recovered_trace(
        self, plan, reference, tmp_path, monkeypatch
    ):
        first = run_campaign(plan, tmp_path)
        lost = first.results[1].model_path
        original = lost.read_bytes()
        lost.unlink()
        swept = measured_kernels(monkeypatch)
        built = dataset_work(monkeypatch)
        again = run_campaign(plan, tmp_path, resume=True)
        assert swept == []
        assert [r.trained for r in again.results] == [False, True]
        # Only the retrained leg built its dataset, one kernel at a time.
        n_kernels = len(plan.kernel_specs())
        assert built == {"static_features": n_kernels, "add": n_kernels}
        assert lost.read_bytes() == original
        for before, after in zip(first.results, again.results):
            assert after.n_samples == before.n_samples

    def test_without_resume_flag_nothing_is_reused(
        self, plan, reference, tmp_path, monkeypatch
    ):
        crash_store(tmp_path, reference, leg_index=0, keep_records=7)
        swept = measured_kernels(monkeypatch)
        report = run_campaign(plan, tmp_path, resume=False)
        assert report.results[0].resumed_sweeps == 0
        titan = plan.device_specs()[0].name
        assert len([k for d, k in swept if d == titan]) == len(plan.kernel_specs())

    def test_foreign_partial_is_discarded(self, plan, reference, tmp_path):
        """A partial whose records do not match the plan's sequence
        (here: the P100's records under the Titan X key) is re-measured
        from scratch, not stitched in."""
        titan_trace = reference.results[0].trace_path
        p100_trace = reference.results[1].trace_path
        titan_lines = titan_trace.read_bytes().splitlines(keepends=True)
        p100_lines = p100_trace.read_bytes().splitlines(keepends=True)
        partial = tmp_path / TRACES_SUBDIR / (titan_trace.name + ".partial")
        partial.parent.mkdir(parents=True, exist_ok=True)
        # Titan header (device must match the key) + P100 records, whose
        # settings belong to the other device's frequency grid.
        partial.write_bytes(titan_lines[0] + b"".join(p100_lines[1:5]))

        report = run_campaign(plan, tmp_path, resume=True)
        assert report.results[0].resumed_sweeps == 0
        assert (
            report.results[0].trace_path.read_bytes() == titan_trace.read_bytes()
        )

    def test_mid_file_corruption_is_not_trusted(self, plan, reference, tmp_path):
        """Damage *between* intact records is corruption, not a crash
        tail — resume refuses the whole stream and re-measures."""
        trace_path = reference.results[0].trace_path
        lines = trace_path.read_bytes().splitlines(keepends=True)
        partial = tmp_path / TRACES_SUBDIR / (trace_path.name + ".partial")
        partial.parent.mkdir(parents=True, exist_ok=True)
        partial.write_bytes(
            lines[0] + lines[1] + b'{"kernel": "torn...\n' + lines[3]
        )
        report = run_campaign(plan, tmp_path, resume=True)
        assert report.results[0].resumed_sweeps == 0
        assert report.results[0].trace_path.read_bytes() == trace_path.read_bytes()

    def test_stale_partial_does_not_shadow_complete_published_trace(
        self, plan, reference, tmp_path, monkeypatch
    ):
        """A complete store re-run and killed at startup leaves a
        header-only .partial next to the published trace; --resume must
        still reuse the published records, not re-measure the leg."""
        complete = run_campaign(plan, tmp_path)
        trace_path = complete.results[0].trace_path
        header = trace_path.read_bytes().splitlines(keepends=True)[0]
        stale = trace_path.with_name(trace_path.name + ".partial")
        stale.write_bytes(header)
        swept = measured_kernels(monkeypatch)
        report = run_campaign(plan, tmp_path, resume=True)
        titan = plan.device_specs()[0].name
        assert [k for d, k in swept if d == titan] == []
        assert report.results[0].resumed_sweeps == len(plan.kernel_specs())
        assert not report.results[0].trained
        assert trace_path.read_bytes() == complete.results[0].trace_path.read_bytes()
        assert not stale.exists()  # superseded debris is cleaned up

    def test_partial_beats_incomplete_published_trace(
        self, plan, reference, tmp_path, monkeypatch
    ):
        """When neither source is complete, the one covering more of the
        expected sequence wins: an incomplete *published* file validates
        to zero (it can only be reused whole), so a 9-record partial
        carries the resume."""
        partial = crash_store(tmp_path, reference, leg_index=0, keep_records=9)
        trace_path = reference.results[0].trace_path
        lines = trace_path.read_bytes().splitlines(keepends=True)
        published = partial.with_suffix("")  # strip ".partial"
        published.write_bytes(b"".join(lines[:-1]))  # one record short
        swept = measured_kernels(monkeypatch)
        report = run_campaign(plan, tmp_path, resume=True)
        assert report.results[0].resumed_sweeps == 9
        titan = plan.device_specs()[0].name
        specs = [s.name for s in plan.kernel_specs()]
        assert [k for d, k in swept if d == titan] == specs[9:]
        assert (
            report.results[0].trace_path.read_bytes() == trace_path.read_bytes()
        )

    def test_completed_kernels_introspection(self, plan, reference, tmp_path):
        crash_store(tmp_path, reference, leg_index=0, keep_records=4)
        registry = TraceRegistry(tmp_path / TRACES_SUBDIR)
        key = plan.trace_key(plan.device_specs()[0])
        (state,) = registry.scan_resume_sources(key)
        assert state.source == "partial"
        names = [record.name for record in state.records]
        assert names == [s.name for s in plan.kernel_specs()][:4]
        # The other leg recorded nothing.
        other = plan.trace_key(plan.device_specs()[1])
        assert registry.scan_resume_sources(other) == []


def doubled_trace(reference, leg_index: int) -> bytes:
    """A leg's trace with every record written twice, pass after pass —
    the stream an older multi-pass (``--repeats 2``) campaign recorded."""
    lines = reference.results[leg_index].trace_path.read_bytes().splitlines(
        keepends=True
    )
    return lines[0] + b"".join(lines[1:]) * 2


class TestDoubledTrace:
    """Stores written by older multi-pass runs stay usable."""

    def test_doubled_trace_replays_bit_identically(self, plan, reference, tmp_path):
        doubled = tmp_path / "doubled.jsonl"
        doubled.write_bytes(doubled_trace(reference, leg_index=0))
        device = plan.device_specs()[0]
        specs, settings = plan.kernel_specs(), plan.settings_for(device)
        once = build_training_dataset(
            ReplayBackend(reference.results[0].trace_path), specs, settings
        )
        twice = build_training_dataset(ReplayBackend(doubled), specs, settings)
        assert np.array_equal(once.x, twice.x)
        assert np.array_equal(once.y_speedup, twice.y_speedup)
        assert np.array_equal(once.y_energy, twice.y_energy)

    def test_published_doubled_trace_is_remeasured_fresh(
        self, plan, reference, tmp_path, monkeypatch
    ):
        """Surplus records mean another plan wrote the published file: it
        cannot be reused whole, so the leg is measured again, atomically."""
        run_campaign(plan, tmp_path)
        trace_path = reference.results[0].trace_path
        published = tmp_path / TRACES_SUBDIR / trace_path.name
        published.write_bytes(doubled_trace(reference, leg_index=0))
        swept = measured_kernels(monkeypatch)
        report = run_campaign(plan, tmp_path, resume=True)
        titan = plan.device_specs()[0].name
        n_kernels = len(plan.kernel_specs())
        assert len([k for d, k in swept if d == titan]) == n_kernels
        assert report.results[0].resumed_sweeps == 0
        assert report.results[1].resumed_sweeps == n_kernels
        for got, want in zip(report.results, reference.results):
            assert got.trace_path.read_bytes() == want.trace_path.read_bytes()
            assert got.model_path.read_bytes() == want.model_path.read_bytes()

    def test_partial_doubled_trace_is_truncated_back(
        self, plan, reference, tmp_path, monkeypatch
    ):
        """A too-long partial stream heals: resume keeps the first pass,
        truncates the surplus away and publishes the one-pass bytes."""
        trace_path = reference.results[0].trace_path
        partial = tmp_path / TRACES_SUBDIR / (trace_path.name + ".partial")
        partial.parent.mkdir(parents=True, exist_ok=True)
        partial.write_bytes(doubled_trace(reference, leg_index=0))
        swept = measured_kernels(monkeypatch)
        report = run_campaign(plan, tmp_path, resume=True)
        titan = plan.device_specs()[0].name
        assert [k for d, k in swept if d == titan] == []
        assert report.results[0].resumed_sweeps == len(plan.kernel_specs())
        assert not partial.exists()
        for got, want in zip(report.results, reference.results):
            assert got.trace_path.read_bytes() == want.trace_path.read_bytes()
            assert got.model_path.read_bytes() == want.model_path.read_bytes()


class TestResumeCLI:
    def test_cli_resume_smoke(self, plan, reference, tmp_path, capsys):
        crash_store(tmp_path, reference, leg_index=0, keep_records=5)
        code = cli_main(
            [
                "campaign",
                "--devices",
                ",".join(DEVICES),
                "--quick",
                "--resume",
                "--no-progress",
                "--store",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "resumed" in out
        registry = TraceRegistry(tmp_path / TRACES_SUBDIR)
        key = plan.trace_key(plan.device_specs()[0])
        assert registry.resolve(key).read_bytes() == (
            reference.results[0].trace_path.read_bytes()
        )
