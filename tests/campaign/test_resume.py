"""Crash-resume: a killed campaign finishes byte-identically via --resume."""

import pathlib

import pytest

from repro.campaign import CampaignPlan, run_campaign
from repro.campaign.engine import TRACES_SUBDIR
from repro.cli import main as cli_main
from repro.core.dataset import DatasetAssembler
from repro.measure import TraceRegistry
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
            assert after.resumed_sweeps == plan.tasks_per_leg
            assert not after.trained  # model bundle proven current via hash
            assert after.n_samples == before.n_samples
            assert after.trace_path.read_bytes() == before.trace_path.read_bytes()
            assert after.model_path.read_bytes() == before.model_path.read_bytes()
        assert again.progress is not None
        assert again.progress.skipped == 2 * plan.tasks_per_leg

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
        assert len([k for d, k in swept if d == titan]) == plan.tasks_per_leg

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
        assert report.results[0].resumed_sweeps == plan.tasks_per_leg
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
        names = registry.completed_kernels(key)
        assert names == [s.name for s in plan.kernel_specs()][:4]
        # The other leg recorded nothing.
        other = plan.trace_key(plan.device_specs()[1])
        assert registry.completed_kernels(other) == []


class TestRepeatsResume:
    def test_crash_mid_second_pass(self, tmp_path, monkeypatch):
        plan = CampaignPlan(devices=("tesla-p100",), recipe="quick", repeats=2)
        reference = run_campaign(plan, tmp_path / "oneshot")
        n_kernels = len(plan.kernel_specs())
        # Crash after the full first pass plus 3 records of the second.
        crashed = tmp_path / "crashed"
        crash_store(
            crashed,
            reference,
            leg_index=0,
            keep_records=n_kernels + 3,
            cut=False,
        )
        swept = measured_kernels(monkeypatch)
        report = run_campaign(plan, crashed, resume=True)
        assert report.results[0].resumed_sweeps == n_kernels + 3
        assert len(swept) == plan.tasks_per_leg - (n_kernels + 3)
        assert (
            report.results[0].trace_path.read_bytes()
            == reference.results[0].trace_path.read_bytes()
        )
        assert (
            report.results[0].model_path.read_bytes()
            == reference.results[0].model_path.read_bytes()
        )


    def test_published_trace_with_surplus_records_not_reused(
        self, tmp_path, monkeypatch
    ):
        """A repeats=2 store resumed under a repeats=1 plan must re-measure:
        the published 2n-record trace is NOT byte-identical to a one-shot
        repeats=1 run, even though its prefix matches perfectly."""
        two_pass = CampaignPlan(devices=("tesla-p100",), recipe="quick", repeats=2)
        store = tmp_path / "store"
        run_campaign(two_pass, store)
        one_pass = CampaignPlan(devices=("tesla-p100",), recipe="quick", repeats=1)
        swept = measured_kernels(monkeypatch)
        report = run_campaign(one_pass, store, resume=True)
        assert report.results[0].resumed_sweeps == 0
        assert len(swept) == one_pass.tasks_per_leg
        oneshot = run_campaign(one_pass, tmp_path / "oneshot")
        assert (
            report.results[0].trace_path.read_bytes()
            == oneshot.results[0].trace_path.read_bytes()
        )
        assert (
            report.results[0].model_path.read_bytes()
            == oneshot.results[0].model_path.read_bytes()
        )

    def test_partial_with_surplus_records_is_truncated_back(
        self, tmp_path, monkeypatch
    ):
        """A too-long *partial* stream is healable: resume truncates the
        surplus records away and publishes exactly the expected sequence."""
        two_pass = CampaignPlan(devices=("tesla-p100",), recipe="quick", repeats=2)
        reference2 = run_campaign(two_pass, tmp_path / "two")
        one_pass = CampaignPlan(devices=("tesla-p100",), recipe="quick", repeats=1)
        oneshot = run_campaign(one_pass, tmp_path / "one")
        # Fabricate a partial holding the full 2-pass stream under a
        # 1-pass plan's key (same trace key either way).
        crashed = tmp_path / "crashed"
        n = one_pass.tasks_per_leg
        crash_store(
            crashed, reference2, leg_index=0, keep_records=2 * n, cut=False
        )
        swept = measured_kernels(monkeypatch)
        report = run_campaign(one_pass, crashed, resume=True)
        assert swept == []  # the n-record prefix covered everything
        assert report.results[0].resumed_sweeps == n
        assert (
            report.results[0].trace_path.read_bytes()
            == oneshot.results[0].trace_path.read_bytes()
        )


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
