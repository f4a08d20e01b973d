"""The campaign scheduler: leg-major queue, shared pool, streamed folds."""

import numpy as np
import pytest

from repro.campaign import CampaignPlan, SweepTask, leg_major, run_campaign
from repro.campaign.engine import TRACES_SUBDIR
from repro.campaign.scheduler import train_leg_task
from repro.measure import DevicePool, TraceRegistry, parallel, scan_stream_records
from repro.obs import MetricsRegistry


def _task(device, i):
    # leg_major only orders tasks: the kernel's index stands in for its spec.
    return SweepTask(device=device, spec=i, settings=())


class TestLegMajor:
    def test_legs_queue_whole_in_plan_order(self):
        a = [_task("a", i) for i in range(3)]
        b = [_task("b", i) for i in range(2)]
        merged = leg_major([a, b])
        assert [(t.device, t.spec) for t in merged] == [
            ("a", 0), ("a", 1), ("a", 2), ("b", 0), ("b", 1),
        ]

    def test_per_leg_order_preserved(self):
        legs = [[_task(d, i) for i in range(4)] for d in ("x", "y", "z")]
        merged = leg_major(legs)
        for device in ("x", "y", "z"):
            ours = [t.spec for t in merged if t.device == device]
            assert ours == [0, 1, 2, 3]

    def test_empty(self):
        assert leg_major([]) == []
        assert leg_major([[], []]) == []


class TestTaskEnumeration:
    def test_one_task_per_kernel_in_kernel_order(self):
        plan = CampaignPlan(devices=("tesla-p100",), recipe="quick")
        tasks = plan.leg_tasks(plan.device_specs()[0])
        assert [t.spec.name for t in tasks] == [
            s.name for s in plan.kernel_specs()
        ]

    def test_settings_travel_with_the_task(self):
        plan = CampaignPlan(devices=("titan-x",), recipe="quick")
        device = plan.device_specs()[0]
        task = plan.leg_tasks(device)[0]
        assert list(task.settings) == plan.settings_for(device)
        assert task.device == device.name


class TestDevicePool:
    def test_inline_path_caches_backends_per_device(self):
        plan = CampaignPlan(devices=("titan-x", "tesla-p100"), recipe="quick")
        tasks = []
        for device in plan.device_specs():
            tasks.extend(t.payload() for t in plan.leg_tasks(device)[:2])
        with DevicePool(workers=1) as pool:
            results = list(pool.imap_sweeps(tasks))
            assert len(results) == 4
            assert set(pool._local_backends) == {
                "NVIDIA GTX Titan X",
                "NVIDIA Tesla P100",
            }

    def test_pool_results_match_inline_bitwise(self):
        plan = CampaignPlan(devices=("titan-x", "tesla-p100"), recipe="quick")
        titan, p100 = (
            [t.payload() for t in plan.leg_tasks(device)[:3]]
            for device in plan.device_specs()
        )
        # Alternate devices so every worker switches between backends.
        tasks = [task for pair in zip(titan, p100) for task in pair]
        with DevicePool(workers=1) as inline, DevicePool(workers=2) as pooled:
            serial = list(inline.imap_sweeps(tasks))
            parallel = list(pooled.imap_sweeps(tasks))
        for (m1, s1, _t1), (m2, s2, _t2) in zip(serial, parallel):
            assert m1.spec.name == m2.spec.name
            assert np.array_equal(m1.time_ms, m2.time_ms)
            assert np.array_equal(m1.energy_j, m2.energy_j)
            assert s1 is not None and s2 is not None
            assert s1.as_dict() == s2.as_dict()

    def test_every_sweep_extracts_with_the_task_recipe(self):
        plan = CampaignPlan(
            devices=("titan-x",), recipe="quick", features="paper10+loops"
        )
        tasks = [t.payload() for t in plan.leg_tasks(plan.device_specs()[0])[:2]]
        with DevicePool(workers=1) as pool:
            for task, (_m, static, _t) in zip(tasks, pool.imap_sweeps(tasks)):
                assert static == task[1].static_features("paper10+loops")

    def test_apply_async_runs_work(self):
        with DevicePool(workers=1) as pool:
            assert pool.apply_async(len, [1, 2, 3]).get() == 3
        with DevicePool(workers=2) as pool:
            assert pool.apply_async(len, [1, 2, 3]).get() == 3

    def test_pool_is_lazy_and_closeable(self):
        plan = CampaignPlan(devices=("titan-x",), recipe="quick")
        leg_tasks = plan.leg_tasks(plan.device_specs()[0])[:2]
        pool = DevicePool(workers=2)
        try:
            assert pool._pool is None
            list(pool.imap_sweeps([t.payload() for t in leg_tasks]))
            assert pool._pool is not None
        finally:
            pool.close()
        assert pool._pool is None

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="workers"):
            DevicePool(workers=0)


class FakeResult:
    """An ``AsyncResult`` whose call runs only when it is read."""

    def __init__(self, pool, index, fn, args):
        self._pool, self._index = pool, index
        self._fn, self._args = fn, args

    def get(self, timeout=None):
        self._pool.log.append(("get", self._index))
        self._pool.in_flight -= 1
        value = self._pool.values[self._index] = self._fn(*self._args)
        return value


class FakePool:
    """Stands in for the ``multiprocessing`` pool: records every
    submission and every read, in order, and runs nothing ahead."""

    def __init__(self):
        self.log = []
        self.calls = []
        self.values = {}
        self.in_flight = self.peak_in_flight = 0

    def apply_async(self, fn, args):
        self.calls.append((fn, args))
        self.log.append(("submit", len(self.calls) - 1))
        self.in_flight += 1
        self.peak_in_flight = max(self.peak_in_flight, self.in_flight)
        return FakeResult(self, len(self.calls) - 1, fn, args)


@pytest.fixture
def fake_pool(monkeypatch):
    """Every DevicePool's workers are one FakePool; sweep calls build
    their backends in this process, as a worker's initializer would."""
    fake = FakePool()
    monkeypatch.setattr(DevicePool, "_ensure_pool", lambda self: fake)
    monkeypatch.setattr(parallel, "_DEVICE_FACTORY", parallel.backend_for_device)
    monkeypatch.setattr(parallel, "_DEVICE_BACKENDS", {})
    return fake


class RecordingRegistry(MetricsRegistry):
    def __init__(self):
        super().__init__()
        self.merged = []

    def merge(self, snapshot):
        self.merged.append(snapshot)
        super().merge(snapshot)


class TestSweepWindow:
    def _payloads(self, n):
        plan = CampaignPlan(devices=("titan-x",), recipe="quick")
        return [t.payload() for t in plan.leg_tasks(plan.device_specs()[0])[:n]]

    def test_at_most_two_sweeps_per_worker_in_flight(self, fake_pool):
        tasks = self._payloads(11)
        with DevicePool(workers=2) as pool:
            names = []
            for measurements, _static, _seconds in pool.imap_sweeps(tasks):
                # The result being consumed is read; the rest are queued.
                assert fake_pool.in_flight <= 2 * 2 - 1
                names.append(measurements.spec.name)
        assert len(fake_pool.calls) == len(tasks)
        assert fake_pool.peak_in_flight == 2 * 2
        assert names == [task[1].name for task in tasks]

    def test_results_and_merges_arrive_in_submission_order(self, fake_pool):
        tasks = self._payloads(9)
        registry = RecordingRegistry()
        with DevicePool(workers=2, registry=registry) as pool:
            for k, (measurements, _s, _t) in enumerate(pool.imap_sweeps(tasks)):
                assert measurements.spec.name == tasks[k][1].name
                # Merged as yielded: the k-th task's delta, and no later one.
                assert len(registry.merged) == k + 1
                assert registry.merged[k] is fake_pool.values[k][1]
        reads = [i for kind, i in fake_pool.log if kind == "get"]
        assert reads == list(range(len(tasks)))

    def test_first_training_starts_before_the_last_leg_finishes(
        self, fake_pool, tmp_path
    ):
        plan = CampaignPlan(
            devices=("titan-x", "tesla-p100"), recipe="quick", workers=2
        )
        report = run_campaign(plan, tmp_path)
        assert all(result.trained for result in report.results)
        first, last = (device.name for device in plan.device_specs())
        events = []  # (kind, device) in log order
        for kind, index in fake_pool.log:
            fn, args = fake_pool.calls[index]
            if fn is parallel._device_sweep_task:
                events.append((kind + " sweep", args[0][0]))
            else:
                assert args[0] is train_leg_task
                events.append((kind + " train", args[1][2]))
        train_first = events.index(("submit train", first))
        last_sweep_read = max(
            k for k, event in enumerate(events) if event == ("get sweep", last)
        )
        assert train_first < last_sweep_read
        # Only the in-flight window of the last leg's sweeps is queued
        # ahead of the first leg's training.
        ahead = [e for e in events[:train_first] if e == ("submit sweep", last)]
        assert len(ahead) <= 2 * plan.workers
        assert events.count(("submit sweep", last)) == len(plan.kernel_specs())


class TestInterleavedCampaign:
    def test_interleaved_bytes_match_serial_legs(self, tmp_path):
        """The tentpole bar: one shared pool, same bytes as serial legs."""
        devices = ("titan-x", "tesla-p100")
        shared = run_campaign(
            CampaignPlan(devices=devices, recipe="quick", workers=2),
            tmp_path / "shared",
        )
        serial = run_campaign(
            CampaignPlan(devices=devices, recipe="quick", workers=1),
            tmp_path / "serial",
        )
        for a, b in zip(shared.results, serial.results):
            assert a.trace_path.read_bytes() == b.trace_path.read_bytes()
            assert a.model_path.read_bytes() == b.model_path.read_bytes()

    def test_progress_callback_sees_live_state(self, tmp_path):
        plan = CampaignPlan(devices=("tesla-p100",), recipe="quick", workers=1)
        seen = []
        report = run_campaign(
            plan, tmp_path, on_progress=lambda p: seen.append(p.done)
        )
        assert seen, "callback never fired"
        assert seen == sorted(seen)  # monotone completion counts
        assert seen[-1] == len(plan.kernel_specs())
        progress = report.progress
        assert progress is not None and progress.finished is not None
        assert progress.done == len(plan.kernel_specs())
        assert progress.utilization() > 0.0
        leg = progress.legs[plan.device_specs()[0].name]
        assert leg.stage == "done"

    def test_model_meta_records_trace_hash(self, tmp_path):
        import hashlib

        from repro.campaign.engine import MODELS_SUBDIR
        from repro.serve.registry import ModelRegistry

        plan = CampaignPlan(devices=("tesla-p100",), recipe="quick")
        report = run_campaign(plan, tmp_path)
        registry = ModelRegistry(tmp_path / MODELS_SUBDIR)
        meta = registry.meta_for(plan.model_key(plan.device_specs()[0]))
        trace_sha = hashlib.sha256(
            report.results[0].trace_path.read_bytes()
        ).hexdigest()
        assert meta is not None
        assert meta["trace_sha256"] == trace_sha
        assert meta["recipe"] == "quick"

    def test_trace_registry_sees_interleaved_traces(self, tmp_path):
        plan = CampaignPlan(
            devices=("titan-x", "tesla-p100"), recipe="quick", workers=2
        )
        report = run_campaign(plan, tmp_path)
        registry = TraceRegistry(tmp_path / TRACES_SUBDIR)
        for result, device in zip(report.results, plan.device_specs()):
            trace_path = registry.resolve(plan.trace_key(device))
            names = [r.name for r in scan_stream_records(trace_path)[1]]
            assert names == [s.name for s in plan.kernel_specs()]
            assert result.resumed_sweeps == 0
            assert result.trained
