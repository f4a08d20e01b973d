"""The campaign scheduler: interleaved queue, shared pool, streamed folds."""

import numpy as np
import pytest

from repro.campaign import CampaignPlan, SweepTask, interleave, run_campaign
from repro.campaign.engine import TRACES_SUBDIR
from repro.measure import DevicePool, TraceRegistry


def _task(device, i, final=True):
    return SweepTask(
        device=device,
        kernel_index=i,
        pass_index=0,
        spec=None,
        settings=(),
        final=final,
    )


class TestInterleave:
    def test_round_robin_across_legs(self):
        a = [_task("a", i) for i in range(3)]
        b = [_task("b", i) for i in range(2)]
        merged = interleave([a, b])
        assert [(t.device, t.kernel_index) for t in merged] == [
            ("a", 0), ("b", 0), ("a", 1), ("b", 1), ("a", 2),
        ]

    def test_per_leg_order_preserved(self):
        legs = [[_task(d, i) for i in range(4)] for d in ("x", "y", "z")]
        merged = interleave(legs)
        for device in ("x", "y", "z"):
            ours = [t.kernel_index for t in merged if t.device == device]
            assert ours == [0, 1, 2, 3]

    def test_empty(self):
        assert interleave([]) == []
        assert interleave([[], []]) == []


class TestTaskEnumeration:
    def test_pass_major_kernel_order(self):
        plan = CampaignPlan(devices=("tesla-p100",), recipe="quick", repeats=2)
        device = plan.device_specs()[0]
        tasks = plan.leg_tasks(device)
        specs = plan.kernel_specs()
        assert len(tasks) == plan.tasks_per_leg == 2 * len(specs)
        # Pass-major: the first len(specs) tasks are pass 0 in kernel order.
        assert [t.spec.name for t in tasks[: len(specs)]] == [s.name for s in specs]
        assert all(t.pass_index == 0 for t in tasks[: len(specs)])
        assert all(t.pass_index == 1 for t in tasks[len(specs):])

    def test_only_last_pass_is_final(self):
        plan = CampaignPlan(devices=("tesla-p100",), recipe="quick", repeats=3)
        tasks = plan.leg_tasks(plan.device_specs()[0])
        finals = [t.final for t in tasks]
        n = len(plan.kernel_specs())
        assert finals == [False] * (2 * n) + [True] * n

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
        tasks = []
        for device in plan.device_specs():
            tasks.extend(t.payload() for t in plan.leg_tasks(device)[:3])
        tasks = interleave([tasks[:3], tasks[3:]])
        with DevicePool(workers=1) as inline, DevicePool(workers=2) as pooled:
            serial = list(inline.imap_sweeps(tasks))
            parallel = list(pooled.imap_sweeps(tasks))
        for (m1, s1, _t1), (m2, s2, _t2) in zip(serial, parallel):
            assert m1.spec.name == m2.spec.name
            assert np.array_equal(m1.time_ms, m2.time_ms)
            assert np.array_equal(m1.energy_j, m2.energy_j)
            assert s1 is not None and s2 is not None
            assert s1.as_dict() == s2.as_dict()

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
        assert seen[-1] == plan.tasks_per_leg
        progress = report.progress
        assert progress is not None and progress.finished is not None
        assert progress.done == plan.tasks_per_leg
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
            names = registry.completed_kernels(plan.trace_key(device))
            assert names == [s.name for s in plan.kernel_specs()]
            assert result.resumed_sweeps == 0
            assert result.trained
