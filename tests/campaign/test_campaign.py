"""The campaign engine: plan → parallel sweeps → registered artifacts."""

import numpy as np
import pytest

from repro.campaign import (
    MODELS_SUBDIR,
    TRACES_SUBDIR,
    CampaignPlan,
    run_campaign,
)
from repro.core.dataset import build_training_dataset
from repro.measure import (
    ReplayBackend,
    SimulatorBackend,
    TraceRegistry,
)
from repro.serve.registry import ModelKey, ModelRegistry


class TestPlan:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least one device"):
            CampaignPlan(devices=())
        with pytest.raises(ValueError, match="unknown recipe"):
            CampaignPlan(devices=("titan-x",), recipe="exotic")
        with pytest.raises(KeyError, match="unknown device"):
            CampaignPlan(devices=("gtx-9999",))

    def test_duplicate_devices_rejected(self):
        with pytest.raises(ValueError, match="same device"):
            CampaignPlan(devices=("titan-x", "titan-x"))
        # Two *aliases* of one device would race two legs onto one trace.
        with pytest.raises(ValueError, match="same device"):
            CampaignPlan(devices=("titan-x", "titanx"))

    def test_recipe_drives_suite_label(self):
        assert CampaignPlan(devices=("titan-x",)).suite_label == "default"
        assert CampaignPlan(devices=("titan-x",), recipe="quick").suite_label == "quick"

    def test_keys_follow_device_and_recipe(self):
        plan = CampaignPlan(devices=("titan-x",), recipe="quick")
        device = plan.device_specs()[0]
        assert plan.trace_key(device).suite == "quick"
        assert plan.model_key(device).recipe == "quick"
        assert plan.model_key(device).device == "NVIDIA GTX Titan X"


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        store = tmp_path_factory.mktemp("store")
        plan = CampaignPlan(
            devices=("titan-x", "tesla-p100"), recipe="quick", workers=2
        )
        return run_campaign(plan, store_root=store)

    def test_both_devices_ran(self, report):
        assert [r.device for r in report.results] == [
            "NVIDIA GTX Titan X",
            "NVIDIA Tesla P100",
        ]
        for r in report.results:
            assert r.n_samples == r.n_kernels * r.n_settings
            assert r.trace_path.exists()
            assert r.model_path.exists()

    def test_traces_are_jsonl_registry_entries(self, report):
        registry = TraceRegistry(report.store_root / TRACES_SUBDIR)
        assert len(registry.entries()) == 2
        for r in report.results:
            assert r.trace_path.suffix == ".jsonl"
            replay = ReplayBackend(registry.resolve(r.trace_key))
            assert len(replay.kernels()) == r.n_kernels

    def test_models_land_in_model_registry(self, report):
        registry = ModelRegistry(report.store_root / MODELS_SUBDIR)
        key = ModelKey(device="NVIDIA Tesla P100", recipe="quick")
        models = registry.get(key)
        assert models.n_training_samples == report.results[1].n_samples

    def test_replay_reproduces_dataset_exactly(self, report):
        """The acceptance bar: trace-key replay == the campaign's dataset."""
        plan = report.plan
        registry = TraceRegistry(report.store_root / TRACES_SUBDIR)
        for device in plan.device_specs():
            specs = plan.kernel_specs()
            settings = plan.settings_for(device)
            direct = build_training_dataset(
                SimulatorBackend(device), specs, settings
            )
            replayed = build_training_dataset(
                ReplayBackend(registry.resolve(plan.trace_key(device))),
                specs,
                settings,
            )
            assert np.array_equal(direct.x, replayed.x)
            assert np.array_equal(direct.y_speedup, replayed.y_speedup)
            assert np.array_equal(direct.y_energy, replayed.y_energy)
            assert direct.groups == replayed.groups

    def test_report_formats(self, report):
        text = report.format()
        assert "trace key" in text
        assert "NVIDIA Tesla P100" in text
        assert str(report.store_root) in text

