"""Recipes end to end: training width-agnosticism, artifact byte identity,
serve-layer validation, and the campaign plumbing."""

import pytest

from repro.core.config import sample_training_settings
from repro.core.pipeline import load_models, save_models, train_from_specs
from repro.core.predictor import ParetoPredictor
from repro.gpusim.device import make_titan_x
from repro.measure.simulator import SimulatorBackend
from repro.serve.cache import KernelFeatureCache
from repro.serve.registry import ModelKey
from repro.serve.service import PredictionService, ServiceError
from repro.synthetic import generate_micro_benchmarks

KERNEL = """
__kernel void saxpy(__global float* y, __global const float* x, float a, int n) {
    int i = get_global_id(0);
    if (i < n) {
        y[i] = a * x[i] + y[i];
    }
}
"""


@pytest.fixture(scope="module")
def setup():
    device = make_titan_x()
    backend = SimulatorBackend(device)
    micro = generate_micro_benchmarks()[::16]  # 7 codes: keep this fast
    settings = sample_training_settings(device, total=8)
    return device, backend, micro, settings


def train(setup, **kwargs):
    device, backend, micro, settings = setup
    models, _ = train_from_specs(backend, micro, settings, **kwargs)
    return models


class TestRecipeTraining:
    def test_default_and_explicit_paper10_are_byte_identical(self, setup, tmp_path):
        import json

        default = train(setup)
        explicit = train(setup, feature_recipe="paper10")
        a = save_models(tmp_path / "a.json", default)
        b = save_models(tmp_path / "b.json", explicit)
        assert a.read_bytes() == b.read_bytes()
        # And the default-recipe state never mentions the recipe at all:
        # pre-recipe artifacts must stay loadable AND re-savable unchanged.
        assert "feature_recipe" not in default.to_state()
        payload = json.loads(a.read_text())
        assert "feature_recipe" not in json.dumps(payload)

    def test_extended_recipe_trains_and_predicts(self, setup):
        device, _, _, settings = setup
        models = train(setup, feature_recipe="paper10+loops")
        assert models.feature_recipe == "paper10+loops"
        predictor = ParetoPredictor(models, device)
        result = predictor.predict_from_source(KERNEL)
        assert result.front

    def test_prediction_errors_score_a_recipe_bundle(self):
        import math

        from repro.harness import prediction_errors
        from repro.harness.context import build_context
        from repro.suite import test_benchmarks

        ctx = build_context(recipe="quick", feature_recipe="paper10+memmix")
        for objective in ("speedup", "energy"):
            analysis = prediction_errors(
                ctx.sim, ctx.models, test_benchmarks(), ctx.settings,
                objective=objective,
            )
            assert sorted(analysis.reports) == ["H", "L", "h", "l"]
            for report in analysis.reports.values():
                assert math.isfinite(report.rmse_pct)

    def test_recipe_survives_artifact_round_trip(self, setup, tmp_path):
        models = train(setup, feature_recipe="paper10+memmix")
        path = save_models(tmp_path / "wide.json", models)
        loaded, _meta = load_models(path)
        assert loaded.feature_recipe == "paper10+memmix"
        assert loaded.scaler.mean_.shape == models.scaler.mean_.shape

    def test_recipe_widens_design_matrix(self, setup):
        narrow = train(setup)
        wide = train(setup, feature_recipe="paper10+loops")
        assert wide.scaler.mean_.shape[0] > narrow.scaler.mean_.shape[0]


class TestServeValidation:
    def test_service_builds_recipe_matched_cache(self, setup):
        device, *_ = setup
        models = train(setup, feature_recipe="paper10+loops")
        service = PredictionService(models=models, device=device)
        assert (
            service.cache.extractor.config.recipe == "paper10+loops"
        )
        result = service.predict(KERNEL)
        assert result.front

    def test_mismatched_cache_is_rejected(self, setup):
        device, *_ = setup
        models = train(setup, feature_recipe="paper10+loops")
        with pytest.raises(ServiceError, match="recipe"):
            PredictionService(
                models=models, device=device, cache=KernelFeatureCache()
            )

    def test_from_artifact_validates_meta_recipe(self, setup, tmp_path):
        device, *_ = setup
        models = train(setup, feature_recipe="paper10+loops")
        path = save_models(
            tmp_path / "wide.json",
            models,
            meta={"device": device.name, "features": "interactions"},
        )
        with pytest.raises(ServiceError, match="recipe"):
            PredictionService.from_artifact(path)

    def test_from_artifact_accepts_matching_meta(self, setup, tmp_path):
        device, *_ = setup
        models = train(setup, feature_recipe="paper10+loops")
        path = save_models(
            tmp_path / "wide.json",
            models,
            meta={"device": device.name, "features": "paper10+loops"},
        )
        service = PredictionService.from_artifact(path)
        assert service.predict(KERNEL).front


class TestModelKeyRecipes:
    def test_legacy_spellings_mean_paper10(self):
        assert ModelKey(features="interactions").feature_recipe == "paper10"
        assert ModelKey(features="concat").feature_recipe == "paper10"
        assert ModelKey(features="concat").interactions is False

    def test_recipe_named_key(self):
        key = ModelKey(features="paper10+loops")
        assert key.feature_recipe == "paper10+loops"
        assert key.interactions is True
        assert "paper10-loops" in key.slug

    def test_unknown_features_rejected(self):
        with pytest.raises(ValueError):
            ModelKey(features="paper11+nonsense")


class TestCampaignPlanRecipes:
    def test_plan_carries_recipe_into_model_key(self):
        from repro.campaign import CampaignPlan

        plan = CampaignPlan(
            devices=("titan-x",), recipe="quick", features="paper10+loops"
        )
        device = plan.device_specs()[0]
        assert plan.model_key(device).features == "paper10+loops"
        # Workers extract the final pass with the plan's recipe.
        assert {t.payload()[3] for t in plan.leg_tasks(device)} == {"paper10+loops"}

    def test_default_plan_keeps_the_legacy_key_spelling(self):
        from repro.campaign import CampaignPlan

        plan = CampaignPlan(devices=("titan-x",), recipe="quick")
        assert plan.model_key(plan.device_specs()[0]).features == "interactions"

    def test_plan_rejects_unknown_recipe(self):
        from repro.campaign import CampaignPlan

        with pytest.raises(ValueError):
            CampaignPlan(devices=("titan-x",), features="paper10+bogus")

    def test_recipe_campaign_end_to_end(self, tmp_path):
        from repro.campaign import CampaignPlan, run_campaign
        from repro.serve.fleet import FleetService

        store = tmp_path / "store"
        report = run_campaign(
            CampaignPlan(
                devices=("titan-x",), recipe="quick", features="paper10+loops"
            ),
            store_root=store,
        )
        assert report.results[0].trained
        fleet = FleetService.from_campaign_store(store)
        result = fleet.predict(KERNEL, device="titan-x")
        assert result.front
        service = fleet.service_for("titan-x")
        assert service.models.feature_recipe == "paper10+loops"
        assert (
            service.cache.extractor.config.recipe == "paper10+loops"
        )
        # The recipe cache is fleet-shared but distinct from the default one.
        assert service.cache is not fleet.feature_cache
