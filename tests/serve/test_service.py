"""PredictionService facade + CLI round trip through saved artifacts."""

import pytest

from repro.cli import main as cli_main
from repro.core.pipeline import save_models
from repro.harness.context import quick_context
from repro.obs.instruments import FEATURE_CACHE_REQUESTS_TOTAL
from repro.serve.cache import KernelFeatureCache
from repro.serve.service import PredictionService, ServiceError
from repro.suite import test_benchmarks as suite_benchmarks

SAXPY = """
__kernel void saxpy(__global float* x, __global float* y, float a) {
  int i = get_global_id(0);
  y[i] = a * x[i] + y[i];
}
"""


@pytest.fixture(scope="module")
def ctx():
    return quick_context()


@pytest.fixture
def service(ctx):
    return PredictionService(models=ctx.models, device=ctx.device)


class TestServicePredictions:
    def test_single_matches_interactive_pipeline(self, ctx, service):
        spec = suite_benchmarks()[0]
        served = service.predict(spec.source, kernel_name=spec.kernel_name)
        direct = ctx.predictor.predict_from_source(
            spec.source, kernel_name=spec.kernel_name
        )
        assert [(p.config, p.objectives) for p in served.front] == [
            (p.config, p.objectives) for p in direct.front
        ]

    def test_candidates_derived_from_training_settings(self, ctx, service):
        assert service.predictor.candidates == ctx.predictor.candidates

    def test_batch_matches_single(self, service):
        specs = suite_benchmarks()[:3]
        requests = [(s.source, s.kernel_name) for s in specs]
        batched = service.predict_batch(requests)
        for (source, name), bat in zip(requests, batched):
            single = service.predict(source, kernel_name=name)
            assert [p.config for p in bat.front] == [p.config for p in single.front]

    def test_single_is_a_batch_of_one(self, service):
        spec = suite_benchmarks()[1]
        single = service.predict(spec.source, kernel_name=spec.kernel_name)
        [batched] = service.predict_batch([(spec.source, spec.kernel_name)])
        assert single.front == batched.front
        stats = service.stats_summary()
        assert stats["single_requests"] == 1
        assert stats["batch_requests"] == 1

    def test_plain_string_requests(self, service):
        results = service.predict_batch([SAXPY, SAXPY])
        assert len(results) == 2
        assert results[0].kernel == "saxpy"

    def test_repeat_requests_hit_feature_cache(self, service):
        service.predict(SAXPY)
        service.predict(SAXPY)
        service.predict_batch([SAXPY])
        stats = service.stats_summary()
        assert stats["feature_cache"]["misses"] == 1
        assert stats["feature_cache"]["hits"] == 2

    def test_service_stats_dict_carries_cache_counters(self, service):
        """The service's stats dict alone must show the warm-cache effect —
        operators read it via `repro predict-batch --stats`."""
        service.predict(SAXPY)
        service.predict(SAXPY)
        stats = service.stats_summary()
        assert stats["feature_cache"]["hits"] == 1
        assert stats["feature_cache"]["misses"] == 1
        assert stats["feature_cache"]["hit_rate"] == 0.5

    def test_stats_accounting(self, service):
        service.predict(SAXPY)
        service.predict_batch([SAXPY, SAXPY, SAXPY])
        stats = service.stats_summary()
        assert stats["single_requests"] == 1
        assert stats["batch_requests"] == 1
        assert stats["kernels_served"] == 4
        assert stats["extract_seconds"] >= 0.0
        assert stats["predict_seconds"] > 0.0
        assert stats["candidates"] == len(service.predictor.candidates)

    def test_shared_cache_across_services(self, ctx):
        cache = KernelFeatureCache()
        first = PredictionService(models=ctx.models, device=ctx.device, cache=cache)
        second = PredictionService(models=ctx.models, device=ctx.device, cache=cache)
        first.predict(SAXPY)
        second.predict(SAXPY)
        # Services record into their cache's registry, so sharing a cache
        # shares one set of counters.
        assert first.metrics is second.metrics is cache.metrics
        assert cache.metrics.value(FEATURE_CACHE_REQUESTS_TOTAL, result="hit") == 1


class TestServiceFromArtifact:
    def test_from_artifact_predicts_identically(self, ctx, service, tmp_path):
        path = save_models(
            tmp_path / "m.json", ctx.models, meta={"device": ctx.device.name}
        )
        loaded = PredictionService.from_artifact(path)
        assert loaded.device.name == ctx.device.name
        spec = suite_benchmarks()[0]
        a = service.predict(spec.source, kernel_name=spec.kernel_name)
        b = loaded.predict(spec.source, kernel_name=spec.kernel_name)
        assert [(p.config, p.objectives) for p in a.front] == [
            (p.config, p.objectives) for p in b.front
        ]

    def test_artifact_without_device_meta_rejected(self, ctx, tmp_path):
        path = save_models(tmp_path / "anon.json", ctx.models)  # no meta
        with pytest.raises(ServiceError, match="names no known device"):
            PredictionService.from_artifact(path)

    def test_mismatched_device_rejected(self, ctx, tmp_path):
        from repro.gpusim.device import make_tesla_p100

        path = save_models(
            tmp_path / "m.json", ctx.models, meta={"device": ctx.device.name}
        )
        # Titan X training settings don't exist on the P100 frequency menus.
        with pytest.raises(ServiceError, match="does not fit device"):
            PredictionService.from_artifact(path, device=make_tesla_p100())


class TestCLI:
    @pytest.fixture
    def kernel_file(self, tmp_path):
        path = tmp_path / "saxpy.cl"
        path.write_text(SAXPY)
        return path

    @pytest.fixture
    def model_file(self, ctx, tmp_path):
        return save_models(
            tmp_path / "models.json", ctx.models, meta={"device": ctx.device.name}
        )

    def test_train_save(self, tmp_path, capsys):
        target = tmp_path / "trained.json"
        assert cli_main(["train", "--save", str(target), "--quick"]) == 0
        assert target.exists()
        out = capsys.readouterr().out
        assert "saved model artifact" in out

    def test_predict_with_model(self, kernel_file, model_file, capsys):
        code = cli_main(
            ["predict", str(kernel_file), "--model", str(model_file)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "predicted Pareto set for 'saxpy'" in out
        assert "mem-L heuristic" in out

    def test_predict_batch_with_stats(self, kernel_file, model_file, capsys):
        code = cli_main(
            [
                "predict-batch",
                str(kernel_file),
                str(kernel_file),
                "--model",
                str(model_file),
                "--stats",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("predicted Pareto set") == 2
        assert "feature_cache.hits: 1" in out
