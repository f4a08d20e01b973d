"""Model registry: keyed bundles, persistence, reload from disk."""

import numpy as np
import pytest

from repro.core.pipeline import TrainedModels
from repro.harness.context import quick_context
from repro.serve.registry import ModelKey, ModelRegistry, StoreMiss


@pytest.fixture(scope="module")
def ctx():
    return quick_context()


class TestModelKey:
    def test_slug_is_filesystem_safe(self):
        key = ModelKey(device="NVIDIA GTX Titan X", recipe="paper")
        assert key.slug == "nvidia-gtx-titan-x__paper__interactions"

    def test_distinct_keys_distinct_slugs(self):
        assert ModelKey(recipe="paper").slug != ModelKey(recipe="quick").slug
        assert (
            ModelKey(features="interactions").slug
            != ModelKey(features="paper10+loops").slug
        )

    def test_invalid_features_rejected(self):
        with pytest.raises(ValueError, match="features"):
            ModelKey(features="everything")

    def test_unknown_device_rejected(self):
        with pytest.raises(KeyError, match="unknown device"):
            ModelKey(device="TPU v9").device_spec()


class TestRegistry:
    def test_missing_key_misses(self, tmp_path):
        registry = ModelRegistry(root=tmp_path)
        with pytest.raises(StoreMiss):
            registry.get(ModelKey(recipe="quick"))
        assert registry.entries() == []

    def test_fresh_registry_loads_from_disk(self, tmp_path, ctx):
        key = ModelKey(recipe="quick")
        ModelRegistry(root=tmp_path).put(key, ctx.models)
        reloaded_registry = ModelRegistry(root=tmp_path)
        reloaded = reloaded_registry.get(key)
        assert isinstance(reloaded, TrainedModels)
        statics = list(ctx.dataset.static_features.values())[:2]
        for want, got in zip(
            ctx.models.predict_objective_arrays(statics, ctx.settings),
            reloaded.predict_objective_arrays(statics, ctx.settings),
        ):
            assert np.array_equal(want, got)

    def test_contains_and_entries(self, tmp_path, ctx):
        registry = ModelRegistry(root=tmp_path)
        key = ModelKey(recipe="quick")
        assert key not in registry
        registry.put(key, ctx.models)
        assert key in registry
        assert registry.entries() == [key.slug]

    def test_put_registers_external_bundle(self, tmp_path, ctx):
        registry = ModelRegistry(root=tmp_path)
        key = ModelKey(recipe="quick")
        path = registry.put(key, ctx.models, extra_meta={"recipe": "x", "n": 1})
        assert path == tmp_path / f"{key.slug}.json"
        # Key fields win over extra provenance on collision.
        assert registry.meta_for(key) == {"n": 1, **key.as_meta()}
        assert registry.known_keys() == [key]

    def test_keys_map_to_distinct_files(self, tmp_path, ctx):
        registry = ModelRegistry(root=tmp_path)
        registry.put(ModelKey(recipe="quick"), ctx.models)
        registry.put(ModelKey(recipe="quick", features="paper10+loops"), ctx.models)
        assert len(registry.entries()) == 2

    def test_concat_artifact_is_skipped_by_known_keys(self, tmp_path, ctx):
        """A ``*__concat.json`` bundle (no interaction columns) names no
        valid key, so discovery passes over it like any foreign file."""
        from repro.core.pipeline import save_models

        registry = ModelRegistry(root=tmp_path)
        key = ModelKey(recipe="quick")
        registry.put(key, ctx.models)
        concat_slug = key.slug.replace("__interactions", "__concat")
        save_models(
            registry.path_for_slug(concat_slug),
            ctx.models,
            meta={**key.as_meta(), "features": "concat"},
        )
        assert registry.entries() == sorted([key.slug, concat_slug])
        assert registry.known_keys() == [key]
