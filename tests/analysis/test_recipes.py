"""Feature recipes: naming, widths, bit-identity, and cache keying."""

import pytest

from repro.analysis import (
    DEFAULT_RECIPE,
    RecipeError,
    is_recipe,
    registered_recipes,
    resolve_recipe,
)
from repro.clkernel.errors import CLFrontendError
from repro.features.extractor import ExtractorConfig, FeatureExtractor
from repro.features.vector import STATIC_FEATURE_NAMES
from repro.serve.cache import KernelFeatureCache, source_fingerprint
from tests.analysis.test_diagnostics import OVERFLOW

SOURCE = """
__kernel void mix(__global float* g, __local float* l, int n) {
    int i = get_global_id(0);
    for (int k = 0; k < 8; k++) {
        if (i < n) {
            l[i] = g[i] * 2.0f;
        }
    }
    barrier(CLK_LOCAL_MEM_FENCE);
    g[i] = l[i] + 1.0f;
}
"""


class TestResolution:
    def test_default_recipe_resolves(self):
        recipe = resolve_recipe(DEFAULT_RECIPE)
        assert recipe.width == len(STATIC_FEATURE_NAMES)
        assert recipe.column_names == STATIC_FEATURE_NAMES

    def test_unknown_base_rejected(self):
        with pytest.raises(RecipeError):
            resolve_recipe("paper11")

    def test_unknown_block_rejected(self):
        with pytest.raises(RecipeError):
            resolve_recipe("paper10+frobnication")

    def test_repeated_block_rejected(self):
        with pytest.raises(RecipeError):
            resolve_recipe("paper10+loops+loops")

    def test_is_recipe(self):
        assert is_recipe("paper10")
        assert is_recipe("paper10+loops+memmix")
        assert not is_recipe("interactions")

    def test_registered_recipes_cover_bases_and_blocks(self):
        names = registered_recipes()
        assert "paper10" in names
        assert "paper10-raw" in names
        assert "paper10+loops" in names
        assert "paper10+memmix" in names
        assert len(names) >= 3

    def test_blocks_widen_the_vector(self):
        base = resolve_recipe("paper10")
        loops = resolve_recipe("paper10+loops")
        both = resolve_recipe("paper10+loops+memmix")
        assert loops.width > base.width
        assert both.width > loops.width
        # Base columns stay a prefix: downstream code may rely on order.
        assert both.column_names[: base.width] == base.column_names


class TestBitIdentity:
    def test_default_recipe_matches_legacy_vector_exactly(self):
        default = FeatureExtractor().extract(SOURCE)
        explicit = FeatureExtractor(ExtractorConfig(recipe="paper10")).extract(SOURCE)
        assert default.values == explicit.values
        assert default.names == explicit.names
        assert default.total_instructions == explicit.total_instructions
        assert default.raw_counts == explicit.raw_counts

    def test_raw_ablation_is_a_recipe_variant(self):
        shares = FeatureExtractor().extract(SOURCE)
        raw = FeatureExtractor(ExtractorConfig(recipe="paper10-raw")).extract(SOURCE)
        assert raw.values == shares.raw_counts
        # Raw counts are not shares: they exceed 1 for this kernel.
        assert max(raw.values) > 1.0


class TestExtendedExtraction:
    def test_extended_recipe_appends_block_columns(self):
        base = FeatureExtractor().extract(SOURCE)
        wide = FeatureExtractor(
            ExtractorConfig(recipe="paper10+loops+memmix+divergence")
        ).extract(SOURCE)
        assert len(wide.values) == len(wide.names)
        assert len(wide.values) > len(base.values)
        assert wide.values[: len(base.values)] == base.values
        assert wide.names[: len(base.names)] == base.names
        # Every appended column has a fresh name.
        assert len(set(wide.names)) == len(wide.names)


class TestNonFiniteWeights:
    @pytest.mark.parametrize(
        "recipe", ["paper10", "paper10-raw", "paper10+loops+memmix+divergence"]
    )
    def test_overflowing_kernel_has_no_feature_vector(self, recipe):
        extractor = FeatureExtractor(ExtractorConfig(recipe=recipe))
        with pytest.raises(CLFrontendError, match="not finite"):
            extractor.extract(OVERFLOW)


class TestCacheKeys:
    """Satellite 1: recipe/config identity must enter the cache key."""

    def test_fingerprints_differ_across_recipes(self):
        assert source_fingerprint(
            SOURCE, config=ExtractorConfig(recipe="paper10")
        ) != source_fingerprint(SOURCE, config=ExtractorConfig(recipe="paper10+loops"))

    def test_fingerprints_differ_across_knobs(self):
        assert source_fingerprint(
            SOURCE, config=ExtractorConfig(default_trip_count=16)
        ) != source_fingerprint(SOURCE, config=ExtractorConfig(default_trip_count=8))

    def test_two_recipes_never_collide_in_cache(self):
        narrow = KernelFeatureCache(FeatureExtractor(ExtractorConfig()))
        wide = KernelFeatureCache(
            FeatureExtractor(ExtractorConfig(recipe="paper10+loops"))
        )
        a = narrow.get(SOURCE)
        b = wide.get(SOURCE)
        assert len(a.values) != len(b.values)
        # Same source text, different extractor config: distinct keys, so
        # neither cache could ever serve the other's entry.
        assert narrow.peek(SOURCE) is a
        assert wide.peek(SOURCE) is b

    def test_config_fingerprint_is_stable_within_a_config(self):
        cfg = ExtractorConfig(recipe="paper10+memmix")
        assert cfg.fingerprint() == ExtractorConfig(recipe="paper10+memmix").fingerprint()
