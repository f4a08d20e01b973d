"""Kernel-feature cache: identity on hit, invalidation, LRU, stats."""

from repro.features.extractor import ExtractorConfig, FeatureExtractor
from repro.obs import MetricsRegistry
from repro.obs.instruments import (
    FEATURE_CACHE_EVICTIONS_TOTAL,
    FEATURE_CACHE_REQUESTS_TOTAL,
)
from repro.serve.cache import KernelFeatureCache, source_fingerprint
from repro.serve.service import cache_summary

SAXPY = """
__kernel void saxpy(__global float* x, __global float* y, float a) {
  int i = get_global_id(0);
  y[i] = a * x[i] + y[i];
}
"""

SAXPY_EDITED = SAXPY.replace("a * x[i] + y[i]", "a * x[i] - y[i]")

TINY = "__kernel void k(__global float* x) { x[0] = 1.0f; }\n"


def lookups(cache: KernelFeatureCache, result: str) -> float:
    """The cache's hit or miss count, read from its metrics registry."""
    return cache.metrics.value(FEATURE_CACHE_REQUESTS_TOTAL, result=result)


TWO_KERNELS = """
__kernel void first(__global float* x) {
  int i = get_global_id(0);
  x[i] = x[i] + 1.0f;
}
__kernel void second(__global float* x) {
  int i = get_global_id(0);
  x[i] = x[i] * x[i];
}
"""


class TestFingerprint:
    def test_deterministic(self):
        assert source_fingerprint(SAXPY) == source_fingerprint(SAXPY)

    def test_source_change_changes_fingerprint(self):
        assert source_fingerprint(SAXPY) != source_fingerprint(SAXPY_EDITED)

    def test_kernel_name_is_part_of_key(self):
        assert source_fingerprint(TWO_KERNELS, "first") != source_fingerprint(
            TWO_KERNELS, "second"
        )

    def test_extractor_config_is_part_of_key(self):
        assert source_fingerprint(SAXPY) != source_fingerprint(
            SAXPY, config=ExtractorConfig(default_trip_count=7)
        )

    def test_digests_are_pinned(self):
        # Cache keys are part of the serving contract: these digests must
        # not move when the hashing code is reorganized.
        assert source_fingerprint(TINY) == (
            "2150a9da81f3fb6757100e7294037180427b6ef478efe5c8bebb1a466e2e93cf"
        )
        assert source_fingerprint(TINY, "k") == (
            "07400c8e51eb4bf2c6e4ec84daaa2cb549b10015957839e0b545f4d5cf0d04c8"
        )
        assert source_fingerprint(TINY, config=ExtractorConfig(default_trip_count=7)) == (
            "58356fdb95dca12f91f4e18e1baf9c13fcfea5547adf8bfcd1426b54580e1b63"
        )
        assert source_fingerprint(TINY, "k", ExtractorConfig(recipe="paper10+loops")) == (
            "f208816429de42d2d9144fe46747e9a912af7b80df4a21f6a75a316b36737673"
        )

    def test_cache_keys_entries_by_source_fingerprint(self):
        config = ExtractorConfig(recipe="paper10+loops")
        cache = KernelFeatureCache(FeatureExtractor(config))
        cache.get(TINY, "k")
        assert list(cache._entries) == [source_fingerprint(TINY, "k", config)]


class TestCacheBehaviour:
    def test_hit_returns_identical_object(self):
        cache = KernelFeatureCache()
        first = cache.get(SAXPY)
        second = cache.get(SAXPY)
        assert second is first
        assert lookups(cache, "hit") == 1 and lookups(cache, "miss") == 1

    def test_matches_direct_extraction(self):
        cache = KernelFeatureCache()
        cached = cache.get(SAXPY)
        direct = FeatureExtractor().extract(SAXPY)
        assert cached.values == direct.values
        assert cached.kernel_name == direct.kernel_name

    def test_source_edit_invalidates(self):
        cache = KernelFeatureCache()
        original = cache.get(SAXPY)
        edited = cache.get(SAXPY_EDITED)
        assert edited is not original
        assert lookups(cache, "miss") == 2

    def test_kernel_name_selects_entry(self):
        cache = KernelFeatureCache()
        first = cache.get(TWO_KERNELS, "first")
        second = cache.get(TWO_KERNELS, "second")
        assert first.kernel_name == "first"
        assert second.kernel_name == "second"
        assert cache.get(TWO_KERNELS, "first") is first

    def test_lru_eviction(self):
        cache = KernelFeatureCache(capacity=2)
        a = cache.get(SAXPY)
        cache.get(SAXPY_EDITED)
        cache.get(SAXPY)  # refresh a: now SAXPY_EDITED is least recent
        cache.get(TWO_KERNELS, "first")  # evicts SAXPY_EDITED
        assert cache.metrics.value(FEATURE_CACHE_EVICTIONS_TOTAL) == 1
        assert cache.get(SAXPY) is a  # still cached
        assert cache.peek(SAXPY_EDITED) is None

    def test_peek_does_not_mutate(self):
        cache = KernelFeatureCache()
        assert cache.peek(SAXPY) is None
        assert lookups(cache, "hit") + lookups(cache, "miss") == 0
        cached = cache.get(SAXPY)
        assert cache.peek(SAXPY) is cached
        assert lookups(cache, "hit") + lookups(cache, "miss") == 1

    def test_clear(self):
        cache = KernelFeatureCache()
        cache.get(SAXPY)
        cache.clear()
        assert len(cache) == 0
        assert cache.peek(SAXPY) is None

    def test_stats_hit_rate(self):
        registry = MetricsRegistry()
        cache = KernelFeatureCache(metrics=registry)
        cache.get(SAXPY)
        cache.get(SAXPY)
        cache.get(SAXPY)
        # The cache counts into the registry it was built with.
        assert cache.metrics is registry
        summary = cache_summary(registry.snapshot())
        assert summary["hit_rate"] == 2 / 3
        assert summary["hits"] == 2
