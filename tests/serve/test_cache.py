"""Kernel-feature cache: identity on hit, invalidation, LRU, stats, and
single-flight extraction outside the lock."""

import random
import sys
import threading
import time
from collections import Counter

import pytest

from repro.clkernel.errors import CLFrontendError
from repro.features.extractor import ExtractorConfig, FeatureExtractor
from repro.obs import MetricsRegistry
from repro.obs.instruments import (
    FEATURE_CACHE_EVICTIONS_TOTAL,
    FEATURE_CACHE_REQUESTS_TOTAL,
)
from repro.serve.cache import KernelFeatureCache, source_fingerprint
from repro.serve.service import cache_summary
from repro.suite import test_benchmarks as suite_benchmarks

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


class GatedExtractor(FeatureExtractor):
    """An extractor that counts its calls and holds each one until
    ``release`` is set; ``fail`` makes a released call raise."""

    def __init__(self, fail: bool = False) -> None:
        super().__init__()
        self.calls = 0
        self.fail = fail
        self.entered = threading.Event()
        self.release = threading.Event()

    def extract(self, source, kernel_name=None):
        self.calls += 1
        self.entered.set()
        assert self.release.wait(10.0)
        if self.fail:
            raise CLFrontendError("gated failure")
        return super().extract(source, kernel_name)


class CountingExtractor(FeatureExtractor):
    """An extractor that counts its calls per source, under a lock."""

    def __init__(self) -> None:
        super().__init__()
        self.calls: Counter = Counter()
        self._lock = threading.Lock()

    def extract(self, source, kernel_name=None):
        with self._lock:
            self.calls[source] += 1
        return super().extract(source, kernel_name)


class PreloweredExtractor(FeatureExtractor):
    """An extractor that lowers its kernels once, up front, so a lookup's
    time goes to the analysis passes rather than the frontend."""

    def __init__(self, config, keys) -> None:
        super().__init__(config)
        self.irs = {key: self.lower(*key) for key in keys}

    def extract(self, source, kernel_name=None):
        return self.extract_from_ir(self.irs[source, kernel_name])


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.001)


def in_threads(fn, n):
    """Run ``fn`` in ``n`` threads; returns the threads and a list that
    receives each one's result or raised exception."""
    outcomes = []

    def run():
        try:
            outcomes.append(fn())
        except Exception as exc:  # noqa: BLE001 - the outcome under test
            outcomes.append(exc)

    threads = [threading.Thread(target=run) for _ in range(n)]
    for thread in threads:
        thread.start()
    return threads, outcomes


class TestSingleFlight:
    WAITERS = 4

    def test_concurrent_misses_on_one_key_share_one_extraction(self):
        extractor = GatedExtractor()
        cache = KernelFeatureCache(extractor)
        threads, outcomes = in_threads(lambda: cache.get(SAXPY), self.WAITERS)
        wait_until(lambda: lookups(cache, "hit") == self.WAITERS - 1)
        extractor.release.set()
        for thread in threads:
            thread.join(10.0)
        assert extractor.calls == 1
        assert len(outcomes) == self.WAITERS
        assert all(features is cache.peek(SAXPY) for features in outcomes)
        # A miss counts the one extraction; the lookups that joined it hit.
        assert lookups(cache, "miss") == 1
        assert lookups(cache, "hit") == self.WAITERS - 1

    def test_an_error_reaches_every_waiter_and_is_not_cached(self):
        extractor = GatedExtractor(fail=True)
        cache = KernelFeatureCache(extractor)
        threads, outcomes = in_threads(lambda: cache.get(SAXPY), self.WAITERS)
        wait_until(lambda: lookups(cache, "hit") == self.WAITERS - 1)
        extractor.release.set()
        for thread in threads:
            thread.join(10.0)
        assert extractor.calls == 1
        assert len(outcomes) == self.WAITERS
        assert all(isinstance(exc, CLFrontendError) for exc in outcomes)
        assert cache.peek(SAXPY) is None and len(cache) == 0
        with pytest.raises(CLFrontendError):
            cache.get(SAXPY)
        assert extractor.calls == 2

    def test_a_hit_returns_while_another_key_extracts(self):
        extractor = GatedExtractor()
        cache = KernelFeatureCache(extractor)
        extractor.release.set()
        cached = cache.get(TINY)
        extractor.release.clear()
        extractor.entered.clear()
        threads, _ = in_threads(lambda: cache.get(SAXPY), 1)
        assert extractor.entered.wait(10.0)
        hit, hit_outcome = in_threads(lambda: cache.get(TINY), 1)
        hit[0].join(5.0)
        try:
            assert not hit[0].is_alive(), "a hit waited behind another key's extraction"
            assert hit_outcome == [cached]
        finally:
            extractor.release.set()
            for thread in threads + hit:
                thread.join(10.0)
        assert cache.peek(SAXPY) is not None

    def test_many_threads_over_few_keys_extract_each_key_once(self):
        # More threads than cores, switching every microsecond: a lost
        # update to the flights or the entries shows as a second
        # extraction of a key or two feature objects for one source.
        sources = [TINY.replace("1.0f", f"{i}.0f") for i in range(6)]
        extractor = CountingExtractor()
        cache = KernelFeatureCache(extractor)
        lookups_per_thread, n_threads = 200, 8
        seen = []

        def work(seed):
            rng = random.Random(seed)
            for _ in range(lookups_per_thread):
                source = rng.choice(sources)
                seen.append((source, cache.get(source)))

        threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == n_threads * lookups_per_thread
        assert extractor.calls == Counter(sources)
        assert {source: id(f) for source, f in seen} == {
            source: id(cache.peek(source)) for source in sources
        }
        assert len({id(f) for _, f in seen}) == len(sources)
        assert lookups(cache, "miss") == len(sources)
        assert lookups(cache, "hit") == len(seen) - len(sources)

    def test_concurrent_extractions_of_different_kernels_keep_their_features(self):
        # Different kernels extracted at once on the cache's one extractor:
        # an extraction that read another kernel's pass results would
        # cache and serve that kernel's features, so every lookup is
        # compared with a serial extraction of its own kernel.  Every
        # block is on, so each extraction runs every pass it can, and a
        # one-entry cache makes nearly every lookup extract.
        config = ExtractorConfig(recipe="paper10+loops+memmix+divergence")
        keys = [(spec.source, spec.kernel_name) for spec in suite_benchmarks()]
        serial = {key: FeatureExtractor(config).extract(*key) for key in keys}
        assert len(set(serial.values())) == len(keys)
        cache = KernelFeatureCache(PreloweredExtractor(config, keys), capacity=1)
        lookups_per_thread, n_threads = 1000, 8
        start = threading.Barrier(n_threads)
        seen = []

        def work(seed):
            rng = random.Random(seed)
            start.wait(10.0)
            for _ in range(lookups_per_thread):
                key = rng.choice(keys)
                seen.append((key, cache.get(*key)))

        threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == n_threads * lookups_per_thread
        wrong = [key[1] for key, features in seen if features != serial[key]]
        assert not wrong, f"{len(wrong)} lookups served another kernel's features"
