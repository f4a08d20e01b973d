"""Content-hash LRU cache over kernel source → static features.

Feature extraction runs the whole clkernel frontend (lex → parse → lower →
count); for serving, where the same kernel text arrives again and again
from an autotuner's inner loop, that work is pure waste.  The cache keys on
a SHA-256 fingerprint of the *source text*, the requested kernel name, and
the extractor configuration, so:

* a repeat request returns the **identical** :class:`StaticFeatures` object
  without touching the frontend;
* any edit to the source (or asking for a different kernel in the same
  translation unit, or changing extractor knobs) changes the fingerprint
  and misses — stale features can never be served.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from concurrent.futures import Future

from ..features.extractor import ExtractorConfig, FeatureExtractor
from ..features.vector import StaticFeatures
from ..obs import MetricsRegistry, declare_cache_metrics
from ..obs.instruments import (
    FEATURE_CACHE_EVICTIONS_TOTAL,
    FEATURE_CACHE_REQUESTS_TOTAL,
)


def source_fingerprint(
    source: str,
    kernel_name: str | None = None,
    config: ExtractorConfig | None = None,
) -> str:
    """SHA-256 over everything that determines the extracted features.

    The config enters via :meth:`ExtractorConfig.fingerprint`, which
    covers every config field (through the dataclass ``repr``) *and* the
    resolved feature recipe's layout fingerprint — so two recipes (or any
    two knob settings) can never share an entry, even for identical
    source text.
    """
    return _keyed(source, kernel_name, (config or ExtractorConfig()).fingerprint())


def _keyed(source: str, kernel_name: str | None, config_print: str) -> str:
    hasher = hashlib.sha256()
    for part in (kernel_name or "", config_print, source):
        hasher.update(part.encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.hexdigest()


class KernelFeatureCache:
    """LRU map from source fingerprints to extracted features.

    Hits, misses and evictions are counted in ``metrics``, the registry
    the cache is built with (a private one when none is given); a serving
    facade reads its cache numbers from there.  The extractor config's
    fingerprint is computed once, here: configs are frozen, and rehashing
    it on every lookup cost more than a third of a warm ``get``.

    Thread-safe: the serve daemon's per-device lanes share one instance
    across worker threads, so lookups and LRU bookkeeping are serialized
    under a lock.  Extraction runs outside it, single-flight per key: the
    first miss extracts, and concurrent lookups of the same key wait for
    that extraction and share its features or its error (an error is not
    cached).  A hit on another key never waits behind it.  A miss counts
    an extraction, so a lookup that joins one counts as a hit.
    """

    def __init__(
        self,
        extractor: FeatureExtractor | None = None,
        capacity: int = 512,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.extractor = extractor or FeatureExtractor()
        self.capacity = capacity
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        declare_cache_metrics(self.metrics)
        self._requests = self.metrics.get(FEATURE_CACHE_REQUESTS_TOTAL)
        self._evictions = self.metrics.get(FEATURE_CACHE_EVICTIONS_TOTAL)
        self._config_print = self.extractor.config.fingerprint()
        self._entries: OrderedDict[str, StaticFeatures] = OrderedDict()
        #: Extractions in progress, by key.
        self._flights: dict[str, Future] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, source: str, kernel_name: str | None = None) -> StaticFeatures:
        """Return features for ``source``, extracting only on a miss."""
        key = _keyed(source, kernel_name, self._config_print)
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self._requests.inc(1.0, result="hit")
                return cached
            flight = self._flights.get(key)
            extracts = flight is None
            if extracts:
                flight = self._flights[key] = Future()
            self._requests.inc(1.0, result="miss" if extracts else "hit")
        if not extracts:
            return flight.result()
        try:
            features = self.extractor.extract(source, kernel_name)
        except BaseException as exc:
            with self._lock:
                del self._flights[key]
            flight.set_exception(exc)
            raise
        with self._lock:
            del self._flights[key]
            self._entries[key] = features
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions.inc(1.0)
        flight.set_result(features)
        return features

    def peek(self, source: str, kernel_name: str | None = None) -> StaticFeatures | None:
        """Non-mutating lookup (no extraction, no LRU/statistics update)."""
        key = _keyed(source, kernel_name, self._config_print)
        with self._lock:
            return self._entries.get(key)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
