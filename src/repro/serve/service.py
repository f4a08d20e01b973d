"""The serving facade: cached features + persistent models + batched predict.

:class:`PredictionService` is the one object a deployment talks to.  It
owns a :class:`~repro.serve.cache.KernelFeatureCache` (skip the frontend on
repeat sources), a trained bundle (from a registry, an artifact file, or
in-memory training), and a :class:`~repro.core.predictor.ParetoPredictor`
whose batch path runs one vectorized model pass for a whole request batch.
Every request updates hit/miss and latency counters so operators can see
where time goes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..core.config import modeled_subset
from ..core.pipeline import TrainedModels, load_models
from ..core.predictor import ParetoPredictor, PredictedParetoSet
from ..features.vector import StaticFeatures
from ..gpusim.device import DeviceSpec, _alias_slug
from ..obs import HistogramValue, MetricsRegistry, declare_serve_metrics
from ..obs.instruments import (
    SERVE_EXTRACT_SECONDS,
    SERVE_KERNELS_TOTAL,
    SERVE_PREDICT_SECONDS,
    SERVE_REQUESTS_TOTAL,
)
from .cache import CacheStats, KernelFeatureCache


class ServiceError(RuntimeError):
    """Raised when a service is assembled from mismatched parts."""


def _normalize(request) -> tuple[str, str | None]:
    if isinstance(request, str):
        return request, None
    source, kernel_name = request
    return source, kernel_name


@dataclass
class ServiceStats:
    """Registry-backed request counters and stage-latency histograms.

    Since the ``repro.obs`` rebase this is a *view* over serve metrics in
    a :class:`~repro.obs.MetricsRegistry` — ``single_requests`` reads
    ``repro_serve_requests_total{mode="single"}``, ``extract_seconds`` is
    the extraction histogram's sum, and :meth:`as_dict` additionally
    reports real latency percentiles (p50/p95/p99) interpolated from the
    histogram buckets.  The flat key names predate the rebase and are the
    CLI's stable interface (``repro predict-batch --stats``).

    ``device`` is the metric label this view reads/writes (a device slug
    in a fleet, ``""`` for a standalone service).  ``feature_cache`` is
    wired to the service's live :class:`~repro.serve.cache.CacheStats` so
    one ``as_dict()`` carries the whole telemetry picture — without the
    cache's hit/miss counters an operator cannot see the warm-cache
    effect that dominates serving latency (a hit skips the entire
    clkernel frontend).
    """

    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    device: str = ""
    feature_cache: CacheStats | None = None

    def __post_init__(self) -> None:
        declare_serve_metrics(self.registry)

    # -- registry plumbing -------------------------------------------------------

    def _hist(self, name: str) -> HistogramValue:
        metric = self.registry.get(name)
        assert metric is not None
        return metric.child(device=self.device)

    def _requests(self, mode: str) -> int:
        return int(
            self.registry.value(SERVE_REQUESTS_TOTAL, device=self.device, mode=mode)
        )

    # -- recorders (the service's event feed) ------------------------------------

    def observe_extract(self, seconds: float) -> None:
        """One kernel's feature extraction finished (cache hits included)."""
        self.registry.get(SERVE_EXTRACT_SECONDS).observe(  # type: ignore[union-attr]
            seconds, device=self.device
        )

    def observe_predict(self, seconds: float, kernels: int, mode: str) -> None:
        """One request's model pass finished (a batch is one sample)."""
        self.registry.get(SERVE_PREDICT_SECONDS).observe(  # type: ignore[union-attr]
            seconds, device=self.device
        )
        self.registry.get(SERVE_REQUESTS_TOTAL).inc(  # type: ignore[union-attr]
            1.0, device=self.device, mode=mode
        )
        self.registry.get(SERVE_KERNELS_TOTAL).inc(  # type: ignore[union-attr]
            float(kernels), device=self.device
        )

    # -- the stable counter views ------------------------------------------------

    @property
    def single_requests(self) -> int:
        return self._requests("single")

    @property
    def batch_requests(self) -> int:
        return self._requests("batch")

    @property
    def kernels_served(self) -> int:
        return int(self.registry.value(SERVE_KERNELS_TOTAL, device=self.device))

    @property
    def extract_seconds(self) -> float:
        return self._hist(SERVE_EXTRACT_SECONDS).sum

    @property
    def predict_seconds(self) -> float:
        return self._hist(SERVE_PREDICT_SECONDS).sum

    @classmethod
    def merged(cls, parts: "Sequence[ServiceStats]") -> "ServiceStats":
        """Fold request counters and latency histograms across services.

        Histograms merge bucket-wise, so the fleet view has honest
        percentiles, not averages of averages.  ``feature_cache`` is
        deliberately left ``None``: in a fleet every service shares one
        cache, so summing the per-service views would multiple-count the
        same counters — the fleet reports the shared cache once, at the
        top level.
        """
        out = cls()
        requests = out.registry.get(SERVE_REQUESTS_TOTAL)
        kernels = out.registry.get(SERVE_KERNELS_TOTAL)
        assert requests is not None and kernels is not None
        for part in parts:
            requests.inc(float(part.single_requests), device="", mode="single")
            requests.inc(float(part.batch_requests), device="", mode="batch")
            kernels.inc(float(part.kernels_served), device="")
            for name in (SERVE_EXTRACT_SECONDS, SERVE_PREDICT_SECONDS):
                out._hist(name).merge(part._hist(name))
        return out

    def as_dict(self) -> dict:
        extract = self._hist(SERVE_EXTRACT_SECONDS)
        predict = self._hist(SERVE_PREDICT_SECONDS)
        stats = {
            "single_requests": self.single_requests,
            "batch_requests": self.batch_requests,
            "kernels_served": self.kernels_served,
            "extract_seconds": extract.sum,
            "predict_seconds": predict.sum,
            "extract_latency": extract.percentiles(),
            "predict_latency": predict.percentiles(),
        }
        if self.feature_cache is not None:
            stats["feature_cache"] = self.feature_cache.as_dict()
        return stats


@dataclass
class PredictionService:
    """Facade over cache + models + predictor with built-in telemetry."""

    models: TrainedModels
    device: DeviceSpec
    #: When None, a cache matching the models' feature recipe is built.
    #: A supplied cache must extract with that same recipe — mismatched
    #: widths would poison every downstream design matrix.
    cache: KernelFeatureCache | None = None
    use_mem_l_heuristic: bool = True
    candidates: list[tuple[float, float]] | None = None
    clock: Callable[[], float] = time.perf_counter
    stats: ServiceStats = field(default_factory=ServiceStats)

    def __post_init__(self) -> None:
        recipe = self.models.feature_recipe
        if self.cache is None:
            extractor = None
            if recipe != "paper10":
                from ..features.extractor import ExtractorConfig, FeatureExtractor

                extractor = FeatureExtractor(ExtractorConfig(recipe=recipe))
            self.cache = KernelFeatureCache(extractor=extractor)
        else:
            cached = self.cache.extractor.config.recipe
            if cached != recipe:
                raise ServiceError(
                    f"feature cache extracts recipe {cached!r} but the model "
                    f"bundle was trained with {recipe!r}"
                )
        # One telemetry object: the cache's counters ride along in every
        # ServiceStats.as_dict() (see `repro predict-batch --stats`).
        self.stats.feature_cache = self.cache.stats
        if not self.stats.device:
            self.stats.device = _alias_slug(self.device.name)
        # Mirror cache counters into the stats registry (first bind wins,
        # so a fleet's shared registry is not re-bound per service).
        self.cache.bind_metrics(self.stats.registry)
        if self.candidates is None and self.models.settings:
            # Predict over the modeled subset of the settings the bundle
            # was trained on — the paper_context convention.
            try:
                self.candidates = modeled_subset(self.device, self.models.settings)
            except KeyError as exc:
                raise ServiceError(
                    f"model bundle does not fit device {self.device.name!r}: "
                    f"{exc.args[0] if exc.args else exc}"
                ) from None
        self.predictor = ParetoPredictor(
            self.models,
            self.device,
            use_mem_l_heuristic=self.use_mem_l_heuristic,
            candidates=self.candidates or None,
        )

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_artifact(
        cls, path, device: DeviceSpec | None = None, **kwargs
    ) -> "PredictionService":
        """Load a saved bundle; device resolves from the artifact's metadata.

        Raises :class:`ServiceError` when the artifact names no known
        device and none is passed — a silent default could pair the
        bundle with frequency menus it was never trained on.
        """
        from ..gpusim.device import DEVICE_REGISTRY

        models, meta = load_models(path)
        if device is None:
            name = meta.get("device")
            device = DEVICE_REGISTRY.get(name) if name else None
            if device is None:
                known = ", ".join(sorted(DEVICE_REGISTRY))
                raise ServiceError(
                    f"artifact {path} names no known device "
                    f"(meta device: {name!r}; known: {known}); "
                    f"pass device= explicitly"
                )
        meta_features = meta.get("features")
        if meta_features is not None:
            meta_recipe = (
                "paper10"
                if meta_features in ("interactions", "concat")
                else meta_features
            )
            if meta_recipe != models.feature_recipe:
                raise ServiceError(
                    f"artifact {path} meta declares feature recipe "
                    f"{meta_recipe!r} but the payload was trained with "
                    f"{models.feature_recipe!r}"
                )
        return cls(models=models, device=device, **kwargs)

    # -- serving ----------------------------------------------------------------

    def features_for(self, source: str, kernel_name: str | None = None) -> StaticFeatures:
        """Cached feature extraction with latency accounting."""
        start = self.clock()
        features = self.cache.get(source, kernel_name)
        self.stats.observe_extract(self.clock() - start)
        return features

    def predict(self, source: str, kernel_name: str | None = None) -> PredictedParetoSet:
        """One kernel → its predicted Pareto set (a batch of one)."""
        return self._predict([(source, kernel_name)], mode="single")[0]

    def predict_batch(self, requests: Sequence) -> list[PredictedParetoSet]:
        """Many kernels → their Pareto sets via one vectorized model pass.

        ``requests`` items are source strings or ``(source, kernel_name)``
        pairs.  Results are in request order.
        """
        return self._predict([_normalize(r) for r in requests], mode="batch")

    def _predict(
        self, pairs: list[tuple[str, str | None]], mode: str
    ) -> list[PredictedParetoSet]:
        """The one prediction body; ``mode`` labels the request counter."""
        features = [self.features_for(src, name) for src, name in pairs]
        start = self.clock()
        results = self.predictor.predict_batch(features)
        self.stats.observe_predict(
            self.clock() - start, kernels=len(results), mode=mode
        )
        return results

    # -- telemetry --------------------------------------------------------------

    def stats_summary(self) -> dict:
        """Service counters (cache counters included) plus predictor facts."""
        summary = self.stats.as_dict()
        summary["candidates"] = len(self.predictor.candidates)
        return summary
