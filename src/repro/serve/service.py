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

from ..clkernel.errors import CLFrontendError
from ..core.config import modeled_subset
from ..core.pipeline import TrainedModels, load_models
from ..core.predictor import ParetoPredictor, PredictedParetoSet
from ..features.extractor import ExtractorConfig, FeatureExtractor
from ..features.vector import StaticFeatures
from ..gpusim.device import DeviceSpec, _alias_slug
from ..obs import (
    HistogramValue,
    MetricsRegistry,
    MetricsSnapshot,
    declare_serve_metrics,
)
from ..obs.instruments import (
    FEATURE_CACHE_EVICTIONS_TOTAL,
    FEATURE_CACHE_REQUESTS_TOTAL,
    SERVE_EXTRACT_SECONDS,
    SERVE_KERNELS_TOTAL,
    SERVE_PREDICT_SECONDS,
    SERVE_REQUESTS_TOTAL,
)
from .cache import KernelFeatureCache
from .registry import recipe_for_features


class ServiceError(RuntimeError):
    """Raised when a service is assembled from mismatched parts."""


#: One request's answer: its predicted set, or the frontend's error when
#: its kernel does not extract.
Outcome = PredictedParetoSet | CLFrontendError


def answered(outcome: Outcome) -> PredictedParetoSet:
    """The predicted set of an outcome; a failed request raises its error."""
    if isinstance(outcome, CLFrontendError):
        raise outcome
    return outcome


def _normalize(request) -> tuple[str, str | None]:
    if isinstance(request, str):
        return request, None
    source, kernel_name = request
    return source, kernel_name


def serve_summary(snapshot: MetricsSnapshot, devices: Sequence[str]) -> dict:
    """The ``--stats`` serving keys, summed over ``devices``' series.

    The one reader behind every ``stats_summary()``: a service passes its
    own device slug, a fleet each loaded slug and then all of them (the
    merged view).  Histograms merge bucket-wise, so a merged view has
    honest percentiles, not averages of averages.
    """

    def total(name: str, **labels: str) -> int:
        return int(sum(snapshot.value(name, device=d, **labels) for d in devices))

    def merged(name: str) -> HistogramValue:
        family = snapshot.families[name]
        out = HistogramValue(family.buckets or ())
        for device in devices:
            part = snapshot.histogram(name, device=device)
            if part is not None:
                out.merge(part)
        return out

    extract = merged(SERVE_EXTRACT_SECONDS)
    predict = merged(SERVE_PREDICT_SECONDS)
    return {
        "single_requests": total(SERVE_REQUESTS_TOTAL, mode="single"),
        "batch_requests": total(SERVE_REQUESTS_TOTAL, mode="batch"),
        "kernels_served": total(SERVE_KERNELS_TOTAL),
        "extract_seconds": extract.sum,
        "predict_seconds": predict.sum,
        "extract_latency": extract.percentiles(),
        "predict_latency": predict.percentiles(),
    }


def cache_summary(snapshot: MetricsSnapshot) -> dict:
    """The feature-cache keys of ``--stats`` (every cache in the registry)."""
    hits = int(snapshot.value(FEATURE_CACHE_REQUESTS_TOTAL, result="hit"))
    misses = int(snapshot.value(FEATURE_CACHE_REQUESTS_TOTAL, result="miss"))
    return {
        "hits": hits,
        "misses": misses,
        "evictions": int(snapshot.value(FEATURE_CACHE_EVICTIONS_TOTAL)),
        "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
    }


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
    #: The registry this service records into: its feature cache's, so
    #: services sharing a cache (a fleet's) share one registry and tell
    #: their series apart by the ``device`` label.
    metrics: MetricsRegistry = field(init=False)

    def __post_init__(self) -> None:
        recipe = self.models.feature_recipe
        if self.cache is None:
            self.cache = KernelFeatureCache(
                FeatureExtractor(ExtractorConfig(recipe=recipe))
            )
        else:
            cached = self.cache.extractor.config.recipe
            if cached != recipe:
                raise ServiceError(
                    f"feature cache extracts recipe {cached!r} but the model "
                    f"bundle was trained with {recipe!r}"
                )
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
        self.metrics = self.cache.metrics
        self.slug = _alias_slug(self.device.name)
        declare_serve_metrics(self.metrics)
        self._requests = self.metrics.get(SERVE_REQUESTS_TOTAL)
        self._extract_seconds = self.metrics.get(SERVE_EXTRACT_SECONDS)
        self._predict_seconds = self.metrics.get(SERVE_PREDICT_SECONDS)
        # Touched so a loaded but idle device still lists (at zero) in a
        # fleet's per-device stats.
        self._kernels = self.metrics.get(SERVE_KERNELS_TOTAL).touch(device=self.slug)

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
            meta_recipe = recipe_for_features(meta_features)
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
        self._extract_seconds.observe(self.clock() - start, device=self.slug)
        return features

    def predict(self, source: str, kernel_name: str | None = None) -> PredictedParetoSet:
        """One kernel → its predicted Pareto set (a batch of one).

        Raises :class:`CLFrontendError` when the kernel does not extract.
        """
        return answered(self._predict([(source, kernel_name)], mode="single")[0])

    def predict_batch(self, requests: Sequence) -> list[Outcome]:
        """Many kernels → their Pareto sets via one vectorized model pass.

        ``requests`` items are source strings or ``(source, kernel_name)``
        pairs.  Answers are per request, in request order: a kernel the
        frontend rejects gets its :class:`CLFrontendError` in its slot
        and costs the other requests nothing, as in the daemon.
        """
        return self._predict([_normalize(r) for r in requests], mode="batch")

    def _predict(
        self, pairs: list[tuple[str, str | None]], mode: str
    ) -> list[Outcome]:
        """Extract each request, then one model pass over those extracted."""
        outcomes: list[Outcome | StaticFeatures] = []
        for source, name in pairs:
            try:
                outcomes.append(self.features_for(source, name))
            except CLFrontendError as exc:
                outcomes.append(exc)
        features = [o for o in outcomes if isinstance(o, StaticFeatures)]
        results = iter(self.predict_features(features, mode) if features else ())
        return [
            next(results) if isinstance(o, StaticFeatures) else o for o in outcomes
        ]

    def predict_features(
        self, features: Sequence[StaticFeatures], mode: str = "batch"
    ) -> list[PredictedParetoSet]:
        """One model pass over already-extracted kernels.

        The one prediction body; ``mode`` labels the request counter.  The
        daemon calls it directly with the features it extracted request
        by request, so no request is looked up twice.
        """
        start = self.clock()
        results = self.predictor.predict_batch(features)
        self._predict_seconds.observe(self.clock() - start, device=self.slug)
        self._requests.inc(1.0, device=self.slug, mode=mode)
        self._kernels.inc(float(len(results)), device=self.slug)
        return results

    # -- telemetry --------------------------------------------------------------

    def stats_summary(self) -> dict:
        """Service counters (cache counters included) plus predictor facts."""
        snapshot = self.metrics.snapshot()
        summary = serve_summary(snapshot, [self.slug])
        summary["feature_cache"] = cache_summary(snapshot)
        summary["candidates"] = len(self.predictor.candidates)
        return summary
