"""Fleet serving: one front door routing predictions across devices.

A campaign (:mod:`repro.campaign`) leaves a store with one trained bundle
per device — but :class:`~repro.serve.service.PredictionService` speaks
for exactly one of them.  :class:`FleetService` closes that gap: it wraps
the store's :class:`~repro.serve.registry.ModelRegistry`, routes every
request by device key (full names and any :func:`~repro.gpusim.device.resolve_device`
alias spell the same route), and lazy-loads one per-device service on
first use, optionally bounded by an LRU so a long-tail fleet does not pin
every bundle in memory.  That LRU is the only cache of loaded bundles:
the registry reads from disk on every ``get``.

Two invariants the tests pin down:

* **Byte identity** — a routed prediction is produced by a
  :class:`PredictionService` built exactly the way a direct caller would
  build one (``registry.get(key)`` + ``key.device_spec()``), so the fleet
  adds routing, never a different answer.
* **One shared feature cache** — static features depend only on the
  kernel source, never on the device, so the whole fleet shares a single
  :class:`~repro.serve.cache.KernelFeatureCache`: a kernel extracted for
  one device is a warm hit when requested for any other.
"""

from __future__ import annotations

import pathlib
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..core.predictor import PredictedParetoSet
from ..features.extractor import ExtractorConfig, FeatureExtractor
from ..gpusim.device import device_slug, resolve_device
from ..obs import declare_fleet_metrics, declare_serve_metrics
from ..obs.instruments import (
    FLEET_BATCHES_ROUTED_TOTAL,
    FLEET_REQUESTS_ROUTED_TOTAL,
    FLEET_SERVICE_EVICTIONS_TOTAL,
    FLEET_SERVICE_HITS_TOTAL,
    FLEET_SERVICE_LOADS_TOTAL,
    SERVE_KERNELS_TOTAL,
)
from ..store import ArtifactError
from ..store.layout import MODELS_SUBDIR
from .cache import KernelFeatureCache
from .registry import ModelKey, ModelRegistry, StoreMiss
from .service import (
    Outcome,
    PredictionService,
    ServiceError,
    answered,
    cache_summary,
    serve_summary,
)


class FleetError(ServiceError):
    """Raised when a request cannot be routed to a device's service."""


#: When a store holds several bundles for one device, prefer recipes in
#: this order (then lexicographic); ``interactions`` features beat the
#: ``concat`` ablation.  Deterministic, so two processes opening the same
#: store route identically.
RECIPE_PREFERENCE = ("paper", "quick")


def _key_rank(key: ModelKey) -> tuple[int, str, int, str]:
    try:
        recipe_rank = RECIPE_PREFERENCE.index(key.recipe)
    except ValueError:
        recipe_rank = len(RECIPE_PREFERENCE)
    return (recipe_rank, key.recipe, 0 if key.interactions else 1, key.features)


def _discover_routes(
    registry: ModelRegistry,
    recipe: str | None = None,
    features: str | None = None,
) -> dict[str, ModelKey]:
    """Device slug → preferred :class:`ModelKey` from envelope metadata.

    The deterministic discovery rule shared by :meth:`FleetService.from_campaign_store`
    and hot reload: narrow by ``recipe``/``features`` if given, then let
    :data:`RECIPE_PREFERENCE` pick one bundle per device.
    """
    keys = registry.known_keys()
    if recipe is not None:
        keys = [k for k in keys if k.recipe == recipe]
    if features is not None:
        keys = [k for k in keys if k.features == features]
    chosen: dict[str, ModelKey] = {}
    for key in sorted(keys, key=_key_rank):
        try:
            slug = device_slug(key.device)
        except KeyError:
            continue  # bundle for a device this build does not know
        chosen.setdefault(slug, key)
    return chosen


@dataclass(frozen=True)
class FleetReload:
    """What one :meth:`FleetService.refresh_from_store` pass changed."""

    added: tuple[str, ...] = ()
    removed: tuple[str, ...] = ()
    updated: tuple[str, ...] = ()

    @property
    def changed(self) -> bool:
        return bool(self.added or self.removed or self.updated)

    def as_dict(self) -> dict:
        return {
            "added": list(self.added),
            "removed": list(self.removed),
            "updated": list(self.updated),
        }


def _normalize_request(request) -> tuple[str, str, str | None]:
    """A batch item → ``(device, source, kernel_name)``."""
    if isinstance(request, str):
        raise FleetError(
            "fleet batch requests must name a device: pass "
            "(device, source) or (device, source, kernel_name) tuples"
        )
    if len(request) == 2:
        device, source = request
        return device, source, None
    device, source, kernel_name = request
    return device, source, kernel_name


class FleetService:
    """Multi-device prediction front door over one model registry.

    Parameters
    ----------
    registry:
        The model registry the fleet resolves bundles from.
    keys:
        One :class:`ModelKey` per device — the routing table.  Two keys
        for the same device are rejected (the route would be ambiguous);
        use :meth:`from_campaign_store` to let preference rules pick one.
    max_services:
        Optional LRU bound on concurrently loaded per-device services.
        The services hold the fleet's only references to loaded bundles,
        so the bound caps memory; the next request for an evicted device
        reloads from disk, and its request counters survive the round
        trip.
    cache:
        The fleet-wide :class:`KernelFeatureCache`.  Every per-device
        service shares this one instance — the invariant that makes a
        kernel extracted for one device a warm hit on every other.  Its
        metrics registry becomes the fleet's :attr:`metrics`.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        keys: Iterable[ModelKey],
        max_services: int | None = None,
        cache: KernelFeatureCache | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if max_services is not None and max_services < 1:
            raise ValueError("max_services must be >= 1")
        self.registry = registry
        self.max_services = max_services
        self.feature_cache = cache or KernelFeatureCache()
        self.clock = clock
        #: One registry for the whole fleet — the shared cache's: routing
        #: counters, every device's serving series and every cache's
        #: counters land here, so one snapshot is the complete serving
        #: picture, and a device's counts outlive its evicted service.
        self.metrics = self.feature_cache.metrics
        declare_serve_metrics(self.metrics)
        declare_fleet_metrics(self.metrics)
        self._routed = self.metrics.get(FLEET_REQUESTS_ROUTED_TOTAL)
        self._batches = self.metrics.get(FLEET_BATCHES_ROUTED_TOTAL)
        self._service_loads = self.metrics.get(FLEET_SERVICE_LOADS_TOTAL)
        self._service_hits = self.metrics.get(FLEET_SERVICE_HITS_TOTAL)
        self._service_evictions = self.metrics.get(FLEET_SERVICE_EVICTIONS_TOTAL)
        #: One shared cache per feature recipe: vectors from different
        #: recipes have different widths/meanings, so each recipe's routes
        #: share a cache among themselves only.  `feature_cache` serves the
        #: routes of the recipe it extracts.
        self._recipe_caches: dict[str, KernelFeatureCache] = {
            self.feature_cache.extractor.config.recipe: self.feature_cache
        }
        self._keys: dict[str, ModelKey] = {}
        for key in keys:
            slug = device_slug(key.device)
            if slug in self._keys:
                raise FleetError(
                    f"two model keys route to device {key.device_spec().name!r} "
                    f"({self._keys[slug]!r} and {key!r}); a fleet serves one "
                    f"bundle per device"
                )
            self._keys[slug] = key
        if not self._keys:
            raise FleetError("a fleet needs at least one model key")
        #: slug → live service, most recently used last.
        self._services: OrderedDict[str, PredictionService] = OrderedDict()
        #: Discovery filters when built by from_campaign_store (enables
        #: refresh_from_store); None for hand-assembled fleets.
        self._discovery: tuple[str | None, str | None] | None = None
        #: slug → (key, mtime_ns, size) of the bundle file each route was
        #: resolved against; lets a reload tell re-published from unchanged.
        self._route_prints: dict[str, tuple] = self._fingerprint_routes()

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_campaign_store(
        cls,
        store_root: str | pathlib.Path,
        recipe: str | None = None,
        features: str | None = None,
        **kwargs,
    ) -> "FleetService":
        """Deploy a campaign store: every registered bundle becomes a route.

        Discovers devices by reading artifact envelope metadata under
        ``<store_root>/models`` — no bundle is materialized until its
        device is first requested (or :meth:`warm` asks for it).
        ``recipe``/``features`` narrow the selection; without them, each
        device gets its preferred bundle (``paper`` over ``quick``,
        ``interactions`` over ``concat``).
        """
        root = pathlib.Path(store_root).expanduser()
        models_root = root / MODELS_SUBDIR
        if not models_root.is_dir():
            raise FleetError(
                f"{root} is not a campaign store (no {MODELS_SUBDIR}/ "
                f"directory); run `repro campaign --store {root}` to create one"
            )
        registry = ModelRegistry(models_root)
        chosen = _discover_routes(registry, recipe=recipe, features=features)
        if not chosen:
            wanted = [
                f"{name}={value!r}"
                for name, value in (("recipe", recipe), ("features", features))
                if value is not None
            ]
            raise FleetError(
                f"no servable model bundles under {models_root}"
                + (f" matching {', '.join(wanted)}" if wanted else "")
            )
        fleet = cls(registry, chosen.values(), **kwargs)
        fleet._discovery = (recipe, features)
        return fleet

    # -- routing ----------------------------------------------------------------

    def devices(self) -> list[str]:
        """Canonical full names of every device this fleet can serve."""
        return sorted(key.device_spec().name for key in self._keys.values())

    def model_keys(self) -> list[ModelKey]:
        """The routing table's keys, ordered by device name."""
        return sorted(self._keys.values(), key=lambda k: k.device_spec().name)

    def loaded_devices(self) -> list[str]:
        """Devices with a live in-memory service right now (LRU order)."""
        return [self._keys[slug].device_spec().name for slug in self._services]

    def slug_for(self, device: str) -> str:
        """The routing slug for a device name/alias; FleetError if unrouted."""
        try:
            slug = device_slug(device)
        except KeyError:
            raise FleetError(
                f"unknown device {device!r}; this fleet serves: "
                f"{', '.join(self.devices())}"
            ) from None
        if slug not in self._keys:
            raise FleetError(
                f"no model for device {resolve_device(device).name!r} in this "
                f"fleet; it serves: {', '.join(self.devices())}"
            )
        return slug

    def _cache_for(self, feature_recipe: str) -> KernelFeatureCache:
        """The fleet-shared feature cache for one feature recipe."""
        cache = self._recipe_caches.get(feature_recipe)
        if cache is None:
            cache = KernelFeatureCache(
                FeatureExtractor(ExtractorConfig(recipe=feature_recipe)),
                metrics=self.metrics,
            )
            self._recipe_caches[feature_recipe] = cache
        return cache

    def _service_for_slug(self, slug: str) -> PredictionService:
        service = self._services.get(slug)
        if service is not None:
            self._services.move_to_end(slug)
            self._service_hits.inc()
            return service
        key = self._keys[slug]
        try:
            models = self.registry.get(key)
        except StoreMiss:
            # Serving only loads: a bundle gone since discovery is an
            # unroutable request, never a reason to train one in-line.
            raise FleetError(
                f"model bundle for device {key.device_spec().name!r} is "
                f"missing: no artifact at {self.registry.path_for(key)}"
            ) from None
        except ArtifactError as exc:
            raise FleetError(
                f"model bundle for device {key.device_spec().name!r} is "
                f"unloadable: {exc}"
            ) from None
        service = PredictionService(
            models=models,
            device=key.device_spec(),
            cache=self._cache_for(models.feature_recipe),
            clock=self.clock,
        )
        self._services[slug] = service
        self._service_loads.inc()
        if self.max_services is not None:
            while len(self._services) > self.max_services:
                self._services.popitem(last=False)
                self._service_evictions.inc()
        return service

    def service_for(self, device: str) -> PredictionService:
        """The (lazily loaded, LRU-tracked) service for one device.

        Alias spellings and the full name return the *same* instance.
        """
        return self._service_for_slug(self.slug_for(device))

    def warm(self, devices: Sequence[str] | None = None) -> list[str]:
        """Materialize bundles ahead of traffic; returns the warmed names.

        With ``max_services`` set, warming more devices than the bound
        simply cycles the LRU — the most recently warmed stay resident.
        """
        slugs = (
            [self.slug_for(d) for d in devices]
            if devices is not None
            else sorted(self._keys)
        )
        return [
            self._service_for_slug(slug).device.name for slug in slugs
        ]

    # -- hot reload -------------------------------------------------------------

    def _fingerprint_routes(self) -> dict[str, tuple]:
        """(key, mtime_ns, size) of each route's bundle file on disk."""
        prints: dict[str, tuple] = {}
        for slug, key in self._keys.items():
            try:
                stat = self.registry.path_for(key).stat()
                prints[slug] = (key, stat.st_mtime_ns, stat.st_size)
            except OSError:
                prints[slug] = (key, None, None)
        return prints

    def refresh_from_store(self) -> FleetReload:
        """Re-discover routes against the store; pick up published bundles.

        The hot-reload primitive behind the serve daemon: re-reads
        envelope metadata under the registry root (same preference rules
        as :meth:`from_campaign_store`), then for every route that is new,
        re-published (same key, new bytes on disk) or re-keyed, drops the
        live service so the next request loads the fresh artifact.
        Per-device counters and the metrics registry survive — a reload is
        a routing event, not a telemetry reset.

        In-flight work is untouched: a caller already holding a
        :class:`PredictionService` keeps predicting against the bundle it
        resolved — a reload never changes an in-flight response.

        If the store is transiently empty (e.g. mid-publish), the current
        routing table is kept: a serving fleet never tears itself down.
        """
        if self._discovery is None:
            raise FleetError(
                "this fleet was not built from a campaign store; "
                "refresh_from_store has nothing to re-discover"
            )
        recipe, features = self._discovery
        chosen = _discover_routes(self.registry, recipe=recipe, features=features)
        if not chosen:
            return FleetReload()
        added = tuple(sorted(slug for slug in chosen if slug not in self._keys))
        removed = tuple(sorted(slug for slug in self._keys if slug not in chosen))
        self._keys = chosen
        new_prints = self._fingerprint_routes()
        updated = tuple(
            sorted(
                slug
                for slug in chosen
                if slug not in added
                and new_prints[slug] != self._route_prints.get(slug)
            )
        )
        for slug in removed + updated:
            self._services.pop(slug, None)
        self._route_prints = new_prints
        return FleetReload(added=added, removed=removed, updated=updated)

    # -- serving ----------------------------------------------------------------

    def predict(
        self, source: str, kernel_name: str | None = None, *, device: str
    ) -> PredictedParetoSet:
        """One kernel on one device — a routed batch of one."""
        return answered(
            self._route([(device, source, kernel_name)], mode="single")[0]
        )

    def predict_batch(self, requests: Sequence) -> list[Outcome]:
        """Cross-device batch: items are ``(device, source[, kernel_name])``.

        Requests are grouped by device so each device's service runs one
        vectorized model pass; answers come back per request, in request
        order (see :meth:`PredictionService.predict_batch`).
        """
        return self._route(
            [_normalize_request(r) for r in requests], mode="batch"
        )

    def _route(
        self, requests: list[tuple[str, str, str | None]], mode: str
    ) -> list[Outcome]:
        """The one routing body; a ``single`` request is not a routed batch."""
        groups: OrderedDict[str, list[int]] = OrderedDict()
        for index, (device, _source, _name) in enumerate(requests):
            groups.setdefault(self.slug_for(device), []).append(index)
        results: list[Outcome | None] = [None] * len(requests)
        for slug, indices in groups.items():
            service = self._service_for_slug(slug)
            batch = [(requests[i][1], requests[i][2]) for i in indices]
            for i, result in zip(indices, service._predict(batch, mode)):
                results[i] = result
        if mode == "batch":
            self._batches.inc()
        self._routed.inc(float(len(requests)))
        return results  # type: ignore[return-value]

    # -- telemetry --------------------------------------------------------------

    def stats_summary(self) -> dict:
        """Per-device counters, the merged fleet view, and routing stats.

        Every device loaded at least once has a ``per_device`` entry (its
        counts outlive eviction and reload); ``merged`` sums them.  The
        shared feature cache appears exactly once (top level): every
        per-device service points at the same cache, so repeating it per
        device would multiple-count one set of counters.
        """
        snapshot = self.metrics.snapshot()
        slugs = [key[0] for key in snapshot.label_values(SERVE_KERNELS_TOTAL)]
        routing = {
            "requests_routed": FLEET_REQUESTS_ROUTED_TOTAL,
            "batches_routed": FLEET_BATCHES_ROUTED_TOTAL,
            "service_loads": FLEET_SERVICE_LOADS_TOTAL,
            "service_hits": FLEET_SERVICE_HITS_TOTAL,
            "service_evictions": FLEET_SERVICE_EVICTIONS_TOTAL,
        }
        return {
            "devices": self.devices(),
            "loaded": self.loaded_devices(),
            "routing": {
                key: int(snapshot.value(name)) for key, name in routing.items()
            },
            "per_device": {slug: serve_summary(snapshot, [slug]) for slug in slugs},
            "merged": serve_summary(snapshot, slugs),
            "feature_cache": cache_summary(snapshot),
        }
