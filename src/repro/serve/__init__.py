"""repro.serve — the prediction service subsystem.

Turns the interactive pipeline (train → extract → predict, all in-process
and from scratch every time) into a serving stack:

* :mod:`repro.serve.artifacts` — versioned JSON persistence for trained
  bundles; a reloaded model predicts **bit-identically** to the original;
* :mod:`repro.serve.registry` — named bundles keyed by (device, recipe,
  feature config) that train on first use and reload instantly after;
* :mod:`repro.serve.cache` — content-hash LRU over kernel source → static
  features, skipping the clkernel frontend on repeat requests;
* :mod:`repro.serve.service` — the :class:`PredictionService` facade with
  batched vectorized inference and hit/miss/latency telemetry;
* :mod:`repro.serve.fleet` — the :class:`FleetService` front door: route
  requests to any measured device by name or alias, lazy-load per-device
  services (LRU-bounded), share one kernel-feature cache fleet-wide, and
  deploy a whole campaign store in one call.

Quick start::

    from repro.serve import ModelKey, ModelRegistry, PredictionService

    registry = ModelRegistry(root="~/.cache/repro-models")
    service = PredictionService.from_registry(
        registry, ModelKey(recipe="quick")
    )
    fronts = service.predict_batch([src1, src2, src3])

Fleet serving a campaign store::

    from repro.serve import FleetService

    fleet = FleetService.from_campaign_store("repro-store")
    front = fleet.predict(kernel_source, device="tesla-p100")
"""

from .artifacts import (
    ARTIFACT_FORMAT_VERSION,
    ArtifactError,
    load_artifact,
    load_models,
    load_models_with_meta,
    save_artifact,
    save_models,
)
from .cache import CacheStats, KernelFeatureCache, source_fingerprint
from .daemon import DaemonConfig, DaemonError, Overloaded, ServeDaemon
from .fleet import FleetError, FleetReload, FleetService, FleetStats
from .registry import (
    TRAINING_RECIPES,
    ModelKey,
    ModelRegistry,
    RegistryStats,
    make_key_trainer,
    train_for_key,
    train_streaming_for_key,
)
from .service import PredictionService, ServiceError, ServiceStats

__all__ = [
    "ARTIFACT_FORMAT_VERSION",
    "ArtifactError",
    "CacheStats",
    "DaemonConfig",
    "DaemonError",
    "FleetError",
    "FleetReload",
    "FleetService",
    "FleetStats",
    "KernelFeatureCache",
    "Overloaded",
    "ServeDaemon",
    "ModelKey",
    "ModelRegistry",
    "PredictionService",
    "RegistryStats",
    "ServiceError",
    "ServiceStats",
    "TRAINING_RECIPES",
    "load_artifact",
    "load_models",
    "load_models_with_meta",
    "make_key_trainer",
    "save_artifact",
    "save_models",
    "source_fingerprint",
    "train_for_key",
    "train_streaming_for_key",
]
