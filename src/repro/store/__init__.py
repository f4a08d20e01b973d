"""repro.store — the unified artifact-store layer.

Three pieces, all below every subsystem that persists anything:

* :mod:`repro.store.envelope` — versioned JSON envelopes around
  ``to_state()`` payloads, with atomic writes;
* :mod:`repro.store.artifact_store` — the generic keyed store
  (slug keys, memory/disk tiers, LRU bound, stats) that
  :class:`repro.serve.registry.ModelRegistry` and
  :class:`repro.measure.trace_registry.TraceRegistry` are built on;
* :mod:`repro.store.layout` — the campaign-store directory layout
  (``traces/`` + ``models/``) shared by the campaign engine that writes a
  store and the fleet serving layer that deploys one.
"""

from .artifact_store import ArtifactStore, StoreKey, StoreMiss, StoreStats
from .envelope import (
    ARTIFACT_FORMAT_VERSION,
    ArtifactError,
    atomic_write_text,
    load_artifact,
    make_envelope,
    open_envelope,
    read_artifact_meta,
    save_artifact,
)
from .layout import (
    MODELS_SUBDIR,
    SHARDED_MARKER_FILENAME,
    TRACES_SUBDIR,
    shard_for,
)

__all__ = [
    "ARTIFACT_FORMAT_VERSION",
    "ArtifactError",
    "ArtifactStore",
    "MODELS_SUBDIR",
    "SHARDED_MARKER_FILENAME",
    "StoreKey",
    "StoreMiss",
    "StoreStats",
    "TRACES_SUBDIR",
    "shard_for",
    "atomic_write_text",
    "load_artifact",
    "make_envelope",
    "open_envelope",
    "read_artifact_meta",
    "save_artifact",
]
