"""repro.store — the persistence layer below every subsystem.

Two pieces:

* :mod:`repro.store.envelope` — versioned JSON envelopes around
  ``to_state()`` payloads, with atomic writes;
* :mod:`repro.store.layout` — the campaign-store directory layout
  (flat ``traces/`` + ``models/`` registries) shared by the campaign
  engine that writes a store and the fleet serving layer that deploys
  one.

The keyed registries over that layout are
:class:`repro.serve.registry.ModelRegistry` and
:class:`repro.measure.trace_registry.TraceRegistry`.
"""

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
from .layout import MODELS_SUBDIR, TRACES_SUBDIR

__all__ = [
    "ARTIFACT_FORMAT_VERSION",
    "ArtifactError",
    "MODELS_SUBDIR",
    "TRACES_SUBDIR",
    "atomic_write_text",
    "load_artifact",
    "make_envelope",
    "open_envelope",
    "read_artifact_meta",
    "save_artifact",
]
