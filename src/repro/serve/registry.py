"""Named model registry: keyed trained bundles, persisted and reloaded.

A :class:`ModelKey` identifies a trained bundle by device, training recipe,
and feature configuration.  :class:`ModelRegistry` maps keys to artifact
files under a root directory and resolves ``get(key)`` in order of cost:

1. **memory** — already materialized in this process;
2. **disk** — a saved artifact exists, load it (milliseconds).

Serving only loads: bundles are built by the campaign engine and the
``repro train`` command, which register them with :meth:`ModelRegistry.put`.
A key with neither tier raises :class:`~repro.store.StoreMiss`.
"""

from __future__ import annotations

import pathlib
import re
from dataclasses import dataclass

from ..core.pipeline import TrainedModels, load_models, save_models
from ..gpusim.device import DeviceSpec, resolve_device
from ..store import ArtifactStore, StoreStats
from ..store.envelope import read_artifact_meta


@dataclass(frozen=True)
class ModelKey:
    """Identity of one trained bundle: (device, recipe, feature config)."""

    device: str = "NVIDIA GTX Titan X"
    recipe: str = "paper"
    #: "interactions" / "concat" (legacy design-matrix spellings, implying
    #: the paper10 feature recipe), or any registered feature-recipe name
    #: from :mod:`repro.analysis.recipes` (always with interactions).
    features: str = "interactions"

    def __post_init__(self) -> None:
        if self.features in ("interactions", "concat"):
            return
        from ..analysis.recipes import is_recipe

        if not is_recipe(self.features):
            raise ValueError(
                "features must be 'interactions', 'concat', or a registered "
                f"feature recipe, got {self.features!r}"
            )

    @property
    def interactions(self) -> bool:
        """Whether the design matrix carries interaction columns.

        Only the legacy ``concat`` spelling turns them off; recipe-named
        keys always train with interactions (the paper's default).
        """
        return self.features != "concat"

    @property
    def feature_recipe(self) -> str:
        """The static feature recipe this key trains/predicts with."""
        if self.features in ("interactions", "concat"):
            return "paper10"
        return self.features

    @property
    def slug(self) -> str:
        """Filesystem-safe identifier, stable across processes."""
        parts = (self.device, self.recipe, self.features)
        return "__".join(
            re.sub(r"[^a-z0-9]+", "-", part.lower()).strip("-") for part in parts
        )

    def device_spec(self) -> DeviceSpec:
        """Resolve the key's device (full name or alias like ``tesla-p100``)."""
        return resolve_device(self.device)

    def as_meta(self) -> dict:
        return {"device": self.device, "recipe": self.recipe, "features": self.features}


class ModelRegistry:
    """Keyed store of trained bundles backed by a directory of artifacts.

    A thin domain binding of the generic :class:`repro.store.ArtifactStore`
    to the JSON-envelope bundle format of :func:`repro.core.pipeline.save_models`.
    """

    def __init__(
        self,
        root: str | pathlib.Path,
        memory_capacity: int | None = None,
    ) -> None:
        self._store = ArtifactStore(
            root,
            write=save_models,
            read=lambda path: load_models(path)[0],
            memory_capacity=memory_capacity,
        )
        self.root = self._store.root

    @property
    def stats(self) -> StoreStats:
        """Where each ``get`` was satisfied from, plus churn counters."""
        return self._store.stats

    def path_for(self, key: ModelKey) -> pathlib.Path:
        return self._store.path_for(key)

    def path_for_slug(self, slug: str) -> pathlib.Path:
        """Resolve a persisted slug's artifact path (shard-aware)."""
        return self._store.path_for_slug(slug)

    def __contains__(self, key: ModelKey) -> bool:
        return key in self._store

    def get(self, key: ModelKey) -> TrainedModels:
        """Resolve a bundle: memory, then disk; StoreMiss when neither."""
        return self._store.get(key)

    def put(
        self,
        key: ModelKey,
        models: TrainedModels,
        extra_meta: dict | None = None,
    ) -> pathlib.Path:
        """Register an externally trained bundle under ``key``.

        ``extra_meta`` records extra provenance in the artifact (the
        campaign engine stores the SHA-256 of the trace the bundle was
        trained from, which is what lets a resumed campaign prove a
        persisted bundle is still current and skip retraining).
        """
        return self._store.put(key, models, extra_meta=extra_meta)

    def meta_for(self, key: ModelKey) -> dict | None:
        """A persisted bundle's provenance meta, or None when absent.

        Reads only the artifact envelope — no model bundle is
        materialized, so checking whether a bundle is stale stays cheap.
        """
        path = self.path_for(key)
        if not path.exists():
            return None
        return read_artifact_meta(path)

    def entries(self) -> list[str]:
        """Slugs of every persisted bundle under the registry root."""
        return self._store.entries()

    def known_keys(self) -> list[ModelKey]:
        """The :class:`ModelKey` of every persisted bundle, from envelope meta.

        This is what lets a consumer *discover* a registry written by
        someone else (a campaign store) instead of having to know its keys
        up front.  Only envelope metadata is read — no bundle is
        materialized.  Files that are not model artifacts, carry
        incomplete meta, or whose meta does not match their filename are
        skipped: a registry directory may legitimately hold foreign files,
        and a half-written stray must not break discovery.
        """
        from ..store import ArtifactError

        keys: list[ModelKey] = []
        for slug in self.entries():
            # Resolved through the store, not root/slug concatenation —
            # the artifact may live inside a shard bucket.
            path = self._store.path_for_slug(slug)
            try:
                meta = read_artifact_meta(path) or {}
                key = ModelKey(
                    device=meta["device"],
                    recipe=meta["recipe"],
                    features=meta["features"],
                )
            except (ArtifactError, KeyError, TypeError, ValueError):
                continue
            if key.slug == slug:
                keys.append(key)
        return keys

    def migrate_to_sharded(self) -> int:
        """Fan the registry out into the sharded layout; returns moves."""
        return self._store.migrate_to_sharded()

    def invalidate(self, key: ModelKey | None = None) -> None:
        """Drop in-process copies: one key's, or — with no key — every
        key's (hot-reload path; artifacts on disk stay untouched)."""
        if key is None:
            self._store.evict_memory()
        else:
            self._store.invalidate(key)

    def evict_memory(self) -> None:
        """Drop in-process copies (artifacts on disk are untouched)."""
        self._store.evict_memory()
