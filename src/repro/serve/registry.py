"""Named model registry: keyed trained bundles, persisted and reloaded.

A :class:`ModelKey` identifies a trained bundle by device, training recipe,
and feature configuration.  :class:`ModelRegistry` maps each key to one
artifact file, ``<root>/<slug>.json``, and ``get(key)`` loads it from disk
(milliseconds).  Callers that serve repeatedly keep the loaded bundle
themselves: a fleet's per-device service LRU is the only cache.

Serving only loads: bundles are built by the campaign engine and the
``repro train`` command, which register them with :meth:`ModelRegistry.put`.
A key with no artifact raises :class:`StoreMiss`.
"""

from __future__ import annotations

import pathlib
import re
from dataclasses import dataclass

from ..analysis.recipes import DEFAULT_RECIPE, is_recipe
from ..core.pipeline import TrainedModels, load_models, save_models
from ..gpusim.device import DeviceSpec, resolve_device
from ..store.envelope import ArtifactError, read_artifact_meta


class StoreMiss(KeyError):
    """Raised by :meth:`ModelRegistry.get` when a key has no artifact."""


#: The pre-recipe ``features`` spellings, in model keys and artifact meta,
#: of the default feature recipe (``concat``: without interaction columns).
#: Default bundles keep them so their slugs and bytes never change.
LEGACY_FEATURES = ("interactions", "concat")


def features_for_recipe(feature_recipe: str) -> str:
    """The key/meta ``features`` spelling of a feature recipe."""
    return "interactions" if feature_recipe == DEFAULT_RECIPE else feature_recipe


def recipe_for_features(features: str) -> str:
    """The feature recipe a key/meta ``features`` spelling names."""
    return DEFAULT_RECIPE if features in LEGACY_FEATURES else features


@dataclass(frozen=True)
class ModelKey:
    """Identity of one trained bundle: (device, recipe, feature config)."""

    device: str = "NVIDIA GTX Titan X"
    recipe: str = "paper"
    #: One of :data:`LEGACY_FEATURES` (the default feature recipe), or any
    #: registered feature-recipe name from :mod:`repro.analysis.recipes`
    #: (always with interactions).
    features: str = "interactions"

    def __post_init__(self) -> None:
        if self.features not in LEGACY_FEATURES and not is_recipe(self.features):
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
        return recipe_for_features(self.features)

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
    """Keyed store of trained bundles: one JSON-envelope artifact per key
    (:func:`repro.core.pipeline.save_models`) in a flat directory."""

    def __init__(self, root: str | pathlib.Path) -> None:
        self.root = pathlib.Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: ModelKey) -> pathlib.Path:
        return self.path_for_slug(key.slug)

    def path_for_slug(self, slug: str) -> pathlib.Path:
        """A persisted slug's artifact path."""
        return self.root / f"{slug}.json"

    def __contains__(self, key: ModelKey) -> bool:
        return self.path_for(key).exists()

    def get(self, key: ModelKey) -> TrainedModels:
        """Load a bundle from disk; :class:`StoreMiss` when it has no artifact."""
        path = self.path_for(key)
        if not path.exists():
            raise StoreMiss(f"no artifact for key {key.slug!r} at {path}")
        return load_models(path)[0]

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
        persisted bundle is still current and skip retraining); key
        fields win on collision, since they *are* the artifact's identity.
        """
        meta = {**(extra_meta or {}), **key.as_meta()}
        return save_models(self.path_for(key), models, meta)

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
        return sorted(p.name[: -len(".json")] for p in self.root.glob("*.json"))

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
        keys: list[ModelKey] = []
        for slug in self.entries():
            try:
                meta = read_artifact_meta(self.path_for_slug(slug)) or {}
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
