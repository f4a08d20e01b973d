"""A generic keyed artifact store: slug keys, memory/disk tiers, stats.

This is the pattern that grew inside :class:`repro.serve.registry.ModelRegistry`
(persist once, reload instantly), extracted so any keyed, versioned
payload — trained model bundles, measurement traces, future dataset shards —
can share one resolution discipline:

1. **memory** — already materialized in this process (LRU, optionally
   capacity-bounded);
2. **disk** — a file exists under the store root, read it.

A key in neither tier raises :class:`StoreMiss`: the store never builds.
Producers register artifacts with :meth:`ArtifactStore.put`.

The store is serialization-agnostic: callers supply ``write(path, value,
meta)`` / ``read(path)`` callables, so a JSON-envelope model bundle and an
append-only JSONL trace live behind the same interface.  Keys are anything
with a filesystem-safe ``slug`` and an ``as_meta()`` provenance dict.
"""

from __future__ import annotations

import pathlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Protocol, runtime_checkable

from .layout import SHARD_HEX_CHARS, SHARDED_MARKER_FILENAME, shard_for

#: Glob matching every shard bucket directory under a registry root.
_SHARD_GLOB = "[0-9a-f]" * SHARD_HEX_CHARS


@runtime_checkable
class StoreKey(Protocol):
    """Identity of one stored artifact."""

    @property
    def slug(self) -> str:
        """Filesystem-safe identifier, stable across processes."""
        ...

    def as_meta(self) -> dict:
        """Provenance recorded next to the payload."""
        ...


@dataclass
class StoreStats:
    """Where each ``get`` was satisfied from, plus churn counters."""

    memory_hits: int = 0
    disk_loads: int = 0
    puts: int = 0
    memory_evictions: int = 0

    def as_dict(self) -> dict:
        return {
            "memory_hits": self.memory_hits,
            "disk_loads": self.disk_loads,
            "puts": self.puts,
            "memory_evictions": self.memory_evictions,
        }


class StoreMiss(KeyError):
    """Raised by ``get`` when a key is neither in memory nor on disk."""


class ArtifactStore:
    """Keyed store of artifacts backed by a directory.

    Parameters
    ----------
    root:
        Directory holding one file per key (created on construction).
    write:
        ``write(path, value, meta) -> Path`` — persist ``value`` at ``path``.
    read:
        ``read(path) -> value`` — materialize a persisted artifact.
    suffix:
        File suffix appended to each key's slug (default ``".json"``).
    memory_capacity:
        Optional bound on the in-process tier; least-recently-used values
        are dropped (their files stay) once the bound is exceeded.
    """

    def __init__(
        self,
        root: str | pathlib.Path,
        *,
        write: Callable[[pathlib.Path, Any, dict], pathlib.Path],
        read: Callable[[pathlib.Path], Any],
        suffix: str = ".json",
        memory_capacity: int | None = None,
    ) -> None:
        if memory_capacity is not None and memory_capacity < 1:
            raise ValueError("memory_capacity must be >= 1")
        self.root = pathlib.Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)
        self.suffix = suffix
        self.stats = StoreStats()
        self._write = write
        self._read = read
        self._memory_capacity = memory_capacity
        #: slug → value; slug-keyed so alias spellings of one key share an entry.
        self._memory: OrderedDict[str, Any] = OrderedDict()

    # -- tiers ------------------------------------------------------------------

    @property
    def sharded(self) -> bool:
        """True when this store routes **new** artifacts into shard buckets."""
        return (self.root / SHARDED_MARKER_FILENAME).exists()

    def path_for_slug(self, slug: str) -> pathlib.Path:
        """Resolve a slug across both layout generations.

        Resolution order: an existing flat file wins (legacy stores read
        unmigrated, and mid-migration both generations stay servable),
        then an existing sharded file, then — for keys that exist nowhere
        yet — the layout the ``.sharded`` marker selects for new writes.
        """
        flat = self.root / f"{slug}{self.suffix}"
        if flat.exists():
            return flat
        sharded = self.root / shard_for(slug) / f"{slug}{self.suffix}"
        if sharded.exists() or self.sharded:
            return sharded
        return flat

    def path_for(self, key: StoreKey) -> pathlib.Path:
        return self.path_for_slug(key.slug)

    def __contains__(self, key: StoreKey) -> bool:
        return key.slug in self._memory or self.path_for(key).exists()

    def __len__(self) -> int:
        return len(self._memory)

    def _remember(self, slug: str, value: Any) -> None:
        self._memory[slug] = value
        self._memory.move_to_end(slug)
        if self._memory_capacity is not None:
            while len(self._memory) > self._memory_capacity:
                self._memory.popitem(last=False)
                self.stats.memory_evictions += 1

    def get(self, key: StoreKey) -> Any:
        """Resolve an artifact: memory, then disk; :class:`StoreMiss` if neither."""
        cached = self._memory.get(key.slug)
        if cached is not None:
            self._memory.move_to_end(key.slug)
            self.stats.memory_hits += 1
            return cached
        path = self.path_for(key)
        if not path.exists():
            raise StoreMiss(f"no artifact for key {key.slug!r} at {path}")
        value = self._read(path)
        self.stats.disk_loads += 1
        self._remember(key.slug, value)
        return value

    def put(
        self, key: StoreKey, value: Any, extra_meta: dict | None = None
    ) -> pathlib.Path:
        """Register an externally built artifact under ``key``.

        ``extra_meta`` adds provenance beyond the key's own (e.g. the hash
        of the trace a model bundle was trained from); key fields win on
        collision, since they *are* the artifact's identity.
        """
        meta = {**(extra_meta or {}), **key.as_meta()}
        target = self.path_for(key)
        # A sharded store's first artifact in a bucket creates it here.
        target.parent.mkdir(parents=True, exist_ok=True)
        path = self._write(target, value, meta)
        self._remember(key.slug, value)
        self.stats.puts += 1
        return path

    # -- maintenance ------------------------------------------------------------

    def invalidate(self, key: StoreKey) -> None:
        """Drop a key's in-process copy (its file, if any, is untouched).

        For callers that rewrite an artifact's file out of band (e.g. a
        streaming trace writer) — the next ``get`` re-reads from disk
        instead of serving a stale memory hit.
        """
        self._memory.pop(key.slug, None)

    def entries(self) -> list[str]:
        """Slugs of every persisted artifact under the store root.

        Covers both layout generations — flat files beside the root and
        files inside two-hex-digit shard buckets — deduplicated (a slug
        mid-migration resolves once).
        """
        slugs = {
            p.name[: -len(self.suffix)] for p in self.root.glob(f"*{self.suffix}")
        }
        slugs.update(
            p.name[: -len(self.suffix)]
            for p in self.root.glob(f"{_SHARD_GLOB}/*{self.suffix}")
        )
        return sorted(slugs)

    def migrate_to_sharded(self) -> int:
        """Move every flat artifact into its shard bucket; returns count moved.

        Creates the ``.sharded`` marker first, so new writes racing the
        migration land sharded.  Each artifact's name-prefixed siblings
        (``<name>.partial`` streams, ``<name>.npz`` columnar sidecars,
        ``<name>.npz.partial`` debris) move with it — they are one unit of
        state.  Idempotent: an already-sharded store migrates zero files.
        """
        import os

        (self.root / SHARDED_MARKER_FILENAME).touch()
        moved = 0
        for flat in sorted(self.root.glob(f"*{self.suffix}")):
            bucket = self.root / shard_for(flat.name[: -len(self.suffix)])
            bucket.mkdir(exist_ok=True)
            for source in [flat, *sorted(self.root.glob(f"{flat.name}.*"))]:
                os.replace(source, bucket / source.name)
            moved += 1
        return moved

    def evict_memory(self) -> None:
        """Drop in-process copies (artifacts on disk are untouched)."""
        self._memory.clear()
