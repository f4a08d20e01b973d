"""Campaign-store directory layout, shared by producers and consumers.

A campaign store root holds two sibling registries plus the
observability sidecar files::

    <store_root>/
        traces/       # TraceRegistry  — JSONL measurement traces
        models/       # ModelRegistry  — trained bundle artifacts
        metrics/      # repro.obs metric snapshots (JSON, one per writer)
        spans.jsonl   # repro.obs span log (append-only JSONL events)

The campaign engine (the producer) and the fleet serving layer (the
consumer) must agree on these names without importing each other —
``repro.campaign`` sits *above* ``repro.serve`` in the layering — so the
constants live here, below both.

Observability output deliberately lives *beside* ``traces/`` and
``models/``, never inside them: byte-identity comparisons of the
artifacts (resume tests, CI's crash-resume ``diff -r``) must see the
same bytes whether or not metrics were recorded.
"""

from __future__ import annotations

import hashlib

#: Subdirectory of a campaign store holding the trace registry.
TRACES_SUBDIR = "traces"

#: Subdirectory of a campaign store holding the model registry.
MODELS_SUBDIR = "models"

#: Subdirectory of a campaign store holding persisted metric snapshots.
METRICS_SUBDIR = "metrics"

#: The campaign engine's per-run metric snapshot inside METRICS_SUBDIR.
CAMPAIGN_METRICS_FILENAME = "campaign.json"

#: The serve daemon's metric snapshot inside METRICS_SUBDIR (written
#: periodically while serving and once more at shutdown, so `repro stats`
#: over the store surfaces serving counters after the daemon exits).
DAEMON_METRICS_FILENAME = "serve-daemon.json"

#: The store's append-only span log (at the store root).
SPANS_FILENAME = "spans.jsonl"

# -- sharded fan-out -----------------------------------------------------------
#
# At fleet scale (thousands of device×suite×noise keys) a flat registry
# directory stops scaling: every lookup lists or hashes against one huge
# directory, and rsync/inotify costs grow with total key count.  The
# sharded layout fans artifacts out into 256 two-hex-digit buckets::
#
#     <registry root>/
#         .sharded              # marker: new writes go to shards
#         a3/<slug>.jsonl       # shard = sha256(slug)[:2]
#         a3/<slug>.jsonl.npz   # siblings (sidecars, partials) follow
#
# The layout is opt-in per registry (created by `repro store compact` /
# ArtifactStore.migrate_to_sharded) and readers are transparent across
# both generations: a flat file always wins resolution, so a legacy
# store keeps working unmigrated and a migrated store may still be
# *read* by path from old clients that know the shard rule.

#: Marker file whose presence routes a registry's new writes to shards.
SHARDED_MARKER_FILENAME = ".sharded"

#: Hex digits of the shard fan-out (2 → 256 buckets).
SHARD_HEX_CHARS = 2


def shard_for(slug: str) -> str:
    """The shard bucket of one artifact slug (stable across processes)."""
    return hashlib.sha256(slug.encode("utf-8")).hexdigest()[:SHARD_HEX_CHARS]
