"""Campaign-store directory layout, shared by producers and consumers.

A campaign store root holds two sibling registries plus the
observability sidecar files::

    <store_root>/
        traces/       # TraceRegistry  — <slug>.jsonl measurement traces
        models/       # ModelRegistry  — <slug>.json trained bundles
        metrics/      # repro.obs metric snapshots (JSON, one per writer)
        spans.jsonl   # repro.obs span log (append-only JSONL events)

The campaign engine (the producer) and the fleet serving layer (the
consumer) must agree on these names without importing each other —
``repro.campaign`` sits *above* ``repro.serve`` in the layering — so the
constants live here, below both.

Each registry is one flat directory: an artifact's path is its key's
slug plus a suffix, and its siblings (a trace's ``.partial`` stream and
``.npz`` columnar sidecar) sit next to it.

Observability output deliberately lives *beside* ``traces/`` and
``models/``, never inside them: byte-identity comparisons of the
artifacts (resume tests, CI's crash-resume ``diff -r``) must see the
same bytes whether or not metrics were recorded.
"""

from __future__ import annotations

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
