"""Canonical instrument names and recording helpers for the whole stack.

Every subsystem records through these helpers so metric names, label keys
and bucket layouts cannot drift between the producer (a backend, the
campaign scheduler, a serving facade) and the consumers (``repro stats``,
exporters, the progress renderer).

Naming scheme (Prometheus conventions):

* ``repro_<area>_<what>_<unit>`` with counters suffixed ``_total``;
* ``device`` labels carry the device *slug*
  (:func:`repro.gpusim.device.device_slug`), never a display name or
  alias — one series per physical device no matter how it was spelled;
* ``backend`` labels carry the backend ``kind``
  (``simulator`` / ``replay``).

The no-perturbation invariant: these helpers only ever *observe* wall
clock and counts after the measured work completed; nothing here feeds
back into measurements, datasets, or artifacts.
"""

from __future__ import annotations

from typing import Callable, Sequence
from weakref import WeakKeyDictionary

from .metrics import (
    DEFAULT_DURATION_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    Metric,
    MetricsRegistry,
    get_registry,
)

# -- measurement layer ---------------------------------------------------------

SWEEP_DURATION_SECONDS = "repro_sweep_duration_seconds"
SWEEPS_TOTAL = "repro_sweeps_total"
SWEEP_CONFIGS_TOTAL = "repro_sweep_configs_total"

# -- trace store (columnar compaction + replay sourcing) -----------------------

TRACE_COMPACTIONS_TOTAL = "repro_trace_compactions_total"
COLUMNAR_OPENS_TOTAL = "repro_trace_columnar_opens_total"
REPLAY_KERNEL_SOURCE_TOTAL = "repro_replay_kernel_source_total"

# -- campaign layer ------------------------------------------------------------

CAMPAIGN_SWEEPS_DONE_TOTAL = "repro_campaign_sweeps_done_total"
CAMPAIGN_SWEEPS_SKIPPED_TOTAL = "repro_campaign_sweeps_skipped_total"
CAMPAIGN_BUSY_SECONDS_TOTAL = "repro_campaign_busy_seconds_total"
CAMPAIGN_SWEEPS_PLANNED = "repro_campaign_sweeps_planned"
TRAIN_DURATION_SECONDS = "repro_train_duration_seconds"
TRAININGS_TOTAL = "repro_trainings_total"

# -- serving layer -------------------------------------------------------------

SERVE_REQUESTS_TOTAL = "repro_serve_requests_total"
SERVE_KERNELS_TOTAL = "repro_serve_kernels_total"
SERVE_EXTRACT_SECONDS = "repro_serve_extract_seconds"
SERVE_PREDICT_SECONDS = "repro_serve_predict_seconds"

FEATURE_CACHE_REQUESTS_TOTAL = "repro_feature_cache_requests_total"
FEATURE_CACHE_EVICTIONS_TOTAL = "repro_feature_cache_evictions_total"

FLEET_REQUESTS_ROUTED_TOTAL = "repro_fleet_requests_routed_total"
FLEET_BATCHES_ROUTED_TOTAL = "repro_fleet_batches_routed_total"
FLEET_SERVICE_LOADS_TOTAL = "repro_fleet_service_loads_total"
FLEET_SERVICE_HITS_TOTAL = "repro_fleet_service_hits_total"
FLEET_SERVICE_EVICTIONS_TOTAL = "repro_fleet_service_evictions_total"

# -- serve daemon (micro-batched HTTP front door) ------------------------------

DAEMON_REQUESTS_TOTAL = "repro_daemon_requests_total"
DAEMON_REQUEST_SECONDS = "repro_daemon_request_seconds"
DAEMON_QUEUE_WAIT_SECONDS = "repro_daemon_queue_wait_seconds"
DAEMON_QUEUE_DEPTH = "repro_daemon_queue_depth"
DAEMON_SHED_TOTAL = "repro_daemon_shed_total"
DAEMON_BATCHES_TOTAL = "repro_daemon_batches_total"
DAEMON_BATCHED_KERNELS_TOTAL = "repro_daemon_batched_kernels_total"
DAEMON_COALESCED_TOTAL = "repro_daemon_coalesced_total"
DAEMON_RELOADS_TOTAL = "repro_daemon_reloads_total"


# -- declarations --------------------------------------------------------------
#
# declare_* are idempotent (declare-or-get); a campaign calls the whole
# standard set up front so `repro stats` on a fresh store exports every
# family the system can ever record — zeros included — instead of only
# whatever this particular run happened to touch.


def declare_sweep_metrics(registry: MetricsRegistry) -> None:
    registry.histogram(
        SWEEP_DURATION_SECONDS,
        help="Wall seconds per kernel sweep, by device and backend kind.",
        labels=("device", "backend"),
        buckets=DEFAULT_DURATION_BUCKETS,
    )
    registry.counter(
        SWEEPS_TOTAL,
        help="Kernel sweeps measured, by device and backend kind.",
        labels=("device", "backend"),
    )
    registry.counter(
        SWEEP_CONFIGS_TOTAL,
        help="Frequency configurations measured across sweeps.",
        labels=("device", "backend"),
    )


def declare_trace_metrics(registry: MetricsRegistry) -> None:
    registry.counter(
        TRACE_COMPACTIONS_TOTAL,
        help="Trace v2→v3 compactions, by result "
        "(written/fresh/empty/failed).",
        labels=("result",),
    )
    registry.counter(
        COLUMNAR_OPENS_TOTAL,
        help="Columnar sidecar open attempts, by result "
        "(hit/missing/stale/torn).",
        labels=("result",),
    )
    registry.counter(
        REPLAY_KERNEL_SOURCE_TOTAL,
        help="Replayed kernel materializations, by serving source "
        "(columnar-mmap/columnar/jsonl).",
        labels=("source",),
    )


def declare_campaign_metrics(registry: MetricsRegistry) -> None:
    registry.counter(
        CAMPAIGN_SWEEPS_DONE_TOTAL,
        help="Campaign sweep tasks completed, by device.",
        labels=("device",),
    )
    registry.counter(
        CAMPAIGN_SWEEPS_SKIPPED_TOTAL,
        help="Campaign sweep tasks reused from a previous run, by device.",
        labels=("device",),
    )
    registry.counter(
        CAMPAIGN_BUSY_SECONDS_TOTAL,
        help="Worker-side seconds spent measuring, by device.",
        labels=("device",),
    )
    registry.gauge(
        CAMPAIGN_SWEEPS_PLANNED,
        help="Sweep tasks the current campaign plan schedules, by device.",
        labels=("device",),
    )
    registry.histogram(
        TRAIN_DURATION_SECONDS,
        help="Wall seconds per model-bundle training, by device.",
        labels=("device",),
        buckets=DEFAULT_DURATION_BUCKETS,
    )
    registry.counter(
        TRAININGS_TOTAL,
        help="Model-bundle trainings executed, by device.",
        labels=("device",),
    )


def declare_serve_metrics(registry: MetricsRegistry) -> None:
    registry.counter(
        SERVE_REQUESTS_TOTAL,
        help="Prediction requests served, by device and mode (single/batch).",
        labels=("device", "mode"),
    )
    registry.counter(
        SERVE_KERNELS_TOTAL,
        help="Kernels predicted (a batch request counts every kernel).",
        labels=("device",),
    )
    registry.histogram(
        SERVE_EXTRACT_SECONDS,
        help="Feature-extraction latency per kernel (cache hits included).",
        labels=("device",),
        buckets=DEFAULT_LATENCY_BUCKETS,
    )
    registry.histogram(
        SERVE_PREDICT_SECONDS,
        help="Model-inference latency per request (one batch = one sample).",
        labels=("device",),
        buckets=DEFAULT_LATENCY_BUCKETS,
    )


def declare_cache_metrics(registry: MetricsRegistry) -> None:
    requests = registry.counter(
        FEATURE_CACHE_REQUESTS_TOTAL,
        help="Kernel-feature cache lookups, by result (hit/miss).",
        labels=("result",),
    )
    # Pre-touch both outcomes so a store that never served still exports
    # the cache counters (at zero) — operators grep for these by name.
    requests.touch(result="hit")
    requests.touch(result="miss")
    registry.counter(
        FEATURE_CACHE_EVICTIONS_TOTAL,
        help="Kernel-feature cache LRU evictions.",
    ).touch()


def declare_fleet_metrics(registry: MetricsRegistry) -> None:
    # Unlabeled counters are touch()ed so a fleet that merely exists
    # already exports every routing counter at zero — the Prometheus
    # exposition and the JSON path report the same family set, and
    # operators can alert on absence vs. zero.
    registry.counter(
        FLEET_REQUESTS_ROUTED_TOTAL,
        help="Requests routed through the fleet front door.",
    ).touch()
    registry.counter(
        FLEET_BATCHES_ROUTED_TOTAL,
        help="Batch requests routed through the fleet front door.",
    ).touch()
    registry.counter(
        FLEET_SERVICE_LOADS_TOTAL,
        help="Per-device services materialized from the model registry.",
    ).touch()
    registry.counter(
        FLEET_SERVICE_HITS_TOTAL,
        help="Requests served by an already-loaded per-device service.",
    ).touch()
    registry.counter(
        FLEET_SERVICE_EVICTIONS_TOTAL,
        help="Per-device services evicted by the max_services LRU bound.",
    ).touch()


def declare_daemon_metrics(registry: MetricsRegistry) -> None:
    registry.counter(
        DAEMON_REQUESTS_TOTAL,
        help="HTTP requests handled by the serve daemon, "
        "by endpoint and status code.",
        labels=("endpoint", "status"),
    )
    registry.histogram(
        DAEMON_REQUEST_SECONDS,
        help="End-to-end request latency at the daemon (queue wait, "
        "batching window and model pass included), by endpoint.",
        labels=("endpoint",),
        buckets=DEFAULT_LATENCY_BUCKETS,
    )
    registry.histogram(
        DAEMON_QUEUE_WAIT_SECONDS,
        help="Seconds a request sat queued before its micro-batch "
        "started, by device.",
        labels=("device",),
        buckets=DEFAULT_LATENCY_BUCKETS,
    )
    registry.gauge(
        DAEMON_QUEUE_DEPTH,
        help="Requests queued or in flight on a device lane right now.",
        labels=("device",),
    )
    registry.counter(
        DAEMON_SHED_TOTAL,
        help="Requests shed by admission control (503), by device.",
        labels=("device",),
    )
    registry.counter(
        DAEMON_BATCHES_TOTAL,
        help="Micro-batch passes executed, by device.",
        labels=("device",),
    )
    registry.counter(
        DAEMON_BATCHED_KERNELS_TOTAL,
        help="Unique kernels predicted through micro-batch passes, by device.",
        labels=("device",),
    )
    registry.counter(
        DAEMON_COALESCED_TOTAL,
        help="Requests answered by another request's prediction in the "
        "same micro-batch (identical source and kernel), by device.",
        labels=("device",),
    )
    reloads = registry.counter(
        DAEMON_RELOADS_TOTAL,
        help="Hot-reload polls that found the store changed, by result "
        "(changed/unchanged/failed).",
        labels=("result",),
    )
    for result in ("changed", "unchanged", "failed"):
        reloads.touch(result=result)


def declare_standard_metrics(registry: MetricsRegistry) -> None:
    """Declare every family the stack records (idempotent)."""
    declare_sweep_metrics(registry)
    declare_trace_metrics(registry)
    declare_campaign_metrics(registry)
    declare_serve_metrics(registry)
    declare_cache_metrics(registry)
    declare_fleet_metrics(registry)
    declare_daemon_metrics(registry)


# -- recording helpers (hot paths) ---------------------------------------------

#: Bound family handles per registry.  The replay mmap fast path serves a
#: kernel in ~10us; running a declare-or-get round (family signature
#: rebuild included) per observation would dominate it, so hot-path
#: helpers resolve their handles once per registry and reuse them.
#: Handles stay valid for a registry's lifetime — declarations are
#: idempotent and family data is never replaced once declared.
_HANDLE_CACHE: WeakKeyDictionary = WeakKeyDictionary()


def _handles(
    reg: MetricsRegistry,
    declare: Callable[[MetricsRegistry], None],
    names: Sequence[str],
) -> list[Metric]:
    cache = _HANDLE_CACHE.get(reg)
    if cache is None:
        cache = {}
        _HANDLE_CACHE[reg] = cache
    try:
        return [cache[name] for name in names]
    except KeyError:
        declare(reg)
        for name in names:
            cache[name] = reg.get(name)
        return [cache[name] for name in names]


def observe_sweep(
    backend_kind: str,
    device_slug: str,
    n_configs: int,
    seconds: float,
    registry: MetricsRegistry | None = None,
) -> None:
    """Record one completed kernel sweep (called *after* the sweep)."""
    reg = registry if registry is not None else get_registry()
    sweep_recorder(backend_kind, device_slug, registry=reg)(n_configs, seconds)


def sweep_recorder(
    backend_kind: str,
    device_slug: str,
    registry: MetricsRegistry | None = None,
) -> Callable[[int, float], None]:
    """A prebound sweep recorder: ``record(n_configs, seconds)``.

    For per-sweep hot loops (a replay backend serves a kernel in ~10us
    off the mmap fast path): label keys and series handles resolve once
    here, so each recording is a few dict operations under the registry
    lock.  Reaching into :class:`Metric` internals is deliberate — this
    module is the metrics package's own hot-path facade, and the series
    dict plus its key tuple are stable for a family's lifetime.
    """
    reg = registry if registry is not None else get_registry()
    duration, sweeps, sweep_configs = _handles(
        reg,
        declare_sweep_metrics,
        (SWEEP_DURATION_SECONDS, SWEEPS_TOTAL, SWEEP_CONFIGS_TOTAL),
    )
    labels = {"device": device_slug, "backend": backend_kind}
    child = duration.child(**labels)
    key = sweeps._key(labels)
    sweep_series = sweeps._data.series
    config_series = sweep_configs._data.series
    lock = reg._lock

    def record(n_configs: int, seconds: float) -> None:
        with lock:
            child.observe(seconds)
            sweep_series[key] = float(sweep_series.get(key, 0.0)) + 1.0  # type: ignore[arg-type]
            config_series[key] = float(config_series.get(key, 0.0)) + float(
                n_configs
            )  # type: ignore[arg-type]

    return record


def replay_source_recorder(
    source: str, registry: MetricsRegistry | None = None
) -> Callable[[], None]:
    """A prebound :func:`observe_replay_source` for one fixed source."""
    reg = registry if registry is not None else get_registry()
    (sources,) = _handles(
        reg, declare_trace_metrics, (REPLAY_KERNEL_SOURCE_TOTAL,)
    )
    key = sources._key({"source": source})
    series = sources._data.series
    lock = reg._lock

    def record() -> None:
        with lock:
            series[key] = float(series.get(key, 0.0)) + 1.0  # type: ignore[arg-type]

    return record


def observe_trace_compaction(
    result: str, registry: MetricsRegistry | None = None
) -> None:
    """Record one compaction attempt (written/fresh/empty/failed)."""
    reg = registry if registry is not None else get_registry()
    declare_trace_metrics(reg)
    reg.get(TRACE_COMPACTIONS_TOTAL).inc(1.0, result=result)  # type: ignore[union-attr]


def observe_columnar_open(
    result: str, registry: MetricsRegistry | None = None
) -> None:
    """Record one sidecar open attempt (hit/missing/stale/torn)."""
    reg = registry if registry is not None else get_registry()
    declare_trace_metrics(reg)
    reg.get(COLUMNAR_OPENS_TOTAL).inc(1.0, result=result)  # type: ignore[union-attr]


def observe_replay_source(
    source: str, registry: MetricsRegistry | None = None
) -> None:
    """Record where one replayed kernel came from (mmap/columnar/jsonl)."""
    reg = registry if registry is not None else get_registry()
    (sources,) = _handles(
        reg, declare_trace_metrics, (REPLAY_KERNEL_SOURCE_TOTAL,)
    )
    sources.inc(1.0, source=source)


def observe_training(
    device_slug: str,
    seconds: float,
    registry: MetricsRegistry | None = None,
) -> None:
    """Record one completed model-bundle training."""
    reg = registry if registry is not None else get_registry()
    declare_campaign_metrics(reg)
    reg.get(TRAIN_DURATION_SECONDS).observe(seconds, device=device_slug)  # type: ignore[union-attr]
    reg.get(TRAININGS_TOTAL).inc(1.0, device=device_slug)  # type: ignore[union-attr]
