"""Per-layer metrics from spans and from the daemon's ``/stats`` counters.

Every ``<layer>.<x>_ms`` metric is the layer's self time per operation
(one campaign, one predict process, or one predict-batch burst); counts
are per operation too.  A layer that did no work in a workload reads 0.
"""

from __future__ import annotations

import json
import pathlib

from tracing import layer_totals

#: metric -> (span name, what): ``ms`` self time, ``calls``, or a count key.
FROM_SPANS = {
    "clkernel.lex_ms": ("clkernel.lex", "ms"),
    "clkernel.parse_ms": ("clkernel.parse", "ms"),
    "clkernel.lower_ms": ("clkernel.lower", "ms"),
    "clkernel.tokens": ("clkernel.lex", "tokens"),
    "features.extract_ms": ("features.extract", "ms"),
    "features.extract_calls": ("features.extract", "calls"),
    "measure.sweep_ms": ("measure.sweep", "ms"),
    "measure.configs": ("measure.sweep", "configs"),
    "store.trace_ms": ("store.trace", "ms"),
    "store.compact_ms": ("store.compact", "ms"),
    "store.put_ms": ("store.put", "ms"),
    "dataset.assemble_ms": ("dataset.assemble", "ms"),
    "dataset.rows": ("dataset.assemble", "rows"),
    "ml.fit_speedup_ms": ("ml.fit_speedup", "ms"),
    "ml.fit_energy_ms": ("ml.fit_energy", "ms"),
    "ml.predict_ms": ("ml.predict", "ms"),
    "ml.predict_rows": ("ml.predict", "rows"),
    "pareto.front_ms": ("pareto.front", "ms"),
    "pareto.calls": ("pareto.front", "calls"),
    "serve.load_ms": ("serve.load", "ms"),
    "report.render_ms": ("report.render", "ms"),
}

#: Every per-layer metric, in report order (the ``per_layer`` list of
#: BENCHMARK.json).
PER_LAYER = (
    "import.cli_ms",
    "clkernel.lex_ms", "clkernel.parse_ms", "clkernel.lower_ms",
    "clkernel.tokens", "clkernel.tokens_per_s",
    "features.extract_ms", "features.extract_calls", "cache.hit_ratio",
    "measure.sweep_ms", "measure.configs",
    "store.trace_ms", "store.compact_ms", "store.put_ms", "store.bytes_written",
    "dataset.assemble_ms", "dataset.rows",
    "ml.fit_speedup_ms", "ml.fit_energy_ms",
    "ml.predict_ms", "ml.predict_rows",
    "pareto.front_ms", "pareto.calls",
    "serve.load_ms",
    "report.render_ms",
    "daemon.queue_wait_p50_ms", "daemon.queue_wait_tail_ms",
    "daemon.batch_kernels_mean", "daemon.coalesced_ratio", "daemon.shed",
    "daemon.server_p50_ms", "daemon.http_p50_ms",
    "campaign.worker_util", "campaign.train_leg_ms",
    "gen.lag_tail_ms", "trace.overhead_pct",
)

def load_spans(paths) -> list[list]:
    spans: list[list] = []
    for path in paths:
        if path is not None and pathlib.Path(path).exists():
            spans.extend(json.loads(pathlib.Path(path).read_text()))
    return spans


def import_ms(spans: list[list]) -> float:
    imports = [1e3 * (s[3] - s[2]) for s in spans if s[1] == "import.cli"]
    return sum(imports) / len(imports) if imports else 0.0


def campaign_train_legs(store: pathlib.Path) -> list[float]:
    """Seconds of each ``campaign.train`` span in the store's own span log."""
    legs = []
    path = store / "spans.jsonl"
    if path.exists():
        for line in path.read_text().splitlines():
            event = json.loads(line)
            if event.get("name") == "campaign.train" and event.get("event") == "end":
                legs.append(float(event["duration_seconds"]))
    return legs


def per_layer(spans: list[list], ops: int, e2e_s: float, requests: int,
              extra: dict | None = None):
    """``(metrics, report rows)`` for the spans of ``ops`` operations.

    ``requests`` is how many kernels the operations asked the serving layer
    for; ``cache.hit_ratio`` is the share of them whose features came from
    the cache (a kernel looked up twice in one request counts once).
    Report rows are ``(span name, self ms, calls, share of e2e %)``.
    """
    totals = layer_totals(spans)
    metrics = {name: 0.0 for name in PER_LAYER}
    ops = max(1, ops)
    for metric, (span, what) in FROM_SPANS.items():
        entry = totals.get(span)
        if entry is None:
            continue
        if what == "ms":
            metrics[metric] = 1e3 * entry["self_s"] / ops
        elif what == "calls":
            metrics[metric] = entry["calls"] / ops
        else:
            metrics[metric] = entry["counts"].get(what, 0) / ops
    lex = totals.get("clkernel.lex")
    if lex and lex["self_s"] > 0:
        metrics["clkernel.tokens_per_s"] = lex["counts"].get("tokens", 0) / lex["self_s"]
    gets = totals.get("cache.get")
    if gets and requests:
        metrics["cache.hit_ratio"] = 1.0 - gets["counts"].get("misses", 0) / requests
    metrics["import.cli_ms"] = import_ms(spans)
    run = totals.get("campaign.run")
    if run and run["calls"]:
        metrics["campaign.worker_util"] = run["counts"].get("worker_util", 0.0) / run["calls"]
    for key, value in (extra or {}).items():
        if key in metrics:
            metrics[key] = float(value)
    report = sorted(
        ((name, 1e3 * e["self_s"], e["calls"], 100.0 * e["self_s"] / e2e_s if e2e_s else 0.0)
         for name, e in totals.items()),
        key=lambda row: -row[1],
    )
    return metrics, report


# -- daemon counters ------------------------------------------------------------------


def _families(snapshot: dict) -> dict:
    return {family["name"]: family for family in snapshot["families"]}


def _counter(snapshot: dict, name: str, **labels) -> float:
    family = _families(snapshot).get(name)
    if family is None:
        return 0.0
    return sum(
        s["value"] for s in family["series"]
        if all(s["labels"].get(k) == v for k, v in labels.items())
    )


def _histogram(snapshot: dict, name: str, **labels) -> tuple[list[float], list[int]]:
    family = _families(snapshot).get(name)
    if family is None:
        return [], []
    counts = [0] * (len(family["buckets"]) + 1)
    for series in family["series"]:
        if all(series["labels"].get(k) == v for k, v in labels.items()):
            counts = [a + b for a, b in zip(counts, series["bucket_counts"])]
    return list(family["buckets"]), counts


def _sum(snapshot: dict, name: str, endpoint: str) -> float:
    family = _families(snapshot).get(name)
    if family is None:
        return 0.0
    return sum(s["sum"] for s in family["series"] if s["labels"].get("endpoint") == endpoint)


def _hist_delta(before: dict, after: dict, name: str, **labels):
    bounds, new = _histogram(after, name, **labels)
    _, old = _histogram(before, name, **labels)
    if not old:
        old = [0] * len(new)
    return bounds, [a - b for a, b in zip(new, old)]


def hist_quantile(bounds: list[float], counts: list[int], pct: float) -> float:
    """Quantile by linear interpolation inside the bucket that holds it."""
    total = sum(counts)
    if total == 0:
        return 0.0
    target = pct / 100.0 * total
    seen = 0
    for i, count in enumerate(counts):
        if count and seen + count >= target:
            lo = bounds[i - 1] if i > 0 else 0.0
            hi = bounds[i] if i < len(bounds) else bounds[-1]
            return lo + (hi - lo) * (target - seen) / count
        seen += count
    return bounds[-1]


def hist_tail(bounds: list[float], counts: list[int]) -> float:
    """The highest quantile with at least ten observations beyond it."""
    total = sum(counts)
    return hist_quantile(bounds, counts, 100.0 * (total - 10) / total if total > 10 else 100.0)


def daemon_counters(before: dict, after: dict, client_s: list[float]) -> dict:
    """The daemon's own counters over the timed phases (after minus before).

    Quantiles of daemon-side times are interpolated inside the buckets of
    the daemon's histograms.  The daemon keeps no per-request server time,
    so ``daemon.http_p50_ms`` (client minus server time) is the difference
    of the two means, ``client_s`` against the request histogram's sum.
    """
    def delta(name: str, **labels) -> float:
        return _counter(after, name, **labels) - _counter(before, name, **labels)

    wait_bounds, wait_counts = _hist_delta(before, after, "repro_daemon_queue_wait_seconds")
    req_bounds, req_counts = _hist_delta(
        before, after, "repro_daemon_request_seconds", endpoint="predict-batch")
    batches = delta("repro_daemon_batches_total")
    routed = delta("repro_fleet_requests_routed_total")
    hits = delta("repro_feature_cache_requests_total", result="hit")
    misses = delta("repro_feature_cache_requests_total", result="miss")
    server_p50 = 1e3 * hist_quantile(req_bounds, req_counts, 50.0)
    served = sum(req_counts)
    server_sum = _sum(after, "repro_daemon_request_seconds", "predict-batch") - _sum(
        before, "repro_daemon_request_seconds", "predict-batch")
    http_ms = (1e3 * (sum(client_s) / len(client_s) - server_sum / served)
               if client_s and served else 0.0)
    return {
        "daemon.queue_wait_p50_ms": 1e3 * hist_quantile(wait_bounds, wait_counts, 50.0),
        "daemon.queue_wait_tail_ms": 1e3 * hist_tail(wait_bounds, wait_counts),
        "daemon.batch_kernels_mean": delta("repro_daemon_batched_kernels_total") / batches
        if batches else 0.0,
        "daemon.coalesced_ratio": delta("repro_daemon_coalesced_total") / routed if routed else 0.0,
        "daemon.shed": delta("repro_daemon_shed_total"),
        "daemon.server_p50_ms": server_p50,
        "daemon.http_p50_ms": http_ms,
        "daemon.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }
