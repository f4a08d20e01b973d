"""Metric snapshot exporters: Prometheus text exposition and JSON.

Both exporters consume a :class:`~repro.obs.metrics.MetricsSnapshot` —
never a live registry — so exporting is always a read of frozen data.
The JSON form round-trips (:func:`save_snapshot` / :func:`load_snapshot`)
and is what a campaign persists under ``<store>/metrics/``; ``repro
stats`` merges every snapshot it finds there and renders either format.
The future ``repro serve-daemon``'s ``/stats`` endpoint is a one-line
wrapper over :func:`to_prometheus`.
"""

from __future__ import annotations

import json
import pathlib
from typing import Iterable

from ..store.envelope import atomic_write_text
from .metrics import FamilyData, HistogramValue, MetricError, MetricsSnapshot

#: Version tag of the persisted snapshot JSON.
SNAPSHOT_FORMAT = "repro.metrics-snapshot/v1"


# -- Prometheus text exposition ------------------------------------------------


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labels_text(names: Iterable[str], values: Iterable[str]) -> str:
    pairs = [f'{n}="{_escape_label(v)}"' for n, v in zip(names, values)]
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _format_value(value: float) -> str:
    value = float(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _histogram_lines(family: FamilyData, key, hist: HistogramValue) -> list[str]:
    lines = []
    cumulative = 0
    names = family.labelnames
    for bound, count in zip(hist.bounds, hist.counts):
        cumulative += count
        labels = _labels_text(tuple(names) + ("le",), key + (_format_value(bound),))
        lines.append(f"{family.name}_bucket{labels} {cumulative}")
    labels = _labels_text(tuple(names) + ("le",), key + ("+Inf",))
    lines.append(f"{family.name}_bucket{labels} {hist.count}")
    plain = _labels_text(names, key)
    lines.append(f"{family.name}_sum{plain} {_format_value(hist.sum)}")
    lines.append(f"{family.name}_count{plain} {hist.count}")
    return lines


def to_prometheus(snapshot: MetricsSnapshot) -> str:
    """Render a snapshot as Prometheus text exposition format 0.0.4.

    Families are emitted in name order and series in label order, so two
    identical snapshots render byte-identically — diffable, testable.
    """
    lines: list[str] = []
    for name in sorted(snapshot.families):
        family = snapshot.families[name]
        help_text = family.help.replace("\\", "\\\\").replace("\n", "\\n")
        lines.append(f"# HELP {name} {help_text}" if help_text else f"# HELP {name}")
        lines.append(f"# TYPE {name} {family.kind}")
        for key in sorted(family.series):
            value = family.series[key]
            if isinstance(value, HistogramValue):
                lines.extend(_histogram_lines(family, key, value))
            else:
                labels = _labels_text(family.labelnames, key)
                lines.append(f"{name}{labels} {_format_value(value)}")
    return "\n".join(lines) + "\n" if lines else ""


# -- JSON form (persistable, round-trips) --------------------------------------


def snapshot_to_json_dict(snapshot: MetricsSnapshot) -> dict:
    families = []
    for name in sorted(snapshot.families):
        family = snapshot.families[name]
        series = []
        for key in sorted(family.series):
            value = family.series[key]
            entry: dict = {"labels": dict(zip(family.labelnames, key))}
            if isinstance(value, HistogramValue):
                entry["count"] = value.count
                entry["sum"] = value.sum
                entry["bucket_counts"] = list(value.counts)
            else:
                entry["value"] = value
            series.append(entry)
        families.append(
            {
                "name": name,
                "kind": family.kind,
                "help": family.help,
                "labelnames": list(family.labelnames),
                "buckets": list(family.buckets) if family.buckets else None,
                "series": series,
            }
        )
    return {"format": SNAPSHOT_FORMAT, "families": families}


def snapshot_from_json_dict(payload: dict) -> MetricsSnapshot:
    if payload.get("format") != SNAPSHOT_FORMAT:
        raise MetricError(
            f"not a metrics snapshot (format: {payload.get('format')!r}; "
            f"expected {SNAPSHOT_FORMAT!r})"
        )
    families: dict[str, FamilyData] = {}
    for item in payload["families"]:
        labelnames = tuple(item["labelnames"])
        buckets = tuple(item["buckets"]) if item.get("buckets") else None
        series: dict = {}
        for entry in item["series"]:
            key = tuple(str(entry["labels"][ln]) for ln in labelnames)
            if "bucket_counts" in entry:
                assert buckets is not None
                series[key] = HistogramValue(
                    buckets, list(entry["bucket_counts"]), float(entry["sum"])
                )
            else:
                series[key] = float(entry["value"])
        families[item["name"]] = FamilyData(
            name=item["name"],
            kind=item["kind"],
            help=item.get("help", ""),
            labelnames=labelnames,
            buckets=buckets,
            series=series,
        )
    return MetricsSnapshot(families)


def to_json(snapshot: MetricsSnapshot) -> str:
    return json.dumps(snapshot_to_json_dict(snapshot), indent=2, sort_keys=True)


# -- persistence ---------------------------------------------------------------


def save_snapshot(snapshot: MetricsSnapshot, path: str | pathlib.Path) -> pathlib.Path:
    """Write a snapshot atomically (tmp + rename, like the store's writers)."""
    return atomic_write_text(path, to_json(snapshot) + "\n")


def load_snapshot(path: str | pathlib.Path) -> MetricsSnapshot:
    with pathlib.Path(path).open("r", encoding="utf-8") as handle:
        return snapshot_from_json_dict(json.load(handle))


def load_store_metrics(metrics_dir: str | pathlib.Path) -> MetricsSnapshot:
    """Merge every snapshot file under a store's ``metrics/`` directory.

    Files merge in name order (associative, so the grouping is
    irrelevant); unknown files raise — the directory belongs to the
    store's layout, nothing else should be writing there.
    """
    metrics_dir = pathlib.Path(metrics_dir)
    merged = MetricsSnapshot()
    if not metrics_dir.is_dir():
        return merged
    for path in sorted(metrics_dir.glob("*.json")):
        merged = merged.merge(load_snapshot(path))
    return merged
