"""Whole-store maintenance: compact traces, migrate layout.

The operational counterpart of the campaign engine's per-leg auto-compact
(behind ``repro store compact``): one pass over a campaign store that

1. **compacts** every registered trace into its v3 columnar sidecar
   (:mod:`repro.measure.columnar`) so replay-mode training runs off
   memory-mapped columns, and
2. **migrates** the ``traces/`` and ``models/`` registries to the
   two-level sharded layout (:mod:`repro.store.layout`).

Everything here is safe on a live store: compaction is atomic and
sidecar-only (the JSONL is never touched), and migration keeps both
layout generations readable.  Running it twice is a no-op.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field

from ..harness.report import format_table
from ..measure.columnar import CompactionResult, compact_trace
from ..measure.trace import ReplayError
from ..measure.trace_registry import TraceRegistry
from ..serve.registry import ModelRegistry
from ..store.layout import MODELS_SUBDIR, TRACES_SUBDIR


@dataclass(frozen=True)
class TraceCompaction:
    """Outcome of compacting one registered trace."""

    slug: str
    #: ``written`` / ``fresh`` / ``empty`` / ``failed``.
    action: str
    n_records: int = 0
    n_rows: int = 0
    prefix_bytes: int = 0


@dataclass
class StoreCompactionReport:
    """Everything one ``compact_store`` pass did, ready to print."""

    store_root: pathlib.Path
    traces: list[TraceCompaction] = field(default_factory=list)
    traces_migrated: int = 0
    models_migrated: int = 0

    @property
    def compacted(self) -> int:
        return sum(1 for t in self.traces if t.action == "written")

    def format(self) -> str:
        table = format_table(
            ["trace", "action", "records", "rows", "bytes"],
            [
                (
                    t.slug,
                    t.action,
                    str(t.n_records),
                    str(t.n_rows),
                    str(t.prefix_bytes),
                )
                for t in self.traces
            ],
        )
        lines = [f"store compact: {self.store_root}", table]
        lines.append(
            f"compacted {self.compacted}/{len(self.traces)} trace(s); "
            f"sharded layout: {self.traces_migrated} trace file(s), "
            f"{self.models_migrated} model file(s) migrated"
        )
        return "\n".join(lines)


def compact_store(
    store_root: str | pathlib.Path,
    migrate: bool = True,
    force: bool = False,
) -> StoreCompactionReport:
    """One maintenance pass over a campaign store (see module docstring).

    ``migrate=False`` skips the sharded-layout migration (compaction still
    runs — useful for stores that tooling outside this repo still reads
    by flat path).  ``force`` recompacts fresh sidecars too.
    """
    root = pathlib.Path(store_root).expanduser()
    trace_registry = TraceRegistry(root / TRACES_SUBDIR, memory_capacity=1)
    report = StoreCompactionReport(store_root=root)

    for slug in trace_registry.entries():
        path = trace_registry.store.path_for_slug(slug)
        try:
            result: CompactionResult = compact_trace(path, force=force)
        except ReplayError:
            report.traces.append(TraceCompaction(slug=slug, action="failed"))
            continue
        report.traces.append(
            TraceCompaction(
                slug=slug,
                action=result.action,
                n_records=result.n_records,
                n_rows=result.n_rows,
                prefix_bytes=result.prefix_bytes,
            )
        )

    if migrate:
        report.traces_migrated = trace_registry.migrate_to_sharded()
        model_registry = ModelRegistry(root / MODELS_SUBDIR)
        report.models_migrated = model_registry.migrate_to_sharded()
    return report
