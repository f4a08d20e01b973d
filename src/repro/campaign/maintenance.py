"""Whole-store maintenance: compact every trace.

The operational counterpart of the campaign engine's per-leg auto-compact
(behind ``repro store compact``): one pass over a campaign store that
**compacts** every registered trace into its v3 columnar sidecar
(:mod:`repro.measure.columnar`) so replay-mode training runs off
memory-mapped columns.

This is safe on a live store: compaction is atomic and sidecar-only (the
JSONL is never touched).  Running it twice is a no-op.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field

from ..harness.report import format_table
from ..measure.columnar import CompactionResult, compact_trace
from ..measure.trace import ReplayError
from ..measure.trace_registry import TraceRegistry
from ..store.layout import TRACES_SUBDIR


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
        lines.append(f"compacted {self.compacted}/{len(self.traces)} trace(s)")
        return "\n".join(lines)


def compact_store(
    store_root: str | pathlib.Path, force: bool = False
) -> StoreCompactionReport:
    """One maintenance pass over a campaign store (see module docstring).

    ``force`` recompacts fresh sidecars too.
    """
    root = pathlib.Path(store_root).expanduser()
    trace_registry = TraceRegistry(root / TRACES_SUBDIR)
    report = StoreCompactionReport(store_root=root)

    for slug in trace_registry.entries():
        path = trace_registry.path_for_slug(slug)
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

    return report
