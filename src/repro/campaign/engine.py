"""The campaign engine: plan → scheduled sweeps → registered artifacts.

One :func:`run_campaign` call executes the paper's whole experimental
backbone for every device in the plan (§4.1: sweep every benchmark kernel
over the sampled frequency grid, then train the models).  Since PR 4 the
engine is thin orchestration over :mod:`repro.campaign.scheduler`:

1. each device leg is prepared (:func:`~repro.campaign.scheduler.prepare_leg`)
   — on ``--resume`` that means asking the
   :class:`~repro.measure.trace_registry.TraceRegistry` which sweeps a
   crashed or earlier run already recorded, reusing them, and reopening
   the partial stream for append;
2. every leg's remaining sweeps are flattened into one device-interleaved
   task queue executed by a single shared
   :class:`~repro.measure.parallel.DevicePool` (workers cache one backend
   per device), with completed sweeps streaming straight into per-device
   :class:`~repro.measure.trace.TraceWriter`\\ s and incremental dataset
   folds;
3. the moment a leg's trace publishes, its model training is submitted to
   the *same* pool, so per-leg trainings run process-parallel to each
   other rather than serializing in the parent (the pool is FIFO, so a
   training queues behind sweeps already submitted) — unless the
   :class:`~repro.serve.registry.ModelRegistry` already holds a bundle
   recorded against the identical trace hash, in which case training is
   skipped outright;
4. trained bundles register under the matching (device, recipe) key with
   the trace SHA-256 as provenance.

The finished store is the deployment artifact:
:meth:`repro.serve.fleet.FleetService.from_campaign_store` (and
``repro predict --device … --store …``) serve every device in it with no
further training, and the report's final line says so.

Because every backend is deterministic per (device, kernel, config), the
interleaved schedule is bit-identical to serial legs, a resumed campaign
is byte-identical to an uninterrupted one, and `repro train --backend
replay --trace-key <device>/<suite>` reproduces the campaign's dataset
exactly.  A :class:`~repro.campaign.progress.CampaignProgress` tracker
(kernels/sec, ETA, worker utilization) feeds an optional callback live and
rides along in the returned report.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pathlib
import time

from ..gpusim.device import device_slug
from ..harness.report import format_table
from ..measure.parallel import DevicePool
from ..measure.trace_registry import TraceRegistry
from ..obs import (
    MetricsRegistry,
    MetricsSnapshot,
    SpanLog,
    declare_standard_metrics,
    save_snapshot,
)
from ..serve.registry import ModelRegistry
from ..store.layout import (
    CAMPAIGN_METRICS_FILENAME,
    METRICS_SUBDIR,
    MODELS_SUBDIR,
    SPANS_FILENAME,
    TRACES_SUBDIR,
)
from .plan import CampaignPlan
from .progress import CampaignProgress, ProgressCallback
from .scheduler import LegRun, prepare_leg, run_legs, train_leg_task

# Store layout (traces/ and models/ side by side under one root) lives in
# repro.store.layout so the fleet serving layer — below this package in
# the layering — deploys the same directories this engine writes;
# MODELS_SUBDIR / TRACES_SUBDIR stay importable from here.


def _file_sha256(path: pathlib.Path, chunk_bytes: int = 1 << 20) -> str:
    """Chunked file hash: runs inside the scheduler's result-streaming
    loop, so a campaign-scale trace must never be materialized whole."""
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(chunk_bytes), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclasses.dataclass(frozen=True)
class DeviceCampaignResult:
    """Everything one device's leg of a campaign produced.

    ``seconds`` is wall clock from campaign start until this leg's
    artifacts were ready.  Legs overlap on one shared pool, so the values
    are completion times, not per-leg costs — they must not be summed
    (the report's ``total`` line has the campaign's real wall clock).
    """

    device: str
    n_kernels: int
    n_settings: int
    n_samples: int
    repeats: int
    trace_key: str
    trace_path: pathlib.Path
    model_slug: str
    model_path: pathlib.Path
    seconds: float
    resumed_sweeps: int = 0
    trained: bool = True

    def table_row(self) -> tuple[str, ...]:
        return (
            self.device,
            str(self.n_kernels),
            str(self.n_settings),
            str(self.n_samples),
            str(self.resumed_sweeps),
            "trained" if self.trained else "reused",
            f"{self.seconds:8.2f}",
            self.trace_key,
        )


@dataclasses.dataclass(frozen=True)
class CampaignReport:
    """The full campaign outcome, ready to print or assert on."""

    plan: CampaignPlan
    store_root: pathlib.Path
    results: tuple[DeviceCampaignResult, ...]
    seconds: float
    progress: CampaignProgress | None = None
    metrics: MetricsSnapshot | None = None

    @property
    def n_samples(self) -> int:
        return sum(r.n_samples for r in self.results)

    def format(self) -> str:
        table = format_table(
            [
                "device",
                "codes",
                "settings",
                "samples",
                "resumed",
                "model",
                "done at s",
                "trace key",
            ],
            [r.table_row() for r in self.results],
        )
        lines = [f"campaign: {self.plan.describe()}", table]
        if self.progress is not None:
            lines.append(
                f"throughput: {self.progress.kernels_per_sec():.1f} kernel "
                f"sweeps/s, worker utilization "
                f"{self.progress.utilization() * 100.0:.0f}% "
                f"({self.progress.completed_label()} sweeps)"
            )
        lines.append(
            f"total: {self.n_samples} samples in {self.seconds:.2f}s; "
            f"artifacts under {self.store_root}"
        )
        lines.append(
            f"fleet-ready: {len(self.results)} device(s) servable straight "
            f"from this store — repro serve-status --store {self.store_root}; "
            f"repro predict KERNEL.cl --device "
            f"{device_slug(self.results[0].device) if self.results else 'NAME'} "
            f"--store {self.store_root}"
        )
        return "\n".join(lines)


def _execute(
    plan: CampaignPlan,
    trace_registry: TraceRegistry,
    model_registry: ModelRegistry,
    resume: bool = False,
    on_progress: ProgressCallback | None = None,
    registry: MetricsRegistry | None = None,
    span_log: SpanLog | None = None,
) -> tuple[list[DeviceCampaignResult], CampaignProgress]:
    """Schedule, sweep, train and register every leg of a plan.

    ``registry`` collects every metric the run records (worker-side sweep
    deltas included); ``span_log``, when given, receives ``campaign.sweep``
    and ``campaign.train`` spans per leg.  A crash leaves unended span
    starts behind — that is the forensic record of where it died.
    """
    start = time.perf_counter()
    if registry is None:
        registry = MetricsRegistry()
    declare_standard_metrics(registry)
    legs = [
        prepare_leg(plan, device, trace_registry, resume=resume)
        for device in plan.device_specs()
    ]
    progress = CampaignProgress(workers=plan.workers, registry=registry)
    for leg in legs:
        progress.add_leg(leg.device.name, total=leg.total_tasks, skipped=leg.reused)

    trainings: dict[str, object] = {}
    leg_seconds: dict[str, float] = {}
    pool = DevicePool(workers=plan.workers, registry=registry)

    sweep_spans: dict[str, object] = {}
    train_spans: dict[str, object] = {}
    if span_log is not None:
        for leg in legs:
            sweep_spans[leg.device.name] = span_log.span(
                "campaign.sweep",
                device=device_slug(leg.device.name),
                total=leg.total_tasks,
                reused=leg.reused,
            )

    def on_leg_swept(leg: LegRun) -> None:
        # The leg's trace just published (or was reused whole): fingerprint
        # it, then either prove the registered bundle is already current or
        # hand training to the shared pool while other legs keep sweeping.
        span = sweep_spans.get(leg.device.name)
        if span is not None:
            span.end()
        trace_path = trace_registry.path_for(leg.trace_key)
        leg.trace_sha256 = _file_sha256(trace_path)
        try:
            # Auto-compact on publish: the columnar sidecar makes every
            # later replay/retrain of this leg mmap-fast.  Deterministic
            # bytes keep resume-vs-one-shot stores diff-identical, and a
            # failure here only costs the speedup — the JSONL stays
            # authoritative, so the campaign itself must never die on it.
            trace_registry.compact(leg.trace_key)
        except Exception:
            pass
        key = plan.model_key(leg.device)
        meta = model_registry.meta_for(key)
        if meta is not None and meta.get("trace_sha256") == leg.trace_sha256:
            # Proven current — skip training, the dataset AND materializing
            # the bundle (leg.models stays None).
            leg.trained = False
            progress.leg_stage(leg.device.name, "reused")
            leg_seconds[leg.device.name] = time.perf_counter() - start
        else:
            if span_log is not None:
                train_spans[leg.device.name] = span_log.span(
                    "campaign.train", device=device_slug(leg.device.name)
                )
            trainings[leg.device.name] = pool.apply_async(
                train_leg_task,
                (
                    leg.training_dataset(),
                    leg.settings,
                    leg.device.name,
                    plan.features,
                ),
            )

    try:
        run_legs(
            legs,
            pool,
            progress,
            on_progress=on_progress,
            on_leg_swept=on_leg_swept,
        )
        for leg in legs:
            pending = trainings.get(leg.device.name)
            if pending is not None:
                leg.models = pending.get()
                span = train_spans.get(leg.device.name)
                if span is not None:
                    span.end()
                progress.leg_stage(leg.device.name, "done")
                leg_seconds[leg.device.name] = time.perf_counter() - start
                if on_progress is not None:
                    on_progress(progress)
    finally:
        # A crash must leave each leg's partial stream behind (that is
        # what --resume recovers), never a dangling pool.
        for leg in legs:
            leg.abort_writer()
        pool.close()

    results = []
    for leg in legs:
        key = plan.model_key(leg.device)
        if leg.trained:
            assert leg.models is not None
            model_path = model_registry.put(
                key, leg.models, extra_meta={"trace_sha256": leg.trace_sha256}
            )
        else:
            model_path = model_registry.path_for(key)
        results.append(
            DeviceCampaignResult(
                device=leg.device.name,
                n_kernels=len(leg.specs),
                n_settings=len(leg.settings),
                # The final pass holds one row per kernel per setting.
                n_samples=len(leg.specs) * len(leg.settings),
                repeats=plan.repeats,
                trace_key=leg.trace_key.display(),
                trace_path=trace_registry.path_for(leg.trace_key),
                model_slug=key.slug,
                model_path=model_path,
                seconds=leg_seconds.get(
                    leg.device.name, time.perf_counter() - start
                ),
                resumed_sweeps=leg.reused,
                trained=leg.trained,
            )
        )
    progress.finish()
    if on_progress is not None:
        on_progress(progress)
    return results, progress


def run_campaign(
    plan: CampaignPlan,
    store_root: str | pathlib.Path,
    resume: bool = False,
    on_progress: ProgressCallback | None = None,
    registry: MetricsRegistry | None = None,
) -> CampaignReport:
    """Execute a whole plan against one artifact store root.

    ``resume=True`` reuses every sweep an interrupted (or completed)
    earlier run of the same plan recorded under ``store_root``, finishing
    partial traces in place; the final artifacts are byte-identical to a
    one-shot run.  ``on_progress`` receives the live
    :class:`~repro.campaign.progress.CampaignProgress` after every
    scheduling event.

    Observability rides along beside the artifacts: spans append to
    ``<store>/spans.jsonl``, and the run's merged metric snapshot lands in
    ``<store>/metrics/campaign.json`` (both outside ``traces/`` and
    ``models/``, so artifact byte-identity is untouched).  Pass
    ``registry`` to accumulate into a caller-owned
    :class:`~repro.obs.MetricsRegistry` instead of a fresh one; either
    way the report carries the final snapshot as ``report.metrics``.
    """
    start = time.perf_counter()
    store_root = pathlib.Path(store_root).expanduser()
    trace_registry = TraceRegistry(store_root / TRACES_SUBDIR)
    model_registry = ModelRegistry(store_root / MODELS_SUBDIR)
    if registry is None:
        registry = MetricsRegistry()

    with SpanLog(store_root / SPANS_FILENAME) as span_log:
        with span_log.span(
            "campaign.run",
            devices=",".join(plan.devices),
            workers=plan.workers,
            resume=resume,
        ):
            results, progress = _execute(
                plan,
                trace_registry,
                model_registry,
                resume=resume,
                on_progress=on_progress,
                registry=registry,
                span_log=span_log,
            )

    snapshot = registry.snapshot()
    save_snapshot(snapshot, store_root / METRICS_SUBDIR / CAMPAIGN_METRICS_FILENAME)
    return CampaignReport(
        plan=plan,
        store_root=store_root,
        results=tuple(results),
        seconds=time.perf_counter() - start,
        progress=progress,
        metrics=snapshot,
    )
