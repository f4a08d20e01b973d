"""The campaign scheduler: one leg-major queue over a shared pool.

PR 3's engine ran device legs sequentially, each leg standing up (and
tearing down) its own worker pool and holding the parent hostage until the
leg's sweeps *and* training finished.  This module replaces that with a
flat schedule:

1. every leg's sweeps become :class:`SweepTask`\\ s — one per (device,
   kernel) — and :func:`leg_major` queues the legs whole, in plan
   order, so the first leg finishes sweeping as early as it can;
2. one :class:`~repro.measure.parallel.DevicePool` executes the whole
   queue; workers build a backend per device lazily and cache it, and
   ordered streaming (``imap_sweeps``) keeps every result's destination
   deterministic while holding at most two sweeps per worker in flight;
3. each completed sweep is routed straight to its leg's streaming
   :class:`~repro.measure.trace.TraceWriter` and folded into the leg's
   incremental :class:`~repro.core.dataset.DatasetAssembler`;
4. the moment a leg's last sweep lands, its trace publishes and the
   engine's ``on_leg_swept`` hook fires — typically submitting the leg's
   model training onto the *same* pool.  The pool dispatches FIFO, but
   only the in-flight window is queued ahead of it, so the training
   starts within a few sweeps and runs on one worker while the later
   legs sweep on the others.  The last leg's training is the campaign's
   only serial tail.

Bit-identity with the serial path is by construction: measurement noise is
counter-based per (device, kernel, configuration), so worker assignment
cannot change a sweep; ordered streaming means each leg's writer and
assembler see their records in exactly the serial order; and training is a
deterministic function of the assembled dataset.

Resume (:func:`prepare_leg` with ``resume=True``) asks the
:class:`~repro.measure.trace_registry.TraceRegistry` what a leg's stream
already holds.  The recovered records must form a prefix of the leg's
deterministic record sequence (kernel order, validated name by name and
setting by setting); the prefix is reused and only the remainder is
scheduled, with the partial stream reopened in append mode.  Recovered
records are kept on the leg and fold into the dataset via
:func:`~repro.measure.replay.replay_measurements` only when the dataset is
needed — ahead of the first live sweep, or when training asks for it —
so a leg whose registered bundle is already current never replays a
record or extracts a feature.  A finished resume is therefore
byte-identical to a run that was never interrupted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from ..analysis.recipes import DEFAULT_RECIPE
from ..core.dataset import DatasetAssembler, TrainingDataset
from ..core.pipeline import TrainedModels, train_models
from ..gpusim.device import DeviceSpec
from ..measure.parallel import DevicePool, DeviceSweepTask
from ..measure.replay import replay_measurements
from ..measure.trace import KernelTrace, TraceWriter
from ..measure.trace_registry import TraceKey, TraceRegistry
from ..obs import observe_training
from ..workloads import KernelSpec
from .progress import CampaignProgress, ProgressCallback, _metric_device_slug

if TYPE_CHECKING:
    from .plan import CampaignPlan


@dataclass(frozen=True)
class SweepTask:
    """One unit of campaign work: sweep one kernel on one device, once,
    and extract its static features with ``feature_recipe``."""

    device: str
    spec: KernelSpec
    settings: tuple[tuple[float, float], ...]
    feature_recipe: str = DEFAULT_RECIPE

    def payload(self) -> DeviceSweepTask:
        """The picklable form a :class:`DevicePool` worker executes."""
        return (self.device, self.spec, list(self.settings), self.feature_recipe)


def leg_major(per_leg: Sequence[Sequence[SweepTask]]) -> list[SweepTask]:
    """Every leg's tasks, leg after leg, each in its own order.

    Each leg's internal order is what keeps its trace and dataset
    bit-identical to a serial run; queuing the legs whole finishes the
    first leg's sweeps first, so its training overlaps the later legs'
    sweeps instead of waiting for all of them.
    """
    return [task for leg in per_leg for task in leg]


@dataclass
class LegRun:
    """Mutable execution state of one device leg inside a scheduled run."""

    device: DeviceSpec
    trace_key: TraceKey
    specs: list[KernelSpec]
    settings: list[tuple[float, float]]
    total_tasks: int
    tasks: list[SweepTask]
    assembler: DatasetAssembler
    writer: TraceWriter | None
    reused: int = 0
    resumed_from: str = "none"  # "none" | "partial" | "published"
    measured: int = 0
    dataset: TrainingDataset | None = None
    models: TrainedModels | None = None
    trained: bool = True
    trace_sha256: str | None = None
    #: Records recovered on resume, in task order, not yet folded into the
    #: assembler.
    recovered: list[tuple[SweepTask, KernelTrace]] = field(default_factory=list)

    @property
    def swept(self) -> bool:
        return self.measured == len(self.tasks)

    def record(self, task: SweepTask, static, measurements) -> None:
        """Fold one completed sweep task into the leg's stream and matrices."""
        if self.writer is not None:
            self.writer.write_measurements(measurements)
        self.measured += 1
        self._fold_recovered()
        self.assembler.add(task.spec, static, measurements)

    def _fold_recovered(self) -> None:
        # Recovered records precede every live one in the leg's sequence,
        # and replay round-trips float64 bit for bit, so they feed the
        # dataset exactly as the sweeps that recorded them did.
        for task, kernel in self.recovered:
            self.assembler.add(
                task.spec,
                task.spec.static_features(task.feature_recipe),
                replay_measurements(task.spec, kernel, self.settings),
            )
        self.recovered = []

    def training_dataset(self) -> TrainingDataset:
        """The leg's training matrices, assembled on first call."""
        if self.dataset is None:
            self._fold_recovered()
            self.dataset = self.assembler.finish()
        return self.dataset

    def finish_sweeps(self) -> None:
        """Publish the trace (all tasks landed)."""
        if self.writer is not None:
            self.writer.close(success=True)
            self.writer = None

    def abort_writer(self) -> None:
        """Leave the partial stream behind for a later ``--resume``."""
        if self.writer is not None and not self.writer.closed:
            self.writer.close(success=False)


def prepare_leg(
    plan: "CampaignPlan",
    device: DeviceSpec,
    trace_registry: TraceRegistry,
    resume: bool = False,
) -> LegRun:
    """Build one leg's run state, reusing recorded sweeps when resuming.

    The reusable prefix is the longest run of recovered records matching
    the leg's deterministic sequence — same kernel name, same settings,
    record by record.  Anything after a mismatch (or a crash-truncated
    tail) is discarded.  A published trace can only be reused whole (its
    file cannot be appended to); a matching ``.partial`` stream is
    truncated to its last intact record and reopened for append.
    """
    specs = plan.kernel_specs()
    settings = plan.settings_for(device)
    trace_key = plan.trace_key(device)
    all_tasks = plan.leg_tasks(device)
    expected_configs = [(float(c), float(m)) for c, m in settings]

    def validated_prefix(candidate) -> int:
        """How many of the leg's tasks this stream's records cover."""
        count = 0
        for i, scanned in enumerate(candidate.records):
            if i >= len(all_tasks):
                break
            if scanned.name != all_tasks[i].spec.name:
                break
            if scanned.kernel.configs != expected_configs:
                break
            count = i + 1
        if candidate.source == "published" and (
            count < len(all_tasks) or len(candidate.records) != len(all_tasks)
        ):
            # A published file cannot be extended in place, and reusing it
            # whole requires an *exact* record-for-record match: a partial
            # match — or surplus records, e.g. the second pass an older
            # multi-pass (`--repeats 2`) run recorded — means a different
            # plan wrote it.
            # Re-measure fresh (atomically, so the old trace survives
            # until clean close).  A too-long *partial* stream needs no
            # such guard: resume_writer truncates the surplus away.
            return 0
        return count

    reused = 0
    resumed_from = "none"
    writer: TraceWriter | None = None
    state = None
    if resume:
        # Whichever readable stream covers more of the expected sequence
        # wins: a complete published trace beats the header-only .partial
        # a later killed re-run left beside it, and vice versa.  Ties
        # prefer the partial, which can be appended to in place.
        for candidate in trace_registry.scan_resume_sources(trace_key):
            count = validated_prefix(candidate)
            if count > reused:
                state, reused = candidate, count
    if state is not None and reused:
        if state.source == "partial":
            writer = trace_registry.resume_writer(
                trace_key, state.records[reused - 1].end_offset
            )
        else:
            # The published stream won; any crash-leftover partial beside
            # it is superseded debris and must not linger in the store.
            trace_registry.discard_partial(trace_key)
        resumed_from = state.source

    if writer is None and reused < len(all_tasks):
        # Nothing reusable (reused == 0 here): start a fresh atomic stream.
        writer = trace_registry.writer(trace_key)

    leg = LegRun(
        device=device,
        trace_key=trace_key,
        specs=specs,
        settings=settings,
        total_tasks=len(all_tasks),
        tasks=all_tasks[reused:],
        assembler=DatasetAssembler(settings),
        writer=writer,
        reused=reused,
        resumed_from=resumed_from,
    )

    # Recovered records wait on the leg until its dataset is needed.
    if state is not None:
        leg.recovered = [
            (all_tasks[i], state.records[i].kernel) for i in range(reused)
        ]
    return leg


def train_leg_task(
    payload: tuple[TrainingDataset, list[tuple[float, float]], str, str],
) -> TrainedModels:
    """Picklable training stage: runs on a pool worker (or inline).

    ``payload`` is ``(dataset, settings, device name, feature recipe)``.
    Training is a deterministic function of the dataset, and numpy arrays
    survive the pickle round-trip bit for bit, so pool-side training is
    byte-identical to training in the parent.  The device name feeds the
    training-duration metrics (recorded strictly after the training —
    timing never feeds back into the models).
    """
    dataset, settings, device, feature_recipe = payload
    start = time.perf_counter()
    models = train_models(dataset, settings=settings, feature_recipe=feature_recipe)
    observe_training(_metric_device_slug(device), time.perf_counter() - start)
    return models


def run_legs(
    legs: Sequence[LegRun],
    pool: DevicePool,
    progress: CampaignProgress,
    on_progress: ProgressCallback | None = None,
    on_leg_swept: Callable[[LegRun], None] | None = None,
) -> None:
    """Drive every leg's remaining tasks through one shared pool.

    Results stream back in submission (leg-major) order; each is routed
    to its leg's writer/assembler.  ``on_leg_swept`` fires the moment a
    leg's trace publishes — while later legs' sweeps are still to come —
    which is the engine's window to hand training to the pool (queued
    behind only the sweeps in flight, parallel to the later legs' sweeps).
    """
    emit = on_progress if on_progress is not None else (lambda _p: None)

    # Legs with nothing left to measure (fully resumed) finish immediately.
    for leg in legs:
        if not leg.tasks:
            leg.finish_sweeps()
            if on_leg_swept is not None:
                on_leg_swept(leg)
    emit(progress)

    queue = leg_major([leg.tasks for leg in legs])
    if not queue:
        return
    by_device = {leg.device.name: leg for leg in legs}
    results: Iterator = pool.imap_sweeps([task.payload() for task in queue])
    for task, (measurements, static, seconds) in zip(queue, results):
        leg = by_device[task.device]
        leg.record(task, static, measurements)
        progress.task_done(task.device, seconds)
        if leg.swept:
            leg.finish_sweeps()
            if on_leg_swept is not None:
                on_leg_swept(leg)
        emit(progress)
