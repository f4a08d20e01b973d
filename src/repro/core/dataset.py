"""Training/evaluation dataset assembly (Fig. 2 steps 1–4).

For every kernel spec × frequency setting we record the measured speedup
and normalized energy over that kernel's *default-configuration* baseline,
together with the combined feature vector ``w = (k, f)``.  The resulting
matrix is what the two regressors train on.

Measurements are **columnar**: :class:`KernelMeasurements` holds one numpy
array per measured quantity (configuration order), produced in a single
vectorized pass by whatever :class:`~repro.measure.backend.MeasurementBackend`
ran the sweep.  The row-wise :class:`MeasuredPoint` view is materialized
lazily for callers that want per-point objects (characterization, reports);
the training path never pays for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from ..features.vector import StaticFeatures, build_design_matrix
from ..gpusim.executor import ExecutionRecord, SweepBatch
from ..workloads import KernelSpec


@dataclass(frozen=True)
class MeasuredPoint:
    """One kernel execution: configuration + measured objectives."""

    kernel: str
    core_mhz: float
    mem_mhz: float
    speedup: float
    norm_energy: float
    time_ms: float
    energy_j: float

    @property
    def config(self) -> tuple[float, float]:
        return (self.core_mhz, self.mem_mhz)

    @property
    def objectives(self) -> tuple[float, float]:
        return (self.speedup, self.norm_energy)


@dataclass
class KernelMeasurements:
    """All measurements of one kernel, columnar, with its baseline.

    Array fields share the configuration order of the sweep that produced
    them.  ``speedup`` / ``norm_energy`` are normalized against the
    baseline (the device's default configuration), per the paper's Fig. 2
    step 4.
    """

    spec: KernelSpec
    baseline: ExecutionRecord
    core_mhz: np.ndarray
    mem_mhz: np.ndarray
    time_ms: np.ndarray
    power_w: np.ndarray
    energy_j: np.ndarray
    speedup: np.ndarray
    norm_energy: np.ndarray
    _points: list[MeasuredPoint] | None = field(default=None, repr=False, compare=False)

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_arrays(
        cls,
        spec: KernelSpec,
        baseline: ExecutionRecord,
        core_mhz: np.ndarray,
        mem_mhz: np.ndarray,
        time_ms: np.ndarray,
        power_w: np.ndarray,
        energy_j: np.ndarray,
    ) -> "KernelMeasurements":
        """Build from raw measurement columns, normalizing against baseline."""
        time_ms = np.asarray(time_ms, dtype=np.float64)
        energy_j = np.asarray(energy_j, dtype=np.float64)
        return cls(
            spec=spec,
            baseline=baseline,
            core_mhz=np.asarray(core_mhz, dtype=np.float64),
            mem_mhz=np.asarray(mem_mhz, dtype=np.float64),
            time_ms=time_ms,
            power_w=np.asarray(power_w, dtype=np.float64),
            energy_j=energy_j,
            speedup=baseline.time_ms / time_ms,
            norm_energy=energy_j / baseline.energy_j,
        )

    @classmethod
    def from_sweep(
        cls, spec: KernelSpec, baseline: ExecutionRecord, batch: SweepBatch
    ) -> "KernelMeasurements":
        """Adopt a simulator :class:`SweepBatch` (no copies)."""
        return cls.from_arrays(
            spec=spec,
            baseline=baseline,
            core_mhz=batch.requested_core_mhz,
            mem_mhz=batch.mem_mhz,
            time_ms=batch.time_ms,
            power_w=batch.power_w,
            energy_j=batch.energy_j,
        )

    # -- views ------------------------------------------------------------------

    def __len__(self) -> int:
        return int(self.time_ms.size)

    @property
    def n_points(self) -> int:
        return len(self)

    @property
    def configs(self) -> list[tuple[float, float]]:
        return list(zip(self.core_mhz.tolist(), self.mem_mhz.tolist()))

    @property
    def points(self) -> list[MeasuredPoint]:
        """Row-wise view, materialized lazily and cached."""
        if self._points is None:
            name = self.spec.name
            self._points = [
                MeasuredPoint(
                    kernel=name,
                    core_mhz=core,
                    mem_mhz=mem,
                    speedup=s,
                    norm_energy=e,
                    time_ms=t,
                    energy_j=j,
                )
                for core, mem, s, e, t, j in zip(
                    self.core_mhz.tolist(),
                    self.mem_mhz.tolist(),
                    self.speedup.tolist(),
                    self.norm_energy.tolist(),
                    self.time_ms.tolist(),
                    self.energy_j.tolist(),
                )
            ]
        return self._points

    def by_mem(self, mem_mhz: float) -> list[MeasuredPoint]:
        return [p for p in self.points if p.mem_mhz == mem_mhz]

    def objective_points(self) -> list[tuple[float, float]]:
        return list(zip(self.speedup.tolist(), self.norm_energy.tolist()))

    def objective_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The (speedup, normalized energy) columns — the training targets."""
        return (self.speedup, self.norm_energy)


def measure_kernel(
    backend,
    spec: KernelSpec,
    settings: list[tuple[float, float]],
) -> KernelMeasurements:
    """Run ``spec`` at the default config (baseline) and every setting.

    ``backend`` is a :class:`~repro.measure.backend.MeasurementBackend` or,
    for backward compatibility, a bare :class:`GPUSimulator` (wrapped in a
    :class:`~repro.measure.simulator.SimulatorBackend` on the fly).
    """
    from ..measure.backend import as_backend

    return as_backend(backend).measure(spec, settings)


@dataclass
class TrainingDataset:
    """Design matrix + targets + group labels for the two regressors."""

    x: np.ndarray
    y_speedup: np.ndarray
    y_energy: np.ndarray
    groups: list[str]
    static_features: dict[str, StaticFeatures]

    @property
    def n_samples(self) -> int:
        return int(self.x.shape[0])

    @property
    def n_kernels(self) -> int:
        return len(self.static_features)

    def subset(self, mask: np.ndarray) -> "TrainingDataset":
        idx = np.flatnonzero(mask)
        return TrainingDataset(
            x=self.x[idx],
            y_speedup=self.y_speedup[idx],
            y_energy=self.y_energy[idx],
            groups=[self.groups[i] for i in idx],
            static_features=self.static_features,
        )


def iter_kernel_measurements(
    backend,
    specs: "Iterable[KernelSpec]",
    settings: list[tuple[float, float]],
    extractor_config=None,
) -> "Iterator[tuple[KernelSpec, StaticFeatures, KernelMeasurements]]":
    """Stream ``(spec, static features, measurements)`` per kernel.

    A serial loop, one triple at a time, so a consumer (dataset assembly,
    trace recording) never holds more than the kernel in flight.
    Process-parallel sweeps go through
    :class:`~repro.measure.parallel.DevicePool` instead (the campaign
    scheduler's path), with bit-identical results.

    ``extractor_config`` (an :class:`~repro.features.extractor.ExtractorConfig`)
    selects a non-default feature recipe/knob set.
    """
    from ..measure.backend import as_backend

    backend = as_backend(backend)
    for spec in specs:
        yield (
            spec,
            spec.static_features(extractor_config),
            backend.measure(spec, settings),
        )


@dataclass(frozen=True)
class MiniBatch:
    """A bounded slice of the design matrix with aligned target columns."""

    x: np.ndarray
    y_speedup: np.ndarray
    y_energy: np.ndarray

    @property
    def n_rows(self) -> int:
        return int(self.x.shape[0])


@dataclass(frozen=True)
class StreamingAssemblySummary:
    """What a streaming assembly pass actually held in memory."""

    n_rows: int
    n_kernels: int
    n_batches: int
    peak_rows_cap: int
    peak_resident_rows: int
    peak_resident_bytes: int


class DatasetAssembler:
    """Incremental training-matrix builder: fold sweeps in as they arrive.

    The mutable core of :func:`assemble_training_dataset`, split out so a
    consumer that routes many interleaved measurement streams (the
    campaign scheduler, where sweeps of several devices complete on one
    shared pool) can keep one assembler per stream and :meth:`add` each
    kernel the moment its sweep lands.  Kernels must be added in the same
    order a serial pass would produce them for the stacked matrices to be
    bit-identical to the serial path.

    **Streaming mode** (``on_batch`` set): instead of accumulating blocks
    for one dense :meth:`finish` stack, folded rows are buffered up to
    ``peak_rows`` and flushed to ``on_batch`` as bounded
    :class:`MiniBatch`\\ es — the dense matrix never materializes.  The
    buffer is flushed *before* a block would push it past the cap, and
    oversized blocks are emitted in ``peak_rows``-sized slices, so resident
    rows never exceed the cap.  :meth:`finish_streaming` flushes the tail
    and reports the observed peaks (also exported through the obs-registry
    gauges ``repro_dataset_peak_resident_rows`` / ``_bytes``).
    """

    def __init__(
        self,
        settings: list[tuple[float, float]],
        interactions: bool = True,
        peak_rows: int | None = None,
        on_batch=None,
    ) -> None:
        self.settings = list(settings)
        self.interactions = interactions
        if on_batch is not None and peak_rows is None:
            raise ValueError("streaming mode needs an explicit peak_rows cap")
        if peak_rows is not None:
            if peak_rows < 1:
                raise ValueError("peak_rows must be >= 1")
            if on_batch is None:
                raise ValueError("peak_rows without an on_batch consumer")
        self.peak_rows = peak_rows
        self._on_batch = on_batch
        self._blocks: list[np.ndarray] = []
        self._speedups: list[np.ndarray] = []
        self._energies: list[np.ndarray] = []
        self._groups: list[str] = []
        self._feats: dict[str, StaticFeatures] = {}
        self._buffer_rows = 0
        self._streamed_rows = 0
        self._n_batches = 0
        self.peak_resident_rows = 0
        self.peak_resident_bytes = 0

    @property
    def streaming(self) -> bool:
        return self._on_batch is not None

    @property
    def n_kernels(self) -> int:
        return len(self._feats) if self.streaming else len(self._blocks)

    def add(
        self,
        spec: KernelSpec,
        static: StaticFeatures,
        measurements: KernelMeasurements,
    ) -> None:
        """Fold one kernel's sweep: design-matrix block + target columns."""
        self._feats[spec.name] = static
        block = build_design_matrix(
            static, self.settings, interactions=self.interactions
        )
        if self.streaming:
            self._stream_block(block, measurements.speedup, measurements.norm_energy)
            return
        self._blocks.append(block)
        self._speedups.append(measurements.speedup)
        self._energies.append(measurements.norm_energy)
        self._groups.extend([spec.name] * len(measurements))

    def finish(self) -> TrainingDataset:
        """Stack everything folded so far into the training matrices."""
        if self.streaming:
            raise RuntimeError("streaming assembler: use finish_streaming()")
        if not self._blocks:
            raise ValueError("need at least one training spec")
        return TrainingDataset(
            x=np.vstack(self._blocks),
            y_speedup=np.concatenate(self._speedups),
            y_energy=np.concatenate(self._energies),
            groups=list(self._groups),
            static_features=dict(self._feats),
        )

    # -- streaming mode ---------------------------------------------------------

    def _note_resident(self, rows: int, n_cols: int) -> None:
        if rows > self.peak_resident_rows:
            self.peak_resident_rows = rows
        # design block + the two target columns, all float64
        resident = rows * (n_cols + 2) * 8
        if resident > self.peak_resident_bytes:
            self.peak_resident_bytes = resident

    def _emit(self, x: np.ndarray, speedup: np.ndarray, energy: np.ndarray) -> None:
        self._note_resident(x.shape[0], x.shape[1])
        self._streamed_rows += x.shape[0]
        self._n_batches += 1
        self._on_batch(MiniBatch(x=x, y_speedup=speedup, y_energy=energy))

    def _flush(self) -> None:
        if not self._blocks:
            return
        if len(self._blocks) == 1:
            x, s, e = self._blocks[0], self._speedups[0], self._energies[0]
        else:
            x = np.vstack(self._blocks)
            s = np.concatenate(self._speedups)
            e = np.concatenate(self._energies)
        self._blocks.clear()
        self._speedups.clear()
        self._energies.clear()
        self._buffer_rows = 0
        self._emit(x, s, e)

    def _stream_block(
        self, block: np.ndarray, speedup: np.ndarray, energy: np.ndarray
    ) -> None:
        cap = self.peak_rows
        rows = block.shape[0]
        if self._buffer_rows and self._buffer_rows + rows > cap:
            self._flush()
        if rows >= cap:
            for start in range(0, rows, cap):
                stop = start + cap
                self._emit(block[start:stop], speedup[start:stop], energy[start:stop])
            return
        self._blocks.append(block)
        self._speedups.append(speedup)
        self._energies.append(energy)
        self._buffer_rows += rows
        self._note_resident(self._buffer_rows, block.shape[1])
        if self._buffer_rows >= cap:
            self._flush()

    def finish_streaming(self) -> StreamingAssemblySummary:
        """Flush the tail batch and report (and export) the observed peaks."""
        if not self.streaming:
            raise RuntimeError("not a streaming assembler: use finish()")
        self._flush()
        from ..obs.instruments import observe_dataset_peak

        observe_dataset_peak(self.peak_resident_rows, self.peak_resident_bytes)
        return StreamingAssemblySummary(
            n_rows=self._streamed_rows,
            n_kernels=len(self._feats),
            n_batches=self._n_batches,
            peak_rows_cap=self.peak_rows,
            peak_resident_rows=self.peak_resident_rows,
            peak_resident_bytes=self.peak_resident_bytes,
        )


def assemble_training_dataset(
    measured: "Iterable[tuple[KernelSpec, StaticFeatures, KernelMeasurements]]",
    settings: list[tuple[float, float]],
    interactions: bool = True,
) -> TrainingDataset:
    """Fold a measurement stream into the training matrices, incrementally.

    Consumes any iterable of ``(spec, static, measurements)`` triples —
    typically :func:`iter_kernel_measurements` — accumulating one
    design-matrix block and one target column per kernel as they arrive,
    so the source (a long sweep, an out-of-core trace replay) is never
    materialized whole.  The final stack is columnar (``np.vstack`` /
    ``np.concatenate``); no per-point Python loop.
    """
    assembler = DatasetAssembler(settings, interactions=interactions)
    for spec, static, measurements in measured:
        assembler.add(spec, static, measurements)
    return assembler.finish()


def build_training_dataset(
    backend,
    specs: list[KernelSpec],
    settings: list[tuple[float, float]],
    interactions: bool = True,
    extractor_config=None,
) -> TrainingDataset:
    """Measure every spec at every setting and assemble the matrices.

    Mirrors Fig. 2: features extracted once per code (step 2), each code
    executed under the sampled settings (step 3), measurements normalized
    against the code's default-configuration baseline (step 4).  The
    measurement loop is the streaming :func:`iter_kernel_measurements`
    folded by :func:`assemble_training_dataset`; the campaign scheduler's
    process-parallel path produces bit-identical matrices.
    """
    if not specs:
        raise ValueError("need at least one training spec")
    if not settings:
        raise ValueError("need at least one frequency setting")
    return assemble_training_dataset(
        iter_kernel_measurements(
            backend, specs, settings, extractor_config=extractor_config
        ),
        settings,
        interactions=interactions,
    )
