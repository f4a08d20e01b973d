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

from ..analysis.recipes import DEFAULT_RECIPE
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
    feature_recipe: str = DEFAULT_RECIPE,
) -> "Iterator[tuple[KernelSpec, StaticFeatures, KernelMeasurements]]":
    """Stream ``(spec, static features, measurements)`` per kernel.

    A serial loop, one triple at a time, so a consumer (dataset assembly,
    trace recording) never holds more than the kernel in flight.
    Process-parallel sweeps go through
    :class:`~repro.measure.parallel.DevicePool` instead (the campaign
    scheduler's path), with bit-identical results.  Static vectors are
    extracted with ``feature_recipe`` (:mod:`repro.analysis.recipes`).
    """
    from ..measure.backend import as_backend

    backend = as_backend(backend)
    for spec in specs:
        yield (
            spec,
            spec.static_features(feature_recipe),
            backend.measure(spec, settings),
        )


class DatasetAssembler:
    """Incremental training-matrix builder: fold sweeps in as they arrive.

    The mutable core of :func:`assemble_training_dataset`, split out so a
    consumer that routes many interleaved measurement streams (the
    campaign scheduler, where sweeps of several devices complete on one
    shared pool) can keep one assembler per stream and :meth:`add` each
    kernel the moment its sweep lands.  Kernels must be added in the same
    order a serial pass would produce them for the stacked matrices to be
    bit-identical to the serial path.
    """

    def __init__(
        self,
        settings: list[tuple[float, float]],
        interactions: bool = True,
    ) -> None:
        self.settings = list(settings)
        self.interactions = interactions
        self._blocks: list[np.ndarray] = []
        self._speedups: list[np.ndarray] = []
        self._energies: list[np.ndarray] = []
        self._groups: list[str] = []
        self._feats: dict[str, StaticFeatures] = {}

    @property
    def n_kernels(self) -> int:
        return len(self._blocks)

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
        self._blocks.append(block)
        self._speedups.append(measurements.speedup)
        self._energies.append(measurements.norm_energy)
        self._groups.extend([spec.name] * len(measurements))

    def finish(self) -> TrainingDataset:
        """Stack everything folded so far into the training matrices."""
        if not self._blocks:
            raise ValueError("need at least one training spec")
        return TrainingDataset(
            x=np.vstack(self._blocks),
            y_speedup=np.concatenate(self._speedups),
            y_energy=np.concatenate(self._energies),
            groups=list(self._groups),
            static_features=dict(self._feats),
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
    so the source (a long sweep, a trace replay) is never
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
    feature_recipe: str = DEFAULT_RECIPE,
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
        iter_kernel_measurements(backend, specs, settings, feature_recipe),
        settings,
        interactions=interactions,
    )
