"""The GPU simulator: run kernels at frequency configurations, read measurements.

:class:`GPUSimulator` glues the device tables, performance model, power
model, noise source and the 62.5 Hz sampling pipeline into one object with
the semantics of a real DVFS-managed GPU:

* application clocks are *requested* and validated against the device's
  reported menus; the effective core clock obeys the device's clamping
  rule (Fig. 4a's gray points);
* timing/power readings include deterministic per-configuration noise;
* energy is produced by the paper's measurement protocol — repeat the kernel
  until the window holds enough 62.5 Hz samples, then mean-power × time.

:meth:`GPUSimulator.sweep_batch` is the simulator's only execution path.
It evaluates one workload against an ``(M,)`` vector of configurations in a
single numpy pass over the performance model, power model, noise source and
sampling pipeline, returning a columnar :class:`SweepBatch`.  One
configuration is a batch of one, and a row never depends on its batch-mates:
row ``i`` of any batch equals the single row of that configuration's batch
of one, bit for bit (asserted by the row-independence tests).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .device import DeviceSpec, make_titan_x
from .noise import MeasurementNoise, NoiseConfig
from .perf_model import PerformanceModel, PhaseBreakdownBatch
from .power_model import PowerBreakdownBatch, PowerModel
from .profile import WorkloadProfile
from .sampler import PowerSampler

#: Minimum sample count the measurement protocol insists on (paper §4.1
#: repeats applications "multiple times" for statistical consistency).
MIN_POWER_SAMPLES = 24

#: Board power draw of an idle device (W): the reading a sampling window
#: too short for even one sample reports.
IDLE_POWER_W = 15.0


@dataclass(frozen=True)
class ExecutionRecord:
    """One measured kernel execution at one frequency configuration.

    Only the externally observable measurements: the simulator's internal
    phase and power breakdowns stay on :class:`SweepBatch`, so a record
    from the simulator and one reconstructed from a recorded trace
    (:class:`repro.measure.replay.ReplayBackend`) carry the same fields.
    """

    kernel: str
    requested_core_mhz: float
    effective_core_mhz: float
    mem_mhz: float
    time_ms: float
    power_w: float
    energy_j: float
    repeats: int = 1
    n_power_samples: int = 0

    @property
    def config(self) -> tuple[float, float]:
        """The *requested* configuration (what a tuner would record)."""
        return (self.requested_core_mhz, self.mem_mhz)


@dataclass(frozen=True)
class SweepBatch:
    """Columnar measurements of one kernel over ``(M,)`` configurations.

    All array fields share the batch length and configuration order;
    :meth:`record` reads one configuration's :class:`ExecutionRecord`.
    """

    kernel: str
    requested_core_mhz: np.ndarray
    effective_core_mhz: np.ndarray
    mem_mhz: np.ndarray
    time_ms: np.ndarray
    power_w: np.ndarray
    energy_j: np.ndarray
    repeats: np.ndarray
    n_power_samples: np.ndarray
    phases: PhaseBreakdownBatch
    power_parts: PowerBreakdownBatch

    def __len__(self) -> int:
        return int(self.time_ms.size)

    @property
    def configs(self) -> list[tuple[float, float]]:
        """The requested (core, mem) pairs, in batch order."""
        return list(zip(self.requested_core_mhz.tolist(), self.mem_mhz.tolist()))

    def record(self, i: int) -> ExecutionRecord:
        """The measurements of configuration ``i`` as one record."""
        return ExecutionRecord(
            kernel=self.kernel,
            requested_core_mhz=float(self.requested_core_mhz[i]),
            effective_core_mhz=float(self.effective_core_mhz[i]),
            mem_mhz=float(self.mem_mhz[i]),
            time_ms=float(self.time_ms[i]),
            power_w=float(self.power_w[i]),
            energy_j=float(self.energy_j[i]),
            repeats=int(self.repeats[i]),
            n_power_samples=int(self.n_power_samples[i]),
        )


class ClockError(ValueError):
    """Raised when a requested clock pair is not reported as supported."""


class GPUSimulator:
    """A DVFS-capable GPU you run kernels against at requested clocks."""

    def __init__(
        self,
        device: DeviceSpec | None = None,
        noise: NoiseConfig | None = None,
    ) -> None:
        self.device = device or make_titan_x()
        self.perf = PerformanceModel(self.device)
        self.power = PowerModel(self.device)
        self.noise = MeasurementNoise(noise)
        self.sampler = PowerSampler()

    # -- execution ---------------------------------------------------------------

    def _effective_cores(
        self, configs: list[tuple[float, float]]
    ) -> np.ndarray:
        """Validate every requested pair and apply the clamping rule."""
        by_mem: dict[float, tuple[frozenset[float], float]] = {}
        effective = np.empty(len(configs), dtype=np.float64)
        for i, (core, mem) in enumerate(configs):
            cached = by_mem.get(mem)
            if cached is None:
                domain = self.device.domain(mem)  # KeyError on bad mem clock
                cached = (frozenset(domain.reported_core_mhz), domain.core_clamp_mhz)
                by_mem[mem] = cached
            menu, clamp = cached
            if core not in menu:
                raise ClockError(
                    f"core clock {core} MHz not in the reported menu for "
                    f"mem {mem} MHz on {self.device.name}"
                )
            effective[i] = core if core <= clamp else clamp
        return effective

    def sweep_batch(
        self,
        profile: WorkloadProfile,
        configs: list[tuple[float, float]] | None = None,
    ) -> SweepBatch:
        """Measure ``profile`` at every configuration in one vectorized pass.

        ``configs`` defaults to every reported configuration.  The whole
        measurement protocol — performance phases, power decomposition,
        per-configuration noise, 62.5 Hz sample synthesis — runs as numpy
        array operations over the ``(M,)`` configuration vector; only menu
        validation walks the configurations in Python.
        """
        if configs is None:
            configs = self.device.reported_configurations()
        configs = list(configs)
        effective = self._effective_cores(configs)
        requested = np.asarray([c for c, _ in configs], dtype=np.float64)
        mem = np.asarray([m for _, m in configs], dtype=np.float64)

        phases = self.perf.execute_batch(profile, effective, mem)
        parts = self.power.power_batch(profile, effective, mem, phases)

        mem_rel = mem / self.device.max_mem_mhz
        t_factor, p_factor = self.noise.factors_array(
            self.device.name, profile.name, effective, mem, mem_rel
        )
        true_time_s = phases.t_total_s * t_factor
        true_power_w = parts.total_w * p_factor

        # Measurement protocol: repeat until the window has enough samples.
        repeats = self.sampler.repeats_for_min_samples_array(
            true_time_s, MIN_POWER_SAMPLES
        )
        window_s = true_time_s * repeats
        n_samples = self.sampler.sample_count_array(window_s)
        jitter = self.noise.sample_jitter_matrix(
            self.device.name, profile.name, effective, mem, n_samples
        )
        mean_power_w = self.sampler.mean_power_array(
            true_power_w, n_samples, jitter, idle_power_w=IDLE_POWER_W
        )
        energy_per_run_j = (mean_power_w * window_s) / repeats
        # A window too short for even one sample reports one reading: the
        # idle value mean_power_array fell back to.
        n_reported = np.where(n_samples > 0, n_samples, 1)

        return SweepBatch(
            kernel=profile.name,
            requested_core_mhz=requested,
            effective_core_mhz=effective,
            mem_mhz=mem,
            time_ms=true_time_s * 1e3,
            power_w=mean_power_w,
            energy_j=energy_per_run_j,
            repeats=repeats,
            n_power_samples=n_reported,
            phases=phases,
            power_parts=parts,
        )

    def run_default(self, profile: WorkloadProfile) -> ExecutionRecord:
        """Run at the device's default configuration (the paper's baseline)."""
        return self.sweep_batch(profile, [self.device.default_config]).record(0)
