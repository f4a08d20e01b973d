"""Analytical GPU board power model.

Board power is decomposed the way the component-level literature does
(Isci & Martonosi MICRO'03 for the decomposition idea; Guerreiro et al.
HPCA'18 for the GPU multi-domain version the paper cites):

    P = P_board + P_core_static(V) + P_core_dyn(V, f_core, activity)
               + P_mem_static(f_mem) + P_mem_dyn(f_mem, activity)

* ``P_core_dyn`` follows the CMOS ``a·C·V²·f`` law — the superlinear V(f)
  rise at high clocks is what bends energy-per-task upward (Fig. 1b/e).
* ``P_core_static`` scales with voltage (leakage ∝ V here; the exponent
  matters little over the 0.8–1.16 V range).
* Memory power has a static part that scales with the memory clock state
  and a dynamic part proportional to achieved DRAM utilization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .device import DeviceSpec
from .perf_model import PhaseBreakdownBatch
from .profile import WorkloadProfile


@dataclass(frozen=True)
class PowerBreakdownBatch:
    """Per-component average power (watts) of one launch per configuration.

    Every field is a float64 array over the ``(M,)`` configuration vector.
    """

    p_board_w: np.ndarray
    p_core_static_w: np.ndarray
    p_core_dynamic_w: np.ndarray
    p_mem_static_w: np.ndarray
    p_mem_dynamic_w: np.ndarray

    @property
    def total_w(self) -> np.ndarray:
        return (
            self.p_board_w
            + self.p_core_static_w
            + self.p_core_dynamic_w
            + self.p_mem_static_w
            + self.p_mem_dynamic_w
        )

    def __len__(self) -> int:
        return int(self.p_core_dynamic_w.size)


class PowerModel:
    """Maps (profile, clocks, timing breakdown) → average board power."""

    def __init__(self, device: DeviceSpec) -> None:
        self.device = device

    def core_voltage_array(self, core_mhz: np.ndarray) -> np.ndarray:
        return self.device.vf_curve.voltage_array(core_mhz)

    def compute_activity_array(
        self,
        profile: WorkloadProfile,
        phases: PhaseBreakdownBatch,
        mem_rel: np.ndarray,
    ) -> np.ndarray:
        """Average switching activity of the core datapath in [floor, 1].

        Memory-bound kernels still toggle the core heavily — load/store
        units, schedulers and the L2 keep switching while warps wait on
        DRAM — so memory utilization contributes (``mem_issue_activity``).
        This is what makes core *down*-scaling save real energy on
        memory-bound kernels at almost no performance cost (Fig. 1f).
        """
        params = self.device.power
        floor = params.activity_floor
        # Wider instruction mixes toggle more of the datapath.
        mix_bonus = 0.15 * min(profile.traits.ilp - 1.0, 2.0)
        issue = phases.compute_utilization * (1.0 + mix_bonus) / 1.3
        # Memory-pipe issue toggles the core per *transaction*, so its
        # contribution scales with achieved DRAM throughput: at a reduced
        # memory clock the core issues proportionally fewer loads per
        # second and idles (power-gated warp slots) in between.
        issue = issue + params.mem_issue_activity * phases.memory_utilization * mem_rel
        return np.minimum(1.0, floor + (1.0 - floor) * np.minimum(issue, 1.0))

    def memory_activity_array(self, phases: PhaseBreakdownBatch) -> np.ndarray:
        floor = self.device.power.activity_floor
        return np.minimum(1.0, floor + (1.0 - floor) * phases.memory_utilization)

    def power_batch(
        self,
        profile: WorkloadProfile,
        core_mhz: np.ndarray,
        mem_mhz: np.ndarray,
        phases: PhaseBreakdownBatch,
    ) -> PowerBreakdownBatch:
        """Board power for an ``(M,)`` configuration vector, one numpy pass."""
        params = self.device.power
        core_mhz = np.asarray(core_mhz, dtype=np.float64)
        mem_mhz = np.asarray(mem_mhz, dtype=np.float64)
        volts = self.core_voltage_array(core_mhz)
        mem_rel = mem_mhz / self.device.max_mem_mhz

        p_core_static = params.core_leakage_w_per_v * volts * volts
        activity = self.compute_activity_array(profile, phases, mem_rel)
        p_core_dyn = params.core_dynamic_w * volts * volts * (core_mhz / 1000.0) * activity
        # GDDR5 I/O and PLL power scale steeply with the memory P-state;
        # the idle state keeps only a small fraction of the static draw.
        p_mem_static = params.mem_static_w * (0.12 + 0.88 * mem_rel)
        p_mem_dyn = (
            params.mem_dynamic_w_per_ghz
            * (mem_mhz / 1000.0)
            * self.memory_activity_array(phases)
        )

        return PowerBreakdownBatch(
            p_board_w=np.full_like(volts, params.p_board_w),
            p_core_static_w=p_core_static,
            p_core_dynamic_w=p_core_dyn,
            p_mem_static_w=p_mem_static,
            p_mem_dynamic_w=p_mem_dyn,
        )
