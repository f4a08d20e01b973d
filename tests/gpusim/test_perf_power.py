"""Tests for the performance and power models (DVFS response shapes).

Every check runs the batch API over an array of configurations; one
configuration is a batch of one.
"""

import numpy as np
import pytest

from repro.gpusim.device import make_titan_x
from repro.gpusim.perf_model import PerformanceModel
from repro.gpusim.power_model import PowerModel
from repro.gpusim.profile import DynamicTraits, WorkloadProfile


def make_profile(compute=True, work_items=1 << 20):
    if compute:
        ops = {"float_mul": 400.0, "float_add": 400.0, "int_add": 50.0, "gl_access": 2.0}
        traits = DynamicTraits(cache_hit_rate=0.8, coalescing=0.95)
    else:
        ops = {"int_bw": 10.0, "int_add": 6.0, "gl_access": 24.0}
        traits = DynamicTraits(cache_hit_rate=0.05, coalescing=0.95)
    return WorkloadProfile(
        name="compute" if compute else "memory",
        ops_per_item=ops,
        work_items=work_items,
        bytes_per_access=12.0,
        traits=traits,
    )


@pytest.fixture(scope="module")
def device():
    return make_titan_x()


@pytest.fixture(scope="module")
def perf(device):
    return PerformanceModel(device)


@pytest.fixture(scope="module")
def power(device):
    return PowerModel(device)


def clocks(cores, mems):
    """Paired float64 (core, mem) clock arrays; a scalar side broadcasts."""
    return np.broadcast_arrays(
        np.asarray(cores, dtype=np.float64), np.asarray(mems, dtype=np.float64)
    )


def run(perf, profile, cores, mems):
    """Phase breakdown of ``profile`` at the paired clock arrays."""
    return perf.execute_batch(profile, *clocks(cores, mems))


def board_power(perf, power, profile, cores, mems):
    """(phases, power parts) of ``profile`` at the paired clock arrays."""
    core, mem = clocks(cores, mems)
    phases = perf.execute_batch(profile, core, mem)
    return phases, power.power_batch(profile, core, mem, phases)


class TestPerformanceModel:
    def test_time_decreases_with_core_for_compute(self, perf):
        p = make_profile(compute=True)
        times = run(perf, p, [513.0, 800.0, 1202.0], 3505.0).t_total_s
        assert np.all(np.diff(times) < 0.0)

    def test_compute_kernel_near_linear_in_core(self, perf):
        p = make_profile(compute=True)
        t1, t2 = run(perf, p, [600.0, 1200.0], 3505.0).t_total_s
        assert t1 / t2 == pytest.approx(2.0, rel=0.1)

    def test_memory_kernel_insensitive_to_core(self, perf):
        p = make_profile(compute=False)
        t1, t2 = run(perf, p, [513.0, 1202.0], 3505.0).t_total_s
        assert t1 / t2 < 1.15

    def test_memory_kernel_scales_with_mem(self, perf):
        p = make_profile(compute=False)
        t_low, t_high = run(perf, p, 1001.0, [810.0, 3505.0]).t_total_s
        assert t_low / t_high == pytest.approx(3505.0 / 810.0, rel=0.25)

    def test_compute_kernel_insensitive_to_mem(self, perf):
        p = make_profile(compute=True)
        t_low, t_high = run(perf, p, 1001.0, [810.0, 3505.0]).t_total_s
        assert t_low / t_high < 1.3

    def test_bound_classification(self, perf):
        compute = run(perf, make_profile(True), [1001.0], [3505.0])
        memory = run(perf, make_profile(False), [1001.0], [3505.0])
        assert compute.t_compute_s[0] >= compute.t_dram_s[0]
        assert memory.t_compute_s[0] < memory.t_dram_s[0]

    def test_time_scales_with_work_items(self, perf):
        small = run(perf, make_profile(True, 1 << 18), [1001.0], [3505.0]).t_total_s
        large = run(perf, make_profile(True, 1 << 22), [1001.0], [3505.0]).t_total_s
        assert large[0] / small[0] == pytest.approx(16.0, rel=0.1)

    def test_launch_overhead_floor(self, perf, device):
        tiny = WorkloadProfile(name="tiny", ops_per_item={"int_add": 1.0}, work_items=1)
        t = run(perf, tiny, device.mem_clocks_mhz, device.mem_clocks_mhz).t_total_s
        assert np.all(t >= device.arch.launch_overhead_s)

    def test_low_p_state_bandwidth_boost(self, perf):
        # 405 MHz reports the controller clock; effective bandwidth must be
        # clearly better than a linear reading (77 vs 39 GB/s story).
        bw405, bw3505 = perf.dram_bandwidth_bytes_per_s_array(
            np.asarray([405.0, 3505.0])
        )
        assert bw405 / bw3505 > 1.5 * (405.0 / 3505.0)

    def test_divergence_slows_compute(self, perf):
        base = make_profile(compute=True)
        diverged = base.with_traits(divergence=0.5)
        assert (
            run(perf, diverged, [1001.0], [3505.0]).t_total_s[0]
            > run(perf, base, [1001.0], [3505.0]).t_total_s[0]
        )

    def test_ilp_speeds_compute(self, perf):
        base = make_profile(compute=True)
        serial = base.with_traits(ilp=1.0)
        assert (
            run(perf, serial, [1001.0], [3505.0]).t_total_s[0]
            > run(perf, base, [1001.0], [3505.0]).t_total_s[0]
        )

    def test_low_occupancy_reduces_overlap(self, perf):
        mixed = WorkloadProfile(
            name="mixed",
            ops_per_item={"float_add": 100.0, "gl_access": 10.0},
            work_items=1 << 20,
            bytes_per_access=16.0,
            traits=DynamicTraits(cache_hit_rate=0.1, occupancy=0.9),
        )
        starved = mixed.with_traits(occupancy=0.1)
        assert (
            run(perf, starved, [1001.0], [3505.0]).t_total_s[0]
            > run(perf, mixed, [1001.0], [3505.0]).t_total_s[0]
        )

    def test_invalid_clocks_rejected(self, perf):
        with pytest.raises(ValueError):
            run(perf, make_profile(True), [1001.0, 0.0], 3505.0)


class TestPowerModel:
    def test_power_increases_with_core(self, perf, power):
        p = make_profile(compute=True)
        _, parts = board_power(perf, power, p, [513.0, 800.0, 1202.0], 3505.0)
        assert np.all(np.diff(parts.total_w) > 0.0)

    def test_power_increases_with_mem(self, perf, power):
        p = make_profile(compute=False)
        _, parts = board_power(perf, power, p, 1001.0, [810.0, 3505.0])
        low, high = parts.total_w
        assert low < high

    def test_total_within_board_limits(self, perf, power):
        # Titan X board: 250 W TDP; idle floor well under load values.
        p = make_profile(compute=True)
        _, parts = board_power(perf, power, p, [1202.0], [3505.0])
        assert 60.0 < parts.total_w[0] < 280.0

    def test_components_positive(self, perf, power):
        p = make_profile(compute=False)
        _, parts = board_power(perf, power, p, [1001.0], [3505.0])
        assert parts.p_board_w[0] > 0
        assert parts.p_core_static_w[0] > 0
        assert parts.p_core_dynamic_w[0] > 0
        assert parts.p_mem_static_w[0] > 0
        assert parts.p_mem_dynamic_w[0] > 0

    def test_memory_bound_kernel_keeps_core_busy(self, perf, power):
        # The core activity of a memory-bound kernel at full memory clock
        # must be well above the idle floor (LSU/L2 issue traffic).
        p = make_profile(compute=False)
        phases = run(perf, p, [1001.0], [3505.0])
        act = power.compute_activity_array(p, phases, np.asarray([1.0]))
        assert act[0] > 0.4

    def test_energy_parabola_for_compute_kernel(self, perf, power, device):
        """Normalized energy must dip below the default-config value at
        some intermediate core frequency and rise again at the extremes —
        the defining Fig. 1b shape."""
        p = make_profile(compute=True)
        cores = [513.0, 800.0, 850.0, 900.0, 950.0, 1001.0, 1202.0]
        phases, parts = board_power(perf, power, p, cores, 3505.0)
        energy = parts.total_w * phases.t_total_s
        e_min_clock, e_mid, e_max_clock = energy[0], energy[1:-1].min(), energy[-1]
        assert e_mid < e_min_clock
        assert e_mid < e_max_clock
