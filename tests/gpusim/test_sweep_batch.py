"""Row independence of the measurement engine.

``GPUSimulator.sweep_batch`` is the simulator's only execution path, and one
configuration is a batch of one.  The contract: a row never depends on its
batch-mates — every column of row ``i`` of any batch equals that
configuration's M=1 ``sweep_batch`` row **bit for bit**, whatever subset
and order of the reported menu the batch holds, for compute-bound,
memory-bound and divergent workloads on both paper GPUs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim.device import make_tesla_p100, make_titan_x
from repro.gpusim.executor import ClockError, GPUSimulator
from repro.gpusim.noise import MeasurementNoise
from repro.gpusim.profile import DynamicTraits, WorkloadProfile

COMPUTE_BOUND = WorkloadProfile(
    name="compute-bound",
    ops_per_item={"float_mul": 400.0, "float_add": 300.0, "sf": 20.0, "gl_access": 2.0},
    work_items=1 << 20,
    traits=DynamicTraits(ilp=3.0, occupancy=0.9),
)
MEMORY_BOUND = WorkloadProfile(
    name="memory-bound",
    ops_per_item={"gl_access": 24.0, "float_add": 8.0},
    work_items=1 << 20,
    bytes_per_access=16.0,
    traits=DynamicTraits(cache_hit_rate=0.05, coalescing=0.5),
)
DIVERGENT = WorkloadProfile(
    name="divergent",
    ops_per_item={"branch": 60.0, "int_add": 120.0, "gl_access": 6.0, "sync": 2.0},
    work_items=1 << 18,
    traits=DynamicTraits(divergence=0.6, ilp=1.2, occupancy=0.4),
)
PROFILES = [COMPUTE_BOUND, MEMORY_BOUND, DIVERGENT]
#: Runs long enough that sample counts vary across the Titan X grid.
LONG_RUNNING = WorkloadProfile(
    name="long-running",
    ops_per_item={"float_add": 200.0, "float_mul": 200.0, "gl_access": 4.0},
    work_items=(1 << 20) * 3000,
)

RECORD_FIELDS = (
    "time_ms",
    "power_w",
    "energy_j",
    "effective_core_mhz",
    "requested_core_mhz",
    "mem_mhz",
    "repeats",
    "n_power_samples",
)
PHASE_FIELDS = (
    "t_compute_s",
    "t_dram_s",
    "t_l2_s",
    "t_total_s",
    "compute_utilization",
    "memory_utilization",
)
POWER_FIELDS = (
    "p_board_w",
    "p_core_static_w",
    "p_core_dynamic_w",
    "p_mem_static_w",
    "p_mem_dynamic_w",
)


SIMULATORS = (GPUSimulator(make_titan_x()), GPUSimulator(make_tesla_p100()))


def _assert_rows_match_batches_of_one(sim, profile, configs):
    batch = sim.sweep_batch(profile, configs)
    assert len(batch) == len(configs)
    for i, config in enumerate(configs):
        one = sim.sweep_batch(profile, [config])
        for name in RECORD_FIELDS:
            assert getattr(batch, name)[i] == getattr(one, name)[0], (name, config)
        for name in PHASE_FIELDS:
            assert getattr(batch.phases, name)[i] == getattr(one.phases, name)[0]
        for name in POWER_FIELDS:
            assert (
                getattr(batch.power_parts, name)[i]
                == getattr(one.power_parts, name)[0]
            )


@st.composite
def menu_subsets(draw):
    """A simulator plus a non-empty subset of its reported menu, shuffled."""
    sim = draw(st.sampled_from(SIMULATORS))
    configs = draw(st.permutations(sim.device.reported_configurations()))
    size = draw(st.integers(1, len(configs)))
    return sim, configs[:size]


class TestBitIdentity:
    @given(case=menu_subsets(), profile=st.sampled_from(PROFILES + [LONG_RUNNING]))
    @settings(max_examples=40, deadline=None)
    def test_any_subset_in_any_order(self, case, profile):
        """Each row equals its configuration's batch of one, bit for bit."""
        sim, configs = case
        _assert_rows_match_batches_of_one(sim, profile, configs)

    @pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
    def test_full_titan_x_reported_grid(self, profile):
        """All 219 reported Titan X configurations, bit-for-bit."""
        sim = GPUSimulator(make_titan_x())
        configs = sim.device.reported_configurations()
        assert len(configs) == 219
        _assert_rows_match_batches_of_one(sim, profile, configs)

    @pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
    def test_full_p100_menu(self, profile):
        sim = GPUSimulator(make_tesla_p100())
        configs = sim.device.reported_configurations()
        _assert_rows_match_batches_of_one(sim, profile, configs)

    def test_varying_sample_counts_stay_bit_identical(self):
        """Long runs → per-config sample counts differ across the sweep.

        Regression guard: zero-padding rows to a common width would
        regroup numpy's pairwise summation (the ``n % 8`` tail is added
        after the unrolled accumulators combine), flipping low bits of the
        mean power.  The engine must reduce exact-width groups instead.
        """
        sim = GPUSimulator(make_titan_x())
        configs = sim.device.reported_configurations()
        batch = sim.sweep_batch(LONG_RUNNING, configs)
        counts = set(batch.n_power_samples.tolist())
        assert len(counts) > 1, "profile too short to vary sample counts"
        assert any(n % 8 for n in counts), "need a non-multiple-of-8 count"
        _assert_rows_match_batches_of_one(sim, LONG_RUNNING, configs)

    def test_record_reads_its_row(self):
        """SweepBatch.record(i) is row i, and the M=1 record(0) of its config."""
        sim = GPUSimulator()
        configs = sim.device.real_configurations()[:20]
        batch = sim.sweep_batch(COMPUTE_BOUND, configs)
        for i, config in enumerate(configs):
            record = batch.record(i)
            assert record == sim.sweep_batch(COMPUTE_BOUND, [config]).record(0)
            for name in RECORD_FIELDS:
                assert getattr(record, name) == getattr(batch, name)[i]

    def test_run_default_is_the_default_batch_of_one(self):
        sim = GPUSimulator()
        assert sim.run_default(DIVERGENT) == sim.sweep_batch(
            DIVERGENT, [sim.device.default_config]
        ).record(0)


class TestBatchValidation:
    def test_unreported_config_rejected(self):
        sim = GPUSimulator()
        with pytest.raises(ClockError):
            sim.sweep_batch(COMPUTE_BOUND, [(700.0, 405.0)])

    def test_unknown_mem_clock_rejected(self):
        sim = GPUSimulator()
        with pytest.raises(KeyError):
            sim.sweep_batch(COMPUTE_BOUND, [(1001.0, 1234.0)])

    def test_empty_batch(self):
        sim = GPUSimulator()
        batch = sim.sweep_batch(COMPUTE_BOUND, [])
        assert len(batch) == 0
        assert batch.configs == []
        assert batch.energy_j.shape == (0,)

    def test_configs_property_round_trips(self):
        sim = GPUSimulator()
        configs = sim.device.real_configurations()[:7]
        assert sim.sweep_batch(COMPUTE_BOUND, configs).configs == configs


class TestNoiseArrayEntryPoints:
    def test_factors_rows_match_batches_of_one(self):
        noise = MeasurementNoise()
        cores = np.asarray([135.0, 405.0, 810.0, 1001.0, 1202.0])
        mems = np.asarray([405.0, 405.0, 810.0, 3505.0, 3505.0])
        rel = mems / 3505.0
        t_arr, p_arr = noise.factors_array("dev", "kern", cores, mems, rel)
        for i in range(cores.size):
            t, p = noise.factors_array(
                "dev", "kern", cores[i : i + 1], mems[i : i + 1], rel[i : i + 1]
            )
            assert t[0] == t_arr[i]
            assert p[0] == p_arr[i]

    def test_jitter_rows_match_batches_of_one(self):
        noise = MeasurementNoise()
        cores = np.asarray([500.0, 1001.0, 1202.0])
        mems = np.asarray([3505.0, 3505.0, 810.0])
        counts = np.asarray([24, 31, 26])
        matrix = noise.sample_jitter_matrix("dev", "kern", cores, mems, counts)
        assert matrix.shape == (3, 31)
        for i in range(3):
            row = noise.sample_jitter_matrix(
                "dev", "kern", cores[i : i + 1], mems[i : i + 1], counts[i : i + 1]
            )
            assert row.shape == (1, counts[i])
            assert np.array_equal(matrix[i, : counts[i]], row[0])
        # Padding beyond a row's sample count is inert (exact 1.0).
        assert np.all(matrix[0, 24:] == 1.0)
