"""Property-based tests (hypothesis) for the GPU simulator invariants.

Each drawn profile is evaluated over the whole real-configuration grid in
one batch, and the invariants are asserted over the resulting arrays.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim.device import make_titan_x
from repro.gpusim.perf_model import PerformanceModel
from repro.gpusim.power_model import PowerModel
from repro.gpusim.profile import DynamicTraits, WorkloadProfile

DEVICE = make_titan_x()
PERF = PerformanceModel(DEVICE)
POWER = PowerModel(DEVICE)
#: Every real (core, mem) pair, as paired float64 clock arrays.
CORES, MEMS = (
    np.asarray(column, dtype=np.float64)
    for column in zip(*DEVICE.real_configurations())
)

op_counts = st.fixed_dictionaries(
    {
        "int_add": st.floats(0.0, 500.0),
        "float_mul": st.floats(0.0, 500.0),
        "float_add": st.floats(0.0, 500.0),
        "sf": st.floats(0.0, 50.0),
        "gl_access": st.floats(0.0, 60.0),
        "loc_access": st.floats(0.0, 60.0),
    }
)

traits_strategy = st.builds(
    DynamicTraits,
    cache_hit_rate=st.floats(0.0, 1.0),
    coalescing=st.floats(0.1, 1.0),
    divergence=st.floats(0.0, 0.9),
    ilp=st.floats(1.0, 4.0),
    occupancy=st.floats(0.1, 1.0),
)

profiles = st.builds(
    WorkloadProfile,
    name=st.just("prop"),
    ops_per_item=op_counts,
    work_items=st.integers(1, 1 << 22),
    bytes_per_access=st.floats(1.0, 32.0),
    traits=traits_strategy,
)


def sweep(profile, cores=CORES, mems=MEMS):
    return PERF.execute_batch(profile, cores, mems)


def board_power(profile):
    """Total board power over the real grid."""
    return POWER.power_batch(profile, CORES, MEMS, sweep(profile)).total_w


@given(profile=profiles)
@settings(max_examples=120, deadline=None)
def test_time_positive_and_finite(profile):
    t = sweep(profile).t_total_s
    assert np.all(t > 0.0)
    assert np.all(t < 1e6)


@given(profile=profiles)
@settings(max_examples=80, deadline=None)
def test_time_monotone_nonincreasing_in_core(profile):
    """Raising only the core clock can never slow a kernel down."""
    t = sweep(profile).t_total_s
    for mem in DEVICE.mem_clocks_mhz:
        rows = MEMS == mem
        times = t[rows][np.argsort(CORES[rows])]
        assert np.all(times[1:] <= times[:-1] * (1.0 + 1e-9))


@given(profile=profiles)
@settings(max_examples=60, deadline=None)
def test_time_monotone_nonincreasing_in_mem(profile):
    """Raising only the memory clock can never slow a kernel down.

    The compared clocks skip the boosted idle P-state (405 MHz reports a
    controller clock, not the data clock), where monotonicity in the
    *reported* number is not a physical requirement.  Every mem-L core
    clock is checked at once.
    """
    menu = np.asarray(DEVICE.domain_by_label("L").real_core_mhz)
    times = np.stack(
        [
            sweep(profile, menu, np.full_like(menu, mem)).t_total_s
            for mem in (810.0, 3304.0, 3505.0)
        ]
    )
    assert np.all(times[1:] <= times[:-1] * (1.0 + 1e-9))


@given(profile=profiles)
@settings(max_examples=120, deadline=None)
def test_power_within_physical_bounds(profile):
    total = board_power(profile)
    assert np.all((10.0 < total) & (total < 350.0))


@given(profile=profiles)
@settings(max_examples=60, deadline=None)
def test_power_monotone_in_core(profile):
    total = board_power(profile)
    for mem in DEVICE.mem_clocks_mhz:
        rows = MEMS == mem
        watts = total[rows][np.argsort(CORES[rows])]
        assert watts[-1] >= watts[0] - 1e-9


@given(profile=profiles)
@settings(max_examples=80, deadline=None)
def test_utilizations_bounded(profile):
    phases = sweep(profile)
    for util in (phases.compute_utilization, phases.memory_utilization):
        assert np.all((0.0 <= util) & (util <= 1.0))


@given(profile=profiles)
@settings(max_examples=60, deadline=None)
def test_blend_between_max_and_sum(profile):
    """Total time lies between perfect overlap and full serialization."""
    phases = sweep(profile)
    t_c, t_d = phases.t_compute_s, phases.t_dram_s
    overhead = DEVICE.arch.launch_overhead_s
    assert np.all(phases.t_total_s >= np.maximum(t_c, t_d) + overhead - 1e-12)
    assert np.all(phases.t_total_s <= t_c + t_d + overhead + 1e-12)


@given(profile=profiles)
@settings(max_examples=60, deadline=None)
def test_scaling_in_work_items(profile):
    """Twice the work can never take less time."""
    t1 = sweep(profile).t_total_s
    t2 = sweep(profile.scaled(profile.work_items * 2)).t_total_s
    assert np.all(t2 >= t1 - 1e-12)
