"""Config-keyed sweep lookups (the O(n)-scan replacement)."""

from repro.core.config import sample_training_settings
from repro.gpusim.executor import GPUSimulator
from repro.harness.runner import measure_configs, sweep_kernel
from repro.measure import SimulatorBackend
from repro.suite import get_benchmark


def test_lookup_uses_index():
    sim = GPUSimulator()
    settings = sample_training_settings(sim.device, total=12)
    sweep = sweep_kernel(sim, get_benchmark("MT"), settings)
    for config in settings:
        point = sweep.lookup(config)
        assert point is not None
        assert point.config == config
    assert sweep.lookup((1.0, 2.0)) is None
    # The index is built once and reused.
    assert sweep.index is sweep.index


def test_as_dict_is_a_copy():
    sim = GPUSimulator()
    settings = sample_training_settings(sim.device, total=12)
    sweep = sweep_kernel(sim, get_benchmark("MT"), settings)
    d = sweep.as_dict()
    d.clear()
    assert sweep.lookup(settings[0]) is not None


def test_measure_configs_keyed_by_config():
    backend = SimulatorBackend()
    settings = sample_training_settings(backend.device, total=12)
    measured = measure_configs(backend, get_benchmark("MT"), settings)
    assert set(measured) == set(settings)


def test_sweep_kernel_accepts_backend_and_simulator():
    sim = GPUSimulator()
    settings = sample_training_settings(sim.device, total=10)
    spec = get_benchmark("MT")
    a = sweep_kernel(sim, spec, settings)
    b = sweep_kernel(SimulatorBackend(sim=sim), spec, settings)
    assert a.objective_points() == b.objective_points()


def test_sweep_many_on_sweep_hook_fires_in_order():
    """The observability seam: one callback per result, pre-yield."""
    from repro.harness.runner import sweep_many
    from repro.suite import test_benchmarks

    specs = test_benchmarks()[:3]
    sim = GPUSimulator()
    settings = sample_training_settings(sim.device, total=8)

    seen = []
    results = list(
        sweep_many(
            SimulatorBackend(sim=sim),
            specs,
            settings,
            on_sweep=lambda r: seen.append(r.kernel),
        )
    )
    assert seen == [r.kernel for r in results] == [s.name for s in specs]


def test_sweep_many_hook_sees_result_before_consumer():
    """The callback observes each sweep even if the consumer stops early."""
    from repro.harness.runner import sweep_many
    from repro.suite import test_benchmarks

    specs = test_benchmarks()[:3]
    sim = GPUSimulator()
    settings = sample_training_settings(sim.device, total=8)
    seen = []
    stream = sweep_many(
        SimulatorBackend(sim=sim), specs, settings,
        on_sweep=lambda r: seen.append(r.kernel),
    )
    next(stream)
    assert seen == [specs[0].name]  # lazily driven: one sweep, one event
