"""Tests for the simulator: clocks, measurement protocol, noise."""

import pytest

from repro.gpusim.executor import ClockError, GPUSimulator
from repro.gpusim.noise import MeasurementNoise, NoiseConfig
from repro.gpusim.profile import DynamicTraits, WorkloadProfile
from repro.gpusim.sampler import NVML_SAMPLING_HZ, PowerSampler


@pytest.fixture()
def sim():
    return GPUSimulator()


@pytest.fixture()
def profile():
    return WorkloadProfile(
        name="probe",
        ops_per_item={"float_add": 200.0, "float_mul": 200.0, "gl_access": 4.0},
        work_items=1 << 20,
    )


class TestExecution:
    def test_run_produces_positive_measurements(self, sim, profile):
        r = sim.run_default(profile)
        assert r.time_ms > 0
        assert r.power_w > 0
        assert r.energy_j > 0

    def test_determinism(self, profile):
        a = GPUSimulator().run_at(profile, 1001.0, 3505.0)
        b = GPUSimulator().run_at(profile, 1001.0, 3505.0)
        assert a.time_ms == b.time_ms
        assert a.energy_j == b.energy_j

    def test_different_configs_differ(self, sim, profile):
        a = sim.run_at(profile, 513.0, 3505.0)
        b = sim.run_at(profile, 1202.0, 3505.0)
        assert a.time_ms != b.time_ms

    def test_record_carries_requested_and_effective(self, sim, profile):
        menu = sim.device.domain_by_label("H").reported_core_mhz
        fake = max(menu)
        r = sim.run_at(profile, fake, 3505.0)
        assert r.requested_core_mhz == fake
        assert r.effective_core_mhz == 1202.0
        assert r.config == (fake, 3505.0)

    def test_clamped_config_matches_1202(self, sim, profile):
        """Fig. 4a gray points: requesting >1202 behaves exactly like 1202."""
        fake = max(sim.device.domain_by_label("H").reported_core_mhz)
        clamped = sim.run_at(profile, fake, 3505.0)
        real = sim.run_at(profile, 1202.0, 3505.0)
        assert clamped.time_ms == pytest.approx(real.time_ms)
        assert clamped.energy_j == pytest.approx(real.energy_j)

    def test_unlisted_config_rejected(self, sim, profile):
        with pytest.raises(ClockError):
            sim.run_at(profile, 700.0, 405.0)

    def test_sweep_covers_all_reported(self, sim, profile):
        records = sim.sweep(profile)
        assert len(records) == len(sim.device.reported_configurations())

    def test_short_kernel_repeats_for_sampling(self, sim):
        tiny = WorkloadProfile(
            name="tiny", ops_per_item={"int_add": 4.0}, work_items=1024
        )
        r = sim.run_default(tiny)
        assert r.repeats > 1
        assert r.n_power_samples >= 24

    def test_energy_equals_power_times_time_scale(self, sim, profile):
        r = sim.run_default(profile)
        assert r.energy_j == pytest.approx(r.power_w * r.time_ms / 1e3, rel=0.05)


class TestNoise:
    def test_disabled_noise_is_identity(self):
        noise = MeasurementNoise(NoiseConfig(enabled=False))
        assert noise.factors("d", "k", 1001.0, 3505.0, 1.0) == (1.0, 1.0)

    def test_noise_deterministic_per_key(self):
        noise = MeasurementNoise()
        a = noise.factors("d", "k", 1001.0, 3505.0, 1.0)
        b = noise.factors("d", "k", 1001.0, 3505.0, 1.0)
        assert a == b

    def test_noise_differs_across_configs(self):
        noise = MeasurementNoise()
        a = noise.factors("d", "k", 1001.0, 3505.0, 1.0)
        b = noise.factors("d", "k", 900.0, 3505.0, 1.0)
        assert a != b

    def test_mem_l_noise_larger(self):
        import numpy as np

        noise = MeasurementNoise()
        high = [noise.factors("d", f"k{i}", 1001.0, 3505.0, 1.0)[0] for i in range(200)]
        low = [noise.factors("d", f"k{i}", 351.0, 405.0, 405.0 / 3505.0)[0] for i in range(200)]
        assert np.std(np.log(low)) > 2.0 * np.std(np.log(high))

    def test_factors_near_one(self):
        noise = MeasurementNoise()
        t, p = noise.factors("d", "k", 1001.0, 3505.0, 1.0)
        assert 0.9 < t < 1.1
        assert 0.9 < p < 1.1


class TestPowerSampler:
    def test_sample_count(self):
        s = PowerSampler()
        assert s.sample_count(1.0) == int(NVML_SAMPLING_HZ)
        assert s.sample_count(0.0) == 0

    def test_short_window_falls_back_to_idle(self):
        s = PowerSampler()
        trace = s.trace(200.0, 0.001, idle_power_w=15.0)
        assert trace.mean_power_w == 15.0

    def test_energy_mean_power_times_time(self):
        s = PowerSampler()
        trace = s.trace(100.0, 2.0)
        assert trace.energy_j == pytest.approx(200.0)

    def test_repeats_for_min_samples(self):
        s = PowerSampler()
        # One run of 10 ms holds 0.625 samples; need 20 → 32 runs.
        assert s.repeats_for_min_samples(0.010, min_samples=20) == 32

    def test_long_run_needs_single_repeat(self):
        s = PowerSampler()
        assert s.repeats_for_min_samples(10.0, min_samples=20) == 1

    def test_invalid_run_time_rejected(self):
        with pytest.raises(ValueError):
            PowerSampler().repeats_for_min_samples(0.0)

    def test_jitter_applied(self):
        import numpy as np

        s = PowerSampler()
        jitter = np.full(62, 1.1)
        trace = s.trace(100.0, 1.0, jitter=jitter)
        assert trace.mean_power_w == pytest.approx(110.0)
