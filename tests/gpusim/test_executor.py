"""Tests for the simulator: clocks, measurement protocol, noise."""

import numpy as np
import pytest

from repro.gpusim.executor import ClockError, GPUSimulator
from repro.gpusim.noise import MeasurementNoise, NoiseConfig
from repro.gpusim.profile import DynamicTraits, WorkloadProfile
from repro.gpusim.sampler import NVML_SAMPLING_HZ, PowerSampler


def measure(sim, profile, core, mem):
    """One configuration, measured as a batch of one."""
    return sim.sweep_batch(profile, [(core, mem)]).record(0)


def noise_factors(noise, kernel, core, mem, mem_relative):
    """(time, power) noise factors of one configuration."""
    t, p = noise.factors_array(
        "d", kernel, np.asarray([core]), np.asarray([mem]), np.asarray([mem_relative])
    )
    return (float(t[0]), float(p[0]))


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
        a = measure(GPUSimulator(), profile, 1001.0, 3505.0)
        b = measure(GPUSimulator(), profile, 1001.0, 3505.0)
        assert a.time_ms == b.time_ms
        assert a.energy_j == b.energy_j

    def test_different_configs_differ(self, sim, profile):
        a = measure(sim, profile, 513.0, 3505.0)
        b = measure(sim, profile, 1202.0, 3505.0)
        assert a.time_ms != b.time_ms

    def test_record_carries_requested_and_effective(self, sim, profile):
        menu = sim.device.domain_by_label("H").reported_core_mhz
        fake = max(menu)
        r = measure(sim, profile, fake, 3505.0)
        assert r.requested_core_mhz == fake
        assert r.effective_core_mhz == 1202.0
        assert r.config == (fake, 3505.0)

    def test_clamped_config_matches_1202(self, sim, profile):
        """Fig. 4a gray points: requesting >1202 behaves exactly like 1202."""
        fake = max(sim.device.domain_by_label("H").reported_core_mhz)
        clamped = measure(sim, profile, fake, 3505.0)
        real = measure(sim, profile, 1202.0, 3505.0)
        assert clamped.time_ms == pytest.approx(real.time_ms)
        assert clamped.energy_j == pytest.approx(real.energy_j)

    def test_unlisted_config_rejected(self, sim, profile):
        with pytest.raises(ClockError):
            measure(sim, profile, 700.0, 405.0)

    def test_sweep_covers_all_reported(self, sim, profile):
        batch = sim.sweep_batch(profile)
        assert len(batch) == len(sim.device.reported_configurations())
        assert batch.configs == sim.device.reported_configurations()

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
        assert noise_factors(noise, "k", 1001.0, 3505.0, 1.0) == (1.0, 1.0)

    def test_noise_deterministic_per_key(self):
        noise = MeasurementNoise()
        a = noise_factors(noise, "k", 1001.0, 3505.0, 1.0)
        b = noise_factors(noise, "k", 1001.0, 3505.0, 1.0)
        assert a == b

    def test_noise_differs_across_configs(self):
        noise = MeasurementNoise()
        a = noise_factors(noise, "k", 1001.0, 3505.0, 1.0)
        b = noise_factors(noise, "k", 900.0, 3505.0, 1.0)
        assert a != b

    def test_mem_l_noise_larger(self):
        noise = MeasurementNoise()
        high = [noise_factors(noise, f"k{i}", 1001.0, 3505.0, 1.0)[0] for i in range(200)]
        low = [noise_factors(noise, f"k{i}", 351.0, 405.0, 405.0 / 3505.0)[0] for i in range(200)]
        assert np.std(np.log(low)) > 2.0 * np.std(np.log(high))

    def test_factors_near_one(self):
        noise = MeasurementNoise()
        t, p = noise_factors(noise, "k", 1001.0, 3505.0, 1.0)
        assert 0.9 < t < 1.1
        assert 0.9 < p < 1.1


class TestPowerSampler:
    def test_samples_per_window(self):
        s = PowerSampler()
        counts = s.sample_count_array(np.asarray([1.0, 0.0]))
        assert counts.tolist() == [int(NVML_SAMPLING_HZ), 0]

    def test_short_window_falls_back_to_idle(self):
        s = PowerSampler()
        n = s.sample_count_array(np.asarray([0.001]))
        mean = s.mean_power_array(
            np.asarray([200.0]), n, np.ones((1, 0)), idle_power_w=15.0
        )
        assert mean.tolist() == [15.0]

    def test_energy_mean_power_times_time(self):
        s = PowerSampler()
        n = s.sample_count_array(np.asarray([2.0]))
        mean = s.mean_power_array(
            np.asarray([100.0]), n, np.ones((1, int(n[0]))), idle_power_w=15.0
        )
        assert mean[0] * 2.0 == pytest.approx(200.0)

    def test_short_run_repeats_to_min_samples(self):
        s = PowerSampler()
        # One run of 10 ms holds 0.625 samples; need 20 → 32 runs.
        repeats = s.repeats_for_min_samples_array(np.asarray([0.010]), min_samples=20)
        assert repeats.tolist() == [32]

    def test_long_run_needs_single_repeat(self):
        s = PowerSampler()
        repeats = s.repeats_for_min_samples_array(np.asarray([10.0]), min_samples=20)
        assert repeats.tolist() == [1]

    def test_invalid_run_time_rejected(self):
        with pytest.raises(ValueError):
            PowerSampler().repeats_for_min_samples_array(np.asarray([0.5, 0.0]))

    def test_jitter_applied(self):
        s = PowerSampler()
        jitter = np.full((1, 62), 1.1)
        mean = s.mean_power_array(
            np.asarray([100.0]), np.asarray([62]), jitter, idle_power_w=15.0
        )
        assert mean[0] == pytest.approx(110.0)
