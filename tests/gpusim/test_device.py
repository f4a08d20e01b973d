"""Tests for device tables: frequency menus, clamping, V/f curve (Fig. 4)."""

import numpy as np
import pytest

from repro.gpusim.device import (
    TITAN_X_CORE_CLAMP_MHZ,
    VoltageCurve,
    device_aliases,
    device_slug,
    get_device,
    make_tesla_p100,
    make_titan_x,
    resolve_device,
)


class TestTitanXMenus:
    def setup_method(self):
        self.dev = make_titan_x()

    def test_four_memory_domains(self):
        assert self.dev.mem_clocks_mhz == (405.0, 810.0, 3304.0, 3505.0)

    def test_domain_labels(self):
        assert [d.label for d in self.dev.domains] == ["L", "l", "h", "H"]

    def test_mem_l_has_six_cores(self):
        # Paper §4.1: "the lowest memory configuration (mem-L) only
        # supports six core frequencies".
        assert len(self.dev.domain_by_label("L").real_core_mhz) == 6

    def test_mem_l_caps_at_405(self):
        assert max(self.dev.domain_by_label("L").real_core_mhz) == 405.0

    def test_mem_low_has_71_cores(self):
        assert len(self.dev.domain_by_label("l").real_core_mhz) == 71

    def test_mem_high_domains_have_50_real(self):
        # Paper §4.1: "both mem-h and mem-H have 50".
        assert len(self.dev.domain_by_label("h").real_core_mhz) == 50
        assert len(self.dev.domain_by_label("H").real_core_mhz) == 50

    def test_reported_total_is_219(self):
        # Paper §1: "a total number of 219 possible configurations".
        assert len(self.dev.reported_configurations()) == 219

    def test_clamp_rule(self):
        domain = self.dev.domain_by_label("H")
        assert domain.effective_core(1392.0) == TITAN_X_CORE_CLAMP_MHZ
        assert domain.effective_core(1000.0) == 1000.0

    def test_reported_includes_fake_configs(self):
        domain = self.dev.domain_by_label("H")
        fakes = [c for c in domain.reported_core_mhz if c > TITAN_X_CORE_CLAMP_MHZ]
        assert len(fakes) == 21

    def test_real_excludes_fakes(self):
        domain = self.dev.domain_by_label("H")
        assert max(domain.real_core_mhz) == TITAN_X_CORE_CLAMP_MHZ

    def test_default_config(self):
        assert self.dev.default_config == (1001.0, 3505.0)

    def test_default_core_in_menu(self):
        for label in ("h", "H", "l"):
            assert 1001.0 in self.dev.domain_by_label(label).reported_core_mhz

    def test_unknown_mem_clock_raises(self):
        with pytest.raises(KeyError):
            self.dev.domain(999.0)

    def test_unknown_label_raises(self):
        with pytest.raises(KeyError):
            self.dev.domain_by_label("X")

    def test_sampler_spreads_budget_across_large_domains(self):
        from repro.core.config import sample_training_settings

        # The whole undersized mem-L domain, then the rest split evenly
        # over the three large domains.
        settings = sample_training_settings(self.dev, total=40)
        by_mem = {mem: 0 for mem in self.dev.mem_clocks_mhz}
        for _core, mem in settings:
            by_mem[mem] += 1
        assert by_mem == {405.0: 6, 810.0: 12, 3304.0: 11, 3505.0: 11}


class TestTeslaP100:
    def test_single_memory_domain(self):
        # Paper §4.1: "the NVIDIA Tesla P100 only supports one".
        dev = make_tesla_p100()
        assert dev.mem_clocks_mhz == (715.0,)

    def test_no_clamping(self):
        dev = make_tesla_p100()
        domain = dev.domains[0]
        assert domain.effective_core(max(domain.reported_core_mhz)) == max(
            domain.reported_core_mhz
        )

    def test_default_is_max_core(self):
        dev = make_tesla_p100()
        assert dev.default_core_mhz == 1328.0

    def test_sampler_budget(self):
        from repro.core.config import sample_training_settings

        settings = sample_training_settings(make_tesla_p100(), total=40)
        assert len(settings) == 40
        assert all(mem == 715.0 for _core, mem in settings)


class TestRegistry:
    def test_lookup_by_name(self):
        assert get_device("NVIDIA GTX Titan X").compute_capability == "5.2"

    def test_unknown_device_raises(self):
        with pytest.raises(KeyError):
            get_device("NVIDIA Imaginary 9000")

    def test_p100_registered_with_aliases(self):
        assert resolve_device("p100").name == "NVIDIA Tesla P100"
        assert resolve_device("tesla-p100").compute_capability == "6.0"
        assert resolve_device("p100") is resolve_device("NVIDIA Tesla P100")

    def test_only_the_paper_devices_are_registered(self):
        from repro.gpusim.device import DEVICE_REGISTRY

        assert sorted(DEVICE_REGISTRY) == ["NVIDIA GTX Titan X", "NVIDIA Tesla P100"]

    def test_device_slug_is_alias_stable(self):
        assert device_slug("titan-x") == device_slug("NVIDIA GTX Titan X")
        assert device_slug("p100") == "nvidia-tesla-p100"

    def test_device_aliases_listing(self):
        assert device_aliases("NVIDIA Tesla P100") == ["p100", "tesla-p100"]
        assert "titan-x" in device_aliases("titanx")


class TestVoltageCurve:
    def test_flat_region(self):
        vf = VoltageCurve()
        volts = vf.voltage_array(np.asarray([135.0, vf.flat_until_mhz]))
        assert volts.tolist() == [vf.v_min, vf.v_min]

    def test_monotone_rising(self):
        vf = VoltageCurve()
        freqs = np.asarray([200.0, 600.0, 800.0, 1000.0, 1200.0, 1392.0])
        assert np.all(np.diff(vf.voltage_array(freqs)) >= 0.0)

    def test_max_voltage_at_max_frequency(self):
        vf = VoltageCurve()
        assert vf.voltage_array(np.asarray([vf.max_mhz]))[0] == pytest.approx(vf.v_max)

    def test_superlinear_at_top(self):
        # The marginal volt per MHz must grow toward the top of the range.
        vf = VoltageCurve()
        v = vf.voltage_array(np.asarray([700.0, 800.0, 1292.0, 1392.0]))
        low_slope = v[1] - v[0]
        high_slope = v[3] - v[2]
        assert high_slope > low_slope


class TestRegisterAliasCollision:
    """Regression: an alias slug collision across devices must raise —
    a silent overwrite would reroute every later resolve_device (trace
    keys, model keys, fleet routing) to the wrong hardware."""

    def test_cross_device_collision_raises_and_mutates_nothing(self):
        import dataclasses

        from repro.gpusim.device import (
            DEVICE_ALIASES,
            DEVICE_REGISTRY,
            register_device,
        )

        impostor = dataclasses.replace(make_titan_x(), name="Impostor GPU")
        registry_before = dict(DEVICE_REGISTRY)
        aliases_before = dict(DEVICE_ALIASES)
        with pytest.raises(ValueError, match="already registered"):
            register_device(impostor, aliases=("impostor", "titan-x"))
        # The failed registration is atomic: nothing changed, not even
        # the impostor's own (non-colliding) name and aliases.
        assert DEVICE_REGISTRY == registry_before
        assert DEVICE_ALIASES == aliases_before
        assert resolve_device("titan-x").name == "NVIDIA GTX Titan X"

    def test_full_name_slug_collision_raises(self):
        import dataclasses

        from repro.gpusim.device import register_device

        # Even the device's own name slug is checked: a device *named*
        # "Titan X" would shadow the registered titan-x alias.
        impostor = dataclasses.replace(make_titan_x(), name="Titan X")
        with pytest.raises(ValueError, match="already registered"):
            register_device(impostor)

    def test_idempotent_reregistration_allowed(self):
        from repro.gpusim.device import DEVICE_REGISTRY, register_device

        original = DEVICE_REGISTRY["NVIDIA GTX Titan X"]
        try:
            register_device(
                make_titan_x(), aliases=("titan-x", "gtx-titan-x", "titanx")
            )
            assert resolve_device("titanx").name == "NVIDIA GTX Titan X"
        finally:
            DEVICE_REGISTRY["NVIDIA GTX Titan X"] = original
