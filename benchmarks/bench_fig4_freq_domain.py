"""Fig. 4 — supported memory/core frequency combinations.

Regenerates the frequency-domain maps for the Titan X (4a) and Tesla P100
(4b), distinguishing real configurations from the NVML-reported-but-clamped
ones (the gray points above 1202 MHz), and marking the default config.

Shape targets (paper §1 / §4.1): 219 reported configurations on Titan X;
6 / 71 / 50 / 50 real core clocks for mem-L/l/h/H; a single tunable memory
clock on the P100.
"""

from _common import write_artifact

from repro.gpusim.device import make_tesla_p100, make_titan_x
from repro.gpusim.executor import GPUSimulator
from repro.harness.report import format_heading, format_table
from repro.suite import get_benchmark


def regenerate_fig4() -> str:
    sections: list[str] = []
    for dev in (make_titan_x(), make_tesla_p100()):
        sections.append(format_heading(f"Fig. 4 — {dev.name}"))
        rows = []
        for domain in dev.domains:
            real = domain.real_core_mhz
            fakes = [
                c for c in domain.reported_core_mhz if c > domain.core_clamp_mhz
            ]
            rows.append(
                (
                    f"mem-{domain.label}",
                    f"{domain.mem_mhz:.0f}",
                    len(domain.reported_core_mhz),
                    len(real),
                    len(fakes),
                    f"{min(real):.0f}-{max(real):.0f}",
                )
            )
        sections.append(
            format_table(
                ["domain", "mem MHz", "reported", "real", "clamped", "core range"],
                rows,
            )
        )
        sections.append(
            f"total reported: {len(dev.reported_configurations())}, "
            f"real: {len(dev.real_configurations())}, "
            f"default: core {dev.default_core_mhz:.0f} MHz / "
            f"mem {dev.default_mem_mhz:.0f} MHz"
        )
    return "\n".join(sections)


def test_fig4_freq_domain(benchmark):
    text = benchmark(regenerate_fig4)
    write_artifact("fig4_freq_domain", text)
    assert "total reported: 219" in text


def test_fig4_via_simulator():
    """The same numbers must hold where measurements are taken."""
    device = make_titan_x()
    total_reported = sum(len(d.reported_core_mhz) for d in device.domains)
    assert total_reported == len(device.reported_configurations()) == 219
    # A reported-but-fake core clock runs at the 1202 MHz clamp (§4.1).
    mem_h = device.domain_by_label("H")
    record = GPUSimulator(device).run_at(
        get_benchmark("MT").profile(), max(mem_h.reported_core_mhz), 3505.0
    )
    assert record.effective_core_mhz == 1202.0
