"""Fig. 4 — supported memory/core frequency combinations.

Regenerates the frequency-domain maps for the Titan X (4a) and Tesla P100
(4b), distinguishing real configurations from the NVML-reported-but-clamped
ones (the gray points above 1202 MHz), and marking the default config.

Shape targets (paper §1 / §4.1): 219 reported configurations on Titan X;
6 / 71 / 50 / 50 real core clocks for mem-L/l/h/H; requests above the
1202 MHz clamp run at 1202 MHz; a single tunable memory clock on the P100.
The measured numbers land in ``BENCH_fig4_freq_domain.json`` next to these
targets, and each one is asserted.
"""

from _common import write_artifact

from repro.gpusim.device import make_tesla_p100, make_titan_x
from repro.gpusim.executor import GPUSimulator
from repro.harness.report import format_heading, format_table
from repro.suite import get_benchmark

#: The paper's Fig. 4 numbers, keyed like the measured ``data`` entries.
PAPER_TARGETS = {
    "titan-x": {
        "reported_total": 219,
        "real_cores": {"L": 6, "l": 71, "h": 50, "H": 50},
        "clamped_core_mhz": 1202.0,
    },
    "tesla-p100": {"mem_clocks": 1},
}


def clamped_core_mhz(sim: GPUSimulator) -> float:
    """Effective core clock of the highest reported request at the top
    memory clock, measured as a batch of one (the clamp of §4.1)."""
    top = sim.device.domain(sim.device.max_mem_mhz)
    config = (max(top.reported_core_mhz), top.mem_mhz)
    batch = sim.sweep_batch(get_benchmark("MT").profile(), [config])
    return float(batch.effective_core_mhz[0])


def regenerate_fig4() -> tuple[str, dict]:
    sections: list[str] = []
    measured: dict[str, dict] = {}
    for key, dev in (("titan-x", make_titan_x()), ("tesla-p100", make_tesla_p100())):
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
        measured[key] = {
            "reported_total": len(dev.reported_configurations()),
            "real_total": len(dev.real_configurations()),
            "mem_clocks": len(dev.mem_clocks_mhz),
            "real_cores": {d.label: len(d.real_core_mhz) for d in dev.domains},
            "clamped_core_mhz": clamped_core_mhz(GPUSimulator(dev)),
        }
    return "\n".join(sections), {"paper": PAPER_TARGETS, "measured": measured}


def test_fig4_freq_domain(benchmark):
    text, data = benchmark(regenerate_fig4)
    write_artifact("fig4_freq_domain", text, data=data)
    assert "total reported: 219" in text
    for device, targets in data["paper"].items():
        for name, target in targets.items():
            assert data["measured"][device][name] == target, (device, name)


def test_fig4_via_simulator():
    """The same numbers must hold where measurements are taken."""
    device = make_titan_x()
    sim = GPUSimulator(device)
    total_reported = sum(len(d.reported_core_mhz) for d in device.domains)
    assert total_reported == len(device.reported_configurations()) == 219
    # Every reported configuration is measurable; a reported-but-fake core
    # clock runs at the 1202 MHz clamp (§4.1).
    batch = sim.sweep_batch(get_benchmark("MT").profile())
    assert len(batch) == 219
    assert batch.effective_core_mhz.max() == 1202.0
    assert clamped_core_mhz(sim) == 1202.0
