"""Fig. 5 — speedup/energy characterization of eight benchmarks.

Regenerates the eight bi-objective panels of Fig. 5 (k-NN, AES,
Matrix-multiply, Convolution, Median Filter, Bit Compression, MT,
Blackscholes) over all sampled frequency configurations.

Shape targets (paper §4.2): two clear populations — memory- vs compute-
dominated; mem-H and mem-h nearly coincide; mem-l/L are erratic; most
Pareto-dominant points come from mem-h/H; the default configuration is
good but not always dominant.
"""

from _common import write_artifact

from repro.harness.characterize import characterize_kernel
from repro.harness.context import paper_context
from repro.harness.report import ascii_scatter, format_heading, format_table
from repro.pareto.algorithms import pareto_set_numpy
from repro.suite import FIG5_BENCHMARKS, get_benchmark


def regenerate_fig5() -> str:
    ctx = paper_context()
    sections: list[str] = []
    summary_rows = []
    for name in FIG5_BENCHMARKS:
        ch = characterize_kernel(ctx.sim, get_benchmark(name), ctx.settings)
        sections.append(format_heading(f"Fig. 5 — {name}"))
        scatter = {
            label: [(s, e) for _, s, e in series.rows()]
            for label, series in ch.series.items()
        }
        scatter["*default"] = [(1.0, 1.0)]
        sections.append(ascii_scatter(scatter, width=56, height=14))

        # Which memory domains contribute Pareto points?
        points = ch.sweep.objective_points()
        front_idx = pareto_set_numpy(points)
        front_domains = sorted(
            {ctx.device.domain(ch.sweep.points[i].mem_mhz).label for i in front_idx}
        )
        top = ch.series[max(ch.series, key=lambda l: ch.series[l].mem_mhz)]
        summary_rows.append(
            (
                name,
                ch.classify(),
                f"{top.speedup_range[0]:.2f}-{top.speedup_range[1]:.2f}",
                f"{top.energy_range[0]:.2f}-{top.energy_range[1]:.2f}",
                "/".join(front_domains),
            )
        )
    sections.append(format_heading("Fig. 5 summary"))
    sections.append(
        format_table(
            ["benchmark", "class", "speedup@mem-H", "energy@mem-H", "front domains"],
            summary_rows,
        )
    )
    return "\n".join(sections)


def test_fig5_characterization(benchmark):
    text = benchmark.pedantic(regenerate_fig5, rounds=1, iterations=1)
    write_artifact("fig5_characterization", text)
    assert "Blackscholes" in text


def test_fig5_two_populations():
    """§4.2: the suite splits into memory- and compute-dominated codes."""
    ctx = paper_context()
    classes = {
        name: characterize_kernel(ctx.sim, get_benchmark(name), ctx.settings).classify()
        for name in FIG5_BENCHMARKS
    }
    assert classes["MT"] == "memory"
    assert classes["Blackscholes"] == "memory"
    assert classes["k-NN"] == "compute"
    assert classes["MatrixMultiply"] == "compute"


def test_fig5_high_domains_dominate_front():
    """Most dominant points come from mem-h/H (paper §4.2)."""
    ctx = paper_context()
    high, total = 0, 0
    for name in FIG5_BENCHMARKS:
        ch = characterize_kernel(ctx.sim, get_benchmark(name), ctx.settings)
        front_idx = pareto_set_numpy(ch.sweep.objective_points())
        for i in front_idx:
            total += 1
            if ch.sweep.points[i].mem_mhz >= 3304.0:
                high += 1
    assert high / total > 0.5
