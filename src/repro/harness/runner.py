"""Measurement sweeps over benchmarks (the experimental backbone).

Thin orchestration over the measurement-backend protocol: sweep a kernel
over a configuration list, group results by memory domain, and locate
baselines — the raw material for Figs. 1, 5, 8 and Table 2.  Every entry
point accepts either a :class:`~repro.measure.backend.MeasurementBackend`
or a bare :class:`~repro.gpusim.executor.GPUSimulator` (wrapped on the
fly), so harness code is backend-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from ..core.dataset import KernelMeasurements, MeasuredPoint
from ..gpusim.device import DeviceSpec
from ..measure.backend import as_backend
from ..workloads import KernelSpec


@dataclass
class SweepResult:
    """A measured sweep of one kernel plus convenient groupings."""

    measurements: KernelMeasurements
    device: DeviceSpec
    _index: dict[tuple[float, float], MeasuredPoint] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def kernel(self) -> str:
        return self.measurements.spec.name

    @property
    def points(self) -> list[MeasuredPoint]:
        return self.measurements.points

    def by_domain(self) -> dict[str, list[MeasuredPoint]]:
        """Points grouped by memory-domain label (H/h/l/L), core ascending."""
        grouped: dict[str, list[MeasuredPoint]] = {}
        for domain in self.device.domains:
            pts = [p for p in self.points if p.mem_mhz == domain.mem_mhz]
            pts.sort(key=lambda p: p.core_mhz)
            if pts:
                grouped[domain.label] = pts
        return grouped

    @property
    def index(self) -> dict[tuple[float, float], MeasuredPoint]:
        """Config-keyed view of the sweep, built once (O(1) lookups)."""
        if self._index is None:
            self._index = {p.config: p for p in self.points}
        return self._index

    def lookup(self, config: tuple[float, float]) -> MeasuredPoint | None:
        return self.index.get(config)

    def as_dict(self) -> dict[tuple[float, float], MeasuredPoint]:
        """A copy of the config-keyed index (callers may mutate it)."""
        return dict(self.index)

    def objective_points(self) -> list[tuple[float, float]]:
        return self.measurements.objective_points()


def sweep_kernel(
    backend,
    spec: KernelSpec,
    configs: list[tuple[float, float]] | None = None,
) -> SweepResult:
    """Measure ``spec`` at ``configs`` (default: every real configuration)."""
    backend = as_backend(backend)
    chosen = configs if configs is not None else backend.device.real_configurations()
    measurements = backend.measure(spec, chosen)
    return SweepResult(measurements=measurements, device=backend.device)


def sweep_many(
    backend,
    specs: list[KernelSpec],
    configs: list[tuple[float, float]] | None = None,
    on_sweep: "Callable[[SweepResult], None] | None" = None,
) -> Iterator[SweepResult]:
    """Sweep many kernels at one config list, streaming one result at a time.

    Results arrive in spec order, one at a time, so the harness never
    holds a whole campaign's measurements at once.

    ``on_sweep`` fires for each result just before it is yielded — the
    observability seam for long multi-kernel sweeps (progress meters,
    logging) that consumers draining the iterator lazily would otherwise
    have to wrap themselves.
    """
    backend = as_backend(backend)
    chosen = configs if configs is not None else backend.device.real_configurations()

    def emit(result: SweepResult) -> SweepResult:
        if on_sweep is not None:
            on_sweep(result)
        return result

    for spec in specs:
        yield emit(
            SweepResult(measurements=backend.measure(spec, chosen), device=backend.device)
        )


def measure_configs(
    backend,
    spec: KernelSpec,
    configs: list[tuple[float, float]],
) -> dict[tuple[float, float], MeasuredPoint]:
    """Measured objectives for an explicit config list, keyed by config."""
    return sweep_kernel(backend, spec, configs).as_dict()
