"""The measurement-backend protocol.

A backend is anything that can answer "run this kernel at these frequency
configurations and report (time, power, energy) against the default-clock
baseline" — the contract of the paper's measurement stack (§4.1).  The
protocol is deliberately small so simulated and replayed measurement share
one call surface, and everything above it (dataset assembly, harness
sweeps, serving, CLI) is backend-agnostic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

from ..gpusim.device import DeviceSpec
from ..gpusim.executor import GPUSimulator

if TYPE_CHECKING:
    from ..core.dataset import KernelMeasurements
    from ..workloads import KernelSpec


@runtime_checkable
class MeasurementBackend(Protocol):
    """Runs kernels at frequency configurations and reports measurements."""

    @property
    def device(self) -> DeviceSpec:
        """The device the measurements describe."""
        ...

    #: Backend family, ``"simulator"`` or ``"replay"`` (recorded in
    #: artifact meta and in metric labels).
    kind: str

    def measure(
        self, spec: "KernelSpec", configs: Sequence[tuple[float, float]]
    ) -> "KernelMeasurements":
        """Measure ``spec`` at every config, plus the default-clock baseline."""
        ...


def as_backend(obj) -> MeasurementBackend:
    """Coerce a backend-or-simulator argument to a backend.

    Accepts any :class:`MeasurementBackend` unchanged; wraps a bare
    :class:`~repro.gpusim.executor.GPUSimulator` (the pre-protocol calling
    convention, still used throughout tests and benches) in a
    :class:`~repro.measure.simulator.SimulatorBackend`.
    """
    if isinstance(obj, GPUSimulator):
        from .simulator import SimulatorBackend

        return SimulatorBackend(sim=obj)
    if isinstance(obj, MeasurementBackend):
        return obj
    raise TypeError(
        f"expected a MeasurementBackend or GPUSimulator, got {type(obj).__name__}"
    )
