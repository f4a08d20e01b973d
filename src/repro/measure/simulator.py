"""The vectorized simulator backend (the default measurement engine)."""

from __future__ import annotations

import time
from typing import Sequence

from ..core.dataset import KernelMeasurements
from ..gpusim.device import DeviceSpec, device_slug
from ..gpusim.executor import GPUSimulator
from ..gpusim.noise import NoiseConfig
from ..obs import observe_sweep
from ..workloads import KernelSpec


class SimulatorBackend:
    """Measures through :meth:`GPUSimulator.sweep_batch` — one numpy pass.

    The baseline run is the default configuration as a batch of one; the
    configuration sweep is one batch.  A row never depends on its
    batch-mates, so each measured point equals that configuration's batch
    of one, bit for bit.
    """

    kind = "simulator"

    def __init__(
        self,
        device: DeviceSpec | None = None,
        sim: GPUSimulator | None = None,
        noise: NoiseConfig | None = None,
    ) -> None:
        if sim is not None and device is not None and sim.device is not device:
            raise ValueError("pass either a simulator or a device, not both")
        self.sim = sim if sim is not None else GPUSimulator(device, noise)

    @property
    def device(self) -> DeviceSpec:
        return self.sim.device

    def measure(
        self, spec: KernelSpec, configs: Sequence[tuple[float, float]]
    ) -> KernelMeasurements:
        start = time.perf_counter()
        profile = spec.profile()
        baseline = self.sim.run_default(profile)
        batch = self.sim.sweep_batch(profile, list(configs))
        result = KernelMeasurements.from_sweep(spec, baseline, batch)
        # Observed strictly after the sweep: timing can never feed back
        # into the measured numbers (the no-perturbation invariant).
        observe_sweep(
            self.kind,
            device_slug(self.sim.device.name),
            len(configs),
            time.perf_counter() - start,
        )
        return result
