"""DVFS-aware analytical GPU simulator (the paper's hardware substitute).

See DESIGN.md §2 for the substitution argument.  Public surface:

* :func:`make_titan_x` / :func:`make_tesla_p100` — device specs with the
  paper's frequency menus (Fig. 4);
* :class:`GPUSimulator` — measure a kernel at a batch of clocks (one
  configuration is a batch of one) and get (time, power, energy) through
  the 62.5 Hz measurement pipeline;
* :class:`WorkloadProfile` / :class:`DynamicTraits` — what a kernel asks of
  the GPU, including the dynamic behaviour static features cannot see.
"""

from .device import (
    DEVICE_REGISTRY,
    ArchParams,
    DeviceSpec,
    MemoryDomain,
    PowerParams,
    TITAN_X_CORE_CLAMP_MHZ,
    VoltageCurve,
    get_device,
    make_tesla_p100,
    make_titan_x,
    register_device,
)
from .executor import (
    MIN_POWER_SAMPLES,
    ClockError,
    ExecutionRecord,
    GPUSimulator,
)
from .noise import MeasurementNoise, NoiseConfig
from .perf_model import PerformanceModel
from .power_model import PowerModel
from .profile import DynamicTraits, WorkloadProfile
from .sampler import NVML_SAMPLING_HZ, PowerSampler

__all__ = [
    "ArchParams",
    "ClockError",
    "DEVICE_REGISTRY",
    "DeviceSpec",
    "DynamicTraits",
    "ExecutionRecord",
    "GPUSimulator",
    "MIN_POWER_SAMPLES",
    "MeasurementNoise",
    "MemoryDomain",
    "NVML_SAMPLING_HZ",
    "NoiseConfig",
    "PerformanceModel",
    "PowerModel",
    "PowerParams",
    "PowerSampler",
    "TITAN_X_CORE_CLAMP_MHZ",
    "VoltageCurve",
    "WorkloadProfile",
    "get_device",
    "make_tesla_p100",
    "make_titan_x",
    "register_device",
]
