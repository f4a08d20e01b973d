"""Pluggable measurement backends (the paper's Fig. 2 steps 3–4 as a port).

Everything above the measurement layer — dataset assembly, the harness,
serving, the CLI — talks to a :class:`~repro.measure.backend.MeasurementBackend`
instead of a concrete simulator.  Implementations:

* :class:`~repro.measure.simulator.SimulatorBackend` — the vectorized
  :class:`~repro.gpusim.executor.GPUSimulator` (one numpy pass per sweep);
* :class:`~repro.measure.nvml_backend.NvmlBackend` — drives the
  :mod:`repro.nvml` facade call-for-call like the paper's real-hardware
  protocol (set clocks → launch → read power);
* :class:`~repro.measure.replay.ReplayBackend` — serves recorded sweeps
  from versioned traces (out-of-core for JSONL streams), with
  :class:`~repro.measure.replay.RecordingBackend` producing the traces
  (incrementally, when given a ``stream``).

Trace persistence is :mod:`repro.measure.trace` (append-only JSONL v2,
v1-JSON read compatibility) and :mod:`repro.measure.trace_registry` keys
recorded traces the way :class:`repro.serve.registry.ModelRegistry` keys
model bundles (device × suite × noise-settings hash).

Fan-out is not a backend: :class:`~repro.measure.parallel.DevicePool` is
the one process pool, running sweep tasks for any number of devices
(each worker caches one backend per device) bit-identically to the serial
loop — the campaign scheduler's executor.
"""

from .backend import BackendCapabilities, MeasurementBackend, as_backend
from .columnar import (
    COLUMNAR_FORMAT,
    COLUMNAR_VERSION,
    ColumnarTrace,
    CompactionResult,
    TraceCompactor,
    compact_trace,
    sidecar_path,
)
from .nvml_backend import NvmlBackend
from .parallel import DevicePool, backend_for_device
from .replay import RecordingBackend, ReplayBackend, replay_measurements
from .simulator import SimulatorBackend
from .trace import (
    TRACE_FORMAT,
    TRACE_VERSION,
    TRACE_VERSION_V1,
    KernelTrace,
    ReplayError,
    ScannedRecord,
    SweepTrace,
    TraceWriter,
    iter_trace,
    load_trace,
    read_trace_header,
    save_trace,
    scan_stream_records,
)
from .trace_registry import (
    TraceKey,
    TraceRegistry,
    TraceResumeState,
    noise_settings_hash,
)

__all__ = [
    "BackendCapabilities",
    "COLUMNAR_FORMAT",
    "COLUMNAR_VERSION",
    "ColumnarTrace",
    "CompactionResult",
    "DevicePool",
    "KernelTrace",
    "TraceCompactor",
    "MeasurementBackend",
    "NvmlBackend",
    "RecordingBackend",
    "ReplayBackend",
    "ReplayError",
    "ScannedRecord",
    "SimulatorBackend",
    "SweepTrace",
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "TRACE_VERSION_V1",
    "TraceKey",
    "TraceRegistry",
    "TraceResumeState",
    "TraceWriter",
    "as_backend",
    "backend_for_device",
    "compact_trace",
    "iter_trace",
    "load_trace",
    "noise_settings_hash",
    "read_trace_header",
    "replay_measurements",
    "save_trace",
    "scan_stream_records",
    "sidecar_path",
]
