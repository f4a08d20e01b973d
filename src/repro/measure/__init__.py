"""Pluggable measurement backends (the paper's Fig. 2 steps 3–4 as a port).

Everything above the measurement layer — dataset assembly, the harness,
serving, the CLI — talks to a :class:`~repro.measure.backend.MeasurementBackend`
instead of a concrete simulator.  Implementations:

* :class:`~repro.measure.simulator.SimulatorBackend` — the vectorized
  :class:`~repro.gpusim.executor.GPUSimulator` (one numpy pass per sweep);
* :class:`~repro.measure.replay.ReplayBackend` — serves recorded sweeps
  out-of-core from a trace stream's byte-offset index, with
  :class:`~repro.measure.replay.RecordingBackend` streaming the traces
  as it measures.

Trace persistence is :mod:`repro.measure.trace` (append-only JSONL
streams, version 2 only) and :mod:`repro.measure.trace_registry` keys
recorded traces the way :class:`repro.serve.registry.ModelRegistry` keys
model bundles (device × suite × noise-settings hash).

Fan-out is not a backend: :class:`~repro.measure.parallel.DevicePool` is
the one process pool, running sweep tasks for any number of devices
(each worker caches one backend per device) bit-identically to the serial
loop — the campaign scheduler's executor.
"""

from .backend import MeasurementBackend, as_backend
from .columnar import (
    COLUMNAR_FORMAT,
    COLUMNAR_VERSION,
    ColumnarTrace,
    CompactionResult,
    TraceCompactor,
    compact_trace,
    sidecar_path,
)
from .parallel import DevicePool, backend_for_device
from .replay import RecordingBackend, ReplayBackend, replay_measurements
from .simulator import SimulatorBackend
from .trace import (
    TRACE_FORMAT,
    TRACE_VERSION,
    KernelTrace,
    ReplayError,
    ScannedRecord,
    TraceWriter,
    scan_stream_records,
)
from .trace_registry import (
    TraceKey,
    TraceRegistry,
    TraceResumeState,
    noise_settings_hash,
)

__all__ = [
    "COLUMNAR_FORMAT",
    "COLUMNAR_VERSION",
    "ColumnarTrace",
    "CompactionResult",
    "DevicePool",
    "KernelTrace",
    "TraceCompactor",
    "MeasurementBackend",
    "RecordingBackend",
    "ReplayBackend",
    "ReplayError",
    "ScannedRecord",
    "SimulatorBackend",
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "TraceKey",
    "TraceRegistry",
    "TraceResumeState",
    "TraceWriter",
    "as_backend",
    "backend_for_device",
    "compact_trace",
    "noise_settings_hash",
    "replay_measurements",
    "scan_stream_records",
    "sidecar_path",
]
