"""Record/replay measurement backends over JSONL trace streams.

Recording a sweep once and replaying it later gives deterministic CI runs,
offline experiments without a simulator (or hardware), and a shareable
measurement-dataset format.  The trace format itself (version-2 JSONL
streams) lives in :mod:`repro.measure.trace`; this module provides the
two backends:

* :class:`ReplayBackend` — serves recorded sweeps from a trace *path*,
  always **out-of-core**: one scan builds a byte-offset index per kernel,
  and each requested kernel's records are parsed on demand (and cached
  in a small LRU), so a long campaign trace is never fully materialized.
* :class:`RecordingBackend` — wraps any backend and streams each sweep
  it measures into a :class:`~repro.measure.trace.TraceWriter` the moment
  it completes; nothing is accumulated in memory.
"""

from __future__ import annotations

import pathlib
import time
from collections import OrderedDict
from typing import Sequence

import numpy as np

from ..core.dataset import KernelMeasurements
from ..gpusim.device import DEVICE_REGISTRY, DeviceSpec, device_slug
from ..gpusim.executor import ExecutionRecord
from ..obs import (
    get_registry,
    observe_replay_source,
    replay_source_recorder,
    sweep_recorder,
)
from ..workloads import KernelSpec
from .backend import MeasurementBackend
from .columnar import ColumnarRecord, ColumnarTrace
from .trace import (
    KernelTrace,
    ReplayError,
    TraceWriter,
    read_kernels_at,
    scan_trace_offsets,
)

#: How many materialized kernels an out-of-core replay keeps in memory.
DEFAULT_REPLAY_CACHE_KERNELS = 64


class _StreamedTrace:
    """Lazy, index-backed view of a trace file (columnar-first).

    When a fresh v3 columnar sidecar exists (see
    :mod:`repro.measure.columnar`), kernels are served from its
    memory-mapped columns: the compacted prefix needs **no JSON parsing**,
    and only records appended to the JSONL after compaction (the delta
    tail) are indexed and parsed per record.  Without a sidecar the whole
    stream is offset-indexed: ``{kernel: [byte offsets]}`` from one
    name-only scan, records decoded on first request through a single
    file handle (the per-kernel decode is hoisted behind the index — an
    LRU miss costs one open plus one parse per record of *that kernel*,
    never a rescan).

    Materialized kernels (merged across repeats in file order) live in a
    bounded LRU, so memory stays O(index + cached kernels) regardless of
    trace size.
    """

    def __init__(
        self,
        path: pathlib.Path,
        max_cached_kernels: int,
        prefer_columnar: bool = True,
    ) -> None:
        if max_cached_kernels < 1:
            raise ValueError("max_cached_kernels must be >= 1")
        self.path = path
        self.columnar = ColumnarTrace.open(path) if prefer_columnar else None
        if self.columnar is not None:
            self.device = self.columnar.device
            self.meta = dict(self.columnar.meta)
            # Offsets index only the delta tail: records the JSONL gained
            # after the sidecar's compacted prefix.
            if path.stat().st_size > self.columnar.prefix_bytes:
                _header, self._offsets = scan_trace_offsets(
                    path, self.columnar.prefix_bytes
                )
            else:
                self._offsets = {}
        else:
            header, self._offsets = scan_trace_offsets(path)
            assert header is not None
            self.device = str(header["device"])
            self.meta = dict(header.get("meta") or {})
        self._max_cached_kernels = max_cached_kernels
        self._cache: OrderedDict[str, KernelTrace] = OrderedDict()

    def kernel_names(self) -> list[str]:
        names = set(self._offsets)
        if self.columnar is not None:
            names.update(self.columnar.kernels)
        return sorted(names)

    def __contains__(self, name: str) -> bool:
        if name in self._offsets:
            return True
        return self.columnar is not None and name in self.columnar.kernels

    def mmap_record(self, name: str) -> ColumnarRecord | None:
        """The single columnar record that alone serves ``name``, if any.

        This is the zero-copy gate: exactly one compacted record, no
        delta-tail records to merge — replay can slice the mapped columns
        directly instead of materializing a :class:`KernelTrace`.
        """
        if self.columnar is None or name in self._offsets:
            return None
        records = self.columnar.kernels.get(name)
        if records is None or len(records) != 1:
            return None
        return records[0]

    def kernel(self, name: str) -> KernelTrace | None:
        cached = self._cache.get(name)
        if cached is not None:
            self._cache.move_to_end(name)
            return cached
        merged: KernelTrace | None = None
        source = "jsonl"
        if self.columnar is not None:
            merged = self.columnar.merged_kernel(name)
            if merged is not None:
                source = "columnar"
        offsets = self._offsets.get(name)
        if offsets is not None:
            for record in read_kernels_at(self.path, offsets):
                if merged is None:
                    merged = record
                else:
                    merged.merge(record)
        if merged is None:
            return None
        observe_replay_source(source)
        self._cache[name] = merged
        if len(self._cache) > self._max_cached_kernels:
            self._cache.popitem(last=False)
        return merged


class ReplayBackend:
    """Serves recorded sweeps; refuses anything that was not recorded.

    Replay reads a trace *path*, out-of-core and columnar-first: a fresh
    v3 sidecar serves kernels as zero-copy ``np.memmap`` slices
    (``prefer_columnar=False`` opts out), falling back transparently —
    and bit-identically — to the indexed JSONL stream when the sidecar is
    missing, stale, or torn.  ``max_cached_kernels`` bounds the
    materialized-kernel LRU.  A file that is not a version-2 stream is a
    :class:`ReplayError`.
    """

    kind = "replay"

    def __init__(
        self,
        trace: str | pathlib.Path,
        device: DeviceSpec | None = None,
        *,
        max_cached_kernels: int | None = None,
        prefer_columnar: bool = True,
    ) -> None:
        if max_cached_kernels is None:
            max_cached_kernels = DEFAULT_REPLAY_CACHE_KERNELS
        self._stream = _StreamedTrace(
            pathlib.Path(trace).expanduser(),
            max_cached_kernels,
            prefer_columnar=prefer_columnar,
        )
        trace_device = self._stream.device

        if device is None:
            device = DEVICE_REGISTRY.get(trace_device)
            if device is None:
                known = ", ".join(sorted(DEVICE_REGISTRY))
                raise ReplayError(
                    f"trace names unknown device {trace_device!r} "
                    f"(known: {known}); pass device= explicitly"
                )
        elif trace_device in DEVICE_REGISTRY and trace_device != device.name:
            # An explicit device only overrides traces whose device the
            # registry does not know; silently re-labelling a known
            # device's measurements would poison every consumer.
            raise ReplayError(
                f"trace was recorded on {trace_device!r}, "
                f"not {device.name!r}"
            )
        self._device = device
        self._device_slug = device_slug(device.name)
        # Per-kernel prepared mmap slices:
        # [last validated configs object, baseline, core, mem, time_ms,
        #  power_w, energy_j column views, recorded core/mem bytes].
        # Built once per kernel so the steady-state fast path is one dict
        # hit, one identity check, and zero row-sized allocations.
        self._mmap_prepared: dict[str, list] = {}
        # Last requested configs object, cast to float64 column bytes once
        # (every kernel of a sweep is asked for the same settings list).
        self._req_bytes: tuple | None = None
        # Prebound obs recorders per active metrics registry (campaign
        # workers swap registries with use_registry; binding at
        # construction would pin the wrong one).
        self._obs_recorders: dict[object, tuple] = {}

    @property
    def device(self) -> DeviceSpec:
        return self._device

    def kernels(self) -> list[str]:
        return self._stream.kernel_names()

    def _recorders(self, reg) -> tuple:
        recs = self._obs_recorders.get(reg)
        if recs is None:
            recs = (
                sweep_recorder(self.kind, self._device_slug, registry=reg),
                replay_source_recorder("columnar-mmap", registry=reg),
            )
            self._obs_recorders[reg] = recs
        return recs

    def _measure_mmap(
        self,
        spec: KernelSpec,
        configs: Sequence[tuple[float, float]],
        record_source,
    ) -> KernelMeasurements | None:
        """Zero-copy columnar replay, when the request matches the record.

        Serves straight off the sidecar's memory-mapped columns — no JSON
        parsing, no :class:`KernelTrace` materialization, no row
        re-indexing — iff the kernel is one compacted record (no delta
        tail) swept over exactly the requested configurations in order,
        which is precisely how campaign traces are recorded and replayed.
        Returns ``None`` otherwise; the caller takes the general path,
        whose output is bit-identical.
        """
        prepared = self._mmap_prepared.get(spec.name)
        if prepared is None:
            record = self._stream.mmap_record(spec.name)
            if record is None:
                return None
            columnar = self._stream.columnar
            assert columnar is not None
            core = columnar.columns["core_mhz"][record.start : record.stop]
            mem = columnar.columns["mem_mhz"][record.start : record.stop]
            base = columnar.baselines[record.index]
            prepared = [
                None,
                ExecutionRecord(
                    kernel=spec.name,
                    requested_core_mhz=float(base[0]),
                    effective_core_mhz=float(base[0]),
                    mem_mhz=float(base[1]),
                    time_ms=float(base[2]),
                    power_w=float(base[3]),
                    energy_j=float(base[4]),
                ),
                core,
                mem,
                columnar.columns["time_ms"][record.start : record.stop],
                columnar.columns["power_w"][record.start : record.stop],
                columnar.columns["energy_j"][record.start : record.stop],
                core.tobytes(),
                mem.tobytes(),
            ]
            self._mmap_prepared[spec.name] = prepared
        _, baseline, core, mem, time_ms, power_w, energy_j, core_b, mem_b = prepared
        if configs is not prepared[0]:
            # Validate once per (kernel, configs object): the request cast
            # to float64 columns must equal the recorded columns bit for
            # bit.  Repeat sweeps over the same (unmutated) sequence — the
            # steady state of every campaign and training loop — then skip
            # straight through on the identity check.
            req = self._req_bytes
            if req is None or req[0] is not configs:
                arr = np.asarray(configs, dtype=np.float64)
                if arr.ndim != 2 or arr.shape[1] != 2:
                    return None
                req = (configs, arr[:, 0].tobytes(), arr[:, 1].tobytes())
                self._req_bytes = req
            if core_b != req[1] or mem_b != req[2]:
                return None
            prepared[0] = configs
        record_source()
        return KernelMeasurements.from_arrays(
            spec=spec,
            baseline=baseline,
            core_mhz=core,
            mem_mhz=mem,
            time_ms=time_ms,
            power_w=power_w,
            energy_j=energy_j,
        )

    def measure(
        self, spec: KernelSpec, configs: Sequence[tuple[float, float]]
    ) -> KernelMeasurements:
        start = time.perf_counter()
        record_sweep, record_mmap_source = self._recorders(get_registry())
        result: KernelMeasurements | None = None
        if self._stream.columnar is not None:
            result = self._measure_mmap(spec, configs, record_mmap_source)
        if result is None:
            kernel = self._stream.kernel(spec.name)
            if kernel is None:
                raise ReplayError(
                    f"kernel {spec.name!r} is not in the trace "
                    f"(recorded: {self.kernels()})"
                )
            result = replay_measurements(spec, kernel, configs)
        record_sweep(len(configs), time.perf_counter() - start)
        return result


def replay_measurements(
    spec: KernelSpec,
    kernel: KernelTrace,
    configs: Sequence[tuple[float, float]],
) -> KernelMeasurements:
    """Reconstruct a sweep's :class:`KernelMeasurements` from one record.

    The record/backend boundary: :class:`ReplayBackend` resolves which
    record serves a kernel, this turns the record into the exact columnar
    measurements the original backend produced (float64 round-trips bit
    for bit).  Also used directly by campaign resume, which recovers
    records from a partial stream without standing up a whole backend.
    """
    index = {c: i for i, c in enumerate(kernel.configs)}
    rows = []
    for config in configs:
        i = index.get((float(config[0]), float(config[1])))
        if i is None:
            raise ReplayError(
                f"configuration {config} of kernel {spec.name!r} "
                f"was not recorded"
            )
        rows.append(i)

    baseline = ExecutionRecord(
        kernel=spec.name,
        requested_core_mhz=kernel.baseline_core_mhz,
        effective_core_mhz=kernel.baseline_core_mhz,
        mem_mhz=kernel.baseline_mem_mhz,
        time_ms=kernel.baseline_time_ms,
        power_w=kernel.baseline_power_w,
        energy_j=kernel.baseline_energy_j,
    )
    take = np.asarray(rows, dtype=np.intp)
    return KernelMeasurements.from_arrays(
        spec=spec,
        baseline=baseline,
        core_mhz=np.asarray([c for c, _ in configs], dtype=np.float64),
        mem_mhz=np.asarray([m for _, m in configs], dtype=np.float64),
        time_ms=np.asarray(kernel.time_ms, dtype=np.float64)[take],
        power_w=np.asarray(kernel.power_w, dtype=np.float64)[take],
        energy_j=np.asarray(kernel.energy_j, dtype=np.float64)[take],
    )


class RecordingBackend:
    """Wraps another backend and streams everything it measures to a trace.

    ``stream`` is where the sweeps go: a path, which the recorder opens as
    an atomic :class:`TraceWriter` (records land in a ``.partial``
    sibling and the path appears only on a clean :meth:`close`), or an
    open writer the caller owns.  Each sweep is appended the moment it is
    measured and nothing is kept in memory, so a recorder stays O(1) no
    matter how many kernels it sweeps.  Used as a context manager, a run
    that raises publishes nothing at the path.
    """

    def __init__(
        self, inner: MeasurementBackend, stream: TraceWriter | str | pathlib.Path
    ) -> None:
        self.inner = inner
        if isinstance(stream, TraceWriter):
            if stream.device != inner.device.name:
                raise ReplayError(
                    f"stream writer records {stream.device!r} but the "
                    f"backend measures {inner.device.name!r}"
                )
            self._writer = stream
            self._owns_writer = False
        else:
            self._writer = TraceWriter(stream, device=inner.device.name, atomic=True)
            self._owns_writer = True

    @property
    def device(self) -> DeviceSpec:
        return self.inner.device

    @property
    def kind(self) -> str:
        return self.inner.kind

    @property
    def stream_path(self) -> pathlib.Path:
        return self._writer.path

    def measure(
        self, spec: KernelSpec, configs: Sequence[tuple[float, float]]
    ) -> KernelMeasurements:
        result = self.inner.measure(spec, configs)
        self._writer.write_measurements(result)
        return result

    def close(self, success: bool = True) -> None:
        """Close an owned stream writer, publishing it only on ``success``
        (pass-through writers stay open)."""
        if self._owns_writer:
            self._writer.close(success=success)

    def __enter__(self) -> "RecordingBackend":
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        self.close(success=exc_type is None)
