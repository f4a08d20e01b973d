"""Trace format v3: columnar, memory-mapped compaction of v2 JSONL streams.

A v2 trace pays per-line JSON parsing and per-record dict materialization
on every replay.  The columnar sidecar removes both: one ``.npz`` file per
trace holds the measurement columns of **every record** as contiguous
float64 arrays, plus a JSON header with a per-kernel row-range index —
replay becomes array slicing over ``np.memmap`` views, no parsing at all.

On-disk layout (``<trace>.jsonl.npz``, an uncompressed deterministic zip
readable by plain ``np.load``)::

    header.npy     uint8 bytes of the JSON header (below)
    baselines.npy  float64 (n_records, 5): core/mem MHz, time, power, energy
    core_mhz.npy   float64 (n_rows,)  ┐ records laid out sequentially in
    mem_mhz.npy    float64 (n_rows,)  │ file order, so each record is one
    time_ms.npy    float64 (n_rows,)  │ contiguous [start, stop) slice of
    power_w.npy    float64 (n_rows,)  │ every column
    energy_j.npy   float64 (n_rows,)  ┘

The header carries a **source contract**: ``source.prefix_sha256`` and
``source.prefix_bytes`` fingerprint the exact JSONL byte prefix the
columns were compacted from, and each record remembers its source
``end_offset``.  The sidecar therefore serves the compacted prefix while
any JSONL bytes past ``prefix_bytes`` remain the live **delta tail**,
which replay reads from the JSONL.

Readers *prefer* the sidecar and silently fall back to the JSONL when it
is missing, torn (unreadable zip/members), or stale (prefix sha mismatch
after a rewrite): :func:`ColumnarTrace.open` returns ``None`` in every
such case, and callers assert nothing about which path served — the
outputs are bit-identical either way, because JSON float repr round-trips
float64 exactly in both directions.

:class:`TraceCompactor` converts v2→v3 with the :class:`TraceWriter`
atomicity contract (stream into a ``.partial`` sibling, ``os.replace`` on
success), and its bytes are **deterministic**: fixed zip member order and
timestamps, no compression — compacting byte-identical traces yields
byte-identical sidecars, so resume-vs-one-shot store diffs stay clean.
"""

from __future__ import annotations

import hashlib
import io
import json
import mmap
import pathlib
import re
import struct
import zipfile
from dataclasses import dataclass

import numpy as np

from .trace import KernelTrace, ReplayError, scan_stream_records

COLUMNAR_FORMAT = "repro.measurement-trace-columnar"
#: The columnar trace version (v1/v2 are the JSON/JSONL formats).
COLUMNAR_VERSION = 3

#: Sidecar suffix appended to the full trace filename (``x.jsonl.npz``).
SIDECAR_SUFFIX = ".npz"

#: Measurement columns, in on-disk member order.
COLUMN_NAMES = ("core_mhz", "mem_mhz", "time_ms", "power_w", "energy_j")

#: Baseline matrix column order (mirrors the v2 ``baseline`` dict).
BASELINE_FIELDS = ("core_mhz", "mem_mhz", "time_ms", "power_w", "energy_j")

_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)
_LOCAL_HEADER_FMT = "<4s5H3I2H"
_LOCAL_HEADER_SIZE = struct.calcsize(_LOCAL_HEADER_FMT)

_NPY_MAGIC_V1 = b"\x93NUMPY\x01\x00"
#: The exact header dict format 1.0 writers emit for 1-D/2-D C arrays.
_NPY_HEADER_RE = re.compile(
    rb"^\{'descr': '([^']+)', 'fortran_order': (False|True), "
    rb"'shape': \((\d+)(?:, (\d+))?,?\), \}\s*$"
)
_DTYPE_CACHE: dict[bytes, np.dtype] = {}


def sidecar_path(trace_path: str | pathlib.Path) -> pathlib.Path:
    """Where a trace's columnar sidecar lives (``<name>.npz`` sibling)."""
    p = pathlib.Path(trace_path).expanduser()
    return p.with_name(p.name + SIDECAR_SUFFIX)


def sidecar_partial_path(trace_path: str | pathlib.Path) -> pathlib.Path:
    """The in-flight sibling a :class:`TraceCompactor` streams into."""
    side = sidecar_path(trace_path)
    return side.with_name(side.name + ".partial")


def prefix_sha256(path: str | pathlib.Path, limit: int | None = None) -> str:
    """SHA-256 of the first ``limit`` bytes of ``path`` (whole file if None)."""
    digest = hashlib.sha256()
    remaining = limit
    with pathlib.Path(path).expanduser().open("rb") as handle:
        while remaining is None or remaining > 0:
            chunk = handle.read(
                1 << 20 if remaining is None else min(1 << 20, remaining)
            )
            if not chunk:
                break
            digest.update(chunk)
            if remaining is not None:
                remaining -= len(chunk)
    return digest.hexdigest()


# -- deterministic npz writing -------------------------------------------------


def _npy_bytes(array: np.ndarray) -> bytes:
    """Serialize one array in ``.npy`` format 1.0 (deterministic bytes)."""
    buffer = io.BytesIO()
    np.lib.format.write_array(
        buffer, np.ascontiguousarray(array), version=(1, 0), allow_pickle=False
    )
    return buffer.getvalue()


def _write_deterministic_npz(
    path: pathlib.Path, members: list[tuple[str, np.ndarray]]
) -> None:
    """An uncompressed npz whose bytes depend only on the member arrays.

    ``np.savez`` stamps current time into every zip header, which would
    break the store's byte-identity contract (CI diffs a resumed campaign
    store against a one-shot one).  Entries here carry a fixed epoch, a
    fixed member order, and no compression.
    """
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as archive:
        for name, array in members:
            info = zipfile.ZipInfo(f"{name}.npy", date_time=_ZIP_EPOCH)
            info.compress_type = zipfile.ZIP_STORED
            info.external_attr = 0o644 << 16
            archive.writestr(info, _npy_bytes(array))


def _member_view(
    buf: mmap.mmap, archive: zipfile.ZipFile, member: str
) -> np.ndarray:
    """Zero-copy ndarray view of one stored member over the shared map.

    ``np.load(mmap_mode=...)`` silently ignores mmap for npz archives, so
    the member's data offset is located by parsing its local zip header
    and its ``.npy`` header directly; all members then share one
    ``mmap`` of the sidecar (``np.frombuffer`` keeps it alive) instead of
    paying a file open and ``np.memmap`` construction each.  Raises on
    anything unexpected — the caller treats that as a torn sidecar and
    falls back to JSONL.
    """
    info = archive.getinfo(member)
    if info.compress_type != zipfile.ZIP_STORED:
        raise ReplayError(f"sidecar member {member} is compressed; cannot mmap")
    if info.header_offset + _LOCAL_HEADER_SIZE > len(buf):
        raise ReplayError(f"sidecar member {member} has a truncated header")
    fields = struct.unpack_from(_LOCAL_HEADER_FMT, buf, info.header_offset)
    if fields[0] != b"PK\x03\x04":
        raise ReplayError(f"sidecar member {member} has a bad local header")
    name_len, extra_len = fields[9], fields[10]
    npy_start = info.header_offset + _LOCAL_HEADER_SIZE + name_len + extra_len
    data_offset, shape, fortran, dtype = _npy_geometry(buf, npy_start, member)
    if fortran or dtype.hasobject:
        raise ReplayError(f"sidecar member {member} is not a plain C array")
    count = 1
    for dim in shape:
        count *= int(dim)
    if data_offset + count * dtype.itemsize > len(buf):
        raise ReplayError(f"sidecar member {member} is truncated")
    return np.frombuffer(
        buf, dtype=dtype, count=count, offset=data_offset
    ).reshape(shape)


def _npy_geometry(
    buf: mmap.mmap, npy_start: int, member: str
) -> tuple[int, tuple, bool, np.dtype]:
    """(data offset, shape, fortran, dtype) of one ``.npy`` payload.

    The fast path parses exactly what :func:`_npy_bytes` writes — format
    1.0, 1-D/2-D C arrays — with one regex; numpy's own header reader
    (an ``ast.literal_eval`` round-trip, ~35us per member, measurable at
    open time) handles anything it does not recognize.
    """
    head = bytes(buf[npy_start : npy_start + 10])
    if len(head) == 10 and head[:8] == _NPY_MAGIC_V1:
        header_len = int.from_bytes(head[8:10], "little")
        raw = bytes(buf[npy_start + 10 : npy_start + 10 + header_len])
        match = _NPY_HEADER_RE.match(raw) if len(raw) == header_len else None
        if match is not None:
            descr, fortran, dim0, dim1 = match.group(1, 2, 3, 4)
            dtype = _DTYPE_CACHE.get(descr)
            if dtype is None:
                dtype = _DTYPE_CACHE[descr] = np.dtype(descr.decode("ascii"))
            shape = (int(dim0),) if dim1 is None else (int(dim0), int(dim1))
            return npy_start + 10 + header_len, shape, fortran == b"True", dtype
    head_io = io.BytesIO(buf[npy_start : npy_start + 4096])
    version = np.lib.format.read_magic(head_io)
    if version != (1, 0):
        raise ReplayError(f"sidecar member {member} has npy version {version}")
    shape, fortran, dtype = np.lib.format.read_array_header_1_0(head_io)
    return npy_start + head_io.tell(), shape, bool(fortran), dtype


# -- the columnar view ---------------------------------------------------------


@dataclass(frozen=True)
class ColumnarRecord:
    """One compacted v2 record: a contiguous row range plus provenance."""

    name: str
    index: int  # record ordinal (row into the baselines matrix)
    start: int  # first row of this record in every column
    stop: int  # one past the last row
    end_offset: int  # byte offset just past the record in the source JSONL


class ColumnarTrace:
    """Memory-mapped view of a compacted trace prefix.

    Constructed via :meth:`open`, which returns ``None`` whenever the
    sidecar cannot serve (missing / torn / stale against the JSONL) —
    never raises for those cases, because the JSONL fallback is always
    available and bit-identical.
    """

    def __init__(
        self,
        path: pathlib.Path,
        header: dict,
        columns: dict[str, np.ndarray],
        baselines: np.ndarray,
    ) -> None:
        self.path = path
        self.device = str(header["device"])
        self.meta = dict(header.get("meta") or {})
        source = header["source"]
        self.prefix_bytes = int(source["prefix_bytes"])
        self.prefix_sha256 = str(source["prefix_sha256"])
        self.n_rows = int(source["n_rows"])
        # Base-class ndarray views only: a subclass like np.memmap would
        # pay __array_finalize__ on every slice the replay fast path
        # takes.  np.asarray is a no-op for the ndarrays _member_view
        # yields and strips the subclass from anything else.
        self.columns = {name: np.asarray(col) for name, col in columns.items()}
        self.baselines = np.asarray(baselines)
        self.records = [
            ColumnarRecord(
                name=str(r["kernel"]),
                index=i,
                start=int(r["start"]),
                stop=int(r["stop"]),
                end_offset=int(r["end_offset"]),
            )
            for i, r in enumerate(header["records"])
        ]
        self.kernels: dict[str, list[ColumnarRecord]] = {}
        for record in self.records:
            self.kernels.setdefault(record.name, []).append(record)

    # -- opening ----------------------------------------------------------------

    @classmethod
    def open(
        cls, trace_path: str | pathlib.Path, verify: bool = True
    ) -> "ColumnarTrace | None":
        """The trace's columnar view, or ``None`` when JSONL must serve.

        ``None`` covers: no sidecar, torn sidecar (unreadable zip, bad
        members, inconsistent shapes), and — with ``verify`` (default) —
        a stale sidecar whose recorded source prefix no longer matches
        the JSONL bytes (the trace was rewritten, not appended).
        """
        p = pathlib.Path(trace_path).expanduser()
        side = sidecar_path(p)
        result = "hit"
        trace: ColumnarTrace | None = None
        try:
            if not side.exists():
                result = "missing"
            else:
                trace = cls._load(side)
                if verify and not trace.is_fresh_for(p):
                    result, trace = "stale", None
        except Exception:
            result, trace = "torn", None
        _observe_open(result)
        return trace

    @classmethod
    def _load(cls, side: pathlib.Path) -> "ColumnarTrace":
        with side.open("rb") as handle:
            buf = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        with zipfile.ZipFile(side, "r") as archive:
            header_arr = _member_view(buf, archive, "header.npy")
            header = json.loads(header_arr.tobytes().decode("utf-8"))
            if header.get("format") != COLUMNAR_FORMAT:
                raise ReplayError(
                    f"sidecar {side} is not a columnar trace "
                    f"(format: {header.get('format')!r})"
                )
            if header.get("version") != COLUMNAR_VERSION:
                raise ReplayError(
                    f"unsupported columnar trace version "
                    f"{header.get('version')!r} (this build reads "
                    f"{COLUMNAR_VERSION})"
                )
            columns = {
                name: _member_view(buf, archive, f"{name}.npy")
                for name in COLUMN_NAMES
            }
            baselines = _member_view(buf, archive, "baselines.npy")
        trace = cls(side, header, columns, baselines)
        n_rows = trace.n_rows
        for name, column in trace.columns.items():
            if column.ndim != 1 or column.shape[0] != n_rows:
                raise ReplayError(f"sidecar {side} column {name} shape mismatch")
        if trace.baselines.shape != (len(trace.records), len(BASELINE_FIELDS)):
            raise ReplayError(f"sidecar {side} baselines shape mismatch")
        for record in trace.records:
            if not 0 <= record.start <= record.stop <= n_rows:
                raise ReplayError(f"sidecar {side} record row range out of bounds")
        return trace

    def is_fresh_for(self, trace_path: pathlib.Path) -> bool:
        """True when the JSONL still starts with the compacted prefix."""
        try:
            size = trace_path.stat().st_size
        except OSError:
            return False
        if size < self.prefix_bytes or self.prefix_bytes <= 0:
            return False
        return prefix_sha256(trace_path, self.prefix_bytes) == self.prefix_sha256

    # -- record access ----------------------------------------------------------

    def baseline_of(self, record: ColumnarRecord) -> tuple[float, ...]:
        return tuple(float(v) for v in self.baselines[record.index])

    def record_kernel(self, record: ColumnarRecord) -> KernelTrace:
        """Materialize one record as a v2 :class:`KernelTrace` (exact)."""
        core = self.columns["core_mhz"][record.start : record.stop]
        mem = self.columns["mem_mhz"][record.start : record.stop]
        base = self.baselines[record.index]
        return KernelTrace(
            baseline_core_mhz=float(base[0]),
            baseline_mem_mhz=float(base[1]),
            baseline_time_ms=float(base[2]),
            baseline_power_w=float(base[3]),
            baseline_energy_j=float(base[4]),
            configs=list(zip(core.tolist(), mem.tolist())),
            time_ms=self.columns["time_ms"][record.start : record.stop].tolist(),
            power_w=self.columns["power_w"][record.start : record.stop].tolist(),
            energy_j=self.columns["energy_j"][record.start : record.stop].tolist(),
        )

    def merged_kernel(self, name: str) -> KernelTrace | None:
        """All of one kernel's compacted records merged in file order."""
        records = self.kernels.get(name)
        if not records:
            return None
        merged = self.record_kernel(records[0])
        for record in records[1:]:
            merged.merge(self.record_kernel(record))
        return merged


def _observe_open(result: str) -> None:
    try:
        from ..obs import observe_columnar_open

        observe_columnar_open(result)
    except Exception:  # pragma: no cover - observability must never break replay
        pass


# -- compaction ----------------------------------------------------------------


@dataclass(frozen=True)
class CompactionResult:
    """What one v2→v3 conversion did."""

    trace_path: pathlib.Path
    sidecar: pathlib.Path
    #: ``"written"`` (new/updated sidecar), ``"fresh"`` (already current,
    #: skipped), or ``"empty"`` (no records to compact — no sidecar).
    action: str
    n_records: int = 0
    n_rows: int = 0
    prefix_bytes: int = 0
    prefix_sha256: str = ""


class TraceCompactor:
    """Converts v2 JSONL traces into v3 columnar sidecars, atomically.

    Same durability contract as :class:`~repro.measure.trace.TraceWriter`:
    the sidecar streams into a ``.partial`` sibling and is renamed over
    the real name only once complete, so a crash mid-compaction leaves at
    worst debris that the next compaction replaces — never a torn
    published sidecar.  Output bytes are deterministic in the input trace
    bytes.
    """

    def compact(
        self, trace_path: str | pathlib.Path, force: bool = False
    ) -> CompactionResult:
        """Compact one trace; a fresh sidecar is skipped unless ``force``.

        Raises :class:`~repro.measure.trace.ReplayError` when the trace is
        not a readable v2 stream (v1 files and damaged streams are never
        compacted — the JSONL stays authoritative).
        """
        p = pathlib.Path(trace_path).expanduser()
        side = sidecar_path(p)
        partial = sidecar_partial_path(p)

        existing = ColumnarTrace.open(p)
        if existing is not None and not force:
            if existing.prefix_bytes == p.stat().st_size:
                # Covers the whole file and the sha matched in open():
                # nothing to do (the common auto-compact-on-reuse case).
                partial.unlink(missing_ok=True)
                _observe_compaction("fresh")
                return CompactionResult(
                    trace_path=p,
                    sidecar=side,
                    action="fresh",
                    n_records=len(existing.records),
                    n_rows=existing.n_rows,
                    prefix_bytes=existing.prefix_bytes,
                    prefix_sha256=existing.prefix_sha256,
                )

        try:
            header, records = scan_stream_records(p)
        except ReplayError:
            _observe_compaction("failed")
            raise
        if not records:
            _observe_compaction("empty")
            return CompactionResult(trace_path=p, sidecar=side, action="empty")

        n_rows = sum(len(r.kernel.configs) for r in records)
        columns = {
            name: np.empty(n_rows, dtype=np.float64) for name in COLUMN_NAMES
        }
        baselines = np.empty((len(records), len(BASELINE_FIELDS)), dtype=np.float64)
        index = []
        cursor = 0
        for i, scanned in enumerate(records):
            kernel = scanned.kernel
            n = len(kernel.configs)
            stop = cursor + n
            if n:
                configs = np.asarray(kernel.configs, dtype=np.float64)
                columns["core_mhz"][cursor:stop] = configs[:, 0]
                columns["mem_mhz"][cursor:stop] = configs[:, 1]
                columns["time_ms"][cursor:stop] = kernel.time_ms
                columns["power_w"][cursor:stop] = kernel.power_w
                columns["energy_j"][cursor:stop] = kernel.energy_j
            baselines[i] = (
                kernel.baseline_core_mhz,
                kernel.baseline_mem_mhz,
                kernel.baseline_time_ms,
                kernel.baseline_power_w,
                kernel.baseline_energy_j,
            )
            index.append(
                {
                    "kernel": scanned.name,
                    "start": cursor,
                    "stop": stop,
                    "end_offset": scanned.end_offset,
                }
            )
            cursor = stop

        prefix_bytes = records[-1].end_offset
        sha = prefix_sha256(p, prefix_bytes)
        doc = {
            "format": COLUMNAR_FORMAT,
            "version": COLUMNAR_VERSION,
            "device": header["device"],
            "meta": dict(header.get("meta") or {}),
            "source": {
                "prefix_sha256": sha,
                "prefix_bytes": prefix_bytes,
                "n_records": len(records),
                "n_rows": n_rows,
            },
            "records": index,
        }
        header_member = np.frombuffer(
            json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8"),
            dtype=np.uint8,
        )
        members = [("header", header_member), ("baselines", baselines)]
        members.extend((name, columns[name]) for name in COLUMN_NAMES)
        _write_deterministic_npz(partial, members)
        import os

        os.replace(partial, side)
        _observe_compaction("written")
        return CompactionResult(
            trace_path=p,
            sidecar=side,
            action="written",
            n_records=len(records),
            n_rows=n_rows,
            prefix_bytes=prefix_bytes,
            prefix_sha256=sha,
        )


def compact_trace(
    trace_path: str | pathlib.Path, force: bool = False
) -> CompactionResult:
    """Module-level convenience over :meth:`TraceCompactor.compact`."""
    return TraceCompactor().compact(trace_path, force=force)


def _observe_compaction(result: str) -> None:
    try:
        from ..obs import observe_trace_compaction

        observe_trace_compaction(result)
    except Exception:  # pragma: no cover - observability must never break stores
        pass
