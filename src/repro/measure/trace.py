"""Measurement-trace format: append-only JSON-Lines streams (version 2).

A trace stores exactly the externally observable measurements of a sweep —
per-configuration time/power/energy plus the baseline run — as JSON
numbers, whose ``repr``-based serialization round-trips float64
bit-for-bit.  Replaying a trace therefore reproduces the same
:class:`~repro.core.dataset.TrainingDataset` matrices *exactly*.

A trace is a header line followed by one self-contained record per
recorded sweep::

    {"format": "repro.measurement-trace", "version": 2,
     "device": "<full device name>", "meta": {...}}
    {"kernel": "<name>", "baseline": {...}, "configs": [[c, m], ...],
     "time_ms": [...], "power_w": [...], "energy_j": [...]}
    ...

Records are **append-only**: :class:`TraceWriter` flushes each sweep as it
completes (a crash loses at most the record being written), and repeated
records for one kernel merge in order on read.  There are two readers:

* :func:`scan_trace_offsets` + :func:`read_kernels_at` — the indexed
  reader: one name-only scan builds ``{kernel: [byte offsets]}``, and
  records parse on demand (what lets
  :class:`~repro.measure.replay.ReplayBackend` serve long campaign traces
  out-of-core);
* :func:`scan_stream_records` — the sequential reader: every intact
  record with its end offset (campaign resume, ``repro traces``,
  columnar compaction).

Version 2 is the only version read.  Any other header — including the
original whole-file JSON object, version 1 — is a :class:`ReplayError`.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
from dataclasses import dataclass, field
from typing import IO, TYPE_CHECKING, Sequence

TRACE_FORMAT = "repro.measurement-trace"
#: The trace stream version this build reads and writes.
TRACE_VERSION = 2

if TYPE_CHECKING:
    from ..core.dataset import KernelMeasurements


class ReplayError(RuntimeError):
    """Raised when a trace cannot be read or cannot serve a replay request."""


@dataclass
class KernelTrace:
    """Recorded sweep of one kernel: baseline + per-configuration columns."""

    baseline_core_mhz: float
    baseline_mem_mhz: float
    baseline_time_ms: float
    baseline_power_w: float
    baseline_energy_j: float
    configs: list[tuple[float, float]] = field(default_factory=list)
    time_ms: list[float] = field(default_factory=list)
    power_w: list[float] = field(default_factory=list)
    energy_j: list[float] = field(default_factory=list)

    def to_state(self) -> dict:
        return {
            "baseline": {
                "core_mhz": self.baseline_core_mhz,
                "mem_mhz": self.baseline_mem_mhz,
                "time_ms": self.baseline_time_ms,
                "power_w": self.baseline_power_w,
                "energy_j": self.baseline_energy_j,
            },
            "configs": [list(c) for c in self.configs],
            "time_ms": self.time_ms,
            "power_w": self.power_w,
            "energy_j": self.energy_j,
        }

    @classmethod
    def from_state(cls, state: dict) -> "KernelTrace":
        base = state["baseline"]
        return cls(
            baseline_core_mhz=float(base["core_mhz"]),
            baseline_mem_mhz=float(base["mem_mhz"]),
            baseline_time_ms=float(base["time_ms"]),
            baseline_power_w=float(base["power_w"]),
            baseline_energy_j=float(base["energy_j"]),
            configs=[(float(c), float(m)) for c, m in state["configs"]],
            time_ms=[float(v) for v in state["time_ms"]],
            power_w=[float(v) for v in state["power_w"]],
            energy_j=[float(v) for v in state["energy_j"]],
        )

    @classmethod
    def from_measurements(cls, measurements: "KernelMeasurements") -> "KernelTrace":
        """Snapshot one backend sweep (baseline + columns) as a record."""
        baseline = measurements.baseline
        return cls(
            baseline_core_mhz=baseline.requested_core_mhz,
            baseline_mem_mhz=baseline.mem_mhz,
            baseline_time_ms=baseline.time_ms,
            baseline_power_w=baseline.power_w,
            baseline_energy_j=baseline.energy_j,
            configs=list(measurements.configs),
            time_ms=measurements.time_ms.tolist(),
            power_w=measurements.power_w.tolist(),
            energy_j=measurements.energy_j.tolist(),
        )

    def record(
        self, config: tuple[float, float], time_ms: float, power_w: float, energy_j: float
    ) -> None:
        """Add or overwrite one configuration's measurements."""
        try:
            i = self.configs.index(config)
        except ValueError:
            self.configs.append(config)
            self.time_ms.append(time_ms)
            self.power_w.append(power_w)
            self.energy_j.append(energy_j)
        else:
            self.time_ms[i] = time_ms
            self.power_w[i] = power_w
            self.energy_j[i] = energy_j

    def merge(self, other: "KernelTrace") -> None:
        """Fold a later record for the same kernel into this one, in order."""
        for i, config in enumerate(other.configs):
            self.record(config, other.time_ms[i], other.power_w[i], other.energy_j[i])


# -- JSONL stream I/O ---------------------------------------------------------


def _header_state(device: str, meta: dict | None = None) -> dict:
    return {
        "format": TRACE_FORMAT,
        "version": TRACE_VERSION,
        "device": device,
        "meta": dict(meta or {}),
    }


def _parse_header(line: str, path: pathlib.Path) -> dict:
    """Validate a stream header line: version 2, naming a device."""
    try:
        header = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ReplayError(f"trace {path} has a corrupt header line: {exc}") from None
    if not isinstance(header, dict) or header.get("format") != TRACE_FORMAT:
        raise ReplayError(
            f"not a measurement trace (format: "
            f"{header.get('format') if isinstance(header, dict) else None!r})"
        )
    version = header.get("version")
    if version != TRACE_VERSION:
        raise ReplayError(
            f"unsupported trace stream version {version!r} "
            f"(this build reads only version {TRACE_VERSION} JSONL streams)"
        )
    if "device" not in header:
        raise ReplayError(f"trace {path} header names no device")
    return header


def _read_header(handle: IO[bytes], path: pathlib.Path, errors: str = "strict") -> dict:
    """Read and validate the header: the first non-blank line.

    Readers skip blank lines wherever they occur.  Undecodable bytes in
    the header raise :class:`UnicodeDecodeError` unless ``errors`` says
    otherwise.
    """
    for raw in iter(handle.readline, b""):
        if raw.strip():
            return _parse_header(raw.decode("utf-8", errors), path)
    raise ReplayError(f"trace {path} has no header line")


class TraceWriter:
    """Append-only JSONL trace writer; each record is flushed as written.

    Use as a context manager.  ``append=True`` re-opens an existing stream
    and keeps extending it (the header must name the same device); the
    default truncates and writes a fresh header.

    ``atomic=True`` streams into a ``.partial`` sibling and renames it
    over ``path`` only on a *clean* close — for rewriting a file that may
    already hold a good artifact (the trace registry's mode): a crash or
    error mid-campaign leaves the previous trace untouched and the
    partial stream behind for forensics.  The default writes ``path``
    directly, so records are externally visible the moment they flush.
    A directory is never a trace path: the constructor refuses it before
    it creates anything.
    """

    def __init__(
        self,
        path: str | pathlib.Path,
        device: str,
        meta: dict | None = None,
        append: bool = False,
        atomic: bool = False,
    ) -> None:
        self.path = pathlib.Path(path).expanduser()
        if self.path.is_dir():
            raise ReplayError(f"{path}: Is a directory")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.device = device
        self.n_records = 0
        self._handle: IO[str] | None = None
        self._partial: pathlib.Path | None = None
        if append and atomic:
            raise ReplayError("append=True and atomic=True cannot be combined")
        if append and self.path.exists() and self.path.stat().st_size > 0:
            with self.path.open("r") as handle:
                header = _parse_header(handle.readline(), self.path)
            if header["device"] != device:
                raise ReplayError(
                    f"cannot append sweeps of {device!r} to a trace "
                    f"recorded on {header['device']!r}"
                )
            self._handle = self.path.open("a")
        else:
            if atomic:
                self._partial = self.path.with_name(self.path.name + ".partial")
                self._handle = self._partial.open("w")
            else:
                self._handle = self.path.open("w")
            self._write_line(_header_state(device, meta))

    def _write_line(self, state: dict) -> None:
        if self._handle is None:
            raise ReplayError(f"trace writer for {self.path} is closed")
        self._handle.write(json.dumps(state, indent=None, separators=(",", ":")))
        self._handle.write("\n")
        self._handle.flush()

    def write_kernel(self, name: str, kernel: KernelTrace) -> None:
        """Append one kernel-sweep record and flush it to disk."""
        self._write_line({"kernel": name, **kernel.to_state()})
        self.n_records += 1

    def write_measurements(self, measurements: "KernelMeasurements") -> None:
        """Append a backend's :class:`KernelMeasurements` as one record."""
        self.write_kernel(
            measurements.spec.name, KernelTrace.from_measurements(measurements)
        )

    def close(self, success: bool = True) -> None:
        """Close the stream; atomic writers publish only on success."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
            if self._partial is not None and success:
                os.replace(self._partial, self.path)
                self._partial = None

    @property
    def closed(self) -> bool:
        return self._handle is None

    @classmethod
    def resume_partial(
        cls,
        path: str | pathlib.Path,
        device: str,
        keep_bytes: int,
    ) -> "TraceWriter":
        """Reopen an interrupted atomic stream and keep extending it.

        ``path`` is the *published* location; the records live in its
        ``.partial`` sibling (an atomic writer that never closed cleanly).
        The partial file is truncated to ``keep_bytes`` — the end of its
        last intact record, as reported by :func:`scan_stream_records` —
        so a half-written trailing line is dropped, then appended to.  A
        clean close publishes the finished stream exactly like a fresh
        atomic writer; another crash leaves the (longer) partial behind
        for the next resume.
        """
        writer = cls.__new__(cls)
        writer.path = pathlib.Path(path).expanduser()
        writer.device = device
        writer.n_records = 0
        writer._partial = writer.path.with_name(writer.path.name + ".partial")
        if not writer._partial.exists():
            raise ReplayError(f"no partial trace to resume at {writer._partial}")
        with writer._partial.open("rb") as probe:
            header_line = probe.readline()
            header_end = probe.tell()
        header = _parse_header(header_line.decode("utf-8"), writer._partial)
        if header["device"] != device:
            raise ReplayError(
                f"cannot resume sweeps of {device!r} onto a partial trace "
                f"recorded on {header['device']!r}"
            )
        if keep_bytes < header_end:
            raise ReplayError(
                f"cannot truncate {writer._partial} to {keep_bytes} bytes: "
                f"that cuts into the {header_end}-byte header (start a "
                f"fresh writer instead)"
            )
        handle = writer._partial.open("r+")
        handle.truncate(keep_bytes)
        handle.seek(keep_bytes)
        writer._handle = handle
        return writer

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        self.close(success=exc_type is None)


#: Fast path for the offset scan: records written by :class:`TraceWriter`
#: lead with the kernel name, so it can be sliced out without parsing the
#: measurement arrays.  Any record that does not match (different key
#: order, exotic escapes) falls back to a full parse.
_RECORD_NAME_PREFIX = re.compile(r'^\{"kernel":"((?:[^"\\]|\\.)*)"')


def _record_kernel_name(line: str) -> str:
    match = _RECORD_NAME_PREFIX.match(line)
    if match is not None:
        return json.loads(f'"{match.group(1)}"')
    return str(json.loads(line)["kernel"])


def scan_trace_offsets(
    path: str | pathlib.Path, start_offset: int = 0
) -> tuple[dict | None, dict[str, list[int]]]:
    """One pass over a v2 stream: header + per-kernel byte offsets.

    The index is what makes out-of-core replay possible: it holds only
    ``{kernel name: [record offsets]}`` (bytes into the file), never the
    measurement columns themselves — and the scan reads just each
    record's leading kernel name, not its arrays, so indexing costs
    O(names), unlike materializing.  A header that is not a version-2
    stream header raises :class:`ReplayError`.

    A non-zero ``start_offset`` must point at a record boundary (e.g. a
    columnar sidecar's ``prefix_bytes``); the scan then indexes only the
    records from there on — the appended tail — and the returned header
    is ``None``, since the header line was never visited.
    """
    p = pathlib.Path(path).expanduser()
    offsets: dict[str, list[int]] = {}
    header: dict | None = None
    with p.open("rb") as handle:
        if start_offset:
            handle.seek(start_offset)
        else:
            header = _read_header(handle, p)
        position = handle.tell()
        for raw in iter(handle.readline, b""):
            line = raw.decode("utf-8")
            if line.strip():
                try:
                    name = _record_kernel_name(line)
                except (json.JSONDecodeError, KeyError) as exc:
                    raise ReplayError(
                        f"trace {p} record at byte {position} is corrupt: {exc}"
                    ) from None
                offsets.setdefault(name, []).append(position)
            position = handle.tell()
    return header, offsets


@dataclass
class ScannedRecord:
    """One intact record of a stream, with where it ends in the file."""

    name: str
    kernel: KernelTrace
    end_offset: int


def scan_stream_records(
    path: str | pathlib.Path, tolerate_truncation: bool = False
) -> tuple[dict, list[ScannedRecord]]:
    """Parse a v2 stream's intact record prefix: ``(header, records)``.

    The sequential reader.  Each record carries its *end byte offset*,
    so a caller can truncate the file after any intact prefix and append
    from there.  With ``tolerate_truncation=True`` a corrupt or
    half-written **final** line (what a killed campaign leaves behind)
    silently ends the scan instead of raising; corruption with intact
    records after it still raises, since that is damage, not a crash
    tail.  Undecodable bytes are damage too: this reader raises only
    :class:`ReplayError`.
    """
    p = pathlib.Path(path).expanduser()
    records: list[ScannedRecord] = []
    with p.open("rb") as handle:
        header = _read_header(handle, p, errors="replace")
        position = handle.tell()
        damage: ReplayError | None = None
        for raw in iter(handle.readline, b""):
            end = handle.tell()
            start, position = position, end
            line = raw.decode("utf-8", errors="replace")
            if not line.strip():
                continue
            intact = raw.endswith(b"\n")
            if intact:
                try:
                    state = json.loads(line)
                    record = ScannedRecord(
                        name=str(state["kernel"]),
                        kernel=KernelTrace.from_state(state),
                        end_offset=end,
                    )
                except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                    intact = False
                    damage = ReplayError(
                        f"trace {p} record at byte {start} is corrupt: {exc}"
                    )
            if not intact:
                if damage is None:
                    # An unterminated final line that still parses is the
                    # flush racing the kill — never counted as intact.
                    damage = ReplayError(
                        f"trace {p} record at byte {start} is unterminated"
                    )
                continue
            if damage is not None:
                # An intact record *after* damage means mid-file corruption,
                # not a crash tail — never silently reusable.
                raise damage
            records.append(record)
        if damage is not None and not tolerate_truncation:
            raise damage
    return header, records


def read_kernels_at(
    path: str | pathlib.Path, offsets: Sequence[int]
) -> list[KernelTrace]:
    """Parse the records at ``offsets`` (from the scan index) through one
    file handle: materializing a kernel with many repeat records opens
    the trace once, not once per record.
    """
    kernels: list[KernelTrace] = []
    with pathlib.Path(path).expanduser().open("r") as handle:
        for offset in offsets:
            handle.seek(offset)
            line = handle.readline()
            try:
                kernels.append(KernelTrace.from_state(json.loads(line)))
            except (json.JSONDecodeError, KeyError) as exc:
                raise ReplayError(
                    f"trace {path} record at byte {offset} is corrupt: {exc}"
                ) from None
    return kernels
