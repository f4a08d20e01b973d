"""Trace-first dataset registry: recorded sweeps as keyed artifacts.

Mirrors :class:`repro.serve.registry.ModelRegistry`, but for measurement
traces: a :class:`TraceKey` identifies one recorded campaign by **device**
(alias-stable slug), **suite** (which kernel set was swept) and the
**noise-settings hash** (so traces taken under different measurement-noise
configurations can never be confused), and :class:`TraceRegistry` maps
each key to one JSONL trace file, ``<root>/<slug>.jsonl``, in a flat
directory.  Readers open the file a key resolves to with one of the two
stream readers — indexed (``ReplayBackend(registry.resolve(key))``) or
sequential (``scan_stream_records``); the registry itself only names
files, streams campaigns into them and finds what a resume can reuse.

The user-facing spelling of a key is ``device/suite[/noise-hash]`` —
``train --backend replay --trace-key titan-x/default`` resolves a trace
without anyone remembering paths.
"""

from __future__ import annotations

import hashlib
import pathlib
from dataclasses import dataclass, field

from ..gpusim.device import DeviceSpec, device_slug, resolve_device
from ..gpusim.noise import NoiseConfig
from .trace import ReplayError, ScannedRecord, TraceWriter, scan_stream_records


def noise_settings_hash(noise: NoiseConfig | None = None) -> str:
    """Short stable fingerprint of a noise configuration.

    Hashes the dataclass ``repr`` — every field, current and future, is
    automatically part of the key, so two different noise setups can never
    share a trace slot.
    """
    config = noise if noise is not None else NoiseConfig()
    return hashlib.sha256(repr(config).encode("utf-8")).hexdigest()[:10]


#: Hash of the default noise configuration (what `device/suite` implies).
DEFAULT_NOISE_HASH = noise_settings_hash()

#: Suite name used when a campaign sweeps the micro-benchmark corpus.
DEFAULT_SUITE = "default"


@dataclass(frozen=True)
class TraceKey:
    """Identity of one recorded campaign: (device, suite, noise hash)."""

    device: str = "NVIDIA GTX Titan X"
    suite: str = DEFAULT_SUITE
    noise: str = DEFAULT_NOISE_HASH

    @property
    def slug(self) -> str:
        """Filesystem-safe identifier, stable across device spellings."""
        suite = self.suite.strip().lower().replace("/", "-") or DEFAULT_SUITE
        return f"{device_slug(self.device)}__{suite}__{self.noise}"

    def device_spec(self) -> DeviceSpec:
        return resolve_device(self.device)

    def as_meta(self) -> dict:
        return {
            "device": self.device_spec().name,
            "suite": self.suite,
            "noise": self.noise,
        }

    def display(self) -> str:
        """The user-facing ``device/suite/noise`` spelling."""
        return f"{device_slug(self.device)}/{self.suite}/{self.noise}"

    @classmethod
    def parse(cls, text: str) -> "TraceKey":
        """Parse ``device/suite[/noise-hash]`` (suite defaults to 'default').

        The device part accepts any registered alias; omitting the noise
        part means "recorded under the default noise configuration".
        """
        parts = [p for p in text.strip().split("/") if p]
        if not 1 <= len(parts) <= 3:
            raise ReplayError(
                f"bad trace key {text!r}; expected device/suite[/noise-hash]"
            )
        device = parts[0]
        suite = parts[1] if len(parts) > 1 else DEFAULT_SUITE
        noise = parts[2] if len(parts) > 2 else DEFAULT_NOISE_HASH
        try:
            resolve_device(device)
        except KeyError as exc:
            raise ReplayError(exc.args[0]) from None
        return cls(device=device, suite=suite, noise=noise)


@dataclass
class TraceResumeState:
    """What a resume scan recovered for one trace key.

    ``source`` says where the intact records came from: ``"published"``
    (a registered trace from an earlier clean run) or ``"partial"`` (the
    ``.partial`` stream a crashed atomic writer left behind).
    ``keep_bytes`` is the byte offset just past the last intact record of
    a partial stream; :meth:`TraceRegistry.resume_writer` truncates there
    before appending.
    """

    key: TraceKey
    source: str
    records: list[ScannedRecord] = field(default_factory=list)
    keep_bytes: int = 0


@dataclass
class TraceRegistry:
    """Keyed store of recorded measurement traces (JSONL files on disk).

    :meth:`writer` streams a campaign's sweeps into the registry
    atomically: the key resolves to the new trace on clean close, and to
    the previous one — if any — until then.
    """

    root: pathlib.Path

    def __post_init__(self) -> None:
        self.root = pathlib.Path(self.root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: TraceKey) -> pathlib.Path:
        return self.path_for_slug(key.slug)

    def path_for_slug(self, slug: str) -> pathlib.Path:
        """A registered slug's trace file."""
        return self.root / f"{slug}.jsonl"

    def __contains__(self, key: TraceKey) -> bool:
        return self.path_for(key).exists()

    def resolve(self, key: TraceKey | str) -> pathlib.Path:
        """The on-disk trace file for a key (or its string spelling)."""
        if isinstance(key, str):
            key = TraceKey.parse(key)
        path = self.path_for(key)
        if not path.exists():
            raise ReplayError(
                f"no recorded trace for key {key.display()!r} under "
                f"{self.root} (recorded: {self.entries() or 'none'})"
            )
        return path

    def writer(self, key: TraceKey) -> TraceWriter:
        """A streaming :class:`TraceWriter` registered under ``key``.

        Sweeps stream into a ``.partial`` sibling that is renamed over the
        registry file only on a clean close (``atomic=True``), so a crash
        or error mid-campaign can never destroy a previously registered
        trace — the last good artifact stays resolvable.
        """
        return TraceWriter(
            self.path_for(key),
            device=key.device_spec().name,
            meta=key.as_meta(),
            atomic=True,
        )

    # -- resume -----------------------------------------------------------------

    def partial_path_for(self, key: TraceKey) -> pathlib.Path:
        """Where an interrupted atomic writer's stream for ``key`` lives."""
        path = self.path_for(key)
        return path.with_name(path.name + ".partial")

    def scan_resume_sources(self, key: TraceKey) -> list[TraceResumeState]:
        """Every readable stream a resume of ``key`` could draw on.

        The interrupted ``.partial`` stream (a crashed run's progress,
        scanned tolerating the half-written trailing line a kill leaves
        behind) and the published file (a clean earlier run), in that
        order — callers pick whichever covers more of their expected
        sequence.  A stream whose header names a different device, or
        that is damaged beyond a crash tail, is omitted: resume must
        re-measure rather than trust foreign records.
        """
        device_name = key.device_spec().name
        states = []
        for source, path, tolerate in (
            ("partial", self.partial_path_for(key), True),
            ("published", self.path_for(key), False),
        ):
            if not path.exists():
                continue
            try:
                header, records = scan_stream_records(
                    path, tolerate_truncation=tolerate
                )
            except ReplayError:
                continue
            if header["device"] != device_name:
                continue
            keep = records[-1].end_offset if records else 0
            states.append(
                TraceResumeState(
                    key=key, source=source, records=records, keep_bytes=keep
                )
            )
        return states

    def discard_partial(self, key: TraceKey) -> None:
        """Remove a leftover ``.partial`` stream for ``key``, if any.

        For crash debris a resume decided *not* to reuse (e.g. the
        header-only partial a killed re-run left beside a complete
        published trace) — once superseded it would otherwise sit in the
        store forever.
        """
        self.partial_path_for(key).unlink(missing_ok=True)

    def resume_writer(self, key: TraceKey, keep_bytes: int) -> TraceWriter:
        """Reopen ``key``'s interrupted partial stream for appending.

        ``keep_bytes`` comes from :meth:`scan_resume_sources`; everything
        past it (the crash tail) is truncated away.  Like :meth:`writer`,
        the key publishes atomically on clean close.
        """
        return TraceWriter.resume_partial(
            self.path_for(key),
            device=key.device_spec().name,
            keep_bytes=keep_bytes,
        )

    def entries(self) -> list[str]:
        """Slugs of every recorded trace under the registry root."""
        return sorted(p.name[: -len(".jsonl")] for p in self.root.glob("*.jsonl"))

    # -- columnar compaction ----------------------------------------------------

    def compact(self, key: TraceKey | str, force: bool = False):
        """Compact ``key``'s trace into its columnar sidecar (v2 → v3).

        Returns the :class:`~repro.measure.columnar.CompactionResult`;
        a sidecar already covering the whole trace is skipped (``fresh``)
        unless ``force``.
        """
        from .columnar import compact_trace

        return compact_trace(self.resolve(key), force=force)
