"""Resume-layer trace primitives: prefix scans and partial-stream reopen."""

import json

import pytest

from repro.measure import (
    KernelTrace,
    ReplayError,
    TraceWriter,
    scan_stream_records,
)
from repro.measure.trace_registry import TraceKey, TraceRegistry


def record(i):
    return KernelTrace(
        baseline_core_mhz=1001.0,
        baseline_mem_mhz=3505.0,
        baseline_time_ms=1.0 + i,
        baseline_power_w=100.0,
        baseline_energy_j=0.1,
        configs=[(500.0, 810.0), (600.0, 810.0)],
        time_ms=[2.0, 1.5],
        power_w=[80.0, 90.0],
        energy_j=[0.16, 0.135],
    )


@pytest.fixture
def stream(tmp_path):
    path = tmp_path / "trace.jsonl"
    with TraceWriter(path, device="NVIDIA GTX Titan X") as writer:
        for i in range(4):
            writer.write_kernel(f"k{i}", record(i))
    return path


class TestScanStreamRecords:
    def test_clean_stream_scans_whole(self, stream):
        header, records = scan_stream_records(stream)
        assert header["device"] == "NVIDIA GTX Titan X"
        assert [r.name for r in records] == ["k0", "k1", "k2", "k3"]
        assert records[-1].end_offset == stream.stat().st_size

    def test_end_offsets_are_record_boundaries(self, stream):
        _header, records = scan_stream_records(stream)
        raw = stream.read_bytes()
        for r in records:
            assert raw[: r.end_offset].endswith(b"\n")
            # Re-parsing the slice's last line gives the same kernel.
            last = raw[: r.end_offset].splitlines()[-1]
            assert json.loads(last)["kernel"] == r.name

    def test_torn_tail_tolerated_when_asked(self, stream):
        raw = stream.read_bytes()
        lines = raw.splitlines(keepends=True)
        torn = stream.parent / "torn.jsonl"
        torn.write_bytes(b"".join(lines[:3]) + lines[3][:20])
        header, records = scan_stream_records(torn, tolerate_truncation=True)
        assert [r.name for r in records] == ["k0", "k1"]
        with pytest.raises(ReplayError, match="corrupt|unterminated"):
            scan_stream_records(torn)

    def test_unterminated_final_record_never_counts(self, stream):
        # Even a *parseable* last line without a newline is a crash tail.
        raw = stream.read_bytes().rstrip(b"\n")
        torn = stream.parent / "noeol.jsonl"
        torn.write_bytes(raw)
        _header, records = scan_stream_records(torn, tolerate_truncation=True)
        assert [r.name for r in records] == ["k0", "k1", "k2"]

    def test_mid_file_damage_always_raises(self, stream):
        lines = stream.read_bytes().splitlines(keepends=True)
        bad = stream.parent / "bad.jsonl"
        bad.write_bytes(lines[0] + lines[1] + b"{garbage\n" + lines[3])
        with pytest.raises(ReplayError, match="corrupt"):
            scan_stream_records(bad, tolerate_truncation=True)

    def test_v1_trace_rejected(self, tmp_path):
        v1 = tmp_path / "v1.json"
        v1.write_text('{"format": "repro.measurement-trace", "version": 1}')
        with pytest.raises(ReplayError, match="JSONL"):
            scan_stream_records(v1)


class TestResumePartial:
    def make_partial(self, tmp_path, n=3):
        published = tmp_path / "trace.jsonl"
        writer = TraceWriter(
            published, device="NVIDIA GTX Titan X", atomic=True
        )
        for i in range(n):
            writer.write_kernel(f"k{i}", record(i))
        writer.close(success=False)  # the crash: stream stays .partial
        partial = published.with_name(published.name + ".partial")
        assert partial.exists() and not published.exists()
        return published, partial

    def test_append_then_publish(self, tmp_path):
        published, partial = self.make_partial(tmp_path)
        _header, records = scan_stream_records(partial, tolerate_truncation=True)
        writer = TraceWriter.resume_partial(
            published, device="NVIDIA GTX Titan X", keep_bytes=records[-1].end_offset
        )
        writer.write_kernel("k3", record(3))
        writer.close(success=True)
        assert published.exists() and not partial.exists()
        _header, final = scan_stream_records(published)
        assert [r.name for r in final] == ["k0", "k1", "k2", "k3"]

    def test_resumed_bytes_match_uninterrupted(self, tmp_path):
        published, partial = self.make_partial(tmp_path, n=2)
        # Tear the stream mid-record, as a kill would.
        raw = partial.read_bytes()
        lines = raw.splitlines(keepends=True)
        partial.write_bytes(b"".join(lines[:2]) + lines[2][:15])
        _header, records = scan_stream_records(partial, tolerate_truncation=True)
        writer = TraceWriter.resume_partial(
            published, device="NVIDIA GTX Titan X", keep_bytes=records[-1].end_offset
        )
        writer.write_kernel("k1", record(1))
        writer.close(success=True)

        oneshot = tmp_path / "oneshot.jsonl"
        with TraceWriter(oneshot, device="NVIDIA GTX Titan X") as w:
            w.write_kernel("k0", record(0))
            w.write_kernel("k1", record(1))
        assert published.read_bytes() == oneshot.read_bytes()

    def test_device_mismatch_refused(self, tmp_path):
        published, _partial = self.make_partial(tmp_path)
        with pytest.raises(ReplayError, match="recorded on"):
            TraceWriter.resume_partial(
                published, device="NVIDIA Tesla P100", keep_bytes=10_000
            )

    def test_truncating_into_header_refused(self, tmp_path):
        published, _partial = self.make_partial(tmp_path)
        with pytest.raises(ReplayError, match="header"):
            TraceWriter.resume_partial(
                published, device="NVIDIA GTX Titan X", keep_bytes=3
            )

    def test_missing_partial_refused(self, tmp_path):
        with pytest.raises(ReplayError, match="no partial"):
            TraceWriter.resume_partial(
                tmp_path / "absent.jsonl",
                device="NVIDIA GTX Titan X",
                keep_bytes=100,
            )


class TestRegistryResume:
    def test_scan_resume_sources_lists_partial_then_published(self, tmp_path):
        registry = TraceRegistry(tmp_path)
        key = TraceKey(device="titan-x", suite="quick")
        with registry.writer(key) as writer:
            writer.write_kernel("k0", record(0))
            writer.write_kernel("k1", record(1))
        # Now fake a later crashed run that re-recorded only k0.
        partial = registry.partial_path_for(key)
        published_lines = registry.path_for(key).read_bytes().splitlines(
            keepends=True
        )
        partial.write_bytes(b"".join(published_lines[:2]))
        states = registry.scan_resume_sources(key)
        assert [s.source for s in states] == ["partial", "published"]
        assert [r.name for r in states[0].records] == ["k0"]
        assert [r.name for r in states[1].records] == ["k0", "k1"]
        assert states[0].keep_bytes == len(b"".join(published_lines[:2]))

    def test_scan_resume_falls_back_to_published(self, tmp_path):
        registry = TraceRegistry(tmp_path)
        key = TraceKey(device="titan-x", suite="quick")
        with registry.writer(key) as writer:
            writer.write_kernel("k0", record(0))
        (state,) = registry.scan_resume_sources(key)
        assert state.source == "published"
        assert [r.name for r in state.records] == ["k0"]

    def test_scan_resume_empty_store(self, tmp_path):
        registry = TraceRegistry(tmp_path)
        key = TraceKey(device="titan-x", suite="quick")
        assert registry.scan_resume_sources(key) == []

    def test_wrong_device_stream_ignored(self, tmp_path):
        registry = TraceRegistry(tmp_path)
        key = TraceKey(device="titan-x", suite="quick")
        partial = registry.partial_path_for(key)
        partial.parent.mkdir(parents=True, exist_ok=True)
        with TraceWriter(partial, device="NVIDIA Tesla P100") as writer:
            writer.write_kernel("k0", record(0))
        assert registry.scan_resume_sources(key) == []
