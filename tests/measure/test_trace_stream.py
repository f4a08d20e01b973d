"""JSONL trace streams: the writer, the two readers, out-of-core replay."""

import json

import numpy as np
import pytest

from repro.core.config import sample_training_settings
from repro.core.dataset import build_training_dataset
from repro.gpusim.device import make_titan_x
from repro.measure import (
    TRACE_VERSION,
    RecordingBackend,
    ReplayBackend,
    ReplayError,
    SimulatorBackend,
    TraceWriter,
    scan_stream_records,
)
from repro.measure.trace import scan_trace_offsets
from repro.suite import get_benchmark
from repro.synthetic.generator import generate_micro_benchmarks

SETTINGS = sample_training_settings(make_titan_x(), total=10)
SPECS = generate_micro_benchmarks()[::40]

#: A whole-file JSON trace in the original (version 1) format, which no
#: reader accepts any more.
V1_TRACE = (
    '{"format": "repro.measurement-trace", "version": 1, '
    '"device": "NVIDIA GTX Titan X", "kernels": {"MT": {'
    '"baseline": {"core_mhz": 1001.0, "mem_mhz": 3505.0, '
    '"time_ms": 1.0, "power_w": 100.0, "energy_j": 0.1}, '
    '"configs": [[1001.0, 3505.0]], "time_ms": [1.0], '
    '"power_w": [100.0], "energy_j": [0.1]}}}'
)


@pytest.fixture()
def recorded(tmp_path):
    """A streamed trace of every spec in :data:`SPECS`."""
    path = tmp_path / "t.jsonl"
    with RecordingBackend(SimulatorBackend(), stream=path) as rec:
        for spec in SPECS:
            rec.measure(spec, SETTINGS)
    return path


class TestFormatRoundTrip:
    def test_jsonl_layout_is_one_record_per_line(self, recorded):
        lines = recorded.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["version"] == TRACE_VERSION
        assert header["device"] == "NVIDIA GTX Titan X"
        assert len(lines) == 1 + len(SPECS)
        assert all("kernel" in json.loads(line) for line in lines[1:])

    def test_header_readable_for_both(self, recorded):
        """The indexed and the sequential reader see one header."""
        indexed, offsets = scan_trace_offsets(recorded)
        sequential, records = scan_stream_records(recorded)
        assert indexed == sequential
        assert indexed["device"] == "NVIDIA GTX Titan X"
        assert list(offsets) == [r.name for r in records]

    def test_future_stream_version_reported_as_such(self, recorded):
        """A v3 stream must say 'unsupported version', not 'not valid JSON'."""
        lines = recorded.read_text().splitlines()
        header = json.loads(lines[0])
        header["version"] = 3
        recorded.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(ReplayError, match="unsupported trace stream version 3"):
            ReplayBackend(recorded)
        with pytest.raises(ReplayError, match="unsupported trace stream version 3"):
            scan_stream_records(recorded)

    @pytest.mark.parametrize(
        "read",
        [ReplayBackend, scan_trace_offsets, scan_stream_records],
        ids=["replay", "indexed", "sequential"],
    )
    def test_v1_whole_file_trace_is_rejected(self, tmp_path, read):
        path = tmp_path / "v1.json"
        path.write_text(V1_TRACE)
        with pytest.raises(ReplayError, match="unsupported trace stream version 1"):
            read(path)


class TestStreamingWriter:
    def test_records_are_durable_before_close(self, tmp_path):
        spec = get_benchmark("MT")
        backend = SimulatorBackend()
        writer = TraceWriter(tmp_path / "t.jsonl", device=backend.device.name)
        writer.write_measurements(backend.measure(spec, SETTINGS))
        # Readable mid-stream: the writer flushed the record already.
        _header, records = scan_stream_records(tmp_path / "t.jsonl")
        assert [r.name for r in records] == [spec.name]
        writer.close()
        with pytest.raises(ReplayError):
            writer.write_measurements(backend.measure(spec, SETTINGS))

    def test_append_extends_existing_stream(self, tmp_path):
        backend = SimulatorBackend()
        with TraceWriter(tmp_path / "t.jsonl", device=backend.device.name) as w:
            w.write_measurements(backend.measure(get_benchmark("MT"), SETTINGS))
        with TraceWriter(
            tmp_path / "t.jsonl", device=backend.device.name, append=True
        ) as w:
            w.write_measurements(backend.measure(get_benchmark("k-NN"), SETTINGS))
        assert ReplayBackend(tmp_path / "t.jsonl").kernels() == ["MT", "k-NN"]

    def test_append_rejects_other_device(self, tmp_path):
        with TraceWriter(tmp_path / "t.jsonl", device="NVIDIA GTX Titan X"):
            pass
        with pytest.raises(ReplayError, match="append"):
            TraceWriter(tmp_path / "t.jsonl", device="NVIDIA Tesla P100", append=True)

    def test_repeated_kernel_records_merge_on_read(self, tmp_path):
        spec = get_benchmark("MT")
        backend = SimulatorBackend()
        with TraceWriter(tmp_path / "t.jsonl", device=backend.device.name) as w:
            w.write_measurements(backend.measure(spec, SETTINGS[:4]))
            w.write_measurements(backend.measure(spec, SETTINGS[4:]))
        merged = ReplayBackend(tmp_path / "t.jsonl").measure(spec, SETTINGS)
        assert merged.configs == SETTINGS
        direct = backend.measure(spec, SETTINGS)
        assert np.array_equal(merged.time_ms, direct.time_ms)
        # And the sequential reader yields the two raw records.
        assert len(scan_stream_records(tmp_path / "t.jsonl")[1]) == 2

    def test_incremental_recording_backend(self, tmp_path):
        spec = get_benchmark("MT")
        path = tmp_path / "t.jsonl"
        partial = tmp_path / "t.jsonl.partial"
        with RecordingBackend(SimulatorBackend(), stream=path) as rec:
            rec.measure(spec, SETTINGS)
            # Already on disk in the partial stream, before close…
            assert ReplayBackend(partial).kernels() == [spec.name]
            # …and published at the path only by a clean close.
            assert not path.exists()
        assert ReplayBackend(path).kernels() == [spec.name]
        assert not partial.exists()

    def test_failed_recording_publishes_nothing(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with pytest.raises(RuntimeError, match="boom"):
            with RecordingBackend(SimulatorBackend(), stream=path) as rec:
                rec.measure(get_benchmark("MT"), SETTINGS)
                raise RuntimeError("boom")
        assert not path.exists()

    def test_directory_is_not_a_trace_path(self, tmp_path):
        target = tmp_path / "traces"
        target.mkdir()
        with pytest.raises(ReplayError, match="Is a directory"):
            RecordingBackend(SimulatorBackend(), stream=target)
        with pytest.raises(ReplayError, match="Is a directory"):
            TraceWriter(target, device="NVIDIA GTX Titan X", atomic=True)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["traces"]

    def test_corrupt_record_reported_with_offset(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceWriter(path, device="NVIDIA GTX Titan X"):
            pass
        header_bytes = path.stat().st_size
        with path.open("a") as handle:
            handle.write("{not json\n")
        for read in (scan_trace_offsets, scan_stream_records):
            with pytest.raises(ReplayError, match=f"at byte {header_bytes} is corrupt"):
                read(path)


class TestOutOfCoreReplay:
    def test_lazy_kernel_loading(self, recorded):
        replay = ReplayBackend(recorded, max_cached_kernels=1)
        stream = replay._stream
        assert len(stream._cache) == 0  # nothing materialized yet
        replay.measure(SPECS[0], SETTINGS)
        replay.measure(SPECS[1], SETTINGS)
        assert len(stream._cache) == 1  # bounded: older kernel was dropped

    def test_out_of_core_matches_materialized(self, recorded):
        lazy = build_training_dataset(
            ReplayBackend(recorded, max_cached_kernels=1), SPECS, SETTINGS
        )
        eager = build_training_dataset(SimulatorBackend(), SPECS, SETTINGS)
        assert np.array_equal(lazy.x, eager.x)
        assert np.array_equal(lazy.y_speedup, eager.y_speedup)
        assert np.array_equal(lazy.y_energy, eager.y_energy)
