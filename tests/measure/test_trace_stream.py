"""JSONL trace streams: v2 writer/reader, v1 compatibility, out-of-core replay."""

import json

import numpy as np
import pytest

from repro.core.config import sample_training_settings
from repro.core.dataset import build_training_dataset
from repro.gpusim.device import make_titan_x
from repro.measure import (
    TRACE_VERSION,
    TRACE_VERSION_V1,
    RecordingBackend,
    ReplayBackend,
    ReplayError,
    SimulatorBackend,
    TraceWriter,
    iter_trace,
    load_trace,
    read_trace_header,
    save_trace,
)
from repro.suite import get_benchmark
from repro.synthetic.generator import generate_micro_benchmarks

SETTINGS = sample_training_settings(make_titan_x(), total=10)


@pytest.fixture()
def recorded():
    rec = RecordingBackend(SimulatorBackend())
    for spec in generate_micro_benchmarks()[::40]:
        rec.measure(spec, SETTINGS)
    return rec.trace


def save_v1(path, trace):
    """A legacy v1 whole-file trace, byte for byte as the old writer made it."""
    path.write_text(json.dumps(trace.to_state(), indent=1))
    return path


class TestFormatRoundTrip:
    def test_jsonl_and_v1_round_trip_equal(self, tmp_path, recorded):
        """The satellite bar: JSONL ↔ v1-JSON traces are interchangeable."""
        p2 = save_trace(tmp_path / "t.jsonl", recorded)
        p1 = save_v1(tmp_path / "t.json", recorded)
        t2, t1 = load_trace(p2), load_trace(p1)
        assert t2.device == t1.device == recorded.device
        assert set(t2.kernels) == set(t1.kernels)
        for name in t2.kernels:
            assert t2.kernels[name].configs == t1.kernels[name].configs
            assert t2.kernels[name].time_ms == t1.kernels[name].time_ms
            assert t2.kernels[name].power_w == t1.kernels[name].power_w
            assert t2.kernels[name].energy_j == t1.kernels[name].energy_j

    def test_jsonl_layout_is_one_record_per_line(self, tmp_path, recorded):
        path = save_trace(tmp_path / "t.jsonl", recorded)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["version"] == TRACE_VERSION
        assert header["device"] == recorded.device
        assert len(lines) == 1 + len(recorded.kernels)
        assert all("kernel" in json.loads(line) for line in lines[1:])

    def test_replay_identical_from_both_formats(self, tmp_path, recorded):
        specs = generate_micro_benchmarks()[::40]
        p2 = save_trace(tmp_path / "t.jsonl", recorded)
        p1 = save_v1(tmp_path / "t.json", recorded)
        d2 = build_training_dataset(ReplayBackend(p2), specs, SETTINGS)
        d1 = build_training_dataset(ReplayBackend(p1), specs, SETTINGS)
        assert np.array_equal(d1.x, d2.x)
        assert np.array_equal(d1.y_speedup, d2.y_speedup)
        assert np.array_equal(d1.y_energy, d2.y_energy)

    def test_header_readable_for_both(self, tmp_path, recorded):
        p2 = save_trace(tmp_path / "t.jsonl", recorded)
        p1 = save_v1(tmp_path / "t.json", recorded)
        assert read_trace_header(p2)["device"] == recorded.device
        assert read_trace_header(p1)["version"] == TRACE_VERSION_V1

    def test_future_stream_version_reported_as_such(self, tmp_path, recorded):
        """A v3 stream must say 'unsupported version', not 'not valid JSON'."""
        path = save_trace(tmp_path / "t.jsonl", recorded)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["version"] = 3
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(ReplayError, match="unsupported trace stream version 3"):
            ReplayBackend(path)
        with pytest.raises(ReplayError, match="unsupported trace stream version 3"):
            load_trace(path)


class TestStreamingWriter:
    def test_records_are_durable_before_close(self, tmp_path):
        spec = get_benchmark("MT")
        backend = SimulatorBackend()
        writer = TraceWriter(tmp_path / "t.jsonl", device=backend.device.name)
        writer.write_measurements(backend.measure(spec, SETTINGS))
        # Readable mid-stream: the writer flushed the record already.
        names = [name for name, _ in iter_trace(tmp_path / "t.jsonl")]
        assert names == [spec.name]
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
        assert sorted(load_trace(tmp_path / "t.jsonl").kernels) == ["MT", "k-NN"]

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
        merged = load_trace(tmp_path / "t.jsonl").kernels[spec.name]
        assert merged.configs == SETTINGS
        # And the streaming view yields the two raw records.
        assert sum(1 for _ in iter_trace(tmp_path / "t.jsonl")) == 2

    def test_incremental_recording_backend(self, tmp_path):
        spec = get_benchmark("MT")
        with RecordingBackend(
            SimulatorBackend(), stream=tmp_path / "t.jsonl"
        ) as rec:
            rec.measure(spec, SETTINGS)
            # Already on disk, before close/save.
            assert (tmp_path / "t.jsonl").stat().st_size > 0
            assert ReplayBackend(tmp_path / "t.jsonl").kernels() == [spec.name]
            # Streaming mode keeps no in-memory trace (O(1) for campaigns)…
            assert rec.trace.kernels == {}
            with pytest.raises(ReplayError, match="nothing to save"):
                rec.save(tmp_path / "copy.jsonl")

    def test_stream_with_keep_in_memory_allows_save(self, tmp_path):
        spec = get_benchmark("MT")
        with RecordingBackend(
            SimulatorBackend(), stream=tmp_path / "t.jsonl", keep_in_memory=True
        ) as rec:
            rec.measure(spec, SETTINGS)
        saved = rec.save(tmp_path / "copy.jsonl")
        assert load_trace(saved).kernels.keys() == {spec.name}

    def test_corrupt_record_reported_with_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceWriter(path, device="NVIDIA GTX Titan X"):
            pass
        with path.open("a") as handle:
            handle.write("{not json\n")
        with pytest.raises(ReplayError, match="line 2"):
            list(iter_trace(path))


class TestOutOfCoreReplay:
    def test_lazy_kernel_loading(self, tmp_path, recorded):
        path = save_trace(tmp_path / "t.jsonl", recorded)
        replay = ReplayBackend(path, max_cached_kernels=1)
        stream = replay._stream
        assert stream is not None
        assert len(stream._cache) == 0  # nothing materialized yet
        specs = generate_micro_benchmarks()[::40]
        replay.measure(specs[0], SETTINGS)
        replay.measure(specs[1], SETTINGS)
        assert len(stream._cache) == 1  # bounded: older kernel was dropped

    def test_out_of_core_matches_materialized(self, tmp_path, recorded):
        path = save_trace(tmp_path / "t.jsonl", recorded)
        specs = generate_micro_benchmarks()[::40]
        lazy = build_training_dataset(
            ReplayBackend(path, max_cached_kernels=1), specs, SETTINGS
        )
        eager = build_training_dataset(
            ReplayBackend(load_trace(path)), specs, SETTINGS
        )
        assert np.array_equal(lazy.x, eager.x)
        assert np.array_equal(lazy.y_speedup, eager.y_speedup)
        assert np.array_equal(lazy.y_energy, eager.y_energy)
