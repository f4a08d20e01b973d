"""The measurement-backend protocol and its implementations."""

import numpy as np
import pytest

from repro.core.dataset import build_training_dataset
from repro.gpusim.device import make_tesla_p100, make_titan_x, resolve_device
from repro.gpusim.executor import GPUSimulator
from repro.measure import (
    MeasurementBackend,
    RecordingBackend,
    ReplayBackend,
    ReplayError,
    SimulatorBackend,
    as_backend,
    scan_stream_records,
)
from repro.core.config import sample_training_settings
from repro.suite import get_benchmark
from repro.synthetic.generator import generate_micro_benchmarks

#: A small sample spanning all four Titan X memory domains.
SETTINGS = sample_training_settings(make_titan_x(), total=10)


@pytest.fixture()
def spec():
    return get_benchmark("MT")


def record(path, backend, spec, configs):
    """Stream one sweep of ``spec`` into a trace at ``path``."""
    with RecordingBackend(backend, stream=path) as rec:
        rec.measure(spec, configs)
    return path


class TestProtocol:
    def test_all_backends_satisfy_protocol(self, tmp_path, spec):
        sim_b = SimulatorBackend()
        path = record(tmp_path / "t.jsonl", sim_b, spec, SETTINGS)
        with RecordingBackend(sim_b, stream=tmp_path / "r.jsonl") as rec:
            for backend in (sim_b, ReplayBackend(path), rec):
                assert isinstance(backend, MeasurementBackend)
                assert backend.device.name == "NVIDIA GTX Titan X"

    def test_capability_kinds(self, tmp_path, spec):
        sim_b = SimulatorBackend(make_tesla_p100())
        assert sim_b.kind == "simulator"
        with RecordingBackend(sim_b, stream=tmp_path / "t.jsonl") as rec:
            assert rec.kind == "simulator"
            assert rec.device is sim_b.device
            rec.measure(spec, [(544.0, 715.0)])
        rep = ReplayBackend(rec.stream_path)
        assert rep.kind == "replay"
        assert rep.device.name == "NVIDIA Tesla P100"
        # A recorder forwards whatever it wraps, replay included.
        with RecordingBackend(rep, stream=tmp_path / "r.jsonl") as rerec:
            assert rerec.kind == "replay"

    def test_as_backend_wraps_simulator(self):
        sim = GPUSimulator()
        backend = as_backend(sim)
        assert isinstance(backend, SimulatorBackend)
        assert backend.sim is sim

    def test_as_backend_passes_backends_through(self):
        backend = SimulatorBackend()
        assert as_backend(backend) is backend

    def test_as_backend_rejects_junk(self):
        with pytest.raises(TypeError):
            as_backend(42)


class TestSimulatorBackend:
    def test_device_parameterized(self, spec):
        p100 = SimulatorBackend(make_tesla_p100())
        m = p100.measure(spec, [(1328.0, 715.0), (544.0, 715.0)])
        assert m.baseline.config == (1328.0, 715.0)
        assert len(m) == 2

    def test_rejects_device_and_simulator(self):
        with pytest.raises(ValueError):
            SimulatorBackend(device=make_titan_x(), sim=GPUSimulator())

    def test_points_view_matches_columns(self, spec):
        m = SimulatorBackend().measure(spec, SETTINGS)
        assert [p.config for p in m.points] == SETTINGS
        assert [p.speedup for p in m.points] == m.speedup.tolist()


class TestReplay:
    def test_round_trip_training_dataset_exact(self, tmp_path):
        """Recorded → saved → replayed training matrices are exact."""
        specs = generate_micro_benchmarks()[::20]
        path = tmp_path / "trace.jsonl"
        with RecordingBackend(SimulatorBackend(), stream=path) as rec:
            direct = build_training_dataset(rec, specs, SETTINGS)

        replayed = build_training_dataset(ReplayBackend(path), specs, SETTINGS)
        assert np.array_equal(direct.x, replayed.x)
        assert np.array_equal(direct.y_speedup, replayed.y_speedup)
        assert np.array_equal(direct.y_energy, replayed.y_energy)
        assert direct.groups == replayed.groups

    def test_trace_json_round_trip(self, tmp_path, spec):
        measured = SimulatorBackend().measure(spec, SETTINGS)
        path = record(tmp_path / "t.jsonl", SimulatorBackend(), spec, SETTINGS)
        header, records = scan_stream_records(path)
        assert header["device"] == "NVIDIA GTX Titan X"
        assert [r.name for r in records] == [spec.name]
        kernel = records[0].kernel
        assert kernel.configs == SETTINGS
        assert kernel.time_ms == measured.time_ms.tolist()

    def test_subset_and_reordered_replay(self, tmp_path, spec):
        path = record(tmp_path / "t.jsonl", SimulatorBackend(), spec, SETTINGS)
        rep = ReplayBackend(path)
        subset = [SETTINGS[3], SETTINGS[0]]
        m = rep.measure(spec, subset)
        assert m.configs == subset
        full = SimulatorBackend().measure(spec, SETTINGS)
        assert m.time_ms[1] == full.time_ms[0]

    def test_unknown_kernel_rejected(self, tmp_path, spec):
        rep = ReplayBackend(
            record(tmp_path / "t.jsonl", SimulatorBackend(), spec, SETTINGS)
        )
        with pytest.raises(ReplayError):
            rep.measure(get_benchmark("k-NN"), SETTINGS)

    def test_unrecorded_config_rejected(self, tmp_path, spec):
        rep = ReplayBackend(
            record(tmp_path / "t.jsonl", SimulatorBackend(), spec, SETTINGS[:2])
        )
        with pytest.raises(ReplayError):
            rep.measure(spec, [SETTINGS[4]])

    def test_bad_version_rejected(self, tmp_path, spec):
        path = record(tmp_path / "t.jsonl", SimulatorBackend(), spec, SETTINGS[:1])
        lines = path.read_text().splitlines(keepends=True)
        lines[0] = lines[0].replace('"version":2', '"version":99')
        path.write_text("".join(lines))
        with pytest.raises(ReplayError, match="unsupported trace stream version 99"):
            ReplayBackend(path)

    def test_device_mismatch_rejected(self, tmp_path, spec):
        path = record(tmp_path / "t.jsonl", SimulatorBackend(), spec, SETTINGS[:1])
        with pytest.raises(ReplayError, match="recorded on"):
            ReplayBackend(path, device=make_tesla_p100())

    def test_non_trace_json_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{}")
        with pytest.raises(ReplayError):
            ReplayBackend(path)


class TestDeviceAliases:
    def test_full_name_and_aliases_resolve(self):
        titan = resolve_device("NVIDIA GTX Titan X")
        assert resolve_device("titan-x") is titan
        assert resolve_device("Titan X") is titan
        assert resolve_device("tesla-p100").name == "NVIDIA Tesla P100"
        assert resolve_device("p100").name == "NVIDIA Tesla P100"
        assert resolve_device("nvidia-tesla-p100").name == "NVIDIA Tesla P100"

    def test_unknown_alias_raises_with_listing(self):
        with pytest.raises(KeyError, match="aliases"):
            resolve_device("gtx-9999")
