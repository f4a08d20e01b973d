"""TraceRegistry: keyed trace files, alias-stable slugs, streaming writers."""

import numpy as np
import pytest

from repro.core.config import sample_training_settings
from repro.core.dataset import build_training_dataset
from repro.gpusim.device import make_titan_x
from repro.gpusim.noise import NoiseConfig
from repro.measure import (
    RecordingBackend,
    ReplayBackend,
    ReplayError,
    SimulatorBackend,
    TraceKey,
    TraceRegistry,
    noise_settings_hash,
    scan_stream_records,
)
from repro.measure.trace_registry import DEFAULT_NOISE_HASH
from repro.synthetic.generator import generate_micro_benchmarks

SETTINGS = sample_training_settings(make_titan_x(), total=8)
SPECS = generate_micro_benchmarks()[::40]


def seed_trace(registry, key):
    """Record every spec into ``key``'s trace through the registry writer."""
    with registry.writer(key) as writer:
        rec = RecordingBackend(SimulatorBackend(), stream=writer)
        for spec in SPECS:
            rec.measure(spec, SETTINGS)


class TestTraceKey:
    def test_slug_is_alias_stable(self):
        assert (
            TraceKey(device="titan-x").slug
            == TraceKey(device="NVIDIA GTX Titan X").slug
        )
        assert TraceKey(device="p100").slug == TraceKey(device="tesla-p100").slug

    def test_parse_shorthand(self):
        key = TraceKey.parse("titan-x/default")
        assert key.device_spec().name == "NVIDIA GTX Titan X"
        assert key.suite == "default"
        assert key.noise == DEFAULT_NOISE_HASH

    def test_parse_full_and_partial(self):
        assert TraceKey.parse("p100").suite == "default"
        key = TraceKey.parse("p100/micro/abc123")
        assert (key.suite, key.noise) == ("micro", "abc123")

    def test_parse_rejects_junk(self):
        with pytest.raises(ReplayError, match="unknown device"):
            TraceKey.parse("gtx-9999/default")
        with pytest.raises(ReplayError, match="bad trace key"):
            TraceKey.parse("a/b/c/d")

    def test_noise_hash_distinguishes_configs(self):
        assert noise_settings_hash() == DEFAULT_NOISE_HASH
        assert noise_settings_hash(NoiseConfig(time_sigma=0.5)) != DEFAULT_NOISE_HASH

    def test_display_round_trips_through_parse(self):
        key = TraceKey(device="tesla-p100", suite="micro")
        assert TraceKey.parse(key.display()).slug == key.slug


class TestRegistry:
    def test_missing_key_lists_recorded(self, tmp_path):
        registry = TraceRegistry(tmp_path)
        with pytest.raises(ReplayError, match="no recorded trace"):
            registry.resolve(TraceKey(device="titan-x"))

    def test_streaming_writer_lands_in_registry(self, tmp_path):
        registry = TraceRegistry(tmp_path)
        key = TraceKey(device="titan-x", suite="stream")
        backend = SimulatorBackend()
        with registry.writer(key) as writer:
            rec = RecordingBackend(backend, stream=writer)
            direct = build_training_dataset(rec, SPECS, SETTINGS)
        assert key in registry
        assert registry.path_for(key) == tmp_path / f"{key.slug}.jsonl"
        assert registry.entries() == [key.slug]
        header, _records = scan_stream_records(registry.resolve(key))
        assert header["meta"]["suite"] == "stream"

        replayed = build_training_dataset(
            ReplayBackend(registry.resolve(key)), SPECS, SETTINGS
        )
        assert np.array_equal(direct.x, replayed.x)
        assert np.array_equal(direct.y_speedup, replayed.y_speedup)
        assert np.array_equal(direct.y_energy, replayed.y_energy)

    def test_failed_rewrite_preserves_previous_trace(self, tmp_path):
        """A crash mid-campaign must not destroy the last good artifact."""
        registry = TraceRegistry(tmp_path)
        key = TraceKey(device="titan-x")
        seed_trace(registry, key)
        with pytest.raises(RuntimeError, match="boom"):
            with registry.writer(key) as writer:
                RecordingBackend(SimulatorBackend(), stream=writer).measure(
                    SPECS[0], SETTINGS[:2]
                )
                raise RuntimeError("boom")
        # The registry still serves the complete pre-crash trace; the
        # partial stream is parked beside it for forensics.
        assert len(ReplayBackend(registry.resolve(key)).kernels()) == len(SPECS)
        assert registry.partial_path_for(key).exists()

    def test_open_backend_accepts_string_keys(self, tmp_path):
        registry = TraceRegistry(tmp_path)
        seed_trace(registry, TraceKey(device="titan-x"))
        replay = ReplayBackend(registry.resolve("titan-x/default"))
        assert replay.device.name == "NVIDIA GTX Titan X"
        assert len(replay.kernels()) == len(SPECS)

    def test_iter_kernels_streams(self, tmp_path):
        registry = TraceRegistry(tmp_path)
        seed_trace(registry, TraceKey(device="titan-x"))
        _header, records = scan_stream_records(registry.resolve("titan-x"))
        names = [r.name for r in records]
        assert sorted(names) == sorted(s.name for s in SPECS)
