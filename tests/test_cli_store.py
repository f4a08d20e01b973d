"""CLI store maintenance: `repro traces`, `repro store compact`, replay LRU."""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import main
from repro.measure import TraceWriter, sidecar_path
from repro.measure.trace_registry import TraceRegistry
from repro.store.layout import MODELS_SUBDIR, TRACES_SUBDIR

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


@pytest.fixture()
def store(tmp_path):
    root = tmp_path / "store"
    assert main([
        "campaign", "--devices", "titan-x", "--quick", "--no-progress",
        "--store", str(root),
    ]) == 0
    return root


def test_traces_compact_then_replay_train(store, tmp_path, capsys):
    # The campaign auto-compacted its published leg: v3, fresh, no
    # maintenance needed.
    assert main(["traces", "--store", str(store)]) == 0
    out = capsys.readouterr().out
    assert "v3" in out
    assert "fresh" in out

    # Drop the sidecar: the store falls back to plain v2 JSONL ...
    registry = TraceRegistry(store / TRACES_SUBDIR)
    (slug,) = registry.entries()
    sidecar_path(registry.path_for_slug(slug)).unlink()
    assert main(["traces", "--store", str(store)]) == 0
    out = capsys.readouterr().out
    assert "v2" in out
    assert "none" in out

    # ... and one maintenance pass rebuilds it, leaving the layout flat.
    assert main(["store", "compact", "--store", str(store)]) == 0
    out = capsys.readouterr().out
    assert "compacted 1/1" in out
    assert sorted(p.name for p in registry.root.iterdir()) == [
        f"{slug}.jsonl",
        f"{slug}.jsonl.npz",
    ]

    assert main(["traces", "--store", str(store)]) == 0
    out = capsys.readouterr().out
    assert "v3" in out
    assert "fresh" in out

    # A second maintenance pass is a no-op.
    assert main(["store", "compact", "--store", str(store)]) == 0
    assert "compacted 0/1" in capsys.readouterr().out

    # Replay training off the compacted store — with the kernel-cache
    # LRU bound threaded through the CLI.
    artifact = tmp_path / "replayed.json"
    assert main([
        "train", "--quick", "--backend", "replay",
        "--trace-key", "titan-x/quick", "--store", str(store),
        "--max-cached-kernels", "2", "--save", str(artifact),
    ]) == 0
    assert artifact.exists()


def test_traces_reports_delta_tail_until_recompacted(store, capsys):
    assert main(["store", "compact", "--store", str(store)]) == 0
    capsys.readouterr()

    registry = TraceRegistry(store / TRACES_SUBDIR)
    (slug,) = registry.entries()
    trace_path = registry.path_for_slug(slug)
    with TraceWriter(
        trace_path, device="NVIDIA GTX Titan X", append=True
    ) as writer:
        writer.write_kernel(
            "appended-later",
            _kernel_trace(),
        )

    assert main(["traces", "--store", str(store)]) == 0
    assert "tail" in capsys.readouterr().out

    assert main(["store", "compact", "--store", str(store)]) == 0
    assert "compacted 1/1" in capsys.readouterr().out
    assert main(["traces", "--store", str(store)]) == 0
    assert "fresh" in capsys.readouterr().out


def _kernel_trace():
    from repro.measure import KernelTrace

    return KernelTrace(
        baseline_core_mhz=1000.0,
        baseline_mem_mhz=3500.0,
        baseline_time_ms=1.0,
        baseline_power_w=100.0,
        baseline_energy_j=0.1,
        configs=[(500.0, 3500.0)],
        time_ms=[2.0],
        power_w=[60.0],
        energy_j=[0.12],
    )


def test_traces_empty_store_is_a_usage_error(tmp_path, capsys):
    assert main(["traces", "--store", str(tmp_path)]) == 2
    assert "no recorded traces" in capsys.readouterr().err


def test_maintenance_refuses_to_conjure_a_store(tmp_path, capsys):
    """A typo'd --store must error out, not leave a store skeleton behind."""
    missing = tmp_path / "typo"
    assert main(["store", "compact", "--store", str(missing)]) == 2
    assert "no campaign store" in capsys.readouterr().err
    assert not missing.exists()
    assert main(["traces", "--store", str(missing)]) == 2
    assert "no campaign store" in capsys.readouterr().err
    assert not missing.exists()


def _bucket_like_older_compact(registry_root, suffix):
    """Move a flat registry into the two-hex-digit bucket layout (with its
    ``.sharded`` marker) that older ``repro store compact`` runs left."""
    (registry_root / ".sharded").touch()
    for path in sorted(registry_root.glob(f"*{suffix}")):
        slug = path.name[: -len(suffix)]
        bucket = registry_root / hashlib.sha256(slug.encode()).hexdigest()[:2]
        bucket.mkdir(exist_ok=True)
        for item in [path, *sorted(registry_root.glob(f"{path.name}.*"))]:
            item.rename(bucket / item.name)


@pytest.mark.parametrize(
    "argv",
    [
        ["serve-status"],
        ["train", "--quick", "--backend", "replay", "--trace-key", "titan-x/quick"],
    ],
    ids=["serve-status", "replay-train"],
)
def test_bucketed_store_fails_cleanly(store, tmp_path, argv):
    """Only flat registries are read; a bucketed store is a one-line error."""
    _bucket_like_older_compact(store / TRACES_SUBDIR, ".jsonl")
    _bucket_like_older_compact(store / MODELS_SUBDIR, ".json")
    if argv[0] == "train":
        argv = [*argv, "--save", str(tmp_path / "m.json")]
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv, "--store", str(store)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    errors = [line for line in done.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1, done.stderr
