"""CLI device/backend threading: --device, --backend, --trace, --record-trace."""

import json

import pytest

from repro.cli import main

SAXPY = """
__kernel void saxpy(__global float* x, __global float* y, float a) {
    int i = get_global_id(0);
    y[i] = a * x[i] + y[i];
}
"""


@pytest.fixture()
def kernel_file(tmp_path):
    path = tmp_path / "saxpy.cl"
    path.write_text(SAXPY)
    return path


def test_train_meta_names_simulator_backend(tmp_path):
    artifact = tmp_path / "m.json"
    assert main(["train", "--quick", "--save", str(artifact)]) == 0
    assert json.loads(artifact.read_text())["meta"]["backend"] == "simulator"


def test_undecodable_model_is_a_usage_error(tmp_path, kernel_file, capsys):
    artifact = tmp_path / "m.json"
    assert main(["train", "--quick", "--save", str(artifact)]) == 0
    envelope = json.loads(artifact.read_text())
    envelope["payload"]["scaler"]["kind"] = "welford_scaler"
    artifact.write_text(json.dumps(envelope))
    capsys.readouterr()
    assert main(["predict", str(kernel_file), "--model", str(artifact)]) == 2
    assert capsys.readouterr().err == (
        f"error: artifact {artifact} is not a loadable model bundle: "
        "unknown scaler kind 'welford_scaler'\n"
    )


@pytest.mark.parametrize(
    "model, path, kind, detail",
    [
        ("speedup_model", (), "ols", "unknown regressor kind 'ols'"),
        ("energy_model", ("kernel",), "poly", "unknown kernel kind 'poly'"),
    ],
    ids=["speedup-ols", "energy-poly-kernel"],
)
def test_model_kind_other_than_the_svr_pair_is_a_usage_error(
    tmp_path, kernel_file, capsys, model, path, kind, detail
):
    """Only the linear and RBF SVRs decode; other kinds are one error line."""
    artifact = tmp_path / "m.json"
    assert main(["train", "--quick", "--save", str(artifact)]) == 0
    envelope = json.loads(artifact.read_text())
    state = envelope["payload"][model]
    for key in path:
        state = state[key]
    state["kind"] = kind
    artifact.write_text(json.dumps(envelope))
    capsys.readouterr()
    assert main(["predict", str(kernel_file), "--model", str(artifact)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: artifact {artifact} is not a loadable model bundle: {detail}\n"
    )


def test_non_interaction_bundle_is_a_usage_error(tmp_path, kernel_file, capsys):
    """A bundle saved without interaction columns is refused, not served."""
    artifact = tmp_path / "m.json"
    assert main(["train", "--quick", "--save", str(artifact)]) == 0
    envelope = json.loads(artifact.read_text())
    envelope["payload"]["interactions"] = False
    artifact.write_text(json.dumps(envelope))
    capsys.readouterr()
    assert main(["predict", str(kernel_file), "--model", str(artifact)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: artifact {artifact} is not a loadable model bundle: "
        "interactions=False: only the interaction design matrix is "
        "supported (retrain the bundle)\n"
    )


def test_train_p100_then_predict_end_to_end(tmp_path, kernel_file, capsys):
    artifact = tmp_path / "p100.json"
    assert main(["train", "--quick", "--device", "tesla-p100",
                 "--save", str(artifact)]) == 0
    meta = json.loads(artifact.read_text())["meta"]
    assert meta["device"] == "NVIDIA Tesla P100"

    assert main(["predict", str(kernel_file), "--model", str(artifact)]) == 0
    out = capsys.readouterr().out
    assert "saxpy" in out
    # Every predicted point sits on the P100's single memory clock.
    assert "715" in out


def test_characterize_device_flag(capsys):
    assert main(["characterize", "MT", "--quick", "--device", "tesla-p100"]) == 0
    out = capsys.readouterr().out
    assert "NVIDIA Tesla P100" in out
    assert "mem-M" in out


def test_record_then_replay_characterize(tmp_path, capsys):
    trace = tmp_path / "mt.json"
    assert main(["characterize", "MT", "--quick",
                 "--record-trace", str(trace)]) == 0
    recorded = capsys.readouterr().out
    assert trace.exists()

    assert main(["characterize", "MT", "--quick",
                 "--backend", "replay", "--trace", str(trace)]) == 0
    replayed = capsys.readouterr().out
    # The replayed sweep prints the exact same series.
    strip = lambda text: [l for l in text.splitlines() if "recorded" not in l]  # noqa: E731
    assert strip(recorded) == strip(replayed)


def test_replay_requires_trace(capsys):
    assert main(["characterize", "MT", "--quick", "--backend", "replay"]) == 2
    assert "--trace" in capsys.readouterr().err


def test_replay_rejects_non_positive_cache_bound(tmp_path, capsys):
    trace = tmp_path / "mt.json"
    assert main(["characterize", "MT", "--quick",
                 "--record-trace", str(trace)]) == 0
    capsys.readouterr()
    assert main(["train", "--quick", "--backend", "replay", "--trace", str(trace),
                 "--max-cached-kernels", "0",
                 "--save", str(tmp_path / "m.json")]) == 2
    assert capsys.readouterr().err == (
        "error: --max-cached-kernels must be >= 1\n"
    )


def test_unknown_device_reports_known_aliases(capsys):
    assert main(["characterize", "MT", "--quick", "--device", "gtx-9999"]) == 2
    err = capsys.readouterr().err
    assert "unknown device" in err
    assert "tesla-p100" in err


def test_nvml_backend_characterize(capsys):
    """The simulator is the only measurement engine: no ``nvml`` backend."""
    with pytest.raises(SystemExit) as exc:
        main(["characterize", "MT", "--quick", "--backend", "nvml"])
    assert exc.value.code == 2
    assert "invalid choice: 'nvml'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag", [["--trace", "t.json"], ["--trace-key", "titan-x/quick"],
             ["--max-cached-kernels", "0"]],
    ids=["trace", "trace-key", "max-cached-kernels"],
)
@pytest.mark.parametrize("command", ["characterize", "train", "predict"])
def test_replay_flags_require_replay_backend(command, flag, tmp_path,
                                             kernel_file, capsys):
    argv = {
        "characterize": ["characterize", "MT"],
        "train": ["train", "--save", str(tmp_path / "m.json")],
        "predict": ["predict", str(kernel_file)],
    }[command]
    assert main([*argv, "--quick", *flag]) == 2
    assert capsys.readouterr().err == (
        f"error: {flag[0]} only applies with --backend replay\n"
    )
    assert not (tmp_path / "m.json").exists()


def test_model_with_backend_flags_rejected(tmp_path, kernel_file, capsys):
    artifact = tmp_path / "m.json"
    assert main(["train", "--quick", "--save", str(artifact)]) == 0
    capsys.readouterr()
    assert main(["predict", str(kernel_file), "--model", str(artifact),
                 "--backend", "replay"]) == 2
    assert "cannot be combined with --model" in capsys.readouterr().err
    assert main(["predict-batch", str(kernel_file), "--model", str(artifact),
                 "--trace", "t.json"]) == 2
    assert "cannot be combined with --model" in capsys.readouterr().err


def test_malformed_trace_missing_key_reports_cleanly(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({"format": "repro.measurement-trace", "version": 2}))
    assert main(["characterize", "MT", "--quick",
                 "--backend", "replay", "--trace", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: trace {bad} header names no device\n"


def test_v1_trace_is_one_error_line(tmp_path, capsys):
    """The original whole-file JSON format is refused, not read."""
    v1 = tmp_path / "v1.json"
    v1.write_text(
        '{"format": "repro.measurement-trace", "version": 1, '
        '"device": "NVIDIA GTX Titan X", "kernels": {}}'
    )
    assert main(["train", "--quick", "--backend", "replay", "--trace", str(v1),
                 "--save", str(tmp_path / "m.json")]) == 2
    assert capsys.readouterr().err == (
        "error: unsupported trace stream version 1 "
        "(this build reads only version 2 JSONL streams)\n"
    )
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("where", ["directory", "under-a-file"])
def test_unwritable_record_trace_measures_nothing(tmp_path, capsys, monkeypatch, where):
    import repro.cli

    def no_training(args, setup=None):
        raise AssertionError("training ran")

    monkeypatch.setattr(repro.cli, "_context_for", no_training)
    occupied = tmp_path / "occupied"
    if where == "directory":
        occupied.mkdir()
        target = occupied
    else:
        occupied.write_text("")
        target = occupied / "t.jsonl"
    assert main(["train", "--quick", "--save", str(tmp_path / "m.json"),
                 "--record-trace", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {target}: ") and err.count("\n") == 1
    if where == "directory":
        assert err == f"error: {target}: Is a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["occupied"]


def test_failed_recorded_run_publishes_no_trace(tmp_path, capsys):
    """A replay that cannot serve the sweep leaves nothing at the record path."""
    trace = tmp_path / "mt.jsonl"
    assert main(["characterize", "MT", "--quick",
                 "--record-trace", str(trace)]) == 0
    rerecord = tmp_path / "knn.jsonl"
    assert main(["characterize", "k-NN", "--quick", "--backend", "replay",
                 "--trace", str(trace), "--record-trace", str(rerecord)]) == 2
    assert "kernel 'k-NN' is not in the trace" in capsys.readouterr().err
    assert not rerecord.exists()


def test_devices_lists_aliases_and_grids(capsys):
    assert main(["devices"]) == 0
    out = capsys.readouterr().out
    assert "aliases: gtx-titan-x, titan-x, titanx" in out
    assert "NVIDIA Tesla P100" in out
    assert "219 reported / 177 real configurations" in out


def test_campaign_then_trace_key_replay_train(tmp_path, capsys):
    store = tmp_path / "store"
    assert main(["campaign", "--devices", "titan-x,tesla-p100", "--quick",
                 "--workers", "2", "--store", str(store)]) == 0
    out = capsys.readouterr().out
    assert "nvidia-gtx-titan-x/quick" in out
    assert (store / "traces").exists() and (store / "models").exists()

    artifact = tmp_path / "replayed.json"
    assert main(["train", "--quick", "--backend", "replay",
                 "--trace-key", "titan-x/quick", "--store", str(store),
                 "--save", str(artifact)]) == 0
    meta = json.loads(artifact.read_text())["meta"]
    assert meta["device"] == "NVIDIA GTX Titan X"
    assert meta["backend"] == "replay"


def test_campaign_unknown_device_is_usage_error(capsys):
    assert main(["campaign", "--devices", "gtx-9999"]) == 2
    assert "unknown device" in capsys.readouterr().err


def test_trace_key_without_store_entry_reports_cleanly(tmp_path, capsys):
    assert main(["characterize", "MT", "--quick", "--backend", "replay",
                 "--trace-key", "titan-x/default",
                 "--store", str(tmp_path / "empty")]) == 2
    assert "no recorded trace" in capsys.readouterr().err


def test_trace_and_trace_key_conflict(tmp_path, capsys):
    assert main(["characterize", "MT", "--quick", "--backend", "replay",
                 "--trace", "t.jsonl", "--trace-key", "titan-x/default"]) == 2
    assert "not both" in capsys.readouterr().err


def test_trace_key_with_mismatched_device_rejected(tmp_path, capsys):
    store = tmp_path / "store"
    assert main(["campaign", "--devices", "titan-x", "--quick",
                 "--store", str(store)]) == 0
    capsys.readouterr()
    assert main(["characterize", "MT", "--quick", "--backend", "replay",
                 "--trace-key", "titan-x/quick", "--store", str(store),
                 "--device", "tesla-p100"]) == 2
    assert "recorded on" in capsys.readouterr().err


class TestQuickEnvironment:
    """``REPRO_QUICK=1`` means ``--quick``: a command trains one recipe and
    records that same recipe in its artifact meta."""

    @pytest.mark.parametrize(
        "extra",
        [[], ["--features", "paper10-raw"], ["--record-trace", "trace.json"]],
        ids=["default", "named-features", "record-trace"],
    )
    def test_train_records_the_recipe_it_trained(
        self, tmp_path, monkeypatch, capsys, extra
    ):
        monkeypatch.setenv("REPRO_QUICK", "1")
        monkeypatch.chdir(tmp_path)
        artifact = tmp_path / "m.json"
        assert main(["train", "--save", str(artifact), *extra]) == 0
        assert json.loads(artifact.read_text())["meta"]["recipe"] == "quick"
        assert "(36 codes x 24 settings)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command",
        [["predict", "KERNEL"], ["predict-batch", "KERNEL"], ["characterize", "MT"]],
        ids=lambda argv: argv[0],
    )
    def test_environment_matches_the_flag(
        self, kernel_file, monkeypatch, capsys, command
    ):
        argv = [str(kernel_file) if a == "KERNEL" else a for a in command]
        assert main([*argv, "--quick"]) == 0
        flagged = capsys.readouterr().out
        monkeypatch.setenv("REPRO_QUICK", "1")
        assert main(argv) == 0
        assert capsys.readouterr().out == flagged
