"""Tests for the CLI and the KernelSpec workload bridge."""

import pytest

from repro.clkernel.lexer import MAX_TOKENS
from repro.cli import build_parser, main
from repro.gpusim.profile import DynamicTraits
from repro.workloads import KernelSpec
from tests.analysis.test_diagnostics import OVERFLOW

KERNEL = """
__kernel void demo(__global const float* x, __global float* y, const int n) {
    int gid = get_global_id(0);
    float acc = x[gid];
    for (int i = 0; i < 32; i++) {
        acc = acc * 1.01f + 0.5f;
    }
    y[gid] = sqrt(acc);
}
"""


@pytest.fixture()
def kernel_file(tmp_path):
    path = tmp_path / "demo.cl"
    path.write_text(KERNEL)
    return str(path)


class TestCLI:
    def test_features_command(self, kernel_file, capsys):
        assert main(["features", kernel_file]) == 0
        out = capsys.readouterr().out
        assert "float_mul" in out
        assert "kernel: demo" in out

    def test_devices_command(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "Titan X" in out
        assert "P100" in out
        assert "mem-L" in out

    def test_predict_quick(self, kernel_file, capsys):
        assert main(["predict", "--quick", kernel_file]) == 0
        out = capsys.readouterr().out
        assert "Pareto set" in out
        assert "mem-L heuristic" in out

    def test_characterize_quick(self, capsys):
        assert main(["characterize", "--quick", "MT"]) == 0
        out = capsys.readouterr().out
        assert "memory-dominated" in out

    def test_characterize_unknown_benchmark(self, capsys):
        assert main(["characterize", "--quick", "nope"]) == 2

    def test_characterize_unknown_benchmark_is_a_usage_error(self, capsys):
        assert main(["characterize", "--quick", "nope"]) == 2
        assert capsys.readouterr().err.startswith("error: unknown benchmark")

    @pytest.mark.parametrize("command", [["features"], ["predict", "--quick"]])
    def test_missing_kernel_file_names_the_path(self, tmp_path, capsys, command):
        missing = tmp_path / "missing.cl"
        assert main([*command, str(missing)]) == 2
        assert capsys.readouterr().err == (
            f"error: No such file or directory: {missing}\n"
        )

    def test_table2_quick(self, capsys):
        assert main(["table2", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "D(P*,P')" in out
        assert "k-NN" in out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--quick", "--trainer", "streaming"],
            ["campaign", "--quick", "--devices", "titan-x", "--batch-rows", "8"],
        ],
        ids=["train-trainer", "campaign-batch-rows"],
    )
    def test_trainer_flags_are_usage_errors(self, tmp_path, capsys, argv):
        flag = "--save" if argv[0] == "train" else "--store"
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, flag, str(tmp_path / "out")])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_train_rejects_unknown_trainer(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["train", "--save", "x.json", "--trainer", "bogus"]
            )


class TestKernelSpec:
    def make_spec(self, **kwargs):
        defaults = dict(name="demo", source=KERNEL, work_items=1 << 16)
        defaults.update(kwargs)
        return KernelSpec(**defaults)

    def test_static_features_renamed_to_spec(self):
        spec = self.make_spec(name="my-workload")
        assert spec.static_features().kernel_name == "my-workload"

    def test_profile_carries_spec_name(self):
        spec = self.make_spec(name="my-workload")
        assert spec.profile().name == "my-workload"

    def test_profile_uses_traits(self):
        traits = DynamicTraits(cache_hit_rate=0.9)
        spec = self.make_spec(traits=traits)
        assert spec.profile().traits.cache_hit_rate == 0.9

    def test_trip_count_hint_changes_profile_not_features(self):
        unbounded = """
        __kernel void f(__global float* x, const int n) {
            float a = 0.0f;
            for (int i = 0; i < n; i++) { a = a + 1.0f; }
            x[0] = a;
        }
        """
        small = KernelSpec(name="s", source=unbounded, work_items=64, trip_count_hint=4)
        large = KernelSpec(name="l", source=unbounded, work_items=64, trip_count_hint=400)
        assert large.profile().op("float_add") > small.profile().op("float_add")
        # Static features never see the hint (they use the extractor default).
        assert small.static_features().values == large.static_features().values

    def test_lower_exposes_ir(self):
        assert self.make_spec().lower().name == "demo"

    def test_spec_runs_on_simulator(self):
        from repro.gpusim import GPUSimulator

        sim = GPUSimulator()
        record = sim.run_default(self.make_spec().profile())
        assert record.time_ms > 0


def _one_error_line(capsys) -> str:
    """The command's stderr, asserted to be exactly one ``error:`` line."""
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    return err


class TestInputReadingErrors:
    """Every kernel source and --requests file is read one way: an
    unreadable or undecodable input is one ``error: <path>: ...`` line
    with exit status 2, never a traceback."""

    COMMANDS = [["features"], ["predict", "--quick"], ["predict-batch", "--quick"]]

    @pytest.fixture()
    def not_utf8(self, tmp_path):
        path = tmp_path / "latin1.cl"
        path.write_bytes(KERNEL.replace("demo", "d\xe9mo").encode("latin-1"))
        return path

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_directory_is_a_usage_error(self, tmp_path, capsys, command):
        assert main([*command, str(tmp_path)]) == 2
        assert _one_error_line(capsys) == f"error: {tmp_path}: Is a directory\n"

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_non_utf8_source_is_a_usage_error(self, not_utf8, capsys, command):
        assert main([*command, str(not_utf8)]) == 2
        err = _one_error_line(capsys)
        assert err.startswith(f"error: {not_utf8}: ")
        assert "UTF-8" in err

    def test_requests_file_is_read_the_same_way(self, tmp_path, not_utf8, capsys):
        for path in (tmp_path, not_utf8):
            argv = ["predict-batch", "--quick", "--requests", str(path)]
            assert main(argv) == 2
            assert _one_error_line(capsys).startswith(f"error: {path}: ")

    def test_lint_unreadable_path_is_a_usage_error(self, tmp_path, not_utf8, capsys):
        assert main(["lint", str(tmp_path)]) == 2
        assert _one_error_line(capsys) == f"error: {tmp_path}: Is a directory\n"
        assert main(["lint", str(not_utf8)]) == 2
        err = _one_error_line(capsys)
        assert err.startswith(f"error: {not_utf8}: ") and "UTF-8" in err
        assert main(["lint", str(tmp_path / "absent.cl")]) == 2
        assert "absent.cl" in _one_error_line(capsys)

    def test_replay_trace_directory_is_a_usage_error(self, tmp_path, capsys):
        argv = ["characterize", "MT", "--quick", "--backend", "replay"]
        assert main([*argv, "--trace", str(tmp_path)]) == 2
        assert _one_error_line(capsys) == f"error: {tmp_path}: Is a directory\n"

    def test_replay_trace_not_utf8_is_a_usage_error(self, not_utf8, capsys):
        argv = ["characterize", "MT", "--quick", "--backend", "replay"]
        assert main([*argv, "--trace", str(not_utf8)]) == 2
        assert _one_error_line(capsys) == f"error: {not_utf8}: not UTF-8 text\n"

    def test_train_save_to_a_directory_trains_nothing(self, tmp_path, capsys, monkeypatch):
        import repro.cli

        def no_training(args):
            raise AssertionError("training ran")

        monkeypatch.setattr(repro.cli, "_context_for", no_training)
        assert main(["train", "--quick", "--save", str(tmp_path)]) == 2
        assert _one_error_line(capsys) == f"error: {tmp_path}: Is a directory\n"

    def test_source_past_the_token_budget_is_a_frontend_error(self, tmp_path, capsys):
        path = tmp_path / "huge.cl"
        path.write_text(
            "__kernel void k(__global float* a) { a[0] = 0" + " + 0" * MAX_TOKENS + "; }"
        )
        assert main(["features", str(path)]) == 2
        assert _one_error_line(capsys).startswith(
            f"error: source exceeds {MAX_TOKENS} tokens at 1:"
        )

    @pytest.mark.parametrize(
        "argv", [["features"], ["predict", "--quick"]], ids=["features", "predict"]
    )
    def test_overflowing_trip_product_is_a_frontend_error(self, tmp_path, capsys, argv):
        path = tmp_path / "overflow.cl"
        path.write_text(OVERFLOW)
        assert main([argv[0], str(path), *argv[1:]]) == 2
        assert _one_error_line(capsys) == (
            "error: kernel 'k': weighted instruction count is not finite: the "
            "product of its static loop trip counts overflows a float\n"
        )
        assert capsys.readouterr().out == ""

    def test_predict_batch_answers_each_kernel(self, tmp_path, capsys):
        good, bad = tmp_path / "good.cl", tmp_path / "overflow.cl"
        good.write_text(KERNEL)
        bad.write_text(OVERFLOW)
        assert main(["predict-batch", "--quick", str(good), str(bad), str(good)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {bad}: kernel 'k': weighted instruction count is not "
            "finite: the product of its static loop trip counts overflows a float\n"
        )
        labels = [line for line in captured.out.splitlines() if line.startswith("==")]
        assert labels == [f"== {good}", f"== {good}"]
        assert "predicted Pareto set for 'demo'" in captured.out

    def test_requests_kernel_is_read_the_same_way(self, tmp_path, not_utf8, capsys):
        requests = tmp_path / "requests.jsonl"
        for kernel in (tmp_path, not_utf8):
            requests.write_text(f'{{"kernel": "{kernel}"}}\n')
            argv = ["predict-batch", "--quick", "--requests", str(requests)]
            assert main(argv) == 2
            assert _one_error_line(capsys).startswith(
                f"error: {requests}:1: {kernel}: "
            )

    @pytest.mark.parametrize(
        "line, field",
        [
            ('{"kernel": 1}', "kernel"),
            ('{"source": 1}', "source"),
            ('{"source": "__kernel void k() {}", "device": 5}', "device"),
            ('{"source": "__kernel void k() {}", "name": 7}', "name"),
        ],
        ids=["kernel", "source", "device", "name"],
    )
    def test_requests_non_string_field_is_a_usage_error(
        self, tmp_path, capsys, line, field
    ):
        requests = tmp_path / "requests.jsonl"
        requests.write_text("# header\n" + line + "\n")
        argv = ["predict-batch", "--quick", "--requests", str(requests)]
        assert main(argv) == 2
        assert _one_error_line(capsys) == (
            f"error: {requests}:2: '{field}' must be a string\n"
        )
