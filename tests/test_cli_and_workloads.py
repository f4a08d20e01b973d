"""Tests for the CLI and the KernelSpec workload bridge."""

import pytest

from repro.cli import build_parser, main
from repro.gpusim.profile import DynamicTraits
from repro.workloads import KernelSpec

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
