"""The pass manager: registry, one-IR memo, pass results."""

import pytest

from repro.analysis import (
    AnalysisConfig,
    AnalysisError,
    Divergence,
    LoopStructure,
    MemoryMix,
    OpcodeHistogram,
    PassManager,
    get_pass,
    registered_passes,
)
from repro.clkernel.lowering import lower_source


def lower(body: str, params: str = "__global float* x"):
    return lower_source(f"__kernel void f({params}) {{ {body} }}")


class TestRegistry:
    def test_minimum_pass_set_registered(self):
        names = registered_passes()
        for required in (
            "opcode-histogram",
            "memory-mix",
            "loop-structure",
            "divergence",
            "diagnostics",
        ):
            assert required in names

    def test_get_pass_unknown_name(self):
        with pytest.raises(AnalysisError):
            get_pass("no-such-pass")


class TestCaching:
    def test_same_ir_same_pass_is_cached(self):
        ir = lower("x[0] = x[1] + 1.0f;")
        manager = PassManager(AnalysisConfig())
        first = manager.run(ir, "opcode-histogram")
        second = manager.run(ir, "opcode-histogram")
        assert first is second

    def test_different_irs_do_not_share_entries(self):
        ir_a = lower("x[0] = x[1] + 1.0f;")
        ir_b = lower("x[0] = x[1] * 2.0f;")
        manager = PassManager(AnalysisConfig())
        a = manager.run(ir_a, "opcode-histogram")
        b = manager.run(ir_b, "opcode-histogram")
        assert a is not b
        # One IR at a time: returning to the first recomputes an equal result.
        again = manager.run(ir_a, "opcode-histogram")
        assert again is not a
        assert again == a

    def test_run_all_covers_every_registered_pass(self):
        ir = lower("for (int i = 0; i < 8; i++) { x[i] = 1.0f; }")
        manager = PassManager(AnalysisConfig())
        results = manager.run_all(ir)
        assert set(results) == set(registered_passes())


class TestOpcodeHistogram:
    def test_matches_weighted_counts_exactly(self):
        ir = lower(
            "for (int i = 0; i < 10; i++) { if (x[i] > 0.0f) { x[i] = x[i] / 2.0f; } }"
        )
        manager = PassManager(AnalysisConfig())
        hist = manager.run(ir, "opcode-histogram")
        assert isinstance(hist, OpcodeHistogram)
        assert hist.weighted == ir.weighted_counts(16)
        assert hist.feature_total > 0.0

    def test_respects_default_trip_count(self):
        src = "__kernel void f(__global float* x, int n) { for (int i = 0; i < n; i++) { x[i] = 1.0f; } }"
        ir = lower_source(src)
        small = PassManager(AnalysisConfig(default_trip_count=2))
        big = PassManager(AnalysisConfig(default_trip_count=64))
        assert (
            big.run(ir, "opcode-histogram").feature_total
            > small.run(ir, "opcode-histogram").feature_total
        )


class TestMemoryMix:
    def test_global_and_local_shares(self):
        src = (
            "__kernel void f(__global float* g, __local float* l) "
            "{ l[0] = g[0]; g[1] = l[0] + 1.0f; }"
        )
        ir = lower_source(src)
        mix = PassManager(AnalysisConfig()).run(ir, "memory-mix")
        assert isinstance(mix, MemoryMix)
        assert mix.global_weight > 0.0
        assert mix.local_weight > 0.0
        assert 0.0 < mix.global_share_of_accesses < 1.0
        assert mix.global_share_of_accesses + mix.local_share_of_accesses == pytest.approx(1.0)


class TestLoopStructure:
    def test_nesting_and_bound_classification(self):
        src = """
        __kernel void f(__global float* x, int n) {
            for (int i = 0; i < 4; i++) {
                for (int j = 0; j < n; j++) {
                    x[i] = x[i] + 1.0f;
                }
            }
        }
        """
        ir = lower_source(src)
        loops = PassManager(AnalysisConfig()).run(ir, "loop-structure")
        assert isinstance(loops, LoopStructure)
        assert loops.n_loops == 2
        assert loops.max_depth == 2
        assert loops.n_static_trip == 1
        assert loops.n_defaulted_trip == 1
        assert 0.0 < loops.loop_resident_share <= 1.0

    def test_loop_free_kernel(self):
        ir = lower("x[0] = x[1];")
        loops = PassManager(AnalysisConfig()).run(ir, "loop-structure")
        assert loops.n_loops == 0
        assert loops.max_depth == 0
        assert loops.loop_resident_share == 0.0


class TestDivergence:
    def test_branch_accounting(self):
        src = (
            "__kernel void f(__global float* x, int n) "
            "{ int i = get_global_id(0); if (i < n) { x[i] = 1.0f; } }"
        )
        ir = lower_source(src)
        div = PassManager(AnalysisConfig()).run(ir, "divergence")
        assert isinstance(div, Divergence)
        assert div.n_branch_regions >= 1
        assert div.branch_ops >= 1
        assert 0.0 < div.conditional_mass < 1.0
        assert div.min_branch_probability == pytest.approx(0.5)

    def test_straight_line_kernel_has_no_divergence(self):
        ir = lower("x[0] = x[1] + 1.0f;")
        div = PassManager(AnalysisConfig()).run(ir, "divergence")
        assert div.n_branch_regions == 0
        assert div.conditional_mass == 0.0


class TestAnalysisConfig:
    def test_validates_knobs(self):
        with pytest.raises(ValueError):
            AnalysisConfig(default_trip_count=-1)
        with pytest.raises(ValueError):
            AnalysisConfig(branch_probability=1.5)
