"""The kernel analysis: one object per IR, each attribute computed once."""

import pytest

from repro.analysis import (
    Divergence,
    KernelAnalysis,
    LoopStructure,
    MemoryMix,
    OpcodeHistogram,
)
from repro.clkernel.lowering import lower_source


def lower(body: str, params: str = "__global float* x"):
    return lower_source(f"__kernel void f({params}) {{ {body} }}")


class TestCaching:
    def test_each_attribute_is_computed_once(self):
        analysis = KernelAnalysis(lower("for (int i = 0; i < 8; i++) { x[i] = 1.0f; }"))
        for name in ("histogram", "memory_mix", "loops", "divergence", "diagnostics"):
            assert getattr(analysis, name) is getattr(analysis, name)

    def test_different_irs_do_not_share_entries(self):
        ir_a = lower("x[0] = x[1] + 1.0f;")
        ir_b = lower("x[0] = x[1] * 2.0f;")
        a = KernelAnalysis(ir_a).histogram
        b = KernelAnalysis(ir_b).histogram
        assert a != b
        # A new analysis of the first IR recomputes an equal result.
        again = KernelAnalysis(ir_a).histogram
        assert again is not a
        assert again == a

    @pytest.mark.parametrize("name", ["memory_mix", "divergence", "diagnostics"])
    def test_derived_attributes_reuse_the_histogram(self, name):
        analysis = KernelAnalysis(lower("if (x[0] > 0.0f) { x[1] = x[0] * 2.0f; }"))
        getattr(analysis, name)
        cached = vars(analysis)["histogram"]
        assert analysis.histogram is cached


class TestOpcodeHistogram:
    def test_matches_weighted_counts_exactly(self):
        ir = lower(
            "for (int i = 0; i < 10; i++) { if (x[i] > 0.0f) { x[i] = x[i] / 2.0f; } }"
        )
        hist = KernelAnalysis(ir).histogram
        assert isinstance(hist, OpcodeHistogram)
        assert hist.weighted == ir.weighted_counts(16)
        assert hist.feature_total > 0.0

    def test_respects_default_trip_count(self):
        ir = lower("for (int i = 0; i < n; i++) { x[i] = 1.0f; }", "__global float* x, int n")
        small = KernelAnalysis(ir, default_trip_count=2)
        big = KernelAnalysis(ir, default_trip_count=64)
        assert big.histogram.feature_total > small.histogram.feature_total


class TestMemoryMix:
    def test_global_and_local_shares(self):
        src = (
            "__kernel void f(__global float* g, __local float* l) "
            "{ l[0] = g[0]; g[1] = l[0] + 1.0f; }"
        )
        ir = lower_source(src)
        mix = KernelAnalysis(ir).memory_mix
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
        loops = KernelAnalysis(ir).loops
        assert isinstance(loops, LoopStructure)
        assert loops.n_loops == 2
        assert loops.max_depth == 2
        assert loops.n_static_trip == 1
        assert loops.n_defaulted_trip == 1
        assert 0.0 < loops.loop_resident_share <= 1.0

    def test_loop_free_kernel(self):
        ir = lower("x[0] = x[1];")
        loops = KernelAnalysis(ir).loops
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
        div = KernelAnalysis(ir).divergence
        assert isinstance(div, Divergence)
        assert div.n_branch_regions >= 1
        assert div.branch_ops >= 1
        assert 0.0 < div.conditional_mass < 1.0
        assert div.min_branch_probability == pytest.approx(0.5)

    def test_straight_line_kernel_has_no_divergence(self):
        ir = lower("x[0] = x[1] + 1.0f;")
        div = KernelAnalysis(ir).divergence
        assert div.n_branch_regions == 0
        assert div.conditional_mass == 0.0


class TestKernelAnalysis:
    def test_rejects_a_negative_default_trip_count(self):
        with pytest.raises(ValueError):
            KernelAnalysis(lower("x[0] = 1.0f;"), default_trip_count=-1)

    def test_a_zero_default_trip_count_drops_unknown_loop_bodies(self):
        ir = lower("for (int i = 0; i < n; i++) { x[i] = x[i] * 3.0f; }", "__global float* x, int n")
        analysis = KernelAnalysis(ir, default_trip_count=0)
        assert analysis.histogram.weighted["float_mul"] == 0.0
        assert analysis.loops.n_defaulted_trip == 1
        unknown = [f for f in analysis.diagnostics.findings if f.code == "unknown-trip-count"]
        assert len(unknown) == 1
        assert "(0)" in unknown[0].message
