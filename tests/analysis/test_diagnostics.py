"""Diagnostics edge cases: the lowering corners the lint must flag."""

from repro.analysis import DiagnosticsReport, KernelAnalysis
from repro.clkernel.lowering import lower_source


def diagnose(source: str) -> DiagnosticsReport:
    return KernelAnalysis(lower_source(source)).diagnostics


def codes(report: DiagnosticsReport) -> list[str]:
    return [f.code for f in report.findings]


def nested_loops(depth: int, trips: int = 1_000_000_000) -> str:
    """A kernel nesting ``depth`` static loops of ``trips`` trips each."""
    opens = "".join(
        f"for (int j{d} = 0; j{d} < {trips}; j{d}++) {{ " for d in range(depth)
    )
    return (
        "__kernel void k(__global float* x) {\n"
        f"  {opens}x[0] = x[0] + 1.0f; {'}' * depth}\n"
        "}\n"
    )


#: 40 nested loops of 1e9 trips: the weight product (1e360) overflows a
#: float to inf, and inf times a zero count is nan.
OVERFLOW = nested_loops(40)


class TestUnknownTripCounts:
    def test_nested_unknown_bound_loops_flag_each_level(self):
        src = """
        __kernel void f(__global float* x, int n, int m) {
            for (int i = 0; i < n; i++) {
                for (int j = 0; j < m; j++) {
                    x[i] = x[i] + 1.0f;
                }
            }
        }
        """
        report = diagnose(src)
        unknown = [f for f in report.findings if f.code == "unknown-trip-count"]
        assert len(unknown) == 2
        assert all(f.severity == "error" for f in unknown)
        # Each finding anchors to its own loop's line.
        assert len({f.line for f in unknown}) == 2
        assert report.max_severity == "error"

    def test_static_bounds_are_clean(self):
        src = """
        __kernel void f(__global float* x) {
            for (int i = 0; i < 4; i++) {
                for (int j = 0; j < 8; j++) {
                    x[i] = x[i] + 1.0f;
                }
            }
        }
        """
        assert "unknown-trip-count" not in codes(diagnose(src))

    def test_while_loop_is_unknown(self):
        src = """
        __kernel void f(__global float* x) {
            while (x[0] > 0.0f) {
                x[0] = x[0] - 1.0f;
            }
        }
        """
        assert "unknown-trip-count" in codes(diagnose(src))


class TestZeroWeightRegions:
    def test_zero_trip_loop_is_zero_weight(self):
        src = """
        __kernel void f(__global float* x) {
            for (int i = 0; i < 0; i++) {
                x[i] = 1.0f;
            }
            x[0] = 1.0f;
        }
        """
        assert "zero-weight-region" in codes(diagnose(src))

    def test_balanced_probability_is_not_zero_weight(self):
        src = """
        __kernel void f(__global float* x, int n) {
            int i = get_global_id(0);
            if (i < n) { x[i] = 1.0f; } else { x[i] = 2.0f; }
        }
        """
        report = diagnose(src)
        assert "zero-weight-region" not in codes(report)
        # Both arms are estimated, once per source line.
        assumed = [
            f for f in report.findings if f.code == "assumed-branch-probability"
        ]
        assert assumed
        assert all(f.severity == "info" for f in assumed)


class TestAuxOnlyKernels:
    def test_barrier_only_kernel_has_no_feature_ops(self):
        src = """
        __kernel void f(__local float* s) {
            barrier(CLK_LOCAL_MEM_FENCE);
        }
        """
        report = diagnose(src)
        assert "no-feature-ops" in codes(report)
        assert report.max_severity == "error"

    def test_normal_kernel_has_feature_ops(self):
        src = "__kernel void f(__global float* x) { x[0] = x[1] + 1.0f; }"
        assert "no-feature-ops" not in codes(diagnose(src))


class TestNonFiniteWeights:
    def test_overflowing_trip_product_is_an_error(self):
        report = diagnose(OVERFLOW)
        errors = [f for f in report.errors if f.code == "non-finite-weight"]
        assert len(errors) == 1
        assert errors[0].line == 1
        assert errors[0].kernel == "k"

    def test_large_finite_trip_product_is_not_flagged(self):
        # 1e90 weighted ops: huge, but a float holds it.
        assert "non-finite-weight" not in codes(diagnose(nested_loops(10)))


class TestReportShape:
    def test_findings_are_line_ordered_and_kernel_tagged(self):
        src = """
        __kernel void f(__global float* x, int n) {
            for (int i = 0; i < n; i++) {
                if (x[i] > 0.0f) {
                    x[i] = 0.0f;
                }
            }
        }
        """
        report = diagnose(src)
        lines = [f.line for f in report.findings]
        assert lines == sorted(lines)
        assert all(f.kernel == "f" for f in report.findings)
        assert report.errors
        assert report.kernel == "f"
