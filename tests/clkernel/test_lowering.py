"""Unit tests for AST → counted-IR lowering (the feature pass substrate)."""

import pytest

from repro.clkernel.errors import CLLoweringError
from repro.clkernel.lowering import lower_source


def counts(source, default_tc=16, **kwargs):
    ir = lower_source(source, **kwargs)
    return ir.weighted_counts(default_trip_count=default_tc)


def wrap(body, params="__global float* x, __global int* p, const int n"):
    return f"__kernel void f({params}) {{ {body} }}"


class TestArithmeticClassification:
    def test_int_add(self):
        c = counts(wrap("int a = n + 1;"))
        assert c["int_add"] == 1

    def test_int_sub_counts_as_add(self):
        c = counts(wrap("int a = n - 1;"))
        assert c["int_add"] == 1

    def test_int_mul(self):
        c = counts(wrap("int a = n * 3;"))
        assert c["int_mul"] == 1

    def test_int_div_and_mod(self):
        c = counts(wrap("int a = n / 3; int b = n % 3;"))
        assert c["int_div"] == 2

    def test_bitwise_ops(self):
        # &, |, ^, <<, >> — five distinct bitwise/shift operations.
        c = counts(wrap("int a = (n & 1) | (n ^ 2); int b = n << 3; int d = n >> 1;"))
        assert c["int_bw"] == 5

    def test_float_add(self):
        c = counts(wrap("float a = 1.0f + 2.0f;"))
        assert c["float_add"] == 1

    def test_float_mul(self):
        c = counts(wrap("float a = 2.0f * 3.0f;"))
        assert c["float_mul"] == 1

    def test_float_div(self):
        c = counts(wrap("float a = 1.0f / 3.0f;"))
        assert c["float_div"] == 1

    def test_mixed_int_float_promotes(self):
        c = counts(wrap("float a = n + 1.5f;"))
        assert c["float_add"] == 1
        assert c["int_add"] == 0

    def test_unary_negation_float(self):
        c = counts(wrap("float a = -1.5f;"))
        assert c["float_add"] == 1

    def test_bitwise_not(self):
        c = counts(wrap("int a = ~n;"))
        assert c["int_bw"] == 1

    def test_compound_assignment_counts_op(self):
        c = counts(wrap("int a = 0; a += 5;"))
        assert c["int_add"] == 1

    def test_comparison_counts_in_operand_class(self):
        ci = counts(wrap("int a = n < 3;"))
        cf = counts(wrap("int a = 1.0f < 3.0f;"))
        assert ci["int_add"] == 1
        assert cf["float_add"] == 1


class TestMemoryClassification:
    def test_global_load(self):
        c = counts(wrap("float a = x[0];"))
        assert c["gl_access"] == 1

    def test_global_store(self):
        c = counts(wrap("x[0] = 1.0f;"))
        assert c["gl_access"] == 1

    def test_read_modify_write_counts_two(self):
        c = counts(wrap("x[0] += 1.0f;"))
        assert c["gl_access"] == 2

    def test_local_access(self):
        src = "__kernel void f(__local float* s) { s[0] = 1.0f; float a = s[1]; }"
        c = counts(src)
        assert c["loc_access"] == 2
        assert c["gl_access"] == 0

    def test_private_array_not_counted(self):
        # Scalar private variables are registers, not memory features.
        c = counts(wrap("float a = 1.0f; float b = a;"))
        assert c["gl_access"] == 0 and c["loc_access"] == 0

    def test_uses_local_flag(self):
        src = "__kernel void f(__local float* s) { s[0] = 1.0f; }"
        ir = lower_source(src)
        assert ir.uses_local_memory

    def test_constant_pointer_counts_global(self):
        src = "__kernel void f(__constant float* t, __global float* o) { o[0] = t[0]; }"
        c = counts(src)
        assert c["gl_access"] == 2


class TestBuiltins:
    def test_sqrt_is_special(self):
        c = counts(wrap("float a = sqrt(2.0f);"))
        assert c["sf"] == 1

    def test_trig_are_special(self):
        c = counts(wrap("float a = sin(1.0f) + cos(1.0f) + tan(1.0f);"))
        assert c["sf"] == 3

    def test_native_variants_are_special(self):
        c = counts(wrap("float a = native_exp(1.0f);"))
        assert c["sf"] == 1

    def test_mad_expands_to_mul_add(self):
        c = counts(wrap("float a = mad(1.0f, 2.0f, 3.0f);"))
        assert c["float_mul"] == 1 and c["float_add"] == 1

    def test_fmin_counts_float(self):
        c = counts(wrap("float a = fmin(1.0f, 2.0f);"))
        assert c["float_add"] == 1

    def test_workitem_functions_free(self):
        c = counts(wrap("int gid = get_global_id(0);"))
        assert sum(c[k] for k in ("int_add", "int_mul", "int_div", "int_bw")) == 0

    def test_barrier_call_is_sync(self):
        ir = lower_source(wrap("barrier(CLK_LOCAL_MEM_FENCE);"))
        assert ir.has_barrier

    def test_unknown_function_raises(self):
        with pytest.raises(CLLoweringError):
            lower_source(wrap("float a = frobnicate(1.0f);"))


class TestLoops:
    def test_constant_trip_count_scales_body(self):
        c = counts(wrap("float a = 0.0f; for (int i = 0; i < 10; i++) { a = a + 1.0f; }"))
        assert c["float_add"] == 10

    def test_le_bound_inclusive(self):
        c = counts(wrap("float a = 0.0f; for (int i = 0; i <= 10; i++) { a = a + 1.0f; }"))
        assert c["float_add"] == 11

    def test_strided_loop(self):
        c = counts(wrap("float a = 0.0f; for (int i = 0; i < 10; i += 3) { a = a + 1.0f; }"))
        assert c["float_add"] == 4  # i = 0, 3, 6, 9

    def test_descending_loop(self):
        c = counts(wrap("float a = 0.0f; for (int i = 9; i >= 0; i--) { a = a + 1.0f; }"))
        assert c["float_add"] == 10

    def test_nested_loops_multiply(self):
        body = (
            "float a = 0.0f;"
            "for (int i = 0; i < 4; i++) { for (int j = 0; j < 8; j++) { a = a + 1.0f; } }"
        )
        c = counts(wrap(body))
        assert c["float_add"] == 32

    def test_unknown_bound_uses_default(self):
        c = counts(wrap("float a = 0.0f; for (int i = 0; i < n; i++) { a = a + 1.0f; }"), default_tc=7)
        assert c["float_add"] == 7

    def test_constant_propagated_bound(self):
        body = "int m = 4 * 2; float a = 0.0f; for (int i = 0; i < m; i++) { a = a + 1.0f; }"
        c = counts(wrap(body))
        assert c["float_add"] == 8

    def test_while_uses_default(self):
        c = counts(wrap("float a = 0.0f; while (a < 10.0f) { a = a + 1.0f; }"), default_tc=5)
        assert c["float_add"] == 5 * 2  # comparison + add, both float, x5

    def test_zero_trip_loop(self):
        c = counts(wrap("float a = 0.0f; for (int i = 5; i < 5; i++) { a = a + 1.0f; }"))
        assert c["float_add"] == 0

    def test_loop_depth(self):
        ir = lower_source(
            wrap("for (int i = 0; i < 2; i++) { for (int j = 0; j < 2; j++) { x[0] = 1.0f; } }")
        )
        assert ir.root.max_loop_depth() == 2


class TestBranches:
    def test_if_body_weighted_by_probability(self):
        c = counts(wrap("if (n < 3) { float a = 1.0f + 2.0f; }"))
        assert c["float_add"] == pytest.approx(0.5)

    def test_else_gets_complement(self):
        src = wrap("if (n < 3) { float a = 1.0f + 2.0f; } else { int b = n + 1; }")
        c = counts(src)
        assert c["float_add"] == pytest.approx(0.5)
        # condition (1 int cmp) + else branch (0.5 int add)
        assert c["int_add"] == pytest.approx(1.5)

    def test_if_and_else_weights_sum_to_one(self):
        src = wrap("if (n < 3) { float a = 1.0f + 2.0f; } else { float b = 3.0f + 4.0f; }")
        c = counts(src)
        assert c["float_add"] == pytest.approx(1.0)

    def test_ternary_weighted(self):
        c = counts(wrap("float a = (n < 3) ? (1.0f + 2.0f) : 0.0f;"))
        assert c["float_add"] == pytest.approx(0.5)

    def test_branch_aux_op_emitted(self):
        c = counts(wrap("if (n < 3) { }"))
        assert c["branch"] >= 1


class TestInlining:
    def test_helper_function_inlined(self):
        src = """
        float square(float v) { return v * v; }
        __kernel void f(__global float* x) { x[0] = square(x[1]); }
        """
        c = counts(src)
        assert c["float_mul"] == 1

    def test_helper_inlined_inside_loop(self):
        src = """
        float square(float v) { return v * v; }
        __kernel void f(__global float* x) {
            float a = 0.0f;
            for (int i = 0; i < 4; i++) { a = a + square(a); }
        }
        """
        c = counts(src)
        assert c["float_mul"] == 4

    def test_recursion_rejected(self):
        src = """
        float rec(float v) { return rec(v); }
        __kernel void f(__global float* x) { x[0] = rec(1.0f); }
        """
        with pytest.raises(CLLoweringError):
            lower_source(src)

    def test_arity_mismatch_rejected(self):
        src = """
        float square(float v) { return v * v; }
        __kernel void f(__global float* x) { x[0] = square(1.0f, 2.0f); }
        """
        with pytest.raises(CLLoweringError):
            lower_source(src)


class TestVectorTypes:
    def test_vector_add_scales_by_lanes(self):
        c = counts(wrap("float4 a; float4 b; a = a + b;", params="__global float4* v"))
        assert c["float_add"] == 4

    def test_member_access_scalar(self):
        c = counts(wrap("float4 a; float s = a.x + 1.0f;", params="__global float4* v"))
        assert c["float_add"] == 1


class TestKernelIRProperties:
    def test_num_params(self):
        ir = lower_source(wrap("x[0] = 1.0f;"))
        assert ir.num_params == 3

    def test_pretty_renders(self):
        ir = lower_source(wrap("for (int i = 0; i < 4; i++) { x[i] = 1.0f; }"))
        text = ir.pretty()
        assert "loop x4" in text
        assert "gl_access" in text

    def test_feature_counts_excludes_aux(self):
        ir = lower_source(wrap("if (n < 3) { x[0] = 1.0f; }"))
        assert set(ir.feature_counts()) == {
            "int_add", "int_mul", "int_div", "int_bw",
            "float_add", "float_mul", "float_div", "sf",
            "gl_access", "loc_access",
        }

    def test_total_instructions_positive(self):
        ir = lower_source(wrap("x[0] = x[1] + 1.0f;"))
        assert ir.total_instructions() > 0
