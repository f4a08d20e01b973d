"""Unit tests for the OpenCL-subset parser."""

import pytest

from repro.clkernel.ast_nodes import (
    AddressSpace,
    Assignment,
    BarrierStmt,
    BinaryOp,
    Call,
    Cast,
    DeclStmt,
    DoWhileStmt,
    ExprStmt,
    FloatLiteral,
    ForStmt,
    Identifier,
    IfStmt,
    Index,
    IntLiteral,
    Member,
    ReturnStmt,
    Ternary,
    UnaryOp,
    WhileStmt,
)
from repro.clkernel.errors import CLFrontendError, CLParseError
from repro.clkernel.parser import MAX_NESTING_DEPTH, Parser, parse, parse_kernel


def parse_stmt(body: str):
    """Parse a single statement inside a wrapper kernel."""
    unit = parse(f"__kernel void f() {{ {body} }}")
    return unit.functions[0].body.statements[0]


def parse_expr(expr: str):
    stmt = parse_stmt(f"{expr};")
    assert isinstance(stmt, ExprStmt)
    return stmt.expr


class TestTopLevel:
    def test_kernel_flag(self):
        unit = parse("__kernel void f() { }")
        assert unit.functions[0].is_kernel

    def test_plain_function_not_kernel(self):
        unit = parse("float helper(float x) { return x; }")
        assert not unit.functions[0].is_kernel

    def test_multiple_functions(self):
        unit = parse(
            "float g(float x) { return x; } __kernel void f() { }"
        )
        assert [f.name for f in unit.functions] == ["g", "f"]
        assert len(unit.kernels()) == 1

    def test_function_lookup(self):
        unit = parse("__kernel void f() { }")
        assert unit.function("f").name == "f"
        with pytest.raises(KeyError):
            unit.function("missing")

    def test_parse_kernel_selects_by_name(self):
        src = "__kernel void a() { } __kernel void b() { }"
        assert parse_kernel(src, "b").name == "b"

    def test_parse_kernel_ambiguous_raises(self):
        src = "__kernel void a() { } __kernel void b() { }"
        with pytest.raises(CLParseError):
            parse_kernel(src)

    def test_parse_kernel_no_kernel_raises(self):
        with pytest.raises(CLParseError):
            parse_kernel("void f() { }")


class TestParameters:
    def test_global_pointer_param(self):
        unit = parse("__kernel void f(__global float* x) { }")
        p = unit.functions[0].params[0]
        assert p.param_type.is_pointer
        assert p.param_type.address_space is AddressSpace.GLOBAL

    def test_local_pointer_param(self):
        unit = parse("__kernel void f(__local float* scratch) { }")
        p = unit.functions[0].params[0]
        assert p.param_type.address_space is AddressSpace.LOCAL

    def test_const_qualifier(self):
        unit = parse("__kernel void f(__global const float* x) { }")
        assert unit.functions[0].params[0].param_type.is_const

    def test_scalar_param(self):
        unit = parse("__kernel void f(const int n) { }")
        p = unit.functions[0].params[0]
        assert not p.param_type.is_pointer
        assert p.param_type.is_int

    def test_multiple_params(self):
        unit = parse("__kernel void f(__global float* a, __global float* b, const int n) { }")
        assert len(unit.functions[0].params) == 3

    def test_unqualified_pointer_defaults_to_global(self):
        unit = parse("__kernel void f(float* x) { }")
        assert unit.functions[0].params[0].param_type.address_space is AddressSpace.GLOBAL


class TestStatements:
    def test_decl_with_init(self):
        stmt = parse_stmt("int x = 5;")
        assert isinstance(stmt, DeclStmt)
        assert stmt.name == "x"
        assert isinstance(stmt.init, IntLiteral)

    def test_decl_without_init(self):
        stmt = parse_stmt("float y;")
        assert isinstance(stmt, DeclStmt)
        assert stmt.init is None

    def test_if_else(self):
        stmt = parse_stmt("if (1) { } else { }")
        assert isinstance(stmt, IfStmt)
        assert stmt.otherwise is not None

    def test_if_without_else(self):
        stmt = parse_stmt("if (1) { }")
        assert isinstance(stmt, IfStmt)
        assert stmt.otherwise is None

    def test_for_loop_parts(self):
        stmt = parse_stmt("for (int i = 0; i < 10; i++) { }")
        assert isinstance(stmt, ForStmt)
        assert isinstance(stmt.init, DeclStmt)
        assert isinstance(stmt.cond, BinaryOp)
        assert isinstance(stmt.step, UnaryOp)

    def test_for_loop_empty_parts(self):
        stmt = parse_stmt("for (;;) { break; }")
        assert isinstance(stmt, ForStmt)
        assert stmt.init is None and stmt.cond is None and stmt.step is None

    def test_while(self):
        stmt = parse_stmt("while (1) { continue; }")
        assert isinstance(stmt, WhileStmt)

    def test_do_while(self):
        stmt = parse_stmt("do { } while (0);")
        assert isinstance(stmt, DoWhileStmt)

    def test_return_value(self):
        unit = parse("float f() { return 1.0f; }")
        ret = unit.functions[0].body.statements[0]
        assert isinstance(ret, ReturnStmt)
        assert isinstance(ret.value, FloatLiteral)

    def test_barrier(self):
        stmt = parse_stmt("barrier(CLK_LOCAL_MEM_FENCE);")
        assert isinstance(stmt, BarrierStmt)
        assert "CLK_LOCAL_MEM_FENCE" in stmt.fence

    def test_empty_statement(self):
        stmt = parse_stmt(";")
        assert isinstance(stmt, ExprStmt)
        assert stmt.expr is None

    def test_missing_semicolon_raises(self):
        with pytest.raises(CLParseError):
            parse("__kernel void f() { int x = 1 }")

    def test_unterminated_block_raises(self):
        with pytest.raises(CLParseError):
            parse("__kernel void f() { int x = 1;")


class TestExpressions:
    def test_precedence_mul_over_add(self):
        expr = parse_expr("1 + 2 * 3")
        assert isinstance(expr, BinaryOp) and expr.op == "+"
        assert isinstance(expr.rhs, BinaryOp) and expr.rhs.op == "*"

    def test_precedence_shift_below_add(self):
        expr = parse_expr("1 << 2 + 3")
        assert expr.op == "<<"
        assert isinstance(expr.rhs, BinaryOp) and expr.rhs.op == "+"

    def test_parentheses_override(self):
        expr = parse_expr("(1 + 2) * 3")
        assert expr.op == "*"
        assert isinstance(expr.lhs, BinaryOp) and expr.lhs.op == "+"

    def test_left_associativity(self):
        expr = parse_expr("1 - 2 - 3")
        assert expr.op == "-"
        assert isinstance(expr.lhs, BinaryOp) and expr.lhs.op == "-"
        assert isinstance(expr.rhs, IntLiteral) and expr.rhs.value == 3

    def test_assignment(self):
        expr = parse_expr("x = 1")
        assert isinstance(expr, Assignment) and expr.op == "="

    def test_compound_assignment(self):
        expr = parse_expr("x += 2")
        assert isinstance(expr, Assignment) and expr.op == "+="

    def test_assignment_right_associative(self):
        expr = parse_expr("x = y = 1")
        assert isinstance(expr, Assignment)
        assert isinstance(expr.value, Assignment)

    def test_ternary(self):
        expr = parse_expr("1 ? 2 : 3")
        assert isinstance(expr, Ternary)

    def test_call_with_args(self):
        expr = parse_expr("mad(a, b, c)")
        assert isinstance(expr, Call)
        assert expr.callee == "mad"
        assert len(expr.args) == 3

    def test_call_no_args(self):
        expr = parse_expr("get_work_dim()")
        assert isinstance(expr, Call) and expr.args == []

    def test_index(self):
        expr = parse_expr("a[i + 1]")
        assert isinstance(expr, Index)
        assert isinstance(expr.index, BinaryOp)

    def test_nested_index(self):
        expr = parse_expr("a[b[i]]")
        assert isinstance(expr, Index)
        assert isinstance(expr.index, Index)

    def test_member_access(self):
        expr = parse_expr("v.x")
        assert isinstance(expr, Member) and expr.member == "x"

    def test_cast(self):
        expr = parse_expr("(float)(x)")
        assert isinstance(expr, Cast)
        assert expr.target_type.name == "float"

    def test_unary_minus(self):
        expr = parse_expr("-x")
        assert isinstance(expr, UnaryOp) and expr.op == "-"

    def test_postfix_increment(self):
        expr = parse_expr("i++")
        assert isinstance(expr, UnaryOp) and expr.postfix

    def test_prefix_increment(self):
        expr = parse_expr("++i")
        assert isinstance(expr, UnaryOp) and not expr.postfix

    def test_vector_constructor(self):
        expr = parse_expr("float4(1.0f, 2.0f, 3.0f, 4.0f)")
        assert isinstance(expr, Call) and expr.callee == "float4"

    def test_logical_chain(self):
        expr = parse_expr("a && b || c")
        assert expr.op == "||"

    def test_unsigned_hex_expression(self):
        expr = parse_expr("(y << 7) & 0x9d2c5680u")
        assert expr.op == "&"

    def test_identifier_expression(self):
        expr = parse_expr("abc")
        assert isinstance(expr, Identifier)

    def test_garbage_raises(self):
        with pytest.raises(CLParseError):
            parse_expr("+")


class TestSuiteSources:
    """Every shipped kernel source must parse."""

    def test_all_suite_kernels_parse(self):
        from repro.suite import test_benchmarks

        for spec in test_benchmarks():
            unit = parse(spec.source)
            assert unit.kernels(), spec.name

    def test_all_micro_benchmarks_parse(self):
        from repro.synthetic import generate_micro_benchmarks

        for spec in generate_micro_benchmarks():
            unit = parse(spec.source)
            assert unit.kernels(), spec.name


#: Literals the lexer accepts but ``int()``/``float()`` reject.
_UNCONVERTIBLE_LITERALS = ["0xg", "08", "1e5u", "1.5u", "0xl"]

#: The literal sits at line 2, column 12.
_LITERAL_KERNEL = "__kernel void k(__global float* a) {\n    a[0] = %s;\n}\n"


class TestMalformedLiterals:
    @pytest.mark.parametrize("literal", _UNCONVERTIBLE_LITERALS)
    def test_parse_error_at_the_literal(self, literal):
        with pytest.raises(CLParseError, match="malformed") as info:
            parse(_LITERAL_KERNEL % literal)
        assert (info.value.line, info.value.col) == (2, 12)

    @pytest.mark.parametrize("literal", _UNCONVERTIBLE_LITERALS + ["\u00b2", "1\u00b2"])
    def test_feature_extraction_raises_a_frontend_error(self, literal):
        from repro.features import extract_features

        with pytest.raises(CLFrontendError):
            extract_features(_LITERAL_KERNEL % literal)


def _nested(body: str) -> str:
    return "__kernel void k(__global float* a, int n) {\n%s\n}\n" % body


#: One source per nesting construct, ``depth`` levels deep.
_NESTINGS = {
    "parentheses": lambda d: _nested("(" * d + "n" + ")" * d + ";"),
    "prefix-operators": lambda d: _nested("!" * d + "n;"),
    "casts": lambda d: _nested("(float)" * d + "n;"),
    "call-arguments": lambda d: _nested("sin(" * d + "1.0f" + ")" * d + ";"),
    "ternaries": lambda d: _nested("n ? 1 : " * d + "2;"),
    "assignments": lambda d: _nested("n = " * d + "1;"),
    "subscripts": lambda d: _nested("a[" * d + "0" + "]" * d + ";"),
    "binary-operators": lambda d: _nested(" + ".join(["n"] * (d + 1)) + ";"),
    "comma-operators": lambda d: _nested(", ".join(["n"] * (d + 1)) + ";"),
    "blocks": lambda d: _nested("{" * d + ";" + "}" * d),
    "if-bodies": lambda d: _nested("if (n) " * d + ";"),
    "for-bodies": lambda d: _nested("for (;;) " * d + ";"),
    "while-bodies": lambda d: _nested("while (n) " * d + ";"),
    "do-bodies": lambda d: _nested("do " * d + ";" + " while (n);" * d),
}


class TestNestingLimit:
    @pytest.mark.parametrize("construct", sorted(_NESTINGS))
    def test_extracts_at_the_limit(self, construct):
        from repro.features import extract_features

        extract_features(_NESTINGS[construct](MAX_NESTING_DEPTH))

    @pytest.mark.parametrize("construct", sorted(_NESTINGS))
    def test_one_level_past_the_limit_is_a_frontend_error(self, construct):
        from repro.features import extract_features

        with pytest.raises(CLFrontendError, match="nesting deeper than"):
            extract_features(_NESTINGS[construct](MAX_NESTING_DEPTH + 1))

    def test_error_points_at_the_opening_token(self):
        depth = MAX_NESTING_DEPTH + 1
        with pytest.raises(CLParseError) as info:
            parse(_nested("a[0] = " + "(" * depth + "1" + ")" * depth + ";"))
        # `a[0] =` opens a level, so the limit falls on parenthesis #100.
        assert (info.value.line, info.value.col) == (2, 8 + MAX_NESTING_DEPTH - 1)

    @pytest.mark.parametrize("construct", ["parentheses", "call-arguments", "subscripts"])
    def test_costliest_levels_extract_from_a_deep_caller(self, construct):
        """These levels cost the parser the most frames each; at the limit
        the kernel still extracts from 150 frames down."""
        from repro.features import extract_features

        # A fresh source: lowering is memoized per source text.
        source = _NESTINGS[construct](MAX_NESTING_DEPTH).replace("void k(", "void deep(")

        def descend(frames):
            return extract_features(source) if frames == 0 else descend(frames - 1)

        assert descend(150) is not None

    def test_helper_call_chains_share_the_budget(self):
        """Lowering inlines each helper into its caller, so a call chain
        nests like one function body: too long a chain is a frontend
        error, and the longest accepted one extracts from 150 frames down."""
        from repro.features import extract_features

        def chain(length):
            helpers = "".join(
                f"float f{i}(float x) {{ return f{i + 1}(x); }}\n" for i in range(length)
            )
            return (
                f"float f{length}(float x) {{ return x; }}\n"
                + helpers
                + _nested("a[0] = f0(a[0]);")
            )

        with pytest.raises(CLFrontendError, match="helper calls nest deeper than"):
            extract_features(chain(400))
        longest = 1
        while True:
            try:
                extract_features(chain(longest + 1))
            except CLFrontendError:
                break
            longest += 1
        assert longest >= 10

        # A fresh source: lowering is memoized per source text.
        source = chain(longest).replace("void k(", "void deep(")

        def descend(frames):
            return extract_features(source) if frames == 0 else descend(frames - 1)

        assert descend(150) is not None

    def test_corpora_stay_far_below_the_limit(self, monkeypatch):
        from repro.suite import test_benchmarks
        from repro.synthetic import generate_micro_benchmarks

        deepest = 0
        original = Parser._descend

        def spy(self, tok):
            nonlocal deepest
            original(self, tok)
            deepest = max(deepest, self._depth)

        monkeypatch.setattr(Parser, "_descend", spy)
        for spec in [*test_benchmarks(), *generate_micro_benchmarks()]:
            parse(spec.source)
        assert 0 < deepest <= MAX_NESTING_DEPTH // 4
