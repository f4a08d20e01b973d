"""The table-dispatch lowering against the ``isinstance``-chain oracle.

The two lowerings must agree exactly on every AST: equal ``KernelIR``s
(the same region tree, line numbers included, so the same ``pretty()``,
the same ``weighted_counts()`` at every default trip count, and the same
parameter count and local-memory and barrier flags), or a
``CLLoweringError`` with the same message and line.  Both lower the same
parsed unit, so the comparison covers the lowering alone.
"""

import pytest
from hypothesis import given, settings

from repro.clkernel.ast_nodes import (
    Assignment,
    BinaryOp,
    Block,
    CLType,
    Expr,
    ExprStmt,
    FunctionDef,
    Identifier,
    IntLiteral,
    Stmt,
    TranslationUnit,
    UnaryOp,
)
from repro.clkernel.errors import CLLoweringError, CLParseError
from repro.clkernel.lowering import Lowerer, lower_source
from repro.clkernel.parser import MAX_NESTING_DEPTH, parse

from ..analysis.test_properties import kernels
from . import oracle_lowering
from .test_lexer_identity import _corpus
from .test_parser import _NESTINGS
from .test_parser_identity import _edge_sources

TRIP_COUNTS = (4, 16, 64)


def _summary(ir):
    """Everything the features and the simulator read from one IR."""
    return (
        ir.name,
        ir.pretty(),
        # repr keeps a nan or inf count comparable.
        tuple(repr(sorted(ir.weighted_counts(tc).items())) for tc in TRIP_COUNTS),
        ir.num_params,
        ir.uses_local_memory,
        ir.has_barrier,
    )


def _outcome(lowerer_class, unit, kernel):
    try:
        ir = lowerer_class(unit).lower_kernel(kernel)
    except CLLoweringError as exc:
        return ("CLLoweringError", exc.message, exc.line)
    return ir


def _assert_same(unit, label="", kernel=None):
    kernel = kernel if kernel is not None else unit.kernels()[0]
    outcome = _outcome(Lowerer, unit, kernel)
    expected = _outcome(oracle_lowering.Lowerer, unit, kernel)
    if isinstance(expected, tuple):
        assert outcome == expected, label
    else:
        assert not isinstance(outcome, tuple), (label, outcome)
        assert _summary(outcome) == _summary(expected), label
        assert outcome == expected, label
    return outcome


def _assert_same_source(source, label=""):
    unit = parse(source)
    return [_assert_same(unit, label, kernel) for kernel in unit.kernels()]


def _parses(source):
    try:
        parse(source)
    except CLParseError:
        return False
    return True


def _kernel(body, params="__global float* a, __global float4* v, __local float* s, int n"):
    return f"__kernel void k({params}) {{ {body} }}"


#: Every binary operator the parser builds, and every compound assignment.
BINARY_OPERATORS = (
    "+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^",
    "<", ">", "<=", ">=", "==", "!=", "&&", "||", ",",
)
COMPOUND_OPERATORS = ("+=", "-=", "*=", "/=", "%=", "<<=", ">>=", "&=", "|=", "^=")
UNARY_OPERATORS = ("-{}", "!{}", "~{}", "++{}", "--{}", "{}++", "{}--", "+{}", "*{}", "&{}")
OPERAND_TYPES = ("int", "float", "float4")


class TestCorpusIdentity:
    def test_corpus_lowers_like_the_oracle(self):
        """The 12 suite kernels, the 106 micro-benchmarks, the example
        kernels and 40 seeded mix kernels."""
        corpus = _corpus()
        assert len(corpus) >= 12 + 106 + 40
        for name, source in corpus:
            for outcome in _assert_same_source(source, name):
                assert not isinstance(outcome, tuple), (name, outcome)

    @pytest.mark.parametrize("stmt,source", [e for e in _edge_sources() if _parses(e[1])])
    def test_edge_statements_lower_like_the_oracle(self, stmt, source):
        _assert_same_source(source, stmt)

    def test_lower_source_selects_and_refuses_kernels_like_the_oracle(self):
        source = "__kernel void a(int n) { n = 1; }\n__kernel void b(float x) { x = x * 2.0f; }"
        for name in (None, "a", "b", "c"):
            outcomes = []
            for lower in (lower_source, oracle_lowering.lower_source):
                try:
                    outcomes.append(_summary(lower(source, name)))
                except CLLoweringError as exc:
                    outcomes.append((exc.message, exc.line))
            assert outcomes[0] == outcomes[1], name
        with pytest.raises(CLLoweringError, match="no __kernel function"):
            lower_source("float f(float x) { return x; }")


class TestOperatorIdentity:
    @pytest.mark.parametrize("op", BINARY_OPERATORS)
    def test_binary_operators_over_every_operand_pair(self, op):
        for lhs in OPERAND_TYPES:
            for rhs in OPERAND_TYPES:
                for result in OPERAND_TYPES:
                    body = (
                        f"{lhs} x = 1; {rhs} y = 2; {result} z; "
                        f"z = (x {op} y); a[0] = (x {op} y) * 2;"
                    )
                    _assert_same_source(_kernel(body), f"{lhs} {op} {rhs} -> {result}")

    @pytest.mark.parametrize("op", COMPOUND_OPERATORS)
    def test_compound_assignments_over_every_operand_pair(self, op):
        for target in OPERAND_TYPES:
            for value in OPERAND_TYPES:
                body = (
                    f"{target} x = 1; {value} y = 2; x {op} y; a[n] {op} y; "
                    f"s[n] {op} y; v[0].x {op} y; v[n] {op} y;"
                )
                _assert_same_source(_kernel(body), f"{target} {op} {value}")

    @pytest.mark.parametrize("form", UNARY_OPERATORS)
    def test_unary_operators_over_every_operand_type(self, form):
        for operand in OPERAND_TYPES:
            body = f"{operand} x = 1; a[0] = {form.format('x')}; {form.format('a[n]')};"
            _assert_same_source(_kernel(body), f"{form} {operand}")

    def test_every_operator_table_entry_is_exercised(self):
        """The lists above name every operator the production tables hold."""
        from repro.clkernel import lowering

        assert set(lowering._BINARY_OPS) | {","} == set(BINARY_OPERATORS)
        assert set(lowering._COMPOUND_OPS) == set(COMPOUND_OPERATORS)


def _hand_made(*statements):
    """A unit whose kernel body holds hand-built statements the parser
    never produces."""
    kernel = FunctionDef(
        name="k", return_type=CLType.from_name("void"), params=[],
        body=Block(statements=list(statements), line=1), is_kernel=True, line=1,
    )
    return TranslationUnit(functions=[kernel])


class TestErrorIdentity:
    @pytest.mark.parametrize(
        "statement",
        [
            Stmt(line=3),
            ExprStmt(expr=Expr(line=4), line=4),
            ExprStmt(expr=BinaryOp(op="@", lhs=IntLiteral(), rhs=IntLiteral(), line=5)),
            ExprStmt(expr=BinaryOp(op="+=", lhs=IntLiteral(), rhs=IntLiteral(), line=6)),
            ExprStmt(expr=Assignment(op="<=", target=Identifier(), value=IntLiteral(), line=7)),
            ExprStmt(expr=Assignment(op="&&=", target=Identifier(), value=IntLiteral(), line=8)),
            ExprStmt(expr=UnaryOp(op="?", operand=IntLiteral(), line=9)),
        ],
        ids=["statement", "expression", "binary", "binary-compound", "compare-assign",
             "logical-assign", "unary"],
    )
    def test_nodes_the_parser_never_builds_fail_like_the_oracle(self, statement):
        outcome = _assert_same(_hand_made(statement))
        assert isinstance(outcome, tuple) and outcome[0] == "CLLoweringError"

    def test_helper_inlining_and_its_three_errors(self):
        helpers = (
            "float sq(float v) { return v * v; }\n"
            "float rec(float v) { return rec(v) + 1.0f; }\n"
            "float4 twice(float4 v, int k) { for (int i = 0; i < k; i++) { v = v + v; } return v; }\n"
        )
        cases = {
            "inlined": "a[0] = sq(a[1]) + twice(v[0], 3).x;",
            "unknown-function": "a[0] = nosuch(a[1]);",
            "recursion": "a[0] = rec(a[1]);",
            "arity": "a[0] = sq(1.0f, 2.0f);",
        }
        for label, body in cases.items():
            (outcome,) = _assert_same_source(helpers + _kernel(body), label)
            assert isinstance(outcome, tuple) == (label != "inlined"), (label, outcome)

    def test_helper_chains_at_and_past_the_nesting_budget(self):
        def chain(length):
            helpers = "".join(
                f"float f{i}(float x) {{ return f{i + 1}(x) * 2.0f; }}\n" for i in range(length)
            )
            return f"float f{length}(float x) {{ return x; }}\n" + helpers + _kernel("a[0] = f0(a[1]);")

        outcomes = [_assert_same_source(chain(n))[0] for n in (1, 60, 120)]
        assert not isinstance(outcomes[0], tuple)
        assert isinstance(outcomes[-1], tuple) and "nest deeper than" in outcomes[-1][1]

    @pytest.mark.parametrize("construct", sorted(_NESTINGS))
    def test_nesting_at_the_limit_lowers_like_the_oracle(self, construct):
        (outcome,) = _assert_same_source(_NESTINGS[construct](MAX_NESTING_DEPTH), construct)
        assert not isinstance(outcome, tuple), outcome


class TestPropertyIdentity:
    @settings(deadline=None, max_examples=100)
    @given(source=kernels)
    def test_property_kernels_lower_like_the_oracle(self, source):
        _assert_same_source(source)
