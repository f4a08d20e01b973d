"""Unit tests for the OpenCL-subset lexer."""

import pytest

from repro.clkernel.errors import CLLexError
from repro.clkernel.lexer import MAX_TOKENS, TokKind, tokenize


def kinds(source):
    return [t.kind for t in tokenize(source)]


def texts(source):
    return [t.text for t in tokenize(source) if t.kind is not TokKind.EOF]


class TestBasicTokens:
    def test_empty_source_yields_only_eof(self):
        toks = tokenize("")
        assert len(toks) == 1
        assert toks[0].kind is TokKind.EOF

    def test_whitespace_only_yields_eof(self):
        toks = tokenize("  \n\t  \r\n ")
        assert len(toks) == 1
        assert toks[0].kind is TokKind.EOF

    def test_identifier(self):
        toks = tokenize("my_var")
        assert toks[0].kind is TokKind.IDENT
        assert toks[0].text == "my_var"

    def test_identifier_with_leading_underscore(self):
        toks = tokenize("_tmp0")
        assert toks[0].kind is TokKind.IDENT

    def test_keyword_recognized(self):
        toks = tokenize("float")
        assert toks[0].kind is TokKind.KEYWORD

    def test_kernel_qualifier_is_keyword(self):
        toks = tokenize("__kernel")
        assert toks[0].kind is TokKind.KEYWORD

    def test_keyword_prefix_is_identifier(self):
        # 'floaty' must not be split as 'float' + 'y'.
        toks = tokenize("floaty")
        assert toks[0].kind is TokKind.IDENT
        assert toks[0].text == "floaty"

    def test_every_token_stream_ends_with_eof(self):
        assert kinds("a + b")[-1] is TokKind.EOF


class TestNumericLiterals:
    def test_int_literal(self):
        toks = tokenize("42")
        assert toks[0].kind is TokKind.INT_LIT
        assert toks[0].text == "42"

    def test_hex_literal(self):
        toks = tokenize("0xff")
        assert toks[0].kind is TokKind.INT_LIT
        assert toks[0].text == "0xff"

    def test_hex_literal_uppercase(self):
        toks = tokenize("0XDEADBEEF")
        assert toks[0].kind is TokKind.INT_LIT

    def test_unsigned_suffix(self):
        toks = tokenize("7u")
        assert toks[0].kind is TokKind.INT_LIT
        assert toks[0].text == "7u"

    def test_hex_with_unsigned_suffix(self):
        toks = tokenize("0x80000000u")
        assert toks[0].kind is TokKind.INT_LIT

    def test_float_literal(self):
        toks = tokenize("3.14")
        assert toks[0].kind is TokKind.FLOAT_LIT

    def test_float_with_f_suffix(self):
        toks = tokenize("1.5f")
        assert toks[0].kind is TokKind.FLOAT_LIT
        assert toks[0].text == "1.5f"

    def test_int_with_f_suffix_is_float(self):
        toks = tokenize("2f")
        assert toks[0].kind is TokKind.FLOAT_LIT

    def test_scientific_notation(self):
        toks = tokenize("1.0e30")
        assert toks[0].kind is TokKind.FLOAT_LIT
        assert toks[0].text == "1.0e30"

    def test_scientific_negative_exponent(self):
        toks = tokenize("2e-4")
        assert toks[0].kind is TokKind.FLOAT_LIT

    def test_leading_dot_float(self):
        toks = tokenize(".5f")
        assert toks[0].kind is TokKind.FLOAT_LIT

    def test_malformed_hex_raises(self):
        with pytest.raises(CLLexError):
            tokenize("0x")

    def test_malformed_hex_position_is_after_the_head(self):
        with pytest.raises(CLLexError, match="malformed hex literal") as info:
            tokenize("a = 0x;")
        assert (info.value.line, info.value.col) == (1, 7)

    @pytest.mark.parametrize("source", ["0", "a = 0", "x[0"])
    def test_source_ending_in_zero(self, source):
        toks = tokenize(source)
        assert toks[-2].kind is TokKind.INT_LIT
        assert toks[-2].text == "0"
        assert toks[-1].kind is TokKind.EOF

    @pytest.mark.parametrize("source", ["\u00b2", "\u0663", "1\u00b2", ".\u00b2"])
    def test_non_ascii_digit_is_not_a_literal(self, source):
        with pytest.raises(CLLexError, match="unexpected character"):
            tokenize(source)

    def test_unicode_identifier(self):
        toks = tokenize("\u00e9t\u00e92 \u4e00")
        assert [(t.kind, t.text) for t in toks[:2]] == [
            (TokKind.IDENT, "\u00e9t\u00e92"),
            (TokKind.IDENT, "\u4e00"),
        ]

    def test_member_access_not_float(self):
        # 'v.x' is three tokens, not a malformed float.
        assert texts("v.x") == ["v", ".", "x"]


class TestPunctuation:
    def test_maximal_munch_shift_left(self):
        assert texts("a<<b") == ["a", "<<", "b"]

    def test_maximal_munch_shl_assign(self):
        assert texts("a<<=b") == ["a", "<<=", "b"]

    def test_le_vs_lt(self):
        assert texts("a<=b<c") == ["a", "<=", "b", "<", "c"]

    def test_increment(self):
        assert texts("i++") == ["i", "++"]

    def test_arrow(self):
        assert texts("p->x") == ["p", "->", "x"]

    def test_logical_and(self):
        assert texts("a&&b") == ["a", "&&", "b"]

    def test_bitand_vs_logand(self):
        assert texts("a&b") == ["a", "&", "b"]

    def test_unknown_character_raises(self):
        with pytest.raises(CLLexError):
            tokenize("a @ b")

    def test_all_brackets(self):
        assert texts("()[]{}") == ["(", ")", "[", "]", "{", "}"]


class TestComments:
    def test_line_comment_skipped(self):
        assert texts("a // comment here\n b") == ["a", "b"]

    def test_line_comment_at_eof(self):
        assert texts("a // trailing") == ["a"]

    def test_block_comment_skipped(self):
        assert texts("a /* x + y */ b") == ["a", "b"]

    def test_multiline_block_comment(self):
        assert texts("a /* line1\nline2\n*/ b") == ["a", "b"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(CLLexError):
            tokenize("a /* never closed")

    def test_division_not_comment(self):
        assert texts("a / b") == ["a", "/", "b"]


class TestPositions:
    def test_line_tracking(self):
        toks = tokenize("a\nb\nc")
        lines = [t.line for t in toks if t.kind is TokKind.IDENT]
        assert lines == [1, 2, 3]

    def test_column_tracking(self):
        toks = tokenize("ab cd")
        assert toks[0].col == 1
        assert toks[1].col == 4

    def test_columns_reset_after_newline(self):
        toks = tokenize("ab\ncd")
        assert toks[1].line == 2
        assert toks[1].col == 1


class TestTokenBudget:
    def test_a_source_at_the_budget_lexes(self):
        toks = tokenize("a\n" * MAX_TOKENS)
        assert len(toks) == MAX_TOKENS + 1  # with EOF

    def test_the_first_token_past_the_budget_raises_at_its_position(self):
        with pytest.raises(CLLexError) as info:
            tokenize("a\n" * MAX_TOKENS + "  b c")
        assert info.value.message == f"source exceeds {MAX_TOKENS} tokens"
        assert (info.value.line, info.value.col) == (MAX_TOKENS + 1, 3)

    def test_one_long_line_is_refused_at_the_same_token(self):
        with pytest.raises(CLLexError) as info:
            tokenize("a " * (MAX_TOKENS + 100))
        assert (info.value.line, info.value.col) == (1, 2 * MAX_TOKENS + 1)


class TestRealKernel:
    def test_full_kernel_tokenizes(self):
        source = """
        __kernel void f(__global float* x, const int n) {
            int gid = get_global_id(0);
            if (gid < n) { x[gid] = x[gid] * 2.0f; }
        }
        """
        toks = tokenize(source)
        assert toks[-1].kind is TokKind.EOF
        assert sum(1 for t in toks if t.kind is TokKind.KEYWORD) >= 6

    def test_tokens_are_immutable(self):
        tok = tokenize("a")[0]
        with pytest.raises(AttributeError):
            tok.text = "b"

    def test_token_helpers(self):
        toks = tokenize("for (")
        assert toks[0].is_keyword("for")
        assert not toks[0].is_punct("for")
        assert toks[1].is_punct("(")
