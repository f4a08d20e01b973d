"""The precedence-loop parser against the recursive-descent oracle parser.

The two parsers must agree exactly on every token stream: the same AST,
``FunctionDef.depth`` included (the dataclasses compare field by field), or
a ``CLParseError`` with the same message, line and column.  Both parse the
same token list, so the comparison covers the parser alone.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clkernel.errors import CLLexError, CLParseError
from repro.clkernel.lexer import _PUNCT1, _PUNCT2, _PUNCT3, KEYWORDS, Token, tokenize
from repro.clkernel.parser import MAX_NESTING_DEPTH, Parser

from . import oracle_parser
from .test_lexer_identity import _corpus
from .test_parser import _NESTINGS


def _outcome(parser_class, tokens):
    try:
        return parser_class(list(tokens)).parse_unit()
    except CLParseError as exc:
        return ("CLParseError", exc.message, exc.line, exc.col)


def _assert_same(tokens, label=""):
    outcome = _outcome(Parser, tokens)
    assert outcome == _outcome(oracle_parser.Parser, tokens), label
    return outcome


def _one_token_per_line(source):
    """The same tokens, each on a line of its own, so every node's ``line``
    names the token it was taken from."""
    return "\n".join(tok.text for tok in tokenize(source)[:-1])


#: One statement per grammar rule the corpus seldom or never reaches.
_EDGE_STATEMENTS = (
    "x = (__global float*)a;",
    "y = (const float)n;",
    "z = (float4)(1.0f);",
    "t = n ? a[0] : m ? 1 : 2;",
    "n ? a[0] : a[1] = 1;",
    "n = m = k += 2;",
    "a[i].x = -~!*&p[0]++;",
    "--n; ++m; n--;",
    "i++, j--;",
    "for (i = 0, j = 1; i < n; i++, j++) {}",
    "for (int k = 0; ; ) break;",
    "x = float4(1.0f, 2.0f, 3.0f, 4.0f).y;",
    "x = (a + b) * (c - d) / e % f << 2 >> 1 & 3 ^ 4 | 5 && 6 || 7;",
    "x = a < b == c > d != e <= f >= g;",
    "x = a || b && c | d ^ e & f == g < h << i + j * k;",
    "x = a != b <= c >> d - e % f; x = a / b + c << d >= e == f;",
    "x = a - b % c + d / e - f * g;",
    "x = sin((float)(n), (n, m));",
    "do { continue; } while (n);",
    "while (n) ;",
    "if (n) {} else if (m) {} else ;",
    "return;",
    "barrier(CLK_LOCAL_MEM_FENCE | (CLK_GLOBAL_MEM_FENCE));",
    "int const * restrict p = 0;",
    "__local float * const volatile q = 0;",
    "uint u = 0x1Fu + 7 + 1e3f + .5f + 09;",
    "x <<= 1; x >>= 2; x |= 3; x &= 4; x ^= 5; x %= 6; x /= 7; x *= 8; x -= 9;",
    "x = -(-(-n)) + a[b[c[0]]];",
    ";",
)


def _edge_sources():
    for stmt in _EDGE_STATEMENTS:
        yield stmt, f"__kernel void k(__global float* a, int n) {{ {stmt} }}"


class TestCorpusIdentity:
    def test_corpus_asts_match_the_oracle(self):
        for name, source in _corpus():
            outcome = _assert_same(tokenize(source), name)
            assert not isinstance(outcome, tuple), (name, outcome)
            _assert_same(tokenize(_one_token_per_line(source)), name)

    @pytest.mark.parametrize("stmt,source", list(_edge_sources()))
    def test_edge_statements_match_the_oracle(self, stmt, source):
        _assert_same(tokenize(source), stmt)
        _assert_same(tokenize(_one_token_per_line(source)), stmt)

    @pytest.mark.parametrize("construct", sorted(_NESTINGS))
    def test_nesting_at_and_past_the_limit_matches_the_oracle(self, construct):
        at_limit = _assert_same(tokenize(_NESTINGS[construct](MAX_NESTING_DEPTH)))
        assert at_limit.functions[0].depth == MAX_NESTING_DEPTH
        past = _assert_same(tokenize(_NESTINGS[construct](MAX_NESTING_DEPTH + 1)))
        assert past[0] == "CLParseError" and "nesting deeper than" in past[1]


#: Token texts the mutations insert: every punctuator, every keyword, and a
#: few identifiers and literals (one of each unconvertible literal kind).
_VOCABULARY = [
    tok
    for text in (
        list(_PUNCT3 + _PUNCT2) + list(_PUNCT1) + sorted(KEYWORDS)
        + ["a", "n", "sin", "get_global_id", "0", "1", "2.5f", "0x1F", "1e5", "09"]
    )
    for tok in tokenize(text)[:1]
]


def _mutate(tokens, rng):
    """Delete, duplicate, swap or insert a few tokens; ``EOF`` stays last."""
    body = list(tokens[:-1])
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(body) + 1)
        op = rng.randrange(4)
        if op == 0 and at < len(body):
            del body[at]
        elif op == 1 and at < len(body):
            body.insert(at, body[at])
        elif op == 2 and at + 1 < len(body):
            body[at], body[at + 1] = body[at + 1], body[at]
        else:
            kind, text = rng.choice(_VOCABULARY)[:2]
            line, col = body[at - 1][2:] if at else (1, 1)
            body.insert(at, Token(kind, text, line, col + 1))
    return body + [tokens[-1]]


class TestMutationIdentity:
    def test_mutated_corpus_streams_match_the_oracle(self):
        rng = random.Random(23)
        sources = [source for _, source in _corpus()] + [s for _, s in _edge_sources()]
        streams = [tokenize(source) for source in sources]
        streams += [tokenize(_one_token_per_line(source)) for source in sources[::7]]
        errors = 0
        for i in range(1500):
            tokens = streams[i % len(streams)]
            outcome = _assert_same(_mutate(tokens, rng), f"mutation {i}")
            errors += isinstance(outcome, tuple)
        # The mutations reach both outcomes, so both are compared.
        assert 100 < errors < 1500


_fragments = st.lists(
    st.sampled_from([text for _, text, _, _ in _VOCABULARY]), max_size=30
).map(" ".join)


class TestPropertyIdentity:
    @settings(max_examples=400, deadline=None)
    @given(_fragments, st.booleans())
    def test_random_token_streams_match_the_oracle(self, fragment, in_statement):
        source = (
            f"__kernel void k(__global float* a, int n) {{ {fragment} }}"
            if in_statement
            else fragment
        )
        try:
            tokens = tokenize(source)
        except CLLexError:
            return
        _assert_same(tokens)
