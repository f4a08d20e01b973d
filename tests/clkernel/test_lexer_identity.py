"""The master-regex lexer against the hand-written oracle lexer.

Outside two documented classes the two lexers must agree exactly: the same
``(kind, text, line, col)`` stream, or a ``CLLexError`` with the same message,
line and column.  The classes where the production lexer differs on purpose:

* a source ending in ``0`` (the oracle raises "malformed hex literal");
* a non-ASCII character with ``str.isdigit()``, which the oracle accepts in
  number literals and the production lexer rejects.
"""

import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clkernel.errors import CLFrontendError, CLLexError
from repro.clkernel.lexer import _PUNCT1, _PUNCT2, _PUNCT3, tokenize
from repro.features import extract_features

from . import oracle_lexer

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples" / "kernels"

_MIX_CLASSES = (
    "int_add", "int_mul", "int_div", "int_bw", "float_add",
    "float_mul", "float_div", "sf", "gl_access", "loc_access",
)


def _outcome(lex, source):
    try:
        return [(t.kind, t.text, t.line, t.col) for t in lex(source)]
    except CLLexError as exc:
        return ("CLLexError", exc.message, exc.line, exc.col)


def _corpus():
    from repro.suite import test_benchmarks
    from repro.synthetic import MixRecipe, generate_micro_benchmarks, render_mix

    sources = [(spec.name, spec.source) for spec in test_benchmarks()]
    sources += [(spec.name, spec.source) for spec in generate_micro_benchmarks()]
    sources += [(path.name, path.read_text()) for path in sorted(EXAMPLES.glob("*.cl"))]
    rng = random.Random(13)
    for i in range(40):
        ops = {c: rng.randint(1, 40) for c in rng.sample(_MIX_CLASSES, rng.randint(2, 4))}
        sources.append((f"mix-{i}", render_mix(MixRecipe(name=f"mix-{i}", ops=ops))))
    return sources


class TestCorpusIdentity:
    def test_corpus_is_not_empty(self):
        names = [name for name, _ in _corpus()]
        assert len(names) > 100
        assert any(name.endswith(".cl") for name in names)

    def test_token_streams_match_the_oracle(self):
        for name, source in _corpus():
            assert _outcome(tokenize, source) == _outcome(oracle_lexer.tokenize, source), name


#: Fragments that exercise every lexer rule: digits and the letters numbers
#: use, every punctuator, comment delimiters, whitespace and rejected ASCII.
_FRAGMENTS = (
    list("0123456789xXeEfFuUlL.")
    + list(_PUNCT3 + _PUNCT2)
    + list(_PUNCT1)
    + ["/*", "*/", "//", "\t", "\r", "\n", " ", "@", '"', "_", "a", "0x"]
)

_sources = st.lists(
    st.one_of(st.sampled_from(_FRAGMENTS), st.characters()), max_size=40
).map("".join)


def _is_documented_difference(source):
    return source.endswith("0") or any(not c.isascii() and c.isdigit() for c in source)


class TestPropertyIdentity:
    @settings(max_examples=400, deadline=None)
    @given(_sources)
    def test_matches_the_oracle_outside_documented_differences(self, source):
        if _is_documented_difference(source):
            try:
                tokenize(source)
            except CLLexError:
                pass
            try:
                extract_features(f"__kernel void k(__global float* a) {{ a[0] = {source}; }}")
            except CLFrontendError:
                pass
        else:
            assert _outcome(tokenize, source) == _outcome(oracle_lexer.tokenize, source)

    @pytest.mark.parametrize("source", ["0", "a = 0", "x = 1\u00b2", "\u0663"])
    def test_documented_differences(self, source):
        assert _is_documented_difference(source)
        assert _outcome(tokenize, source) != _outcome(oracle_lexer.tokenize, source)
