"""Tokenizer for the OpenCL C subset used by the reproduction.

The paper extracts static features with an LLVM pass over the kernel's
intermediate representation.  We reproduce the same pipeline in pure Python:
this module turns OpenCL C source text into a token stream that the
recursive-descent parser (:mod:`repro.clkernel.parser`) consumes.

The subset covers everything the 12 test benchmarks and the 106 synthetic
micro-benchmarks need: address-space qualifiers, scalar and small vector
types, control flow, the usual C operator zoo, integer/float literals with
suffixes, line and block comments, and preprocessor-style `#define`-free
sources (the suite kernels are self-contained).
"""

from __future__ import annotations

import re
from enum import Enum, auto
from typing import NamedTuple

from .errors import CLLexError


class TokKind(Enum):
    """Token categories produced by :func:`tokenize`."""

    IDENT = auto()
    KEYWORD = auto()
    INT_LIT = auto()
    FLOAT_LIT = auto()
    PUNCT = auto()
    EOF = auto()


#: Reserved words of the subset.  Address-space and access qualifiers are
#: keywords so the parser can treat them as declaration specifiers.
KEYWORDS = frozenset(
    {
        "__kernel",
        "kernel",
        "__global",
        "global",
        "__local",
        "local",
        "__constant",
        "constant",
        "__private",
        "private",
        "__read_only",
        "__write_only",
        "const",
        "restrict",
        "volatile",
        "void",
        "bool",
        "char",
        "uchar",
        "short",
        "ushort",
        "int",
        "uint",
        "long",
        "ulong",
        "float",
        "double",
        "half",
        "size_t",
        "ptrdiff_t",
        "float2",
        "float3",
        "float4",
        "float8",
        "float16",
        "int2",
        "int3",
        "int4",
        "int8",
        "int16",
        "uint2",
        "uint4",
        "uchar4",
        "double2",
        "double4",
        "if",
        "else",
        "for",
        "while",
        "do",
        "return",
        "break",
        "continue",
        "barrier",
        "struct",
        "typedef",
        "unsigned",
        "signed",
        "inline",
        "static",
    }
)

#: Multi-character punctuation, longest first so maximal munch works.
_PUNCT3 = ("<<=", ">>=", "...")
_PUNCT2 = (
    "<<",
    ">>",
    "<=",
    ">=",
    "==",
    "!=",
    "&&",
    "||",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "&=",
    "|=",
    "^=",
    "++",
    "--",
    "->",
)
_PUNCT1 = "+-*/%<>=!&|^~?:;,.()[]{}#"


class Token(NamedTuple):
    """A single lexeme with its source position (1-based line/col)."""

    kind: TokKind
    text: str
    line: int
    col: int

    def is_punct(self, text: str) -> bool:
        return self.kind is TokKind.PUNCT and self.text == text

    def is_keyword(self, text: str) -> bool:
        return self.kind is TokKind.KEYWORD and self.text == text

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.name}, {self.text!r}, {self.line}:{self.col})"


#: One alternation, tried in order after any spaces and tabs, which every
#: match skips so a token needs one match, not two.  Number literals are
#: ASCII-only.  ``[^\W\d]\w*`` admits every word that starts with a letter
#: or underscore and continues with ``str.isalnum()`` characters; it also
#: admits a start like ``²`` (a digit that is not decimal), which
#: :func:`tokenize` rejects.  A hex head must be followed by an alphanumeric.
_MASTER = re.compile(
    r"[ \t]*(?:"
    r"(?P<trivia>(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)+)"
    r"|(?P<open_comment>/\*)"
    r"|(?P<bad_hex>0[xX](?![^\W_]))"
    r"|(?P<hex>0[xX][0-9a-fA-F]*[uUlL]*)"
    r"|(?P<decimal>(?:[0-9]+(?:\.(?!\.)[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?(?:[fF]|[uUlL]*))"
    r"|(?P<word>[^\W\d]\w*)"
    r"|(?P<punct>"
    + "|".join(re.escape(p) for p in _PUNCT3 + _PUNCT2)
    + "|["
    + re.escape(_PUNCT1)
    + "]))",
    re.S,
)


def tokenize(source: str) -> list[Token]:
    """Tokenize the whole source into a list that always ends with ``EOF``.

    The trailing ``EOF`` token keeps the parser free of bounds checks.
    """
    match = _MASTER.match
    tokens: list[Token] = []
    append = tokens.append
    pos, end = 0, len(source)
    line, bol = 1, 0  # bol: offset of the first character of ``line``
    while pos < end:
        # Spaces before a character no group accepts are returned as
        # trivia first, so ``None`` means ``source[pos]`` itself is bad.
        m = match(source, pos)
        if m is None:
            raise CLLexError(f"unexpected character {source[pos]!r}", line, pos - bol + 1)
        group = m.lastgroup
        assert group is not None  # the alternation always matches one group
        text = m.group(group)
        pos = m.end()
        if group == "trivia":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                bol = pos - len(text) + text.rindex("\n") + 1
            continue
        col = pos - len(text) - bol + 1
        if group == "word":
            if not text[0].isalpha() and text[0] != "_":
                raise CLLexError(f"unexpected character {text[0]!r}", line, col)
            kind = TokKind.KEYWORD if text in KEYWORDS else TokKind.IDENT
            append(Token(kind, text, line, col))
        elif group == "punct":
            append(Token(TokKind.PUNCT, text, line, col))
        elif group == "decimal":
            # A fraction, exponent or f suffix makes it a float.
            kind = TokKind.INT_LIT if text.rstrip("uUlL").isdigit() else TokKind.FLOAT_LIT
            append(Token(kind, text, line, col))
        elif group == "hex":
            append(Token(TokKind.INT_LIT, text, line, col))
        elif group == "bad_hex":
            raise CLLexError("malformed hex literal", line, col + 2)
        else:
            raise CLLexError("unterminated block comment", line, col)
    append(Token(TokKind.EOF, "", line, end - bol + 1))
    return tokens
