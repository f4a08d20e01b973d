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


#: Most tokens one source may have (the largest corpus kernel has 3,157):
#: :func:`tokenize` refuses the first token past it.
MAX_TOKENS = 65_536

#: One alternation, tried in order after any spaces and tabs, which every
#: match skips.  :func:`tokenize` scans it once with ``finditer``; ``bad``
#: takes any character the others refuse, so the matches tile the source.
#: ``newline`` is one line break plus the next line's indentation; block
#: comments are the only other trivia that span lines.  Number literals
#: are ASCII-only.  ``[^\W\d]\w*`` admits every word that starts with a
#: letter or underscore and continues with ``str.isalnum()`` characters;
#: it also admits a start like ``²`` (a digit that is not decimal), which
#: :func:`tokenize` rejects.  A hex head must be followed by an alphanumeric.
_MASTER = re.compile(
    r"[ \t]*(?:"
    r"(?P<word>[^\W\d]\w*)"
    r"|(?P<newline>\n[ \t\r]*)"
    r"|(?P<trivia>(?:[ \t\r]+|//[^\n]*|/\*.*?\*/)+)"
    r"|(?P<open_comment>/\*)"
    r"|(?P<bad_hex>0[xX](?![^\W_]))"
    r"|(?P<hex>0[xX][0-9a-fA-F]*[uUlL]*)"
    r"|(?P<decimal>(?:[0-9]+(?:\.(?!\.)[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?(?:[fF]|[uUlL]*))"
    r"|(?P<punct>"
    + "|".join(re.escape(p) for p in _PUNCT3 + _PUNCT2)
    + "|["
    + re.escape(_PUNCT1)
    + "])"
    r"|(?P<bad>.))",
    re.S,
)


def tokenize(source: str) -> list[Token]:
    """Tokenize the whole source into a list that always ends with ``EOF``.

    The trailing ``EOF`` token keeps the parser free of bounds checks.
    """
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__  # Token(...) without its Python-level __new__
    # Enum members read off their class cost a lookup each; bind them once.
    ident, keyword, punct, int_lit = TokKind.IDENT, TokKind.KEYWORD, TokKind.PUNCT, TokKind.INT_LIT
    line, bol = 1, 0  # bol: offset of the first character of ``line``
    for m in _MASTER.finditer(source):
        group = m.lastgroup
        text = m[group]
        start = m.start(group)
        if group == "word":
            # Every ASCII start the pattern admits is a letter or "_".
            if text[0] > "z" and not text[0].isalpha():
                raise CLLexError(f"unexpected character {text[0]!r}", line, start - bol + 1)
            kind = keyword if text in KEYWORDS else ident
        elif group == "punct":
            kind = punct
        elif group == "newline":
            line += 1
            bol = start + 1
            continue
        elif group == "trivia":
            if "\n" in text:
                line += text.count("\n")
                bol = start + text.rindex("\n") + 1
            continue
        elif group == "decimal":
            # A fraction, exponent or f suffix makes it a float.
            kind = int_lit if text.rstrip("uUlL").isdigit() else TokKind.FLOAT_LIT
        elif group == "hex":
            kind = int_lit
        elif group == "bad_hex":
            raise CLLexError("malformed hex literal", line, start - bol + 3)
        elif group == "open_comment":
            raise CLLexError("unterminated block comment", line, start - bol + 1)
        else:
            raise CLLexError(f"unexpected character {text!r}", line, start - bol + 1)
        col = start - bol + 1
        if len(tokens) == MAX_TOKENS:
            raise CLLexError(f"source exceeds {MAX_TOKENS} tokens", line, col)
        append(new(Token, (kind, text, line, col)))
    append(Token(TokKind.EOF, "", line, len(source) - bol + 1))
    return tokens
