"""The hand-written character-at-a-time lexer, kept as a test oracle.

This is the tokenizer ``repro.clkernel.lexer`` used before the compiled
master-regex lexer replaced it.  It is kept verbatim so the identity tests in
``test_lexer_identity.py`` can check the production lexer token for token.

It has two known bugs that the production lexer fixes on purpose:

* A source ending in ``0`` fails to lex: ``_scan_number`` tests
  ``self._peek(1) in "xX"``, and at end of input ``_peek(1)`` returns ``""``,
  which is ``in`` every string, so ``tokenize("0")`` raises "malformed hex
  literal".
* Number literals accept any character with ``str.isdigit()`` (for example
  ``²``), which the parser's ``int()``/``float()`` then reject.  The production
  lexer's number literals are ASCII-only.
"""

from __future__ import annotations

from typing import Iterator

from repro.clkernel.errors import CLLexError
from repro.clkernel.lexer import _PUNCT1, _PUNCT2, _PUNCT3, KEYWORDS, Token, TokKind


class Lexer:
    """Hand-written maximal-munch tokenizer.

    Usage::

        tokens = Lexer(source).tokenize()

    The returned list always ends with a single ``EOF`` token, which keeps
    the parser free of bounds checks.
    """

    def __init__(self, source: str) -> None:
        self.src = source
        self.pos = 0
        self.line = 1
        self.col = 1

    # -- low-level cursor helpers ------------------------------------------

    def _peek(self, offset: int = 0) -> str:
        idx = self.pos + offset
        return self.src[idx] if idx < len(self.src) else ""

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self.pos >= len(self.src):
                return
            if self.src[self.pos] == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
            self.pos += 1

    def _error(self, message: str) -> CLLexError:
        return CLLexError(message, self.line, self.col)

    # -- skipping ----------------------------------------------------------

    def _skip_trivia(self) -> None:
        """Skip whitespace and comments; raise on unterminated block comment."""
        while self.pos < len(self.src):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.src) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                start_line, start_col = self.line, self.col
                self._advance(2)
                while self.pos < len(self.src):
                    if self._peek() == "*" and self._peek(1) == "/":
                        self._advance(2)
                        break
                    self._advance()
                else:
                    raise CLLexError("unterminated block comment", start_line, start_col)
            else:
                return

    # -- literal scanning ----------------------------------------------------

    def _scan_number(self) -> Token:
        line, col = self.line, self.col
        start = self.pos
        is_float = False

        if self._peek() == "0" and self._peek(1) in "xX":
            self._advance(2)
            if not self._peek().isalnum():
                raise self._error("malformed hex literal")
            while self._peek() and self._peek() in "0123456789abcdefABCDEF":
                self._advance()
        else:
            while self._peek().isdigit():
                self._advance()
            if self._peek() == "." and self._peek(1) != ".":
                is_float = True
                self._advance()
                while self._peek().isdigit():
                    self._advance()
            exp_head = self._peek()
            exp_next = self._peek(1)
            if exp_head in ("e", "E") and (
                exp_next.isdigit()
                or (exp_next in ("+", "-") and self._peek(2).isdigit())
            ):
                is_float = True
                self._advance()
                if self._peek() in ("+", "-"):
                    self._advance()
                while self._peek().isdigit():
                    self._advance()

        # Suffixes: f/F marks float; u/U, l/L are integer suffixes.
        if self._peek() in ("f", "F"):
            is_float = True
            self._advance()
        else:
            while self._peek() in ("u", "U", "l", "L"):
                self._advance()

        text = self.src[start : self.pos]
        kind = TokKind.FLOAT_LIT if is_float else TokKind.INT_LIT
        return Token(kind, text, line, col)

    def _scan_word(self) -> Token:
        line, col = self.line, self.col
        start = self.pos
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        text = self.src[start : self.pos]
        kind = TokKind.KEYWORD if text in KEYWORDS else TokKind.IDENT
        return Token(kind, text, line, col)

    def _scan_punct(self) -> Token:
        line, col = self.line, self.col
        rest = self.src[self.pos : self.pos + 3]
        for group in (_PUNCT3, _PUNCT2):
            for p in group:
                if rest.startswith(p):
                    self._advance(len(p))
                    return Token(TokKind.PUNCT, p, line, col)
        ch = self._peek()
        if ch in _PUNCT1:
            self._advance()
            return Token(TokKind.PUNCT, ch, line, col)
        raise self._error(f"unexpected character {ch!r}")

    # -- public API ----------------------------------------------------------

    def tokens(self) -> Iterator[Token]:
        """Yield tokens one at a time, ending with EOF."""
        while True:
            self._skip_trivia()
            if self.pos >= len(self.src):
                yield Token(TokKind.EOF, "", self.line, self.col)
                return
            ch = self._peek()
            if ch.isdigit() or (ch == "." and self._peek(1).isdigit()):
                yield self._scan_number()
            elif ch.isalpha() or ch == "_":
                yield self._scan_word()
            else:
                yield self._scan_punct()

    def tokenize(self) -> list[Token]:
        """Tokenize the whole source into a list (always EOF-terminated)."""
        return list(self.tokens())


def tokenize(source: str) -> list[Token]:
    """Tokenize ``source`` with a fresh oracle :class:`Lexer`."""
    return Lexer(source).tokenize()
