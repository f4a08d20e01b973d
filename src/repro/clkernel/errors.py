"""Error types for the OpenCL-subset frontend.

The frontend (lexer → parser → lowering) reports all user-facing problems
through :class:`CLFrontendError` subclasses so that callers can uniformly
catch "the kernel source is malformed" without depending on which stage
failed.
"""

from __future__ import annotations


class CLFrontendError(Exception):
    """Base class for all kernel-frontend errors.

    Parameters
    ----------
    message:
        Human readable description.
    line, col:
        1-based source position when known; 0 when unavailable.
    """

    def __init__(self, message: str, line: int = 0, col: int = 0) -> None:
        self.message = message
        self.line = line
        self.col = col
        location = f" at {line}:{col}" if line else ""
        super().__init__(f"{message}{location}")


class CLLexError(CLFrontendError):
    """Raised by the lexer on an unrecognized character or malformed literal."""


class CLParseError(CLFrontendError):
    """Raised by the parser on a syntactically invalid token sequence."""


class CLLoweringError(CLFrontendError):
    """Raised during AST → IR lowering (e.g. unknown builtin, bad address space)."""

