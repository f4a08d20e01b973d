"""Recursive-descent parser for the OpenCL C subset.

Grammar (informal)::

    unit        := function*
    function    := qualifiers type ident '(' params ')' block
    params      := (param (',' param)*)?
    param       := qualifiers type '*'? qualifiers? ident
    block       := '{' stmt* '}'
    stmt        := decl ';' | if | for | while | do-while | return ';'
                 | break ';' | continue ';' | barrier ';' | block | expr ';'
    expr        := assignment (incl. compound-assign), ternary,
                   binary w/ C precedence, unary, postfix, primary

An operand costs two frames: ``_parse_assignment`` climbs the binary
precedence chain in one loop, then parses its ``?:`` and assignment tail;
``_parse_unary`` loops over prefix operators and casts, then parses the
primary and its postfix chain.  Tokens are tested by ``tok.text`` alone:
punctuation, keyword and identifier texts never overlap.

The parser is deliberately permissive about OpenCL qualifiers it does not
model (``restrict``, ``volatile``, ``inline``) — they are accepted and
dropped, mirroring how Clang's IR erases them before the paper's feature
pass runs.

Nesting is bounded: every construct that nests — a parenthesized
expression, index subscript, call's arguments, prefix operator or cast,
ternary branch, assignment right-hand side, binary or comma operator, and
a block or ``if``/loop body — is one level, and a source nested deeper
than :data:`MAX_NESTING_DEPTH` levels raises :class:`CLParseError` at the
token that opens the level too many.  The parser, the lowering and the
IR walks all recurse per level, so the bound keeps hostile input a typed
error instead of a ``RecursionError``.
"""

from __future__ import annotations

from .ast_nodes import (
    AddressSpace,
    Assignment,
    BarrierStmt,
    BinaryOp,
    Block,
    BreakStmt,
    Call,
    Cast,
    CLType,
    ContinueStmt,
    DeclStmt,
    DoWhileStmt,
    Expr,
    ExprStmt,
    FloatLiteral,
    ForStmt,
    FunctionDef,
    Identifier,
    IfStmt,
    Index,
    IntLiteral,
    Member,
    ParamDecl,
    ReturnStmt,
    Stmt,
    Ternary,
    TranslationUnit,
    UnaryOp,
    WhileStmt,
    is_type_keyword,
)
from .errors import CLParseError
from .lexer import Token, TokKind, tokenize

#: Binary operator precedence (C rules); higher binds tighter.
_BIN_PRECEDENCE: dict[str, int] = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6,
    "!=": 6,
    "<": 7,
    ">": 7,
    "<=": 7,
    ">=": 7,
    "<<": 8,
    ">>": 8,
    "+": 9,
    "-": 9,
    "*": 10,
    "/": 10,
    "%": 10,
}

_PREFIX_OPS = frozenset({"-", "+", "!", "~", "*", "&", "++", "--"})

_ASSIGN_OPS = frozenset({"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="})

_ADDR_SPACE_KEYWORDS = frozenset(
    {"__global", "global", "__local", "local", "__constant", "constant", "__private", "private"}
)
_IGNORED_QUALIFIERS = frozenset(
    {"restrict", "volatile", "inline", "static", "__read_only", "__write_only"}
)
#: Token kinds as module globals: reading an ``Enum`` member off its class
#: costs several times a global lookup, and the parser tests kinds per token.
_IDENT, _KEYWORD, _INT_LIT, _FLOAT_LIT, _EOF = (
    TokKind.IDENT, TokKind.KEYWORD, TokKind.INT_LIT, TokKind.FLOAT_LIT, TokKind.EOF
)
_POINTER_QUALIFIERS = _IGNORED_QUALIFIERS | {"const"}
_DECL_QUALIFIERS = _POINTER_QUALIFIERS | _ADDR_SPACE_KEYWORDS
_COMPOUND_KEYWORDS = frozenset({"if", "for", "while", "do"})

#: Deepest statement-plus-expression nesting a source may have.  A level
#: costs the parser at most three Python frames (a parenthesized one:
#: ``_parse_expr``, ``_parse_assignment``, ``_parse_unary``; a prefix
#: operator, cast or binary operator none), so a source this deep parses,
#: lowers and extracts well inside the interpreter's default 1000-frame
#: recursion limit, even from a caller already some 150 frames down.
MAX_NESTING_DEPTH = 100


class Parser:
    """Token-stream → AST.  One instance per source file."""

    def __init__(self, tokens: list[Token]) -> None:
        self.toks = tokens
        self.idx = 0
        self._depth = 0
        #: Deepest ``_depth`` reached in the function being parsed.
        self._deepest = 0

    # -- cursor helpers ------------------------------------------------------
    # The cursor is ``self.toks[self.idx]``; it never moves past ``EOF``.

    def _next(self) -> Token:
        tok = self.toks[self.idx]
        if tok.kind is not _EOF:
            self.idx += 1
        return tok

    def _error(self, message: str, tok: Token | None = None) -> CLParseError:
        tok = tok or self.toks[self.idx]
        return CLParseError(f"{message} (got {tok.text!r})", tok.line, tok.col)

    def _descend(self, tok: Token) -> None:
        """Enter one nesting level opened by ``tok``; callers leave it by
        decrementing or restoring ``_depth`` (an error abandons the parse)."""
        self._depth += 1
        if self._depth > self._deepest:
            if self._depth > MAX_NESTING_DEPTH:
                raise self._error(f"nesting deeper than {MAX_NESTING_DEPTH} levels", tok)
            self._deepest = self._depth

    def _expect_punct(self, text: str) -> Token:
        tok = self._next()
        if tok.text != text:
            raise self._error(f"expected {text!r}", tok)
        return tok

    def _expect_ident(self) -> Token:
        tok = self._next()
        if tok.kind is not _IDENT:
            raise self._error("expected identifier", tok)
        return tok

    def _accept(self, text: str) -> bool:
        """Consume the cursor token if its text is ``text``."""
        if self.toks[self.idx].text == text:
            self.idx += 1
            return True
        return False

    # -- types and qualifiers --------------------------------------------------

    def _at_type(self) -> bool:
        """Is the cursor at the start of a declaration (qualifier or type)?"""
        tok = self.toks[self.idx]
        return tok.kind is _KEYWORD and (is_type_keyword(tok.text) or tok.text in _DECL_QUALIFIERS)

    def _parse_qualified_type(self) -> CLType:
        """Parse ``[qualifiers] type ['*']`` into a :class:`CLType`."""
        space = AddressSpace.PRIVATE
        is_const = False
        saw_space = False
        while True:
            text = self.toks[self.idx].text
            if text in _ADDR_SPACE_KEYWORDS:
                space = AddressSpace.from_keyword(text)
                saw_space = True
            elif text == "const":
                is_const = True
            elif text not in _IGNORED_QUALIFIERS:
                break
            self.idx += 1

        tok = self._next()
        if tok.kind is not _KEYWORD or not is_type_keyword(tok.text):
            raise self._error("expected type name", tok)
        base = CLType.from_name(tok.text)

        # Trailing qualifiers between type and '*' (e.g. `float const *`).
        while self._accept("const"):
            is_const = True

        if self._accept("*"):
            # Qualifiers after '*' apply to the pointer itself; drop them.
            while self.toks[self.idx].text in _POINTER_QUALIFIERS:
                self.idx += 1
            # A pointer with no explicit space defaults to global, matching
            # how the suite kernels are written.
            ptr_space = space if saw_space else AddressSpace.GLOBAL
            return base.pointer_to(ptr_space, const=is_const)

        if space is AddressSpace.PRIVATE and not is_const:
            return base  # equal to the type built below, and shared
        return CLType(base.name, base.kind, base.lanes, address_space=space, is_const=is_const)

    # -- top level ----------------------------------------------------------

    def parse_unit(self) -> TranslationUnit:
        unit = TranslationUnit()
        while self.toks[self.idx].kind is not _EOF:
            unit.functions.append(self._parse_function())
        return unit

    def _parse_function(self) -> FunctionDef:
        start = self.toks[self.idx]
        is_kernel = False
        while True:
            text = self.toks[self.idx].text
            if text == "__kernel" or text == "kernel":
                is_kernel = True
            elif text not in _IGNORED_QUALIFIERS:
                break
            self.idx += 1

        return_type = self._parse_qualified_type()
        name_tok = self._expect_ident()
        self._expect_punct("(")
        params: list[ParamDecl] = []
        if self.toks[self.idx].text != ")":
            while True:
                params.append(self._parse_param())
                if not self._accept(","):
                    break
        self._expect_punct(")")
        self._deepest = 0
        body = self._parse_block()
        return FunctionDef(
            name=name_tok.text,
            return_type=return_type,
            params=params,
            body=body,
            is_kernel=is_kernel,
            line=start.line,
            depth=self._deepest,
        )

    def _parse_param(self) -> ParamDecl:
        ptype = self._parse_qualified_type()
        tok = self._expect_ident()
        return ParamDecl(param_type=ptype, name=tok.text, line=tok.line)

    # -- statements ----------------------------------------------------------

    def _parse_block(self) -> Block:
        open_tok = self._expect_punct("{")
        block = Block(line=open_tok.line)
        toks = self.toks
        while toks[self.idx].text != "}":
            if toks[self.idx].kind is _EOF:
                raise self._error("unterminated block", open_tok)
            block.statements.append(self._parse_stmt())
        self.idx += 1
        return block

    def _parse_stmt(self) -> Stmt:
        tok = self.toks[self.idx]
        text = tok.text
        if text == "{" or text in _COMPOUND_KEYWORDS:
            self._descend(tok)
            if text == "{":
                stmt: Stmt = self._parse_block()
            elif text == "if":
                stmt = self._parse_if()
            elif text == "for":
                stmt = self._parse_for()
            elif text == "while":
                stmt = self._parse_while()
            else:
                stmt = self._parse_do_while()
            self._depth -= 1
            return stmt
        if text == "return":
            self.idx += 1
            value = None if self.toks[self.idx].text == ";" else self._parse_expr()
            self._expect_punct(";")
            return ReturnStmt(value=value, line=tok.line)
        if text == "break":
            self.idx += 1
            self._expect_punct(";")
            return BreakStmt(line=tok.line)
        if text == "continue":
            self.idx += 1
            self._expect_punct(";")
            return ContinueStmt(line=tok.line)
        if text == "barrier":
            self.idx += 1
            self._expect_punct("(")
            fence_parts: list[str] = []
            depth = 1
            while depth:
                inner = self._next()
                if inner.kind is _EOF:
                    raise self._error("unterminated barrier()", tok)
                if inner.text == "(":
                    depth += 1
                elif inner.text == ")":
                    depth -= 1
                    if depth == 0:
                        break
                fence_parts.append(inner.text)
            self._expect_punct(";")
            return BarrierStmt(fence="".join(fence_parts), line=tok.line)
        # A type keyword directly followed by '(' is a vector-constructor
        # expression (`float4(…)`), not a declaration.
        if self._at_type() and not (
            is_type_keyword(text) and self.toks[self.idx + 1].text == "("
        ):
            decl = self._parse_decl()
            self._expect_punct(";")
            return decl
        if text == ";":
            self.idx += 1
            return ExprStmt(expr=None, line=tok.line)
        expr = self._parse_expr()
        self._expect_punct(";")
        return ExprStmt(expr=expr, line=tok.line)

    def _parse_decl(self) -> DeclStmt:
        dtype = self._parse_qualified_type()
        name_tok = self._expect_ident()
        init: Expr | None = None
        if self._accept("="):
            init = self._parse_assignment()
        return DeclStmt(decl_type=dtype, name=name_tok.text, init=init, line=name_tok.line)

    def _parse_if(self) -> IfStmt:
        tok = self._next()  # 'if'
        self._expect_punct("(")
        cond = self._parse_expr()
        self._expect_punct(")")
        then = self._parse_stmt()
        otherwise: Stmt | None = None
        if self._accept("else"):
            otherwise = self._parse_stmt()
        return IfStmt(cond=cond, then=then, otherwise=otherwise, line=tok.line)

    def _parse_for(self) -> ForStmt:
        tok = self._next()  # 'for'
        self._expect_punct("(")
        init: Stmt | None = None
        if self.toks[self.idx].text != ";":
            if self._at_type():
                init = self._parse_decl()
            else:
                init = ExprStmt(expr=self._parse_expr(), line=self.toks[self.idx].line)
        self._expect_punct(";")
        cond = None if self.toks[self.idx].text == ";" else self._parse_expr()
        self._expect_punct(";")
        step = None if self.toks[self.idx].text == ")" else self._parse_expr()
        self._expect_punct(")")
        body = self._parse_stmt()
        return ForStmt(init=init, cond=cond, step=step, body=body, line=tok.line)

    def _parse_while(self) -> WhileStmt:
        tok = self._next()
        self._expect_punct("(")
        cond = self._parse_expr()
        self._expect_punct(")")
        body = self._parse_stmt()
        return WhileStmt(cond=cond, body=body, line=tok.line)

    def _parse_do_while(self) -> DoWhileStmt:
        tok = self._next()  # 'do'
        body = self._parse_stmt()
        if not self._accept("while"):
            raise self._error("expected 'while' after do-body")
        self._expect_punct("(")
        cond = self._parse_expr()
        self._expect_punct(")")
        self._expect_punct(";")
        return DoWhileStmt(body=body, cond=cond, line=tok.line)

    # -- expressions -----------------------------------------------------------

    def _parse_expr(self) -> Expr:
        expr = self._parse_assignment()
        depth = self._depth
        # Comma operator: evaluate both; used in for-steps like `i++, j++`.
        # Each one deepens the left-leaning tree by a level.
        while self.toks[self.idx].text == "," and self._comma_allowed:
            self._descend(self._next())
            rhs = self._parse_assignment()
            expr = BinaryOp(op=",", lhs=expr, rhs=rhs, line=expr.line)
        self._depth = depth
        return expr

    #: The comma operator is only valid where it cannot be confused with an
    #: argument separator; the call-argument parser flips this off.
    _comma_allowed = True

    def _parse_assignment(self) -> Expr:
        """A binary-operator chain, then an optional ``?:`` and assignment.

        The chain climbs precedences over a stack of open operators, each
        ``(lhs, operator, floor, base)``: ``floor`` is the lowest precedence
        its right operand may absorb, ``base`` the depth it restores on
        closing.  Each operator is one nesting level.
        """
        toks = self.toks
        entry = self._depth
        lhs = self._parse_unary()
        stack: list[tuple[Expr, Token, int, int]] = []
        floor, base = 1, entry
        while True:
            tok = toks[self.idx]
            prec = _BIN_PRECEDENCE.get(tok.text, 0)
            if prec >= floor:
                self.idx += 1
                self._descend(tok)
                stack.append((lhs, tok, floor, base))
                floor, base = prec + 1, self._depth
                lhs = self._parse_unary()
            elif stack:
                self._depth = base
                left, op, floor, base = stack.pop()
                lhs = BinaryOp(op=op.text, lhs=left, rhs=lhs, line=op.line)
            else:
                break
        self._depth = entry

        if tok.text == "?":
            self.idx += 1
            self._descend(tok)
            then = self._parse_assignment()
            self._expect_punct(":")
            otherwise = self._parse_assignment()
            self._depth -= 1
            lhs = Ternary(cond=lhs, then=then, otherwise=otherwise, line=lhs.line)
            tok = toks[self.idx]
        if tok.text in _ASSIGN_OPS:
            self.idx += 1
            self._descend(tok)
            value = self._parse_assignment()
            self._depth -= 1
            return Assignment(op=tok.text, target=lhs, value=value, line=tok.line)
        return lhs

    def _parse_unary(self) -> Expr:
        """Prefix operators and casts, a primary, then its postfix chain."""
        toks = self.toks
        entry = self._depth
        prefixes: list[tuple[Token, CLType | None]] = []  # outermost first
        while True:
            tok = toks[self.idx]
            text = tok.text
            if text in _PREFIX_OPS:
                self.idx += 1
                self._descend(tok)
                prefixes.append((tok, None))
            elif text == "(" and self._is_cast_ahead():
                self.idx += 1
                self._descend(tok)
                ctype = self._parse_qualified_type()
                self._expect_punct(")")
                prefixes.append((tok, ctype))
            else:
                break

        kind = tok.kind
        if kind is _IDENT:
            self.idx += 1
            if toks[self.idx].text == "(":
                expr: Expr = self._parse_call(text, tok)
            else:
                expr = Identifier(name=text, line=tok.line)
        elif kind is _INT_LIT:
            self.idx += 1
            try:
                value = int(text.rstrip("uUlL"), 0)
            except ValueError:
                raise self._error("malformed integer literal", tok) from None
            expr = IntLiteral(value=value, text=text, line=tok.line)
        elif kind is _FLOAT_LIT:
            self.idx += 1
            try:
                fvalue = float(text.rstrip("fF"))
            except ValueError:
                raise self._error("malformed float literal", tok) from None
            expr = FloatLiteral(value=fvalue, text=text, line=tok.line)
        elif text == "(":
            self.idx += 1
            self._descend(tok)
            saved = self._comma_allowed
            self._comma_allowed = True
            expr = self._parse_expr()
            self._comma_allowed = saved
            self._expect_punct(")")
            self._depth -= 1
        elif kind is _KEYWORD and is_type_keyword(text):
            # Vector constructor: float4(a,b,c,d) — treated as a call.
            if toks[self.idx + 1].text != "(":
                raise self._error("unexpected type keyword in expression", tok)
            self.idx += 1
            expr = self._parse_call(text, tok)
        else:
            raise self._error("expected expression", tok)

        while True:
            tok = toks[self.idx]
            text = tok.text
            if text == "[":
                self.idx += 1
                self._descend(tok)
                index = self._parse_expr()
                self._expect_punct("]")
                self._depth -= 1
                expr = Index(base=expr, index=index, line=tok.line)
            elif text == ".":
                self.idx += 1
                member = self._expect_ident()
                expr = Member(base=expr, member=member.text, line=tok.line)
            elif text == "++" or text == "--":
                self.idx += 1
                expr = UnaryOp(op=text, operand=expr, postfix=True, line=tok.line)
            else:
                break

        if prefixes:
            for tok, ctype in reversed(prefixes):
                if ctype is None:
                    expr = UnaryOp(op=tok.text, operand=expr, line=tok.line)
                else:
                    expr = Cast(target_type=ctype, operand=expr, line=tok.line)
            self._depth = entry
        return expr

    def _is_cast_ahead(self) -> bool:
        """Lookahead at a '(': is ``( type-keyword`` a cast, not a paren-expr?"""
        nxt = self.toks[self.idx + 1]
        return nxt.kind is _KEYWORD and (
            is_type_keyword(nxt.text) or nxt.text in _ADDR_SPACE_KEYWORDS
        )

    def _parse_call(self, callee: str, tok: Token) -> Call:
        self._descend(self._expect_punct("("))
        args: list[Expr] = []
        saved = self._comma_allowed
        self._comma_allowed = False
        if self.toks[self.idx].text != ")":
            while True:
                args.append(self._parse_assignment())
                if not self._accept(","):
                    break
        self._expect_punct(")")
        self._comma_allowed = saved
        self._depth -= 1
        return Call(callee=callee, args=args, line=tok.line)


def parse(source: str) -> TranslationUnit:
    """Parse OpenCL-subset ``source`` text into a :class:`TranslationUnit`."""
    return Parser(tokenize(source)).parse_unit()


def parse_kernel(source: str, name: str | None = None) -> FunctionDef:
    """Parse ``source`` and return its (named or sole) ``__kernel`` function."""
    unit = parse(source)
    kernels = unit.kernels()
    if not kernels:
        raise CLParseError("source contains no __kernel function")
    if name is None:
        if len(kernels) > 1:
            raise CLParseError(
                f"source has {len(kernels)} kernels; specify a name: "
                + ", ".join(k.name for k in kernels)
            )
        return kernels[0]
    for k in kernels:
        if k.name == name:
            return k
    raise CLParseError(f"no kernel named {name!r} in source")
