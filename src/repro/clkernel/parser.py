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
_COMPOUND_KEYWORDS = frozenset({"if", "for", "while", "do"})

#: Deepest statement-plus-expression nesting a source may have.  A
#: parenthesized level costs the recursive-descent parser seven Python
#: frames, so a source this deep parses, lowers and extracts well inside
#: the interpreter's default 1000-frame recursion limit, even from a
#: caller already some 150 frames down.
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

    def _peek(self, offset: int = 0) -> Token:
        if not offset:
            return self.toks[self.idx]  # _next never advances past EOF
        return self.toks[min(self.idx + offset, len(self.toks) - 1)]

    def _next(self) -> Token:
        tok = self.toks[self.idx]
        if tok.kind is not TokKind.EOF:
            self.idx += 1
        return tok

    def _error(self, message: str, tok: Token | None = None) -> CLParseError:
        tok = tok or self._peek()
        return CLParseError(f"{message} (got {tok.text!r})", tok.line, tok.col)

    def _descend(self, tok: Token) -> None:
        """Enter one nesting level opened by ``tok``; callers leave it by
        decrementing ``_depth`` (an error abandons the whole parse)."""
        self._depth += 1
        if self._depth > self._deepest:
            if self._depth > MAX_NESTING_DEPTH:
                raise self._error(f"nesting deeper than {MAX_NESTING_DEPTH} levels", tok)
            self._deepest = self._depth

    def _expect_punct(self, text: str) -> Token:
        tok = self._next()
        if not tok.is_punct(text):
            raise self._error(f"expected {text!r}", tok)
        return tok

    def _expect_ident(self) -> Token:
        tok = self._next()
        if tok.kind is not TokKind.IDENT:
            raise self._error("expected identifier", tok)
        return tok

    def _accept_punct(self, text: str) -> bool:
        if self._peek().is_punct(text):
            self._next()
            return True
        return False

    def _accept_keyword(self, text: str) -> bool:
        if self._peek().is_keyword(text):
            self._next()
            return True
        return False

    # -- types and qualifiers --------------------------------------------------

    def _at_type(self) -> bool:
        """Is the cursor at the start of a declaration (qualifier or type)?"""
        tok = self._peek()
        if tok.kind is not TokKind.KEYWORD:
            return False
        return (
            is_type_keyword(tok.text)
            or tok.text in _ADDR_SPACE_KEYWORDS
            or tok.text == "const"
            or tok.text in _IGNORED_QUALIFIERS
        )

    def _parse_qualified_type(self) -> CLType:
        """Parse ``[qualifiers] type ['*']`` into a :class:`CLType`."""
        space = AddressSpace.PRIVATE
        is_const = False
        saw_space = False
        while True:
            tok = self._peek()
            if tok.kind is TokKind.KEYWORD and tok.text in _ADDR_SPACE_KEYWORDS:
                space = AddressSpace.from_keyword(tok.text)
                saw_space = True
                self._next()
            elif tok.is_keyword("const"):
                is_const = True
                self._next()
            elif tok.kind is TokKind.KEYWORD and tok.text in _IGNORED_QUALIFIERS:
                self._next()
            else:
                break

        tok = self._next()
        if tok.kind is not TokKind.KEYWORD or not is_type_keyword(tok.text):
            raise self._error("expected type name", tok)
        base = CLType.from_name(tok.text)

        # Trailing qualifiers between type and '*' (e.g. `float const *`).
        while self._accept_keyword("const"):
            is_const = True

        if self._accept_punct("*"):
            # Qualifiers after '*' apply to the pointer itself; drop them.
            while self._peek().kind is TokKind.KEYWORD and (
                self._peek().text in _IGNORED_QUALIFIERS or self._peek().text == "const"
            ):
                self._next()
            # A pointer with no explicit space defaults to global, matching
            # how the suite kernels are written.
            ptr_space = space if saw_space else AddressSpace.GLOBAL
            return base.pointer_to(ptr_space, const=is_const)

        if is_const:
            return CLType(
                name=base.name,
                kind=base.kind,
                lanes=base.lanes,
                is_const=True,
                address_space=space,
            )
        if saw_space:
            return CLType(
                name=base.name,
                kind=base.kind,
                lanes=base.lanes,
                address_space=space,
            )
        return base

    # -- top level ----------------------------------------------------------

    def parse_unit(self) -> TranslationUnit:
        unit = TranslationUnit()
        while self._peek().kind is not TokKind.EOF:
            unit.functions.append(self._parse_function())
        return unit

    def _parse_function(self) -> FunctionDef:
        start = self._peek()
        is_kernel = False
        while True:
            tok = self._peek()
            if tok.is_keyword("__kernel") or tok.is_keyword("kernel"):
                is_kernel = True
                self._next()
            elif tok.kind is TokKind.KEYWORD and tok.text in _IGNORED_QUALIFIERS:
                self._next()
            else:
                break

        return_type = self._parse_qualified_type()
        name_tok = self._expect_ident()
        self._expect_punct("(")
        params: list[ParamDecl] = []
        if not self._peek().is_punct(")"):
            while True:
                params.append(self._parse_param())
                if not self._accept_punct(","):
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
        while not self._peek().is_punct("}"):
            if self._peek().kind is TokKind.EOF:
                raise self._error("unterminated block", open_tok)
            block.statements.append(self._parse_stmt())
        self._expect_punct("}")
        return block

    def _parse_stmt(self) -> Stmt:
        tok = self._peek()
        if tok.is_punct("{") or (
            tok.kind is TokKind.KEYWORD and tok.text in _COMPOUND_KEYWORDS
        ):
            self._descend(tok)
            stmt = self._parse_compound(tok)
            self._depth -= 1
            return stmt
        if tok.is_keyword("return"):
            self._next()
            value = None if self._peek().is_punct(";") else self._parse_expr()
            self._expect_punct(";")
            return ReturnStmt(value=value, line=tok.line)
        if tok.is_keyword("break"):
            self._next()
            self._expect_punct(";")
            return BreakStmt(line=tok.line)
        if tok.is_keyword("continue"):
            self._next()
            self._expect_punct(";")
            return ContinueStmt(line=tok.line)
        if tok.is_keyword("barrier"):
            self._next()
            self._expect_punct("(")
            fence_parts: list[str] = []
            depth = 1
            while depth:
                inner = self._next()
                if inner.kind is TokKind.EOF:
                    raise self._error("unterminated barrier()", tok)
                if inner.is_punct("("):
                    depth += 1
                elif inner.is_punct(")"):
                    depth -= 1
                    if depth == 0:
                        break
                fence_parts.append(inner.text)
            self._expect_punct(";")
            return BarrierStmt(fence="".join(fence_parts), line=tok.line)
        # A type keyword directly followed by '(' is a vector-constructor
        # expression (`float4(…)`), not a declaration.
        if self._at_type() and not (
            tok.kind is TokKind.KEYWORD
            and is_type_keyword(tok.text)
            and self._peek(1).is_punct("(")
        ):
            decl = self._parse_decl()
            self._expect_punct(";")
            return decl
        if tok.is_punct(";"):
            self._next()
            return ExprStmt(expr=None, line=tok.line)
        expr = self._parse_expr()
        self._expect_punct(";")
        return ExprStmt(expr=expr, line=tok.line)

    def _parse_compound(self, tok: Token) -> Stmt:
        if tok.is_punct("{"):
            return self._parse_block()
        if tok.text == "if":
            return self._parse_if()
        if tok.text == "for":
            return self._parse_for()
        if tok.text == "while":
            return self._parse_while()
        return self._parse_do_while()

    def _parse_decl(self) -> DeclStmt:
        dtype = self._parse_qualified_type()
        name_tok = self._expect_ident()
        init: Expr | None = None
        if self._accept_punct("="):
            init = self._parse_assignment()
        return DeclStmt(decl_type=dtype, name=name_tok.text, init=init, line=name_tok.line)

    def _parse_if(self) -> IfStmt:
        tok = self._next()  # 'if'
        self._expect_punct("(")
        cond = self._parse_expr()
        self._expect_punct(")")
        then = self._parse_stmt()
        otherwise: Stmt | None = None
        if self._accept_keyword("else"):
            otherwise = self._parse_stmt()
        return IfStmt(cond=cond, then=then, otherwise=otherwise, line=tok.line)

    def _parse_for(self) -> ForStmt:
        tok = self._next()  # 'for'
        self._expect_punct("(")
        init: Stmt | None = None
        if not self._peek().is_punct(";"):
            if self._at_type():
                init = self._parse_decl()
            else:
                init = ExprStmt(expr=self._parse_expr(), line=self._peek().line)
        self._expect_punct(";")
        cond = None if self._peek().is_punct(";") else self._parse_expr()
        self._expect_punct(";")
        step = None if self._peek().is_punct(")") else self._parse_expr()
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
        if not self._accept_keyword("while"):
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
        while self._peek().is_punct(",") and self._comma_allowed:
            self._descend(self._next())
            rhs = self._parse_assignment()
            expr = BinaryOp(op=",", lhs=expr, rhs=rhs, line=expr.line)
        self._depth = depth
        return expr

    #: The comma operator is only valid where it cannot be confused with an
    #: argument separator; the call-argument parser flips this off.
    _comma_allowed = True

    def _parse_assignment(self) -> Expr:
        lhs = self._parse_ternary()
        tok = self._peek()
        if tok.kind is TokKind.PUNCT and tok.text in _ASSIGN_OPS:
            self._descend(self._next())
            rhs = self._parse_assignment()
            self._depth -= 1
            return Assignment(op=tok.text, target=lhs, value=rhs, line=tok.line)
        return lhs

    def _parse_ternary(self) -> Expr:
        cond = self._parse_binary(1)
        if self._peek().is_punct("?"):
            self._descend(self._next())
            then = self._parse_assignment()
            self._expect_punct(":")
            otherwise = self._parse_assignment()
            self._depth -= 1
            return Ternary(cond=cond, then=then, otherwise=otherwise, line=cond.line)
        return cond

    def _parse_binary(self, min_prec: int) -> Expr:
        lhs = self._parse_unary()
        depth = self._depth
        while True:
            tok = self._peek()
            if tok.kind is not TokKind.PUNCT:
                break
            prec = _BIN_PRECEDENCE.get(tok.text, 0)
            if prec < min_prec or prec == 0:
                break
            # Each operator deepens the left-leaning tree by a level.
            self._descend(self._next())
            rhs = self._parse_binary(prec + 1)
            lhs = BinaryOp(op=tok.text, lhs=lhs, rhs=rhs, line=tok.line)
        self._depth = depth
        return lhs

    def _parse_unary(self) -> Expr:
        tok = self._peek()
        if tok.kind is TokKind.PUNCT and tok.text in _PREFIX_OPS:
            self._descend(self._next())
            operand = self._parse_unary()
            self._depth -= 1
            return UnaryOp(op=tok.text, operand=operand, line=tok.line)
        # C-style cast: '(' type ')' unary
        if tok.is_punct("(") and self._is_cast_ahead():
            self._descend(self._next())
            ctype = self._parse_qualified_type()
            self._expect_punct(")")
            operand = self._parse_unary()
            self._depth -= 1
            return Cast(target_type=ctype, operand=operand, line=tok.line)
        return self._parse_postfix()

    def _is_cast_ahead(self) -> bool:
        """Lookahead: is ``( type-keyword`` a cast rather than a paren-expr?"""
        nxt = self._peek(1)
        return nxt.kind is TokKind.KEYWORD and (
            is_type_keyword(nxt.text) or nxt.text in _ADDR_SPACE_KEYWORDS
        )

    def _parse_postfix(self) -> Expr:
        expr = self._parse_primary()
        while True:
            tok = self._peek()
            if tok.is_punct("["):
                self._descend(self._next())
                index = self._parse_expr()
                self._expect_punct("]")
                self._depth -= 1
                expr = Index(base=expr, index=index, line=tok.line)
            elif tok.is_punct("."):
                self._next()
                member = self._expect_ident()
                expr = Member(base=expr, member=member.text, line=tok.line)
            elif tok.kind is TokKind.PUNCT and tok.text in ("++", "--"):
                self._next()
                expr = UnaryOp(op=tok.text, operand=expr, postfix=True, line=tok.line)
            else:
                return expr

    def _parse_primary(self) -> Expr:
        tok = self._next()
        if tok.kind is TokKind.INT_LIT:
            try:
                value = int(tok.text.rstrip("uUlL"), 0)
            except ValueError:
                raise self._error("malformed integer literal", tok) from None
            return IntLiteral(value=value, text=tok.text, line=tok.line)
        if tok.kind is TokKind.FLOAT_LIT:
            try:
                fvalue = float(tok.text.rstrip("fF"))
            except ValueError:
                raise self._error("malformed float literal", tok) from None
            return FloatLiteral(value=fvalue, text=tok.text, line=tok.line)
        if tok.kind is TokKind.IDENT:
            if self._peek().is_punct("("):
                return self._parse_call(tok.text, tok)
            return Identifier(name=tok.text, line=tok.line)
        if tok.kind is TokKind.KEYWORD and is_type_keyword(tok.text):
            # Vector constructor: float4(a,b,c,d) — treated as a call.
            if self._peek().is_punct("("):
                return self._parse_call(tok.text, tok)
            raise self._error("unexpected type keyword in expression", tok)
        if tok.is_punct("("):
            self._descend(tok)
            saved = self._comma_allowed
            self._comma_allowed = True
            expr = self._parse_expr()
            self._comma_allowed = saved
            self._expect_punct(")")
            self._depth -= 1
            return expr
        raise self._error("expected expression", tok)

    def _parse_call(self, callee: str, tok: Token) -> Call:
        self._descend(self._expect_punct("("))
        args: list[Expr] = []
        saved = self._comma_allowed
        self._comma_allowed = False
        try:
            if not self._peek().is_punct(")"):
                while True:
                    args.append(self._parse_assignment())
                    if not self._accept_punct(","):
                        break
            self._expect_punct(")")
        finally:
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
