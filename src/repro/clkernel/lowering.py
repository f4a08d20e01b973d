"""AST → counted-IR lowering.

This is the reproduction's analog of compiling OpenCL C to LLVM IR and then
running the paper's instruction-counting pass.  Lowering performs:

* symbol-table driven type inference (int vs float decides the instruction
  class of each arithmetic op);
* memory-access classification by address space (global vs local);
* builtin expansion (``mad`` → fmul+fadd, ``sqrt`` → sf, …);
* user-function inlining (helper functions called from kernels are lowered
  in place, as LLVM does at ``-O2`` for small OpenCL functions);
* static trip-count detection for canonical ``for`` loops, so loop bodies
  are weighted the way dynamic instruction counts would be;
* branch-probability annotation for ``if`` regions (static 0.5/0.5, the
  classic compiler heuristic).

Conventions (documented because they are decisions, not facts):

* comparisons lower to the add class of their operand type (``icmp``/
  ``fcmp`` are ALU ops of the same pipe);
* vector ops are scaled by lane count (a ``float4`` add is 4 lanes of work —
  the feature vector measures work mix, not instruction encoding);
* ``get_global_id`` & friends are free (register reads in hardware);
* address-of / dereference on pointers do not themselves count; the memory
  access is counted at the ``Index`` (load) or ``Assignment`` (store) site.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

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
    ReturnStmt,
    ScalarKind,
    Stmt,
    Ternary,
    TranslationUnit,
    UnaryOp,
    WhileStmt,
)
from .builtins import classify_builtin, returns_float
from .errors import CLLoweringError
from .ir import IRRegion, KernelIR
from .parser import MAX_NESTING_DEPTH, parse

#: Static probability of an ``if`` body (its ``else`` gets the complement).
BRANCH_PROBABILITY = 0.5

#: Trip count assumed for loops whose bounds are not statically known.
DEFAULT_UNKNOWN_TRIP_COUNT = 16

_FLOAT_TYPE = CLType.from_name("float")
_INT_TYPE = CLType.from_name("int")


@dataclass
class _Scope:
    """Lexically scoped symbol table mapping names to types."""

    parent: "_Scope | None" = None
    symbols: dict[str, CLType] = field(default_factory=dict)
    #: Compile-time constant integer values, for trip-count evaluation.
    constants: dict[str, int] = field(default_factory=dict)

    def declare(self, name: str, ctype: CLType, const_value: int | None = None) -> None:
        self.symbols[name] = ctype
        if const_value is not None:
            self.constants[name] = const_value
        else:
            self.constants.pop(name, None)

    def lookup(self, name: str) -> CLType | None:
        scope: _Scope | None = self
        while scope is not None:
            if name in scope.symbols:
                return scope.symbols[name]
            scope = scope.parent
        return None

    def lookup_const(self, name: str) -> int | None:
        scope: _Scope | None = self
        while scope is not None:
            if name in scope.constants:
                return scope.constants[name]
            if name in scope.symbols:
                return None  # declared but not constant
            scope = scope.parent
        return None

    def invalidate_const(self, name: str) -> None:
        scope: _Scope | None = self
        while scope is not None:
            if name in scope.symbols:
                scope.constants.pop(name, None)
                return
            scope = scope.parent


class Lowerer:
    """Lowers one kernel (plus reachable helper functions) to :class:`KernelIR`."""

    def __init__(self, unit: TranslationUnit) -> None:
        self.unit = unit
        self._inline_stack: list[str] = []
        #: Nesting the inlined call chain has used: each function's depth
        #: plus one per call, bounded like one function's nesting so the
        #: recursive lowering of a long helper chain stays shallow.
        self._nesting = 0
        self._uses_local = False
        self._has_barrier = False

    # -- entry point -----------------------------------------------------------

    def lower_kernel(self, kernel: FunctionDef) -> KernelIR:
        self._uses_local = False
        self._has_barrier = False
        self._nesting = kernel.depth
        root = IRRegion(kind="body", line=kernel.line)
        scope = _Scope()
        for param in kernel.params:
            scope.declare(param.name, param.param_type)
            if param.param_type.is_pointer and param.param_type.address_space is AddressSpace.LOCAL:
                self._uses_local = True
        self._lower_block(kernel.body, root, scope)
        return KernelIR(
            name=kernel.name,
            root=root,
            num_params=len(kernel.params),
            uses_local_memory=self._uses_local,
            has_barrier=self._has_barrier,
        )

    # -- statements ----------------------------------------------------------

    def _lower_block(self, block: Block, region: IRRegion, scope: _Scope) -> None:
        inner = _Scope(parent=scope)
        for stmt in block.statements:
            self._lower_stmt(stmt, region, inner)

    def _lower_stmt(self, stmt: Stmt, region: IRRegion, scope: _Scope) -> None:
        if isinstance(stmt, Block):
            self._lower_block(stmt, region, scope)
        elif isinstance(stmt, DeclStmt):
            self._lower_decl(stmt, region, scope)
        elif isinstance(stmt, ExprStmt):
            if stmt.expr is not None:
                self._lower_expr(stmt.expr, region, scope)
        elif isinstance(stmt, IfStmt):
            self._lower_if(stmt, region, scope)
        elif isinstance(stmt, ForStmt):
            self._lower_for(stmt, region, scope)
        elif isinstance(stmt, WhileStmt):
            self._lower_while(stmt, region, scope)
        elif isinstance(stmt, DoWhileStmt):
            self._lower_do_while(stmt, region, scope)
        elif isinstance(stmt, ReturnStmt):
            if stmt.value is not None:
                self._lower_expr(stmt.value, region, scope)
        elif isinstance(stmt, (BreakStmt, ContinueStmt)):
            region.emit("branch", 1, stmt.line)
        elif isinstance(stmt, BarrierStmt):
            region.emit("sync", 1, stmt.line)
            self._has_barrier = True
        else:  # pragma: no cover - parser produces no other kinds
            raise CLLoweringError(f"cannot lower statement {type(stmt).__name__}", stmt.line)

    def _lower_decl(self, stmt: DeclStmt, region: IRRegion, scope: _Scope) -> None:
        assert stmt.decl_type is not None
        const_value: int | None = None
        if stmt.init is not None:
            self._lower_expr(stmt.init, region, scope)
            if stmt.decl_type.is_int:
                const_value = self._const_int(stmt.init, scope)
        scope.declare(stmt.name, stmt.decl_type, const_value)
        if stmt.decl_type.address_space is AddressSpace.LOCAL:
            self._uses_local = True

    def _lower_if(self, stmt: IfStmt, region: IRRegion, scope: _Scope) -> None:
        assert stmt.cond is not None
        self._lower_expr(stmt.cond, region, scope)
        region.emit("branch", 1, stmt.line)
        then_region = region.add_region(
            IRRegion(kind="branch", probability=BRANCH_PROBABILITY, line=stmt.line)
        )
        assert stmt.then is not None
        self._lower_stmt(stmt.then, then_region, scope)
        if stmt.otherwise is not None:
            else_region = region.add_region(
                IRRegion(
                    kind="branch",
                    probability=1.0 - BRANCH_PROBABILITY,
                    line=stmt.line,
                )
            )
            self._lower_stmt(stmt.otherwise, else_region, scope)

    def _lower_for(self, stmt: ForStmt, region: IRRegion, scope: _Scope) -> None:
        loop_scope = _Scope(parent=scope)
        if stmt.init is not None:
            self._lower_stmt(stmt.init, region, loop_scope)
        trip = self._static_trip_count(stmt, loop_scope)
        loop = region.add_region(IRRegion(kind="loop", trip_count=trip, line=stmt.line))
        if stmt.cond is not None:
            self._lower_expr(stmt.cond, loop, loop_scope)
        loop.emit("branch", 1, stmt.line)
        assert stmt.body is not None
        body_scope = _Scope(parent=loop_scope)
        # The induction variable is not constant inside the body.
        if isinstance(stmt.init, DeclStmt):
            body_scope.declare(stmt.init.name, stmt.init.decl_type or _INT_TYPE)
        self._lower_stmt(stmt.body, loop, body_scope)
        if stmt.step is not None:
            self._lower_expr(stmt.step, loop, loop_scope)

    def _lower_while(self, stmt: WhileStmt, region: IRRegion, scope: _Scope) -> None:
        loop = region.add_region(IRRegion(kind="loop", trip_count=None, line=stmt.line))
        assert stmt.cond is not None
        self._lower_expr(stmt.cond, loop, scope)
        loop.emit("branch", 1, stmt.line)
        assert stmt.body is not None
        self._lower_stmt(stmt.body, loop, scope)

    def _lower_do_while(self, stmt: DoWhileStmt, region: IRRegion, scope: _Scope) -> None:
        loop = region.add_region(IRRegion(kind="loop", trip_count=None, line=stmt.line))
        assert stmt.body is not None
        self._lower_stmt(stmt.body, loop, scope)
        assert stmt.cond is not None
        self._lower_expr(stmt.cond, loop, scope)
        loop.emit("branch", 1, stmt.line)

    # -- trip-count analysis -----------------------------------------------------

    def _static_trip_count(self, stmt: ForStmt, scope: _Scope) -> int | None:
        """Detect ``for (i = A; i </<= B; i++/i += S)`` with constant A, B, S."""
        if stmt.cond is None or stmt.step is None:
            return None

        # Initial value and induction variable name.
        var: str | None = None
        start: int | None = None
        if isinstance(stmt.init, DeclStmt):
            var = stmt.init.name
            if stmt.init.init is not None:
                start = self._const_int(stmt.init.init, scope)
        elif isinstance(stmt.init, ExprStmt) and isinstance(stmt.init.expr, Assignment):
            assign = stmt.init.expr
            if assign.op == "=" and isinstance(assign.target, Identifier):
                var = assign.target.name
                start = self._const_int(assign.value, scope) if assign.value else None
        if var is None or start is None:
            return None

        # Bound from the condition.
        cond = stmt.cond
        if not isinstance(cond, BinaryOp) or cond.op not in ("<", "<=", ">", ">="):
            return None
        bound: int | None = None
        ascending = True
        if isinstance(cond.lhs, Identifier) and cond.lhs.name == var:
            bound = self._const_int(cond.rhs, scope) if cond.rhs else None
            ascending = cond.op in ("<", "<=")
            inclusive = cond.op in ("<=", ">=")
        elif isinstance(cond.rhs, Identifier) and cond.rhs.name == var:
            bound = self._const_int(cond.lhs, scope) if cond.lhs else None
            ascending = cond.op in (">", ">=")
            inclusive = cond.op in ("<=", ">=")
        else:
            return None
        if bound is None:
            return None

        # Step from the step expression.
        step = self._static_step(stmt.step, var, scope)
        if step is None or step == 0:
            return None

        if ascending:
            if step < 0:
                return None
            span = bound - start + (1 if inclusive else 0)
        else:
            if step > 0:
                return None
            span = start - bound + (1 if inclusive else 0)
            step = -step
        if span <= 0:
            return 0
        return (span + step - 1) // step

    def _static_step(self, step: Expr, var: str, scope: _Scope) -> int | None:
        if isinstance(step, UnaryOp) and step.op in ("++", "--"):
            if isinstance(step.operand, Identifier) and step.operand.name == var:
                return 1 if step.op == "++" else -1
            return None
        if isinstance(step, Assignment) and isinstance(step.target, Identifier):
            if step.target.name != var or step.value is None:
                return None
            if step.op == "+=":
                return self._const_int(step.value, scope)
            if step.op == "-=":
                value = self._const_int(step.value, scope)
                return -value if value is not None else None
            if step.op == "=":
                # i = i + c / i = i - c
                value = step.value
                if isinstance(value, BinaryOp) and value.op in ("+", "-"):
                    if isinstance(value.lhs, Identifier) and value.lhs.name == var:
                        c = self._const_int(value.rhs, scope) if value.rhs else None
                        if c is None:
                            return None
                        return c if value.op == "+" else -c
        return None

    def _const_int(self, expr: Expr | None, scope: _Scope) -> int | None:
        """Best-effort compile-time integer evaluation."""
        if expr is None:
            return None
        if isinstance(expr, IntLiteral):
            return expr.value
        if isinstance(expr, Identifier):
            return scope.lookup_const(expr.name)
        if isinstance(expr, UnaryOp) and expr.op == "-":
            inner = self._const_int(expr.operand, scope)
            return -inner if inner is not None else None
        if isinstance(expr, Cast):
            return self._const_int(expr.operand, scope)
        if isinstance(expr, BinaryOp):
            lhs = self._const_int(expr.lhs, scope)
            rhs = self._const_int(expr.rhs, scope)
            if lhs is None or rhs is None:
                return None
            try:
                if expr.op == "+":
                    return lhs + rhs
                if expr.op == "-":
                    return lhs - rhs
                if expr.op == "*":
                    return lhs * rhs
                if expr.op == "/":
                    return lhs // rhs if rhs else None
                if expr.op == "%":
                    return lhs % rhs if rhs else None
                if expr.op == "<<":
                    return lhs << rhs
                if expr.op == ">>":
                    return lhs >> rhs
                if expr.op == "&":
                    return lhs & rhs
                if expr.op == "|":
                    return lhs | rhs
                if expr.op == "^":
                    return lhs ^ rhs
            except (OverflowError, ValueError):
                return None
        return None

    # -- expressions ------------------------------------------------------------

    def _lower_expr(self, expr: Expr, region: IRRegion, scope: _Scope) -> CLType:
        """Lower ``expr``; emit its ops into ``region``; return its type."""
        if isinstance(expr, IntLiteral):
            return _INT_TYPE
        if isinstance(expr, FloatLiteral):
            return _FLOAT_TYPE
        if isinstance(expr, Identifier):
            found = scope.lookup(expr.name)
            return found if found is not None else _INT_TYPE
        if isinstance(expr, UnaryOp):
            return self._lower_unary(expr, region, scope)
        if isinstance(expr, BinaryOp):
            return self._lower_binary(expr, region, scope)
        if isinstance(expr, Assignment):
            return self._lower_assignment(expr, region, scope)
        if isinstance(expr, Ternary):
            return self._lower_ternary(expr, region, scope)
        if isinstance(expr, Call):
            return self._lower_call(expr, region, scope)
        if isinstance(expr, Index):
            return self._lower_index_load(expr, region, scope)
        if isinstance(expr, Member):
            assert expr.base is not None
            base_type = self._lower_expr(expr.base, region, scope)
            return CLType(name=base_type.name, kind=base_type.kind, lanes=1)
        if isinstance(expr, Cast):
            assert expr.operand is not None
            self._lower_expr(expr.operand, region, scope)
            assert expr.target_type is not None
            return expr.target_type
        raise CLLoweringError(f"cannot lower expression {type(expr).__name__}", expr.line)

    def _lower_unary(self, expr: UnaryOp, region: IRRegion, scope: _Scope) -> CLType:
        assert expr.operand is not None
        operand_type = self._lower_expr(expr.operand, region, scope)
        lanes = operand_type.lanes
        if expr.op in ("++", "--"):
            region.emit("int_add", lanes, expr.line)
            if isinstance(expr.operand, Identifier):
                scope.invalidate_const(expr.operand.name)
            self._emit_store_if_memory(expr.operand, region, scope)
            return operand_type
        if expr.op == "-":
            op = "float_add" if operand_type.is_float else "int_add"
            region.emit(op, lanes, expr.line)
            return operand_type
        if expr.op == "~":
            region.emit("int_bw", lanes, expr.line)
            return operand_type
        if expr.op == "!":
            region.emit("int_add", lanes, expr.line)
            return _INT_TYPE
        if expr.op in ("*", "&", "+"):
            # Pointer deref/address-of: the access is counted at Index sites.
            return operand_type
        raise CLLoweringError(f"unknown unary operator {expr.op!r}", expr.line)

    def _lower_binary(self, expr: BinaryOp, region: IRRegion, scope: _Scope) -> CLType:
        assert expr.lhs is not None and expr.rhs is not None
        lhs_type = self._lower_expr(expr.lhs, region, scope)
        rhs_type = self._lower_expr(expr.rhs, region, scope)
        result = self._merge_types(lhs_type, rhs_type)
        lanes = result.lanes
        op = expr.op
        if op == ",":
            return rhs_type
        if op in ("+", "-"):
            region.emit("float_add" if result.is_float else "int_add", lanes, expr.line)
            return result
        if op == "*":
            region.emit("float_mul" if result.is_float else "int_mul", lanes, expr.line)
            return result
        if op in ("/", "%"):
            region.emit("float_div" if result.is_float else "int_div", lanes, expr.line)
            return result
        if op in ("<<", ">>", "&", "|", "^"):
            region.emit("int_bw", lanes, expr.line)
            return result
        if op in ("<", ">", "<=", ">=", "==", "!="):
            region.emit("float_add" if result.is_float else "int_add", lanes, expr.line)
            return _INT_TYPE
        if op in ("&&", "||"):
            region.emit("int_add", 1, expr.line)
            return _INT_TYPE
        raise CLLoweringError(f"unknown binary operator {op!r}", expr.line)

    def _lower_assignment(self, expr: Assignment, region: IRRegion, scope: _Scope) -> CLType:
        assert expr.target is not None and expr.value is not None
        value_type = self._lower_expr(expr.value, region, scope)
        target_type = self._type_of_lvalue(expr.target, scope)

        if expr.op != "=":
            # Compound assignment reads the target, applies the op, writes back.
            if isinstance(expr.target, Index):
                self._lower_index_load(expr.target, region, scope)
            arith = expr.op[:-1]
            result = self._merge_types(target_type, value_type)
            lanes = result.lanes
            if arith in ("+", "-"):
                region.emit("float_add" if result.is_float else "int_add", lanes, expr.line)
            elif arith == "*":
                region.emit("float_mul" if result.is_float else "int_mul", lanes, expr.line)
            elif arith in ("/", "%"):
                region.emit("float_div" if result.is_float else "int_div", lanes, expr.line)
            elif arith in ("<<", ">>", "&", "|", "^"):
                region.emit("int_bw", lanes, expr.line)
            else:  # pragma: no cover
                raise CLLoweringError(f"unknown compound op {expr.op!r}", expr.line)
        else:
            # Plain '=' to an Index target: the index math still ran above in
            # value lowering; index math of the *target* is lowered below in
            # _emit_store_if_memory.
            pass

        if isinstance(expr.target, Identifier):
            scope.invalidate_const(expr.target.name)
        self._emit_store_if_memory(expr.target, region, scope)
        return target_type

    def _lower_ternary(self, expr: Ternary, region: IRRegion, scope: _Scope) -> CLType:
        assert expr.cond is not None and expr.then is not None and expr.otherwise is not None
        self._lower_expr(expr.cond, region, scope)
        region.emit("branch", 1, expr.line)
        then_region = region.add_region(
            IRRegion(kind="branch", probability=BRANCH_PROBABILITY, line=expr.line)
        )
        then_type = self._lower_expr(expr.then, then_region, scope)
        else_region = region.add_region(
            IRRegion(kind="branch", probability=1.0 - BRANCH_PROBABILITY, line=expr.line)
        )
        else_type = self._lower_expr(expr.otherwise, else_region, scope)
        return self._merge_types(then_type, else_type)

    def _lower_call(self, expr: Call, region: IRRegion, scope: _Scope) -> CLType:
        info = classify_builtin(expr.callee)
        if info is not None:
            for arg in expr.args:
                self._lower_expr(arg, region, scope)
            for op, count in info.expansion:
                region.emit(op, count, expr.line)
            if info.category == "sync":
                region.emit("sync", 1, expr.line)
                self._has_barrier = True
            return _FLOAT_TYPE if returns_float(expr.callee) else _INT_TYPE

        # User helper function: inline its body.
        try:
            callee = self.unit.function(expr.callee)
        except KeyError:
            raise CLLoweringError(f"call to unknown function {expr.callee!r}", expr.line) from None
        if expr.callee in self._inline_stack:
            raise CLLoweringError(
                f"recursive call to {expr.callee!r} is not supported", expr.line
            )
        if len(expr.args) != len(callee.params):
            raise CLLoweringError(
                f"{expr.callee!r} expects {len(callee.params)} args, got {len(expr.args)}",
                expr.line,
            )
        nesting = self._nesting + callee.depth + 1
        if nesting > MAX_NESTING_DEPTH:
            raise CLLoweringError(
                f"helper calls nest deeper than {MAX_NESTING_DEPTH} levels", expr.line
            )
        inline_scope = _Scope()
        for param, arg in zip(callee.params, expr.args):
            self._lower_expr(arg, region, scope)
            inline_scope.declare(param.name, param.param_type)
        self._inline_stack.append(expr.callee)
        outer, self._nesting = self._nesting, nesting
        try:
            self._lower_block(callee.body, region, inline_scope)
        finally:
            self._inline_stack.pop()
            self._nesting = outer
        return callee.return_type

    def _lower_index_load(self, expr: Index, region: IRRegion, scope: _Scope) -> CLType:
        assert expr.base is not None and expr.index is not None
        base_type = self._lower_expr(expr.base, region, scope)
        self._lower_expr(expr.index, region, scope)
        # Address arithmetic: one int add for the effective address.
        region.emit("int_add", 1, expr.line)
        self._emit_access(base_type, region, expr.line)
        return CLType(name=base_type.name, kind=base_type.kind, lanes=base_type.lanes)

    # -- memory-access helpers ------------------------------------------------

    def _emit_access(self, base_type: CLType, region: IRRegion, line: int) -> None:
        space = base_type.address_space if base_type.is_pointer else AddressSpace.PRIVATE
        if space is AddressSpace.GLOBAL or space is AddressSpace.CONSTANT:
            region.emit("gl_access", 1, line)
        elif space is AddressSpace.LOCAL:
            region.emit("loc_access", 1, line)
            self._uses_local = True
        # PRIVATE (registers / private arrays) is not a memory feature.

    def _emit_store_if_memory(self, target: Expr | None, region: IRRegion, scope: _Scope) -> None:
        """Emit the store access for an lvalue that addresses memory."""
        if isinstance(target, Index):
            assert target.base is not None and target.index is not None
            base_type = self._lower_expr(target.base, region, scope)
            self._lower_expr(target.index, region, scope)
            region.emit("int_add", 1, target.line)
            self._emit_access(base_type, region, target.line)
        elif isinstance(target, Member):
            self._emit_store_if_memory(target.base, region, scope)

    def _type_of_lvalue(self, target: Expr, scope: _Scope) -> CLType:
        if isinstance(target, Identifier):
            found = scope.lookup(target.name)
            return found if found is not None else _INT_TYPE
        if isinstance(target, Index):
            assert target.base is not None
            base = self._type_of_lvalue(target.base, scope)
            return CLType(name=base.name, kind=base.kind, lanes=base.lanes)
        if isinstance(target, Member):
            assert target.base is not None
            base = self._type_of_lvalue(target.base, scope)
            return CLType(name=base.name, kind=base.kind, lanes=1)
        if isinstance(target, UnaryOp) and target.operand is not None:
            return self._type_of_lvalue(target.operand, scope)
        return _INT_TYPE

    @staticmethod
    def _merge_types(lhs: CLType, rhs: CLType) -> CLType:
        """C-style usual arithmetic conversion restricted to the subset."""
        is_float = lhs.is_float or rhs.is_float
        lanes = max(lhs.lanes, rhs.lanes)
        if is_float:
            base = "float" if lanes == 1 else f"float{lanes}"
            if base not in ("float", "float2", "float3", "float4", "float8", "float16"):
                base = "float"
            return CLType(name=base, kind=ScalarKind.FLOAT, lanes=lanes)
        return CLType(name="int", kind=ScalarKind.INT, lanes=lanes)


@lru_cache(maxsize=512)
def _lower_source_cached(source: str, kernel_name: str | None) -> KernelIR:
    unit = parse(source)
    kernels = unit.kernels()
    if not kernels:
        raise CLLoweringError("source contains no __kernel function")
    if kernel_name is None:
        kernel = kernels[0]
    else:
        matches = [k for k in kernels if k.name == kernel_name]
        if not matches:
            raise CLLoweringError(f"no kernel named {kernel_name!r}")
        kernel = matches[0]
    return Lowerer(unit).lower_kernel(kernel)


def lower_source(source: str, kernel_name: str | None = None) -> KernelIR:
    """Parse ``source`` and lower its (named or sole) kernel to IR.

    Memoized on ``(source, kernel_name)``: lowering is pure and
    :class:`KernelIR` is treated as immutable everywhere, so repeated
    lowering of the same kernel — every training pass calls this twice per
    spec (features + profile), every sweep once more — costs one dict
    lookup instead of a parse.
    """
    return _lower_source_cached(source, kernel_name)
