"""AST node definitions for the OpenCL C subset.

The parser produces this tree; :mod:`repro.clkernel.lowering` walks it to
emit the counted IR used for static feature extraction.  Nodes are plain
dataclasses — no behaviour beyond pretty-printing — so tests can construct
them directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto


class AddressSpace(Enum):
    """OpenCL address spaces; drive the global/local memory feature split."""

    GLOBAL = auto()
    LOCAL = auto()
    CONSTANT = auto()
    PRIVATE = auto()

    @classmethod
    def from_keyword(cls, kw: str) -> "AddressSpace":
        text = kw.lstrip("_")
        return {
            "global": cls.GLOBAL,
            "local": cls.LOCAL,
            "constant": cls.CONSTANT,
            "private": cls.PRIVATE,
        }[text]


class ScalarKind(Enum):
    """Base numeric category — decides int vs float instruction classes."""

    VOID = auto()
    BOOL = auto()
    INT = auto()
    FLOAT = auto()


#: Map type keyword → (scalar kind, vector lanes).
_TYPE_TABLE: dict[str, tuple[ScalarKind, int]] = {
    "void": (ScalarKind.VOID, 1),
    "bool": (ScalarKind.BOOL, 1),
    "char": (ScalarKind.INT, 1),
    "uchar": (ScalarKind.INT, 1),
    "short": (ScalarKind.INT, 1),
    "ushort": (ScalarKind.INT, 1),
    "int": (ScalarKind.INT, 1),
    "uint": (ScalarKind.INT, 1),
    "long": (ScalarKind.INT, 1),
    "ulong": (ScalarKind.INT, 1),
    "size_t": (ScalarKind.INT, 1),
    "ptrdiff_t": (ScalarKind.INT, 1),
    "unsigned": (ScalarKind.INT, 1),
    "signed": (ScalarKind.INT, 1),
    "half": (ScalarKind.FLOAT, 1),
    "float": (ScalarKind.FLOAT, 1),
    "double": (ScalarKind.FLOAT, 1),
    "float2": (ScalarKind.FLOAT, 2),
    "float3": (ScalarKind.FLOAT, 3),
    "float4": (ScalarKind.FLOAT, 4),
    "float8": (ScalarKind.FLOAT, 8),
    "float16": (ScalarKind.FLOAT, 16),
    "double2": (ScalarKind.FLOAT, 2),
    "double4": (ScalarKind.FLOAT, 4),
    "int2": (ScalarKind.INT, 2),
    "int3": (ScalarKind.INT, 3),
    "int4": (ScalarKind.INT, 4),
    "int8": (ScalarKind.INT, 8),
    "int16": (ScalarKind.INT, 16),
    "uint2": (ScalarKind.INT, 2),
    "uint4": (ScalarKind.INT, 4),
    "uchar4": (ScalarKind.INT, 4),
}


@dataclass(frozen=True)
class CLType:
    """A (possibly pointer, possibly vector) type in the subset."""

    name: str
    kind: ScalarKind
    lanes: int = 1
    is_pointer: bool = False
    address_space: AddressSpace = AddressSpace.PRIVATE
    is_const: bool = False

    @classmethod
    def from_name(cls, name: str) -> "CLType":
        kind, lanes = _TYPE_TABLE[name]
        return cls(name=name, kind=kind, lanes=lanes)

    def pointer_to(self, space: AddressSpace, const: bool = False) -> "CLType":
        return CLType(
            name=self.name,
            kind=self.kind,
            lanes=self.lanes,
            is_pointer=True,
            address_space=space,
            is_const=const,
        )

    @property
    def is_float(self) -> bool:
        return self.kind is ScalarKind.FLOAT

    @property
    def is_int(self) -> bool:
        return self.kind in (ScalarKind.INT, ScalarKind.BOOL)

    def __str__(self) -> str:
        ptr = "*" if self.is_pointer else ""
        return f"{self.name}{ptr}"


def is_type_keyword(text: str) -> bool:
    """True if ``text`` names a type in the subset."""
    return text in _TYPE_TABLE


# --------------------------------------------------------------------------
# Expression nodes
# --------------------------------------------------------------------------


@dataclass
class Expr:
    """Base expression node."""

    line: int = 0


@dataclass
class IntLiteral(Expr):
    value: int = 0
    text: str = "0"


@dataclass
class FloatLiteral(Expr):
    value: float = 0.0
    text: str = "0.0"


@dataclass
class Identifier(Expr):
    name: str = ""


@dataclass
class UnaryOp(Expr):
    """Prefix/postfix unary expression (``-x``, ``!x``, ``~x``, ``x++`` …)."""

    op: str = ""
    operand: Expr | None = None
    postfix: bool = False


@dataclass
class BinaryOp(Expr):
    op: str = ""
    lhs: Expr | None = None
    rhs: Expr | None = None


@dataclass
class Assignment(Expr):
    """``lhs = rhs`` and compound forms (``+=`` …)."""

    op: str = "="
    target: Expr | None = None
    value: Expr | None = None


@dataclass
class Ternary(Expr):
    cond: Expr | None = None
    then: Expr | None = None
    otherwise: Expr | None = None


@dataclass
class Call(Expr):
    callee: str = ""
    args: list[Expr] = field(default_factory=list)


@dataclass
class Index(Expr):
    """``base[index]`` — the memory-access expression."""

    base: Expr | None = None
    index: Expr | None = None


@dataclass
class Member(Expr):
    """Vector component access such as ``v.x`` or ``v.s0``."""

    base: Expr | None = None
    member: str = ""


@dataclass
class Cast(Expr):
    target_type: CLType | None = None
    operand: Expr | None = None


# --------------------------------------------------------------------------
# Statement nodes
# --------------------------------------------------------------------------


@dataclass
class Stmt:
    line: int = 0


@dataclass
class Block(Stmt):
    statements: list[Stmt] = field(default_factory=list)


@dataclass
class DeclStmt(Stmt):
    """A local variable declaration, possibly with initializer."""

    decl_type: CLType | None = None
    name: str = ""
    init: Expr | None = None


@dataclass
class ExprStmt(Stmt):
    expr: Expr | None = None


@dataclass
class IfStmt(Stmt):
    cond: Expr | None = None
    then: Stmt | None = None
    otherwise: Stmt | None = None


@dataclass
class ForStmt(Stmt):
    init: Stmt | None = None  # DeclStmt or ExprStmt or None
    cond: Expr | None = None
    step: Expr | None = None
    body: Stmt | None = None


@dataclass
class WhileStmt(Stmt):
    cond: Expr | None = None
    body: Stmt | None = None


@dataclass
class DoWhileStmt(Stmt):
    body: Stmt | None = None
    cond: Expr | None = None


@dataclass
class ReturnStmt(Stmt):
    value: Expr | None = None


@dataclass
class BreakStmt(Stmt):
    pass


@dataclass
class ContinueStmt(Stmt):
    pass


@dataclass
class BarrierStmt(Stmt):
    """``barrier(CLK_LOCAL_MEM_FENCE)`` — synchronization, not counted."""

    fence: str = ""


# --------------------------------------------------------------------------
# Top-level nodes
# --------------------------------------------------------------------------


@dataclass
class ParamDecl:
    """One kernel/function parameter."""

    param_type: CLType
    name: str
    line: int = 0


@dataclass
class FunctionDef:
    """A function definition; ``is_kernel`` marks ``__kernel`` entry points."""

    name: str
    return_type: CLType
    params: list[ParamDecl]
    body: Block
    is_kernel: bool = False
    line: int = 0
    #: Deepest nesting level the body reaches (see ``parser.MAX_NESTING_DEPTH``).
    depth: int = 0


@dataclass
class TranslationUnit:
    """A parsed source file: every function, kernels flagged."""

    functions: list[FunctionDef] = field(default_factory=list)

    def kernels(self) -> list[FunctionDef]:
        return [f for f in self.functions if f.is_kernel]

    def function(self, name: str) -> FunctionDef:
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(f"no function named {name!r}")
