"""OpenCL C subset frontend: lexer, parser, AST and counted IR.

This package is the reproduction's substitute for Clang+LLVM in the paper's
tool-chain: kernel source text goes in, a counted intermediate representation
comes out, and :mod:`repro.features` runs the paper's ten-feature counting
pass over it.

Typical use::

    from repro.clkernel import lower_source

    ir = lower_source(KNN_SOURCE)
    counts = ir.feature_counts()
"""

from .ast_nodes import (
    AddressSpace,
    CLType,
    FunctionDef,
    ScalarKind,
    TranslationUnit,
)
from .errors import (
    CLFrontendError,
    CLLexError,
    CLLoweringError,
    CLParseError,
)
from .ir import (
    ALL_OPS,
    AUX_OPS,
    FEATURE_OPS,
    IROp,
    IRRegion,
    KernelIR,
    RegionVisitor,
    WalkFrame,
)
from .lexer import Token, TokKind, tokenize
from .lowering import (
    BRANCH_PROBABILITY,
    DEFAULT_UNKNOWN_TRIP_COUNT,
    Lowerer,
    lower_source,
)
from .parser import Parser, parse, parse_kernel

__all__ = [
    "ALL_OPS",
    "AUX_OPS",
    "AddressSpace",
    "BRANCH_PROBABILITY",
    "CLFrontendError",
    "CLLexError",
    "CLLoweringError",
    "CLParseError",
    "CLType",
    "DEFAULT_UNKNOWN_TRIP_COUNT",
    "FEATURE_OPS",
    "FunctionDef",
    "IROp",
    "IRRegion",
    "KernelIR",
    "Lowerer",
    "Parser",
    "RegionVisitor",
    "ScalarKind",
    "TokKind",
    "Token",
    "TranslationUnit",
    "WalkFrame",
    "lower_source",
    "parse",
    "parse_kernel",
    "tokenize",
]
