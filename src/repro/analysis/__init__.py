"""Kernel IR analysis, named feature recipes, and kernel lint.

The reproduction's analog of the paper's LLVM feature-extraction pass
(§3.2): :mod:`repro.analysis.passes` wraps one counted kernel IR in a
:class:`KernelAnalysis` whose attributes (histogram, memory mix, loops,
divergence, diagnostics) are each computed once;
:mod:`repro.analysis.recipes` composes them into named feature column sets
(the default ten-share layout, its extensions with ``+loops``, …)
selectable end to end via ``--features``; :mod:`repro.analysis.lint`
turns the diagnostics into the ``repro lint`` CLI.
"""

from .lint import LintFinding, LintReport, lint_paths, lint_source, lint_store
from .passes import (
    SEVERITIES,
    DiagnosticsReport,
    Divergence,
    Finding,
    KernelAnalysis,
    LoopStructure,
    MemoryMix,
    OpcodeHistogram,
    severity_rank,
)
from .recipes import (
    DEFAULT_RECIPE,
    FEATURE_BLOCKS,
    FeatureBlock,
    FeatureRecipe,
    RecipeError,
    is_recipe,
    registered_recipes,
    resolve_recipe,
)

__all__ = [
    "SEVERITIES",
    "DEFAULT_RECIPE",
    "DiagnosticsReport",
    "Divergence",
    "FEATURE_BLOCKS",
    "FeatureBlock",
    "FeatureRecipe",
    "Finding",
    "KernelAnalysis",
    "LintFinding",
    "LintReport",
    "LoopStructure",
    "MemoryMix",
    "OpcodeHistogram",
    "RecipeError",
    "is_recipe",
    "lint_paths",
    "lint_source",
    "lint_store",
    "registered_recipes",
    "resolve_recipe",
    "severity_rank",
]
