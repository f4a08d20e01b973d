"""Pluggable IR analysis passes, named feature recipes, and kernel lint.

The reproduction's analog of the paper's LLVM feature-extraction pass
(§3.2), generalized: :mod:`repro.analysis.passes` runs registered,
individually-cacheable analyses over the counted kernel IR;
:mod:`repro.analysis.recipes` composes their outputs into named feature
column sets (the default ten-share layout, its extensions with
``+loops``, …) selectable end to end via ``--features``;
:mod:`repro.analysis.lint` turns the ``diagnostics`` pass into the
``repro lint`` CLI.
"""

from .lint import LintFinding, LintReport, lint_paths, lint_source, lint_store
from .passes import (
    SEVERITIES,
    AnalysisConfig,
    AnalysisError,
    AnalysisPass,
    DiagnosticsReport,
    Divergence,
    Finding,
    LoopStructure,
    MemoryMix,
    OpcodeHistogram,
    PassManager,
    get_pass,
    register_pass,
    registered_passes,
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
    "AnalysisConfig",
    "AnalysisError",
    "AnalysisPass",
    "DEFAULT_RECIPE",
    "DiagnosticsReport",
    "Divergence",
    "FEATURE_BLOCKS",
    "FeatureBlock",
    "FeatureRecipe",
    "Finding",
    "LintFinding",
    "LintReport",
    "LoopStructure",
    "MemoryMix",
    "OpcodeHistogram",
    "PassManager",
    "RecipeError",
    "get_pass",
    "is_recipe",
    "lint_paths",
    "lint_source",
    "lint_store",
    "register_pass",
    "registered_passes",
    "registered_recipes",
    "resolve_recipe",
    "severity_rank",
]
