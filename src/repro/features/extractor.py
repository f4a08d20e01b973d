"""Static feature extraction: source text → :class:`StaticFeatures`.

This is the user-facing wrapper around the clkernel frontend.  It mirrors
step (2) of the paper's training and prediction phases (Fig. 2 / Fig. 3):
"Extract code features".

Since the analysis-pass rebase the extractor is a thin binding of a
**feature recipe** (:mod:`repro.analysis.recipes`) to a
:class:`~repro.analysis.passes.PassManager`: lowering still happens here,
but the counting/composition runs through the registered passes.  The
default config reproduces the paper's ten-share vector bit-for-bit; the
raw-count recipe is the ablation of §3.2's normalization.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..clkernel.ir import KernelIR
from ..clkernel.lowering import (
    DEFAULT_BRANCH_PROBABILITY,
    DEFAULT_UNKNOWN_TRIP_COUNT,
    lower_source,
)
from .vector import StaticFeatures

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from ..analysis.passes import AnalysisConfig, PassManager
    from ..analysis.recipes import FeatureRecipe


def _default_recipe() -> str:
    from ..analysis.recipes import DEFAULT_RECIPE

    return DEFAULT_RECIPE


@dataclass(frozen=True)
class ExtractorConfig:
    """Tunable knobs of the extraction pass (each is ablated in DESIGN.md).

    Attributes
    ----------
    default_trip_count:
        Iteration weight for loops whose bounds are not statically known.
    branch_probability:
        Static probability assigned to conditionally executed regions.
    recipe:
        Named feature recipe (see :mod:`repro.analysis.recipes`) deciding
        the static column set.  The default is the paper's exact ten-share
        layout.
    """

    default_trip_count: int = DEFAULT_UNKNOWN_TRIP_COUNT
    branch_probability: float = DEFAULT_BRANCH_PROBABILITY
    recipe: str = field(default_factory=_default_recipe)

    def resolved_recipe(self) -> "FeatureRecipe":
        """Resolve (and validate) the recipe."""
        from ..analysis.recipes import resolve_recipe

        return resolve_recipe(self.recipe)

    def analysis_config(self) -> "AnalysisConfig":
        from ..analysis.passes import AnalysisConfig

        return AnalysisConfig(
            default_trip_count=self.default_trip_count,
            branch_probability=self.branch_probability,
        )

    def fingerprint(self) -> str:
        """Stable identity of everything that shapes extracted features.

        Covers every config field (via the dataclass ``repr``, so a knob
        added later is automatically included) *plus* the resolved
        recipe's layout fingerprint — renaming or recomposing a recipe
        changes the key even if the config repr happens to collide.
        Feature-cache keys hash this, so two recipes on the same source
        can never share a cache entry.
        """
        hasher = hashlib.sha256()
        hasher.update(repr(self).encode("utf-8"))
        hasher.update(b"\x00")
        hasher.update(self.resolved_recipe().fingerprint().encode("utf-8"))
        return hasher.hexdigest()


class FeatureExtractor:
    """Extracts a recipe's static feature vector from kernel source text."""

    def __init__(self, config: ExtractorConfig | None = None) -> None:
        self.config = config or ExtractorConfig()
        self._recipe: "FeatureRecipe | None" = None
        self._manager: "PassManager | None" = None

    def _bind(self) -> "tuple[FeatureRecipe, PassManager]":
        """Resolve the recipe and pass manager once, on first extraction."""
        if self._recipe is None or self._manager is None:
            from ..analysis.passes import PassManager

            self._recipe = self.config.resolved_recipe()
            self._manager = PassManager(self.config.analysis_config())
        return self._recipe, self._manager

    @property
    def recipe(self) -> "FeatureRecipe":
        """The resolved feature recipe this extractor produces."""
        return self._bind()[0]

    def extract_from_ir(self, ir: KernelIR) -> StaticFeatures:
        recipe, manager = self._bind()
        return recipe.extract(ir, manager)

    def extract(self, source: str, kernel_name: str | None = None) -> StaticFeatures:
        """Parse + lower ``source`` and count features of its kernel."""
        ir = lower_source(
            source,
            kernel_name=kernel_name,
            branch_probability=self.config.branch_probability,
        )
        return self.extract_from_ir(ir)

    def lower(self, source: str, kernel_name: str | None = None) -> KernelIR:
        """Expose the lowered IR (used by the GPU simulator's profiler)."""
        return lower_source(
            source,
            kernel_name=kernel_name,
            branch_probability=self.config.branch_probability,
        )


def extract_features(source: str, kernel_name: str | None = None) -> StaticFeatures:
    """One-shot convenience: extract features with the default config."""
    return FeatureExtractor().extract(source, kernel_name)
