"""Static feature extraction: source text → :class:`StaticFeatures`.

This is the user-facing wrapper around the clkernel frontend.  It mirrors
step (2) of the paper's training and prediction phases (Fig. 2 / Fig. 3):
"Extract code features".

The extractor binds a **feature recipe** (:mod:`repro.analysis.recipes`)
to the frontend: it lowers the kernel, wraps the IR in its own
:class:`~repro.analysis.passes.KernelAnalysis` and lets the recipe read
its columns off that object.  The default config reproduces the paper's
ten-share vector bit-for-bit; the raw-count recipe is the ablation of
§3.2's normalization.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..clkernel.ir import KernelIR
from ..clkernel.lowering import DEFAULT_UNKNOWN_TRIP_COUNT, lower_source
from .vector import StaticFeatures

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from ..analysis.recipes import FeatureRecipe


def _default_recipe() -> str:
    from ..analysis.recipes import DEFAULT_RECIPE

    return DEFAULT_RECIPE


@dataclass(frozen=True)
class ExtractorConfig:
    """What shapes an extracted static feature vector.

    Attributes
    ----------
    default_trip_count:
        Iteration weight for loops whose bounds are not statically known.
    recipe:
        Named feature recipe (see :mod:`repro.analysis.recipes`) deciding
        the static column set.  The default is the paper's exact ten-share
        layout.
    """

    default_trip_count: int = DEFAULT_UNKNOWN_TRIP_COUNT
    recipe: str = field(default_factory=_default_recipe)

    def resolved_recipe(self) -> "FeatureRecipe":
        """Resolve (and validate) the recipe."""
        from ..analysis.recipes import resolve_recipe

        return resolve_recipe(self.recipe)

    def fingerprint(self) -> str:
        """Stable identity of everything that shapes extracted features.

        The SHA-256 of the dataclass ``repr``, so every config field — and
        a knob added later — is covered.  The recipe is resolved first, so
        an unknown recipe raises :class:`~repro.analysis.recipes.RecipeError`
        here instead of keying a cache.  Within a process a recipe name
        determines its layout, so the name alone keys it.  Feature-cache
        keys hash this, so two recipes on the same source can never share
        a cache entry.
        """
        self.resolved_recipe()
        return hashlib.sha256(repr(self).encode("utf-8")).hexdigest()


class FeatureExtractor:
    """Extracts a recipe's static feature vector from kernel source text."""

    def __init__(self, config: ExtractorConfig | None = None) -> None:
        self.config = config or ExtractorConfig()
        self._recipe: "FeatureRecipe | None" = None

    @property
    def recipe(self) -> "FeatureRecipe":
        """The resolved feature recipe this extractor produces.

        Resolved once, on first use; resolution is idempotent, so threads
        racing here at worst resolve it twice.
        """
        if self._recipe is None:
            self._recipe = self.config.resolved_recipe()
        return self._recipe

    def extract_from_ir(self, ir: KernelIR) -> StaticFeatures:
        """Count the recipe's features of ``ir`` through its own analysis."""
        from ..analysis.passes import KernelAnalysis

        return self.recipe.extract(KernelAnalysis(ir, self.config.default_trip_count))

    def extract(self, source: str, kernel_name: str | None = None) -> StaticFeatures:
        """Parse + lower ``source`` and count features of its kernel."""
        return self.extract_from_ir(lower_source(source, kernel_name))


def extract_features(source: str, kernel_name: str | None = None) -> StaticFeatures:
    """One-shot convenience: extract features with the default config."""
    return FeatureExtractor().extract(source, kernel_name)
