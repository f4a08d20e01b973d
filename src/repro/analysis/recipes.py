"""Named feature recipes: composable column sets over the kernel analysis.

A *recipe* names the static feature layout end to end — CLI flag
(``--features paper10+loops``), registry key, artifact metadata, cache
fingerprint.  Naming rules:

* the first ``+``-separated part is the **base** — ``paper10`` (the
  paper's ten normalized shares, today's exact layout) or ``paper10-raw``
  (the ablation base: raw weighted counts instead of shares);
* each later part appends one registered **block** of extra columns
  (``loops``, ``memmix``, ``divergence``), read off the kernel's
  :class:`~repro.analysis.passes.KernelAnalysis`; block order in the name
  is column order in the vector, and a block may appear once.

``paper10`` reproduces the legacy extractor's vectors **bit-for-bit**
(same arithmetic, same objects' worth of values), which is what keeps
every existing artifact, trace replay and serve path byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from ..clkernel.errors import CLFrontendError
from ..features.vector import STATIC_FEATURE_NAMES, StaticFeatures
from .passes import NON_FINITE_WEIGHT, KernelAnalysis

#: The default recipe — the paper's exact layout, and the only recipe
#: pre-recipe artifacts can carry (they don't record one).
DEFAULT_RECIPE = "paper10"

#: The raw-count ablation base (§3.2's normalization step left out).
RAW_RECIPE = "paper10-raw"


class RecipeError(ValueError):
    """Raised on unknown or malformed recipe names."""


@dataclass(frozen=True)
class FeatureBlock:
    """One named set of extra columns computed from a kernel's analysis."""

    name: str
    columns: tuple[str, ...]
    compute: Callable[[KernelAnalysis], tuple[float, ...]]


def _loops_block(analysis: KernelAnalysis) -> tuple[float, ...]:
    loops = analysis.loops
    return (
        float(loops.max_depth),
        loops.loop_resident_share,
        loops.defaulted_weight_share,
    )


def _memmix_block(analysis: KernelAnalysis) -> tuple[float, ...]:
    mix = analysis.memory_mix
    return (
        mix.global_share_of_accesses,
        mix.local_share_of_accesses,
        mix.access_per_op,
    )


def _divergence_block(analysis: KernelAnalysis) -> tuple[float, ...]:
    div = analysis.divergence
    return (div.branch_density, div.conditional_mass)


#: Registered extension blocks, by name.
FEATURE_BLOCKS: dict[str, FeatureBlock] = {
    "loops": FeatureBlock(
        name="loops",
        columns=("loop_depth", "loop_resident_share", "loop_defaulted_share"),
        compute=_loops_block,
    ),
    "memmix": FeatureBlock(
        name="memmix",
        columns=("mem_gl_of_accesses", "mem_loc_of_accesses", "mem_access_per_op"),
        compute=_memmix_block,
    ),
    "divergence": FeatureBlock(
        name="divergence",
        columns=("branch_density", "conditional_mass"),
        compute=_divergence_block,
    ),
}

_BASES: dict[str, bool] = {DEFAULT_RECIPE: True, RAW_RECIPE: False}


@dataclass(frozen=True)
class FeatureRecipe:
    """A resolved recipe: base layout + ordered extension blocks."""

    name: str
    normalize: bool
    blocks: tuple[FeatureBlock, ...] = ()

    @property
    def column_names(self) -> tuple[str, ...]:
        names = STATIC_FEATURE_NAMES
        for block in self.blocks:
            names = names + block.columns
        return names

    @property
    def width(self) -> int:
        return len(self.column_names)

    def extract(self, analysis: KernelAnalysis) -> StaticFeatures:
        """Build the recipe's :class:`StaticFeatures` for one kernel.

        The base ten columns go through the exact arithmetic the legacy
        extractor used (:meth:`StaticFeatures.from_counts` over the
        histogram, which delegates to the canonical IR fold), so the
        default recipe is bit-identical to pre-recipe vectors.  A kernel
        whose weighted counts are not finite has no feature vector: it
        raises :class:`CLFrontendError`.
        """
        ir = analysis.ir
        hist = analysis.histogram
        if not hist.finite:
            raise CLFrontendError(f"kernel {ir.name!r}: {NON_FINITE_WEIGHT}")
        base = StaticFeatures.from_counts(hist.feature_counts, kernel_name=ir.name)
        values = base.values if self.normalize else base.raw_counts
        if not self.blocks:
            if self.normalize:
                return base
            return StaticFeatures(
                values=values,
                kernel_name=ir.name,
                total_instructions=base.total_instructions,
                raw_counts=base.raw_counts,
            )
        for block in self.blocks:
            values = values + block.compute(analysis)
        return StaticFeatures(
            values=values,
            kernel_name=ir.name,
            total_instructions=base.total_instructions,
            raw_counts=base.raw_counts,
            names=self.column_names,
        )


@lru_cache(maxsize=64)
def resolve_recipe(name: str) -> FeatureRecipe:
    """Parse a recipe name (``base[+block[+block...]]``) into a recipe."""
    if not name:
        raise RecipeError("empty feature recipe name")
    parts = name.split("+")
    base = parts[0]
    if base not in _BASES:
        raise RecipeError(
            f"unknown feature recipe base {base!r}; known bases: "
            f"{sorted(_BASES)} (extend with +{'/+'.join(sorted(FEATURE_BLOCKS))})"
        )
    blocks: list[FeatureBlock] = []
    seen: set[str] = set()
    for part in parts[1:]:
        if part not in FEATURE_BLOCKS:
            raise RecipeError(
                f"unknown feature block {part!r} in recipe {name!r}; "
                f"known blocks: {sorted(FEATURE_BLOCKS)}"
            )
        if part in seen:
            raise RecipeError(f"feature block {part!r} repeats in recipe {name!r}")
        seen.add(part)
        blocks.append(FEATURE_BLOCKS[part])
    return FeatureRecipe(name=name, normalize=_BASES[base], blocks=tuple(blocks))


def is_recipe(name: str) -> bool:
    """Whether ``name`` parses as a feature recipe (no exceptions)."""
    try:
        resolve_recipe(name)
    except RecipeError:
        return False
    return True


def registered_recipes() -> tuple[str, ...]:
    """Canonical recipe names offered in CLI help and the bench sweep.

    The dynamic name space is larger (any ``base+blocks`` combination
    parses); this lists the bases plus each single-block extension.
    """
    names = sorted(_BASES)
    names.extend(f"{DEFAULT_RECIPE}+{block}" for block in sorted(FEATURE_BLOCKS))
    return tuple(names)
