"""Named feature recipes: composable column sets over the analysis passes.

A *recipe* names the static feature layout end to end — CLI flag
(``--features paper10+loops``), registry key, artifact metadata, cache
fingerprint.  Naming rules:

* the first ``+``-separated part is the **base** — ``paper10`` (the
  paper's ten normalized shares, today's exact layout) or ``paper10-raw``
  (the ablation base: raw weighted counts instead of shares);
* each later part appends one registered **block** of extra columns
  (``loops``, ``memmix``, ``divergence``), computed by the analysis
  passes; block order in the name is column order in the vector, and a
  block may appear once.

``paper10`` reproduces the legacy extractor's vectors **bit-for-bit**
(same arithmetic, same objects' worth of values), which is what keeps
every existing artifact, trace replay and serve path byte-identical.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from ..clkernel.errors import CLFrontendError
from ..clkernel.ir import KernelIR
from ..features.vector import STATIC_FEATURE_NAMES, StaticFeatures
from .passes import (
    NON_FINITE_WEIGHT,
    Divergence,
    LoopStructure,
    MemoryMix,
    PassManager,
)

#: The default recipe — the paper's exact layout, and the only recipe
#: pre-recipe artifacts can carry (they don't record one).
DEFAULT_RECIPE = "paper10"

#: The raw-count ablation base (§3.2's normalization step left out).
RAW_RECIPE = "paper10-raw"


class RecipeError(ValueError):
    """Raised on unknown or malformed recipe names."""


@dataclass(frozen=True)
class FeatureBlock:
    """One named set of extra columns computed from analysis passes."""

    name: str
    columns: tuple[str, ...]
    compute: Callable[[KernelIR, PassManager], tuple[float, ...]]


def _loops_block(ir: KernelIR, manager: PassManager) -> tuple[float, ...]:
    loops = manager.run(ir, "loop-structure")
    assert isinstance(loops, LoopStructure)
    return (
        float(loops.max_depth),
        loops.loop_resident_share,
        loops.defaulted_weight_share,
    )


def _memmix_block(ir: KernelIR, manager: PassManager) -> tuple[float, ...]:
    mix = manager.run(ir, "memory-mix")
    assert isinstance(mix, MemoryMix)
    return (
        mix.global_share_of_accesses,
        mix.local_share_of_accesses,
        mix.access_per_op,
    )


def _divergence_block(ir: KernelIR, manager: PassManager) -> tuple[float, ...]:
    div = manager.run(ir, "divergence")
    assert isinstance(div, Divergence)
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

    @property
    def is_default(self) -> bool:
        return self.name == DEFAULT_RECIPE

    def fingerprint(self) -> str:
        """Stable identity of the *layout* (what cache keys hash in).

        Hashes the base + every block's name and column list, so renaming
        or reordering a block's columns changes the fingerprint even if
        the recipe name stays the same.
        """
        hasher = hashlib.sha256()
        hasher.update(self.name.encode("utf-8"))
        hasher.update(b"\x00norm=%d" % int(self.normalize))
        for block in self.blocks:
            hasher.update(b"\x00")
            hasher.update(block.name.encode("utf-8"))
            for col in block.columns:
                hasher.update(b"\x1f")
                hasher.update(col.encode("utf-8"))
        return hasher.hexdigest()

    def extract(self, ir: KernelIR, manager: PassManager) -> StaticFeatures:
        """Build the recipe's :class:`StaticFeatures` for one kernel IR.

        The base ten columns go through the exact arithmetic the legacy
        extractor used (:meth:`StaticFeatures.from_counts` over the
        histogram pass, which delegates to the canonical IR fold), so the
        default recipe is bit-identical to pre-recipe vectors.  A kernel
        whose weighted counts are not finite has no feature vector: it
        raises :class:`CLFrontendError`.
        """
        hist = manager.run(ir, "opcode-histogram")
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
            values = values + block.compute(ir, manager)
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
