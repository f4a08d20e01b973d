"""Declarative campaign plans: devices × kernels × repeats.

A plan names *what* to measure — the device list, the kernel corpus and
settings budget (via the training recipe), how many repeat passes — and
the execution parameters (worker processes).  The engine
(:mod:`repro.campaign.engine`) turns a plan into registered traces and
trained model bundles; the plan itself owns no I/O.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..core.config import TRAINING_RECIPES, sample_training_settings
from ..gpusim.device import DeviceSpec, resolve_device
from ..measure.trace_registry import TraceKey
from ..serve.registry import ModelKey
from ..synthetic.generator import generate_micro_benchmarks
from ..workloads import KernelSpec

if TYPE_CHECKING:
    from .scheduler import SweepTask

#: recipe → trace-registry suite label.  The paper recipe records under
#: the plain "default" suite (`--trace-key titan-x/default`); other
#: recipes are namespaced by their own name.
RECIPE_SUITES: dict[str, str] = {"paper": "default", "quick": "quick"}


@dataclass(frozen=True)
class CampaignPlan:
    """One campaign: sweep every kernel over every device's settings."""

    devices: tuple[str, ...]
    recipe: str = "paper"
    repeats: int = 1
    workers: int = 1
    interactions: bool = True
    suite: str | None = None  # trace suite label override
    #: Static feature recipe the campaign trains with
    #: (:mod:`repro.analysis.recipes`); ``paper10`` is the paper layout.
    features: str = "paper10"

    def __post_init__(self) -> None:
        if not self.devices:
            raise ValueError("a campaign needs at least one device")
        if self.recipe not in TRAINING_RECIPES:
            raise ValueError(
                f"unknown recipe {self.recipe!r}; known: {sorted(TRAINING_RECIPES)}"
            )
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        from ..analysis.recipes import RecipeError, resolve_recipe

        try:
            resolve_recipe(self.features)
        except RecipeError as exc:
            raise ValueError(f"unknown feature recipe: {exc}") from None
        if self.features != "paper10" and not self.interactions:
            raise ValueError(
                "the concat (no-interactions) ablation is only defined for "
                "the default 'paper10' feature recipe"
            )
        seen: dict[str, str] = {}
        for name in self.devices:
            # Fail fast on typos, before any sweep runs — and on two
            # spellings of one device, which would race two legs onto the
            # same trace file and collapse in the scheduler's routing.
            resolved = resolve_device(name).name
            if resolved in seen:
                raise ValueError(
                    f"devices {seen[resolved]!r} and {name!r} are the same "
                    f"device ({resolved}); list each device once"
                )
            seen[resolved] = name

    # -- derived workload -------------------------------------------------------

    @property
    def suite_label(self) -> str:
        return self.suite if self.suite is not None else RECIPE_SUITES[self.recipe]

    def device_specs(self) -> list[DeviceSpec]:
        return [resolve_device(name) for name in self.devices]

    def kernel_specs(self) -> list[KernelSpec]:
        stride, _budget = TRAINING_RECIPES[self.recipe]
        return generate_micro_benchmarks()[::stride]

    def settings_for(self, device: DeviceSpec) -> list[tuple[float, float]]:
        _stride, budget = TRAINING_RECIPES[self.recipe]
        return sample_training_settings(device, total=budget)

    def trace_key(self, device: DeviceSpec) -> TraceKey:
        return TraceKey(device=device.name, suite=self.suite_label)

    # -- task enumeration -------------------------------------------------------

    @property
    def tasks_per_leg(self) -> int:
        """Sweep tasks one device leg flattens into (kernels × passes)."""
        return len(self.kernel_specs()) * self.repeats

    def leg_tasks(self, device: DeviceSpec) -> "list[SweepTask]":
        """One device leg as its deterministic sweep-task sequence.

        Pass-major kernel order — exactly the order the serial engine
        measured and recorded, which is what makes a scheduled leg's trace
        byte-identical to a serial one and a crash's record prefix
        checkable against this sequence on ``--resume``.
        """
        from .scheduler import SweepTask

        specs = self.kernel_specs()
        settings = tuple(self.settings_for(device))
        return [
            SweepTask(
                device=device.name,
                kernel_index=k,
                pass_index=p,
                spec=spec,
                settings=settings,
                final=p == self.repeats - 1,
                # Workers extract with the default recipe only; non-default
                # plans extract parent-side with the plan's config instead.
                extract_features=self.features == "paper10",
            )
            for p in range(self.repeats)
            for k, spec in enumerate(specs)
        ]

    def model_key(self, device: DeviceSpec) -> ModelKey:
        if self.features != "paper10":
            # Recipe-named keys always train with interactions (validated
            # in __post_init__); the legacy spellings cover the paper10
            # ablation pair.
            features = self.features
        else:
            features = "interactions" if self.interactions else "concat"
        return ModelKey(device=device.name, recipe=self.recipe, features=features)

    def extractor_config(self):
        """The :class:`~repro.features.extractor.ExtractorConfig` for this
        plan's feature recipe, or ``None`` for the default (``paper10``)."""
        if self.features == "paper10":
            return None
        from ..features.extractor import ExtractorConfig

        return ExtractorConfig(recipe=self.features)

    def describe(self) -> str:
        stride, budget = TRAINING_RECIPES[self.recipe]
        return (
            f"{len(self.devices)} device(s) x "
            f"{len(self.kernel_specs())} codes x {budget} settings, "
            f"{self.repeats} pass(es), {self.workers} worker(s)"
        )
