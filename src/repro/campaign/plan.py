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

from ..analysis.recipes import DEFAULT_RECIPE, RecipeError, resolve_recipe
from ..core.config import TRAINING_RECIPES, sample_training_settings
from ..gpusim.device import DeviceSpec, resolve_device
from ..measure.trace_registry import TraceKey
from ..serve.registry import ModelKey, features_for_recipe
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
    #: Static feature recipe the campaign extracts and trains with
    #: (:mod:`repro.analysis.recipes`).
    features: str = DEFAULT_RECIPE

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
        try:
            resolve_recipe(self.features)
        except RecipeError as exc:
            raise ValueError(f"unknown feature recipe: {exc}") from None
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
        return RECIPE_SUITES[self.recipe]

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
                feature_recipe=self.features,
            )
            for p in range(self.repeats)
            for k, spec in enumerate(specs)
        ]

    def model_key(self, device: DeviceSpec) -> ModelKey:
        return ModelKey(
            device=device.name,
            recipe=self.recipe,
            features=features_for_recipe(self.features),
        )

    def describe(self) -> str:
        stride, budget = TRAINING_RECIPES[self.recipe]
        return (
            f"{len(self.devices)} device(s) x "
            f"{len(self.kernel_specs())} codes x {budget} settings, "
            f"{self.repeats} pass(es), {self.workers} worker(s)"
        )
