"""Frequency-setting selection (paper §3.3 and §4.5).

Two concerns live here:

* **Training sample selection** — each training code is executed at "a
  subset of 40 carefully sampled frequency settings" instead of all 174+
  (exhaustive sweeps cost 70 minutes per code, §3.3).  Our sampler takes
  all six mem-L settings (they are few and weird) and spreads the remaining
  budget evenly across the three higher memory domains.
* **Prediction candidates** — the predictor models only the three high
  memory domains (mem-l/h/H); mem-L is handled by the paper's heuristic
  (§4.5): "we used the predictive modeling approach on the other three
  memory configurations, and added the last of the mem-L configuration".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gpusim.device import DeviceSpec, MemoryDomain

#: The paper's training sample size per code.
PAPER_SAMPLE_SIZE = 40

#: Training recipes shared by experiment contexts, ``repro train`` and
#: the campaign engine: name → (micro-benchmark stride, settings budget).
#: One table on purpose — `train --backend replay --trace-key <key>` only
#: reproduces a campaign's dataset because both sides derive the same
#: specs and settings from the same recipe.
TRAINING_RECIPES: dict[str, tuple[int, int]] = {
    "paper": (1, PAPER_SAMPLE_SIZE),
    "quick": (3, 24),
}

#: Memory-domain labels the predictive models cover (everything but mem-L).
MODELED_LABELS: tuple[str, ...] = ("l", "h", "H")


def _evenly_spaced_subset(values: tuple[float, ...], count: int) -> list[float]:
    """Pick ``count`` entries spread evenly across a sorted menu."""
    ordered = sorted(values)
    if count >= len(ordered):
        return list(ordered)
    if count <= 0:
        return []
    idx = np.linspace(0, len(ordered) - 1, count).round().astype(int)
    return [ordered[i] for i in sorted(set(idx.tolist()))]


def sample_training_settings(
    device: DeviceSpec, total: int = PAPER_SAMPLE_SIZE
) -> list[tuple[float, float]]:
    """The paper's 40-setting training sample.

    All real mem-L settings are included (only six exist and their region
    of the space is unreachable otherwise); the remaining budget is split
    evenly over the other domains' *real* (non-clamped) core menus.
    """
    if total < len(device.domains):
        raise ValueError("budget must cover at least one setting per domain")
    settings: list[tuple[float, float]] = []
    low_domains = [d for d in device.domains if len(d.real_core_mhz) <= 8]
    high_domains = [d for d in device.domains if len(d.real_core_mhz) > 8]

    for domain in low_domains:
        settings.extend((c, domain.mem_mhz) for c in domain.real_core_mhz)

    remaining = total - len(settings)
    if high_domains:
        per_domain = remaining // len(high_domains)
        extra = remaining - per_domain * len(high_domains)
        for i, domain in enumerate(high_domains):
            count = per_domain + (1 if i < extra else 0)
            cores = _evenly_spaced_subset(domain.real_core_mhz, count)
            settings.extend((c, domain.mem_mhz) for c in cores)
    return settings


def exhaustive_settings(device: DeviceSpec) -> list[tuple[float, float]]:
    """Every real configuration (the 70-minute sweep of §3.3)."""
    return device.real_configurations()


def modeled_subset(
    device: DeviceSpec, settings: list[tuple[float, float]]
) -> list[tuple[float, float]]:
    """Restrict sampled settings to the modeled memory domains.

    The paper predicts over the sampled frequency configurations of
    mem-l/h/H (Fig. 3 step 3); mem-L enters only via the §4.5 heuristic.
    Used to derive a predictor's candidate set from a trained bundle's
    recorded training settings.  May return an empty list (single-domain
    devices); :class:`~repro.core.predictor.ParetoPredictor` falls back to
    :func:`prediction_candidates` in that case.
    """
    return [
        (core, mem)
        for core, mem in settings
        if device.domain(mem).label in MODELED_LABELS
    ]


def prediction_candidates(device: DeviceSpec) -> list[tuple[float, float]]:
    """Configurations the models predict over: real settings of mem-l/h/H."""
    settings: list[tuple[float, float]] = []
    for domain in device.domains:
        if domain.label in MODELED_LABELS:
            settings.extend((c, domain.mem_mhz) for c in domain.real_core_mhz)
    if not settings:
        # Single-domain devices (P100): model everything.
        settings = device.real_configurations()
    return settings


def mem_l_heuristic_config(device: DeviceSpec) -> tuple[float, float] | None:
    """The paper's mem-L heuristic point: the *last* (highest-core) mem-L
    configuration, always appended to the predicted Pareto set (§4.5).

    Returns None when the device has no undersized memory domain.
    """
    low: MemoryDomain | None = None
    for domain in device.domains:
        if len(domain.real_core_mhz) <= 8:
            if low is None or domain.mem_mhz < low.mem_mhz:
                low = domain
    if low is None:
        return None
    return (max(low.real_core_mhz), low.mem_mhz)


@dataclass(frozen=True)
class SamplingPlan:
    """A named bundle of training settings (used by the ablation benches)."""

    name: str
    settings: tuple[tuple[float, float], ...]

    @property
    def size(self) -> int:
        return len(self.settings)


def make_sampling_plans(device: DeviceSpec) -> list[SamplingPlan]:
    """Plans of increasing size for the training-sample-size ablation."""
    plans = []
    for total in (16, 24, 40, 64, 96):
        settings = tuple(sample_training_settings(device, total))
        plans.append(SamplingPlan(name=f"sampled-{len(settings)}", settings=settings))
    plans.append(
        SamplingPlan(name="exhaustive", settings=tuple(exhaustive_settings(device)))
    )
    return plans
