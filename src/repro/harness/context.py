"""Shared, cached experiment context.

Training the two SVRs on 106 micro-benchmarks × 40 settings is the
expensive step of every evaluation bench.  :func:`paper_context` builds the
whole paper setup once per process (backend, training data, fitted models,
predictor) and memoizes it, so benches and examples can share it.

Contexts are **device-parameterized**: pass a device name or alias
(``titan-x`` is the default, ``tesla-p100`` the paper's portability target)
and the whole stack — frequency menus, sampled settings, trained models,
predictor candidates — follows that device.  :func:`build_context` is the
uncached general form; it additionally accepts any measurement backend, so
a context can be trained from a replayed trace as easily as from the
simulator.

Setting the environment variable ``REPRO_QUICK=1`` makes
:func:`paper_context` delegate to :func:`quick_context` — the hook CI's
benchmark smoke step uses to run every bench in quick mode.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

from ..core.config import TRAINING_RECIPES
from ..core.config import modeled_subset as _modeled_subset
from ..core.config import sample_training_settings
from ..core.dataset import TrainingDataset
from ..core.pipeline import TrainedModels, train_from_specs
from ..core.predictor import ParetoPredictor
from ..gpusim.device import DeviceSpec, resolve_device
from ..gpusim.executor import GPUSimulator
from ..measure.backend import MeasurementBackend, as_backend
from ..measure.simulator import SimulatorBackend
from ..synthetic.generator import generate_micro_benchmarks
from ..workloads import KernelSpec

#: Default experiment device (the paper's test platform).
DEFAULT_DEVICE = "NVIDIA GTX Titan X"


@dataclass
class PaperContext:
    """Everything the paper's evaluation needs, fitted and ready."""

    sim: GPUSimulator
    device: DeviceSpec
    backend: MeasurementBackend
    models: TrainedModels
    dataset: TrainingDataset
    settings: list[tuple[float, float]]
    predictor: ParetoPredictor
    micro_benchmarks: list[KernelSpec]


def build_context(
    device: DeviceSpec | str | None = None,
    recipe: str = "paper",
    backend: MeasurementBackend | None = None,
    feature_recipe: str = "paper10",
) -> PaperContext:
    """Train the full setup for one device/backend/recipe (uncached).

    ``device`` is a spec, full name or alias; it defaults to the backend's
    device, or Titan X when neither is given.  ``backend`` defaults to the
    vectorized simulator for the chosen device.  ``feature_recipe`` selects
    the static feature layout (:mod:`repro.analysis.recipes`); the default
    is the paper's ten-share vector.
    """
    try:
        stride, budget = TRAINING_RECIPES[recipe]
    except KeyError:
        raise ValueError(
            f"unknown recipe {recipe!r}; known: {sorted(TRAINING_RECIPES)}"
        ) from None

    if device is None:
        spec = backend.device if backend is not None else resolve_device(DEFAULT_DEVICE)
    elif isinstance(device, str):
        spec = resolve_device(device)
    else:
        spec = device
    if backend is None:
        backend = SimulatorBackend(spec)
    else:
        backend = as_backend(backend)
        if backend.device.name != spec.name:
            raise ValueError(
                f"backend measures {backend.device.name!r} "
                f"but the context is for {spec.name!r}"
            )

    sim = backend.sim if isinstance(backend, SimulatorBackend) else GPUSimulator(spec)
    micro = generate_micro_benchmarks()[::stride]
    settings = sample_training_settings(spec, total=budget)
    models, dataset = train_from_specs(
        backend, micro, settings, feature_recipe=feature_recipe
    )
    predictor = ParetoPredictor(
        models, spec, candidates=_modeled_subset(spec, settings)
    )
    return PaperContext(
        sim=sim,
        device=spec,
        backend=backend,
        models=models,
        dataset=dataset,
        settings=settings,
        predictor=predictor,
        micro_benchmarks=micro,
    )


@lru_cache(maxsize=4)
def _paper_context_cached(device: str) -> PaperContext:
    return build_context(device=device, recipe="paper")


def paper_context(device: str = DEFAULT_DEVICE) -> PaperContext:
    """The paper's full training setup (106 codes, 40 settings).

    Cached per process; treat the returned object as read-only.  With
    ``REPRO_QUICK=1`` in the environment, delegates to
    :func:`quick_context` (CI's fast-bench hook).  The env check lives
    outside the cache, so toggling the variable mid-process can never
    serve a quick context under the paper key (or vice versa).
    """
    if os.environ.get("REPRO_QUICK"):
        return quick_context(device)
    return _paper_context_cached(device)


@lru_cache(maxsize=4)
def quick_context(device: str = DEFAULT_DEVICE) -> PaperContext:
    """A reduced setup (subset of codes/settings) for fast tests.

    Training uses every third micro-benchmark and a 24-setting sample;
    model quality is lower but the pipeline is identical.
    """
    return build_context(device=device, recipe="quick")
