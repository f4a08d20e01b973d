"""repro — reproduction of *Predictable GPUs Frequency Scaling for Energy
and Performance* (Fan, Cosenza, Juurlink — ICPP 2019).

The package predicts Pareto-optimal (core, memory) frequency settings for
an OpenCL kernel **without running it**, from static code features alone.
Since no GPU is attached, measurements come from a DVFS-aware analytical
simulator (:mod:`repro.gpusim`) that stands in for the GPU and its
§4.1 measurement protocol; see DESIGN.md for the substitution argument.

Quick start::

    from repro import ParetoPredictor, paper_context

    ctx = paper_context()                   # trains the paper's models
    result = ctx.predictor.predict_from_source(MY_KERNEL_SOURCE)
    for p in result.front:
        print(p.core_mhz, p.mem_mhz, p.speedup, p.norm_energy)
"""

import importlib

__version__ = "1.0.0"

#: Every top-level export and the submodule defining it.  Resolved on
#: first access (PEP 562), so ``import repro`` — and with it every
#: ``python -m repro.cli`` command — loads only the stacks it touches.
_EXPORTS = {
    "GPUSimulator": "gpusim.executor",
    "KernelSpec": "workloads",
    "MeasurementBackend": "measure",
    "ModelKey": "serve.registry",
    "ModelRegistry": "serve.registry",
    "ParetoPredictor": "core.predictor",
    "PredictedParetoSet": "core.predictor",
    "PredictedPoint": "core.predictor",
    "PredictionService": "serve.service",
    "RecordingBackend": "measure",
    "ReplayBackend": "measure",
    "SimulatorBackend": "measure",
    "TrainedModels": "core.pipeline",
    "build_context": "harness.context",
    "extract_features": "features.extractor",
    "generate_micro_benchmarks": "synthetic.generator",
    "get_benchmark": "suite.registry",
    "make_tesla_p100": "gpusim.device",
    "make_titan_x": "gpusim.device",
    "paper_context": "harness.context",
    "quick_context": "harness.context",
    "resolve_device": "gpusim.device",
    "test_benchmarks": "suite.registry",
    "train_from_specs": "core.pipeline",
    "train_models": "core.pipeline",
}

__all__ = sorted([*_EXPORTS, "__version__"])


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is not None:
        value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    elif not name.startswith("_"):
        # ``import repro; repro.serve…``: a submodule not imported yet.
        try:
            value = importlib.import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
