"""Experiment harness: sweeps, characterization, error analysis, reporting."""

import importlib

#: Every export and the submodule defining it.  Resolved on first access
#: (PEP 562), so ``import repro.harness.report`` — the serve daemon's text
#: renderer — does not drag in the measurement stack behind ``runner``.
_EXPORTS = {
    "Characterization": "characterize",
    "DomainSeries": "characterize",
    "ErrorAnalysis": "errors",
    "PaperContext": "context",
    "ParetoEvaluation": "evaluation",
    "SweepResult": "runner",
    "ascii_scatter": "report",
    "characterize_kernel": "characterize",
    "default_point": "characterize",
    "evaluate_pareto_prediction": "evaluation",
    "evaluate_suite": "evaluation",
    "format_box": "report",
    "format_error_panel": "report",
    "format_heading": "report",
    "format_table": "report",
    "measure_configs": "runner",
    "paper_context": "context",
    "prediction_errors": "errors",
    "quick_context": "context",
    "sweep_kernel": "runner",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
