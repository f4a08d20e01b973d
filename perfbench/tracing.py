"""In-memory spans around the program's layer functions.

The benchmark times each layer from outside the program: it replaces a
layer's public functions and methods with wrappers that record a span
(name, start, end, parent, operation id, counts) and call through.  Spans
stay in memory and are written out once, when the traced process ends.

A layer's self time is its span's duration minus the time its child spans
cover, so nested layers (``lower_source`` calls ``parse`` calls
``tokenize``) are each charged only for their own work.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time


def _count_tokens(args, kwargs, result) -> dict:
    return {"tokens": len(result)}


def _count_configs(args, kwargs, result) -> dict:
    configs = args[2] if len(args) > 2 else kwargs.get("configs", ())
    return {"configs": len(configs)}


def _count_rows(args, kwargs, result) -> dict:
    if hasattr(result, "n_samples"):
        return {"rows": int(result.n_samples)}
    if isinstance(result, tuple) and result and hasattr(result[0], "size"):
        return {"rows": int(result[0].size)}
    return {"rows": len(result)} if hasattr(result, "__len__") else {}


def _count_campaign(args, kwargs, result) -> dict:
    progress = getattr(result, "progress", None)
    if progress is None:
        return {}
    return {"worker_util": float(progress.utilization())}


#: (span name, module, attribute path, count function or None).
#: Each entry is one public layer entry point; the span name is
#: ``<layer>.<what>``.
LAYER_POINTS: tuple = (
    ("clkernel.lex", "repro.clkernel.lexer", "tokenize", _count_tokens),
    ("clkernel.parse", "repro.clkernel.parser", "parse", None),
    ("clkernel.lower", "repro.clkernel.lowering", "lower_source", None),
    ("features.extract", "repro.features.extractor", "FeatureExtractor.extract", None),
    ("cache.get", "repro.serve.cache", "KernelFeatureCache.get", None),
    ("measure.sweep", "repro.measure.simulator", "SimulatorBackend.measure", _count_configs),
    ("measure.sweep", "repro.measure.replay", "ReplayBackend.measure", _count_configs),
    ("store.trace", "repro.measure.trace", "TraceWriter.write_kernel", None),
    ("store.trace", "repro.measure.trace", "TraceWriter.write_measurements", None),
    ("store.trace", "repro.measure.trace", "TraceWriter.close", None),
    ("store.compact", "repro.measure.columnar", "compact_trace", None),
    ("store.put", "repro.serve.registry", "ModelRegistry.put", None),
    ("dataset.assemble", "repro.core.dataset", "DatasetAssembler.add", None),
    ("dataset.assemble", "repro.core.dataset", "DatasetAssembler.finish", _count_rows),
    ("dataset.assemble", "repro.core.dataset", "assemble_training_dataset", None),
    ("ml.train", "repro.core.pipeline", "train_models", None),
    ("ml.fit", "repro.ml.svr", "SVR.fit", None),
    ("ml.fit", "repro.ml.streaming", "RandomFourierSVR.fit", None),
    ("ml.predict", "repro.core.pipeline", "TrainedModels.predict_objective_arrays", _count_rows),
    ("ml.predict", "repro.core.pipeline", "TrainedModels.predict_objectives", _count_rows),
    ("pareto.front", "repro.pareto.algorithms", "pareto_front_masks", None),
    ("pareto.front", "repro.pareto.algorithms", "pareto_set_simple", None),
    ("serve.load", "repro.serve.service", "PredictionService.from_artifact", None),
    ("serve.load", "repro.serve.fleet", "FleetService.warm", None),
    ("report.render", "repro.harness.report", "format_front", None),
    ("campaign.run", "repro.campaign.engine", "run_campaign", _count_campaign),
)

#: The two fits inside one ``train_models`` call, in the order it makes them.
FIT_ROLES = ("ml.fit_speedup", "ml.fit_energy")


class Tracer:
    """Collects spans from every thread of one process.

    A span is ``[id, name, start, end, parent, op, counts]``; times are
    ``time.perf_counter()`` seconds, which on Linux is the system-wide
    monotonic clock, so spans from several processes share one time base.
    ``op`` is the operation id the benchmark assigned to :attr:`op`, or
    else the id of the thread's root span.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: str | None = None
        self._local = threading.local()
        self._prefix = f"{os.getpid()}:"
        self._ids = itertools.count(1)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, counter=None):
        stack = self._stack()
        span_id = self._prefix + str(next(self._ids))
        parent = stack[-1] if stack else None
        if parent is not None:
            op = parent[5]
        else:
            op = self.op if self.op is not None else f"root-{span_id}"
        span = [span_id, name, 0.0, 0.0, parent[0] if parent else None, op, {}]
        stack.append(span)
        span[2] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        if counter is not None:
            span[6].update(counter(args, kwargs, result))
        return result

    def record(self, name: str, start: float, end: float, **counts) -> None:
        """Add a span timed by the caller (e.g. a whole child process)."""
        span_id = self._prefix + str(next(self._ids))
        self.spans.append([span_id, name, start, end, None, self.op, counts])

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def _resolve(module_name: str, attr_path: str):
    module = importlib.import_module(module_name)
    owner = module
    parts = attr_path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return module, owner, parts[-1]


def _fit_name(tracer: Tracer) -> str:
    roles = getattr(tracer._local, "fit_roles", None)
    return roles.pop(0) if roles else "ml.fit"


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point in :data:`LAYER_POINTS`.

    Class attributes are replaced on the class; module functions are
    replaced in their defining module *and* in every loaded ``repro``
    module that imported them by name, so aliases made with ``from x
    import f`` are traced too.
    """
    replaced: dict[int, object] = {}
    for name, module_name, attr_path, counter in LAYER_POINTS:
        module, owner, attr = _resolve(module_name, attr_path)
        raw = inspect.getattr_static(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw

        def make(fn=fn, name=name, counter=counter):
            if name == "ml.train":
                @functools.wraps(fn)
                def wrapper(*args, **kwargs):
                    tracer._local.fit_roles = list(FIT_ROLES)
                    try:
                        return tracer.call(name, fn, args, kwargs, counter)
                    finally:
                        tracer._local.fit_roles = []
            elif name == "ml.fit":
                @functools.wraps(fn)
                def wrapper(*args, **kwargs):
                    return tracer.call(_fit_name(tracer), fn, args, kwargs, counter)
            else:
                @functools.wraps(fn)
                def wrapper(*args, **kwargs):
                    return tracer.call(name, fn, args, kwargs, counter)
            return wrapper

        wrapper = make()
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        if owner is module:
            replaced[id(fn)] = (fn, wrapper)
    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith("repro") or mod is None:
            continue
        for attr, value in list(vars(mod).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])


# -- analysis -------------------------------------------------------------------


def layer_totals(spans: list[list]) -> dict[str, dict]:
    """Per span name: summed self time (s), call count and summed counts.

    Counts are taken from the outermost span of a name only, so a layer
    entry point that calls another of the same layer is not counted twice.
    ``cache.get`` additionally gets ``misses``: lookups that ran an
    extraction.
    """
    names = {span[0]: span[1] for span in spans}
    child_time: dict[str, float] = {}
    extracted: set[str] = set()
    for span in spans:
        parent = span[4]
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (span[3] - span[2])
            if span[1] == "features.extract":
                extracted.add(parent)
    totals: dict[str, dict] = {}
    for span_id, name, start, end, parent, _op, counts in spans:
        entry = totals.setdefault(name, {"self_s": 0.0, "calls": 0, "counts": {}})
        entry["self_s"] += max(0.0, (end - start) - child_time.get(span_id, 0.0))
        entry["calls"] += 1
        if names.get(parent) != name:
            for key, value in counts.items():
                entry["counts"][key] = entry["counts"].get(key, 0) + value
        if name == "cache.get" and span_id in extracted:
            entry["counts"]["misses"] = entry["counts"].get("misses", 0) + 1
    return totals
