"""Serving throughput: cold vs warm feature cache, sequential vs batched.

The `repro.serve` subsystem exists so prediction can sit in an autotuner's
inner loop: features come from a content-hash cache instead of the clkernel
frontend, and a batch of kernels is predicted with one vectorized model
pass instead of one batch per kernel.  This bench measures both claims
on a 50-kernel batch and records kernels/sec for the three serving regimes
(cold, warm-cache, batched).

What the inference floor guards: the batched pass stays vectorized, so
its cost is its numeric core's — one model pass per objective over the
stacked 50 × 171 design matrix plus the broadcast dominance test — and
not per-kernel Python work.  It is not a speedup over batches of one:
a batch of one runs the same vectorized path, and its per-kernel cost is
that same core (RBF ``exp`` over 171 candidates × the support vectors,
and a 171 × 171 dominance test), which no batch can share.  Batching
saves only the fixed cost of a call, so ``batch_speedup`` is recorded
(1.1–1.3× on a 2-core host) but not asserted.

The frontend split records what a never-seen kernel costs before any model
runs: lex, parse and lower microseconds per token over the serve-unique
workload's own never-seen mix kernels (``perfbench/inputs.unique_kernels``,
seed 1).  All three stages are timed in every round and each records its
median over ``FRONTEND_ROUNDS`` rounds, so a change in host speed moves
every stage alike.  It is a record, not a floor.
"""

import gc
import statistics
import sys
import time

from _common import REPO_ROOT, latency_summary, write_artifact

from repro.core.predictor import ParetoPredictor
from repro.harness.context import quick_context
from repro.harness.report import format_heading, format_table
from repro.pareto.algorithms import pareto_front_masks
from repro.serve.cache import KernelFeatureCache
from repro.synthetic import generate_micro_benchmarks

N_KERNELS = 50
REPEATS = 3

#: Serve-unique kernels in the frontend split (twelve of its 8-size blocks).
N_MIX_KERNELS = 96
#: Rounds of the frontend split; each stage records its median.
FRONTEND_ROUNDS = 9


def _specs():
    return generate_micro_benchmarks()[:N_KERNELS]


def _best_of(fn, repeats=REPEATS):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _best_of_alternating(*fns, repeats=REPEATS) -> list[float]:
    """Best-of-``repeats`` seconds of each function, timed in turn within
    every repeat, so a burst of host load lands on all of them alike."""
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - start)
    return best


def measure_feature_cache() -> tuple[float, float]:
    """Seconds to extract features for all kernels: cold vs warm cache.

    "Cold" means no caching anywhere: the frontend's lowering memo
    (``repro.clkernel.lowering``) is cleared each round so the measurement
    reflects a fresh process parsing unseen sources.
    """
    from repro.clkernel.lowering import _lower_source_cached

    specs = _specs()

    def cold():
        _lower_source_cached.cache_clear()
        cache = KernelFeatureCache()
        return [cache.get(s.source, s.kernel_name) for s in specs]

    t_cold, _ = _best_of(cold)

    warm_cache = KernelFeatureCache()
    for s in specs:
        warm_cache.get(s.source, s.kernel_name)

    def warm():
        return [warm_cache.get(s.source, s.kernel_name) for s in specs]

    t_warm, _ = _best_of(warm)
    return t_cold, t_warm


#: Ceiling on the batched pass over its numeric core.  Measured 1.10–1.12
#: on a 2-core host with the whole batch's fronts built at once; assembling
#: them kernel by kernel measured 1.16–1.36, a per-kernel model pass inside
#: ``predict_batch`` 1.36–1.39 and materializing every candidate's point
#: 1.51–1.53.
BATCHED_OVER_CORE_MAX = 1.3


def measure_inference() -> tuple[float, float, float]:
    """Seconds to predict all kernels: batches of one, one batched pass,
    and the batched pass's numeric core alone (both models' vectorized
    predictions and the dominance test, no per-kernel assembly).

    Uses the predictor's default candidate menu (every real configuration
    of the modeled memory domains) — the serving configuration.
    """
    ctx = quick_context()
    predictor = ParetoPredictor(ctx.models, ctx.device)
    statics = [s.static_features() for s in _specs()]

    predictor.predict_batch(statics)  # warm numpy/BLAS paths

    def core():
        speedups, energies = ctx.models.predict_objective_arrays(
            statics, predictor.candidates
        )
        return pareto_front_masks(speedups, energies)

    t_seq, _ = _best_of(
        lambda: [predictor.predict_batch([s]) for s in statics]
    )
    # The ratio of these two is gated, so they are timed alternately.
    t_bat, t_core = _best_of_alternating(
        lambda: predictor.predict_batch(statics), core
    )
    return t_seq, t_bat, t_core


def measure_latency_percentiles() -> dict:
    """Per-request p50/p99: the daemon bench's offline baseline.

    One timed pass per regime (warm everything first) — percentiles want
    the sample spread, not the best-of-three floor the totals report.
    """
    from repro.clkernel.lowering import _lower_source_cached

    specs = _specs()
    ctx = quick_context()
    predictor = ParetoPredictor(ctx.models, ctx.device)

    _lower_source_cached.cache_clear()
    cold_cache = KernelFeatureCache()
    extract_cold = []
    for s in specs:
        start = time.perf_counter()
        cold_cache.get(s.source, s.kernel_name)
        extract_cold.append(time.perf_counter() - start)

    extract_warm = []
    for s in specs:
        start = time.perf_counter()
        cold_cache.get(s.source, s.kernel_name)
        extract_warm.append(time.perf_counter() - start)

    statics = [s.static_features() for s in specs]
    predictor.predict_batch(statics)  # warm numpy/BLAS paths
    sequential = []
    for static in statics:
        start = time.perf_counter()
        predictor.predict_batch([static])
        sequential.append(time.perf_counter() - start)

    return {
        "extract_cold": latency_summary(extract_cold),
        "extract_warm": latency_summary(extract_warm),
        "inference_sequential": latency_summary(sequential),
    }


def _unique_mix_sources() -> list[str]:
    """The first serve-unique kernels of seed 1, from that workload's own
    generator."""
    perfbench = str(REPO_ROOT / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        from inputs import unique_kernels
    finally:
        sys.path.remove(perfbench)
    return [kernel.source for kernel in unique_kernels(1, N_MIX_KERNELS)]


def measure_frontend_per_token() -> dict:
    """Lex, parse and lower microseconds per token over the serve-unique mix.

    Every round lexes all sources, parses those tokens and lowers those
    units, timing each stage; each stage reports its median over
    ``FRONTEND_ROUNDS`` rounds.
    """
    from repro.clkernel.lexer import tokenize
    from repro.clkernel.lowering import Lowerer
    from repro.clkernel.parser import Parser

    sources = _unique_mix_sources()
    tokens = sum(len(tokenize(src)) - 1 for src in sources)  # EOF is not a token
    seconds: dict[str, list[float]] = {"lex": [], "parse": [], "lower": []}
    for _ in range(FRONTEND_ROUNDS):
        # The last round's tokens and trees are freed before the clock runs.
        gc.collect()
        start = time.perf_counter()
        streams = [tokenize(src) for src in sources]
        lexed = time.perf_counter()
        units = [Parser(toks).parse_unit() for toks in streams]
        parsed = time.perf_counter()
        lowered_irs = [Lowerer(unit).lower_kernel(unit.kernels()[0]) for unit in units]
        lowered = time.perf_counter()
        seconds["lex"].append(lexed - start)
        seconds["parse"].append(parsed - lexed)
        seconds["lower"].append(lowered - parsed)
        del streams, units, lowered_irs
    return {
        "kernels": len(sources),
        "tokens": tokens,
        "rounds": FRONTEND_ROUNDS,
        **{
            f"{stage}_us_per_token": statistics.median(times) / tokens * 1e6
            for stage, times in seconds.items()
        },
    }


def regenerate_throughput() -> tuple[str, dict]:
    t_cold, t_warm = measure_feature_cache()
    t_seq, t_bat, t_core = measure_inference()
    percentiles = measure_latency_percentiles()
    frontend = measure_frontend_per_token()
    rows = [
        ("feature extraction, cold cache", f"{t_cold * 1e3:8.2f}",
         f"{N_KERNELS / t_cold:10.0f}", "1.0x"),
        ("feature extraction, warm cache", f"{t_warm * 1e3:8.2f}",
         f"{N_KERNELS / t_warm:10.0f}", f"{t_cold / t_warm:.1f}x"),
        ("inference, 50 batches of one kernel", f"{t_seq * 1e3:8.2f}",
         f"{N_KERNELS / t_seq:10.0f}", "1.0x"),
        ("inference, batched vectorized pass", f"{t_bat * 1e3:8.2f}",
         f"{N_KERNELS / t_bat:10.0f}", f"{t_seq / t_bat:.1f}x"),
        ("  its numeric core (models + dominance)", f"{t_core * 1e3:8.2f}",
         f"{N_KERNELS / t_core:10.0f}", f"{t_seq / t_core:.1f}x"),
    ]
    table = format_table(
        ["stage", "ms / 50 kernels", "kernels/sec", "speedup"], rows
    )
    table += "\n\n" + format_table(
        ["frontend stage", "us / token"],
        [(stage, f"{frontend[f'{stage}_us_per_token']:.3f}")
         for stage in ("lex", "parse", "lower")],
    ) + f"\n({frontend['tokens']} tokens in {frontend['kernels']} serve-unique kernels)"
    data = {
        "n_kernels": N_KERNELS,
        "repeats": REPEATS,
        "timings_s": {
            "extract_cold": t_cold,
            "extract_warm": t_warm,
            "inference_sequential": t_seq,
            "inference_batched": t_bat,
            "inference_core": t_core,
        },
        "ratios": {
            "warm_cache_speedup": t_cold / t_warm,
            "batch_speedup": t_seq / t_bat,
            "batched_over_core": t_bat / t_core,
        },
        "latency_s": percentiles,
        "frontend": frontend,
        "asserted": {
            "warm_cache_speedup_min": 10.0,
            "batched_over_core_max": BATCHED_OVER_CORE_MAX,
        },
    }
    return (
        format_heading("repro.serve — throughput on a 50-kernel batch")
        + "\n" + table
    ), data


def test_serve_throughput():
    text, data = regenerate_throughput()
    write_artifact("serve_throughput", text, data=data)
    assert "batched" in text


def test_warm_cache_at_least_10x_faster():
    t_cold, t_warm = measure_feature_cache()
    assert t_cold / t_warm >= 10.0, (t_cold, t_warm)


def test_batched_pass_is_model_bound():
    _, t_bat, t_core = measure_inference()
    assert t_bat / t_core <= BATCHED_OVER_CORE_MAX, (t_bat, t_core)
