"""The repository's benchmark: one command, two workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each exists): ``campaign`` and
``serve-unique``.  The program under test runs as its own processes from
the checkout's ``src/``; every output is checked against an oracle.
``--trace 0`` measures the end-to-end metrics, with times normalized to a
nominal host speed (see ``workloads.py``); ``--trace 1`` repeats the
workload with every layer traced and reports the per-layer metrics.

A human-readable report goes to stdout, the full record (inputs,
provenance, tail percentiles, per-layer split) to
``perfbench/results/<workload>-s<seed>-t<trace>.json``, and the last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import shutil
import sys

from common import (
    PINNED_THREADS, RESULTS, SRC, WORK, import_repro, program_present, provenance,
)

os.environ.update(PINNED_THREADS)  # before numpy loads in this process

BENCHMARK_JSON = SRC.parent / "BENCHMARK.json"


def _units() -> dict[str, str]:
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _report(workload: str, outcome, traced: bool, prov: dict) -> str:
    lines = [f"perfbench {workload} ({'traced' if traced else 'untraced'})"]
    lines.append("provenance: " + ", ".join(f"{k}={v}" for k, v in prov.items()))
    lines.append("inputs: " + json.dumps(outcome.inputs, sort_keys=True))
    lines.append(
        f"operations: attempted {outcome.attempted}, failed {outcome.failed}, "
        f"shed {outcome.shed}, mismatched {outcome.mismatched}"
    )
    if traced:
        lines.append(f"{'layer span':<20} {'self ms':>11} {'calls':>8} {'share %':>8}")
        for name, self_ms, calls, share in outcome.layer_report:
            lines.append(f"{name:<20} {self_ms:11.2f} {calls:8d} {share:8.2f}")
        metrics = outcome.layers
    else:
        metrics = outcome.metrics
        ref = outcome.details["reference"]
        lines.append("reference job, times scaled by: " + ", ".join(
            f"{phase} x{factor:.4f} (n={len(ref['samples_s'][phase])})"
            for phase, factor in ref["factors"].items()))
        if "tail" in outcome.details:
            t = outcome.details["tail"]
            lines.append(f"tail_ms is p{t['percentile']:g} of n={t['n']} ({t['of']})")
        fid = outcome.details.get("fidelity")
        if fid:
            paper = fid["paper_reference"]
            for key in ("speedup_rmse_pct", "energy_rmse_pct"):
                panels = " / ".join(f"{fid['panels'][key][p]:.2f}" for p in "HhlL")
                ref = " / ".join(f"{paper[key][p]:.2f}" for p in "HhlL")
                lines.append(f"{key}: H/h/l/L {panels} (paper {ref}, information only)")
            lines.append(f"pareto_d: {outcome.metrics['pareto_d']:.4f} (paper {paper['pareto_d']})")
    for name, value in metrics.items():
        lines.append(f"  {name:<28} {value:.6g}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not program_present():
        print(f"error: no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    import_repro()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    # The build: byte-compile the program once, so no timed process pays it.
    compileall.compile_dir(str(SRC), quiet=1)

    traced = bool(args.trace)
    try:
        outcome = WORKLOADS[args.workload](args.seed, args.seconds, traced)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    units = _units()
    chosen = outcome.layers if traced else outcome.metrics
    metrics = {name: {"value": value, "unit": units.get(name, "")} for name, value in chosen.items()}
    finite = all(math.isfinite(v) for v in chosen.values())
    correct = outcome.failed == 0 and outcome.attempted > 0 and finite
    prov = provenance(traced)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "provenance": prov,
        "operations": {
            "attempted": outcome.attempted, "failed": outcome.failed,
            "shed": outcome.shed, "mismatched": outcome.mismatched,
        },
        "inputs": outcome.inputs,
        "metrics": chosen,
        "details": outcome.details,
        "layer_report": [
            {"span": n, "self_ms": ms, "calls": c, "share_pct": s}
            for n, ms, c, s in outcome.layer_report
        ],
    }
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True, default=str) + "\n")
    print(_report(args.workload, outcome, traced, prov))
    print(f"record: {path.relative_to(SRC.parent)}")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
