"""Steadiness report: repeat untraced runs and compare each spread to its bound.

    python3 perfbench/steady.py --workload NAME [--seeds 1-10] [--seconds S]
                                [--baseline perfbench/results/steady-NAME.json]

Runs ``perfbench/run.py`` once per seed, one run at a time, and reports
for every end-to-end metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is the
interquartile distance as a share of the median, against the metric's
``bound`` in BENCHMARK.json.  A metric whose spread exceeds its bound is
flagged ``OVER``; one above a third of its bound is flagged ``wide``.
With ``--baseline`` (an earlier report of this tool), each median is also
compared with the baseline's: a worsening beyond the bound is flagged.
The report is written to ``perfbench/results/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from common import BENCH_DIR, RESULTS, ROOT


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"seed {seed} failed ({proc.returncode}): {proc.stderr[-600:]}")
    return json.loads(lines[-1])


def summarize(spec: dict, results: list[dict], baseline: dict | None) -> dict:
    report = {}
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        entry = {
            "values": values, "median": med, "q1": q1, "q3": q3,
            "spread": spread, "bound": bound,
            "flag": "OVER" if spread > bound else ("wide" if spread > bound / 3 else "ok"),
        }
        if baseline is not None:
            base = baseline["metrics"][name]["median"]
            change = (med - base) / base if base else 0.0
            worse = change if metric["better"] == "lower" else -change
            entry["vs_baseline"] = change
            if worse > bound:
                entry["flag"] = "WORSE"
        report[name] = entry
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--baseline", default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    results = []
    for seed in _seeds(args.seeds):
        result = run_once(args.workload, seed, seconds)
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
    baseline = json.loads(open(args.baseline).read()) if args.baseline else None
    metrics = summarize(spec, results, baseline)
    print(f"{'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  flag")
    for name, e in metrics.items():
        print(f"{name:<18} {e['median']:12.5g} {e['q1']:12.5g} {e['q3']:12.5g} "
              f"{e['spread']:8.4f} {e['bound']:6.3f}  {e['flag']}")
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"steady-{args.workload}.json"
    out.write_text(json.dumps({
        "workload": args.workload, "seconds": seconds, "seeds": _seeds(args.seeds),
        "all_correct": all(r["correct"] for r in results), "metrics": metrics,
    }, indent=2) + "\n")
    return 0 if all(e["flag"] in ("ok", "wide") for e in metrics.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
