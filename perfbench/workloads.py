"""The two workloads: set-up, timed operations, oracles, metrics.

Each workload function takes ``(seed, seconds, traced)`` and returns an
:class:`Outcome`.  Untraced runs produce the end-to-end metrics; traced
runs repeat the workload with the layer tracer installed in every process
under test and produce the per-layer metrics (:mod:`layers`).

Every metric is defined on both workloads, because each workload is
reported whole (campaign / serve-unique):

- ``setup_s``: ``campaign --resume`` over the first finished store (the
  campaign command's fixed start-up), median of three / daemon spawn to
  the first ``/healthz`` 200, bundles warmed, median of five spawns.
- ``campaign_s``: one 2-device paper campaign, median over the run / median
  of three campaigns: the one that builds the served store and two more.
- ``p50_ms`` and ``tail_ms``: one warm in-process ``predict_batch`` over the
  workload's kernels with the freshly built Titan X bundle / open-loop
  burst latency from its due time.  The tail is the highest percentile
  with at least ten samples beyond it.
- ``qps``: kernels predicted per second by those batches / closed-loop
  predictions per second.
- ``peak_rss_mb``: the campaign process tree / the daemon.
- fidelity: the first campaign's Titan X bundle / the served store's.

Times (``setup_s``, ``campaign_s``, ``p50_ms``, ``tail_ms``, ``qps``) are
normalized to the nominal host speed with the run's
:class:`common.Reference` samples, taken between operations; the measured
values and the samples are kept in the record's details.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import pathlib
import random
import re
import shutil
import signal
import subprocess
import threading
import time
import urllib.request

import inputs
import layers
import load
import tracing
from common import (
    CAMPAIGN_DEVICES, REFERENCE_NOMINAL_S, TITAN_X, WORK, WORKERS, Reference, child_env,
    cli_argv, distribution, fresh_dir, median, reap, run_child, tail, tree_bytes,
)

SETUP_REPEATS = 3
#: Fewest campaigns a campaign run times, however short ``--seconds``.
MIN_CAMPAIGNS = 3
#: Campaigns serve-unique times: the one that builds its store and copies.
SERVE_CAMPAIGNS = 3
#: Daemon spawns are cheap, so serve-unique takes the median of more.
DAEMON_SPAWNS = 5
BURST = 8
#: The serve load runs in rounds, each a reference sample, an open-loop
#: phase and a closed-loop phase, so every metric samples the whole run.
ROUNDS = 8
#: Open loop: arrival rate in bursts/s and bursts per round.  The rate is
#: 0.4 of the closed-loop capacity (about 36 bursts/s at the commit that
#: introduced the benchmark); nearer saturation the tail swung by 40-80%
#: between runs.  64 bursts put the tail (the eleventh slowest) at p84.
OPEN_RATE = 14.0
OPEN_PER_ROUND = 8
#: Closed-loop bursts/s the unique-kernel pool is sized for: twice the
#: capacity at that commit; a loop that exhausts the pool ends early.
CLOSED_POOL_RATE = 72
SERVE_DEVICES = ("titan-x", "tesla-p100")
#: Seconds per campaign operation spent timing warm batch predictions.
WARM_PREDICT_S = 1.0
#: Metrics the reference factor scales (times) or divides (rates).
TIMES = ("setup_s", "campaign_s", "p50_ms", "tail_ms")
RATES = ("qps",)

#: The paper's values, recorded beside the fidelity metrics (not gates).
PAPER_FIDELITY = {
    "speedup_rmse_pct": {"H": 6.68, "h": 7.10, "l": 11.13, "L": 9.09},
    "energy_rmse_pct": {"H": 7.82, "h": 5.65, "l": 12.85, "L": 15.10},
    "pareto_d": 0.025,
}


class Outcome:
    """What one run attempted, what failed, and what it measured."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.shed = 0
        self.mismatched = 0
        self.metrics: dict[str, float] = {}
        self.details: dict = {}
        self.layers: dict[str, float] = {}
        self.layer_report: list = []
        self.inputs: dict = {}

    def check(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.mismatched += 1

    def error(self) -> None:
        self.attempted += 1
        self.failed += 1

    def timing(self, name: str, values: list[float]) -> None:
        """``p50_ms``/``tail_ms`` from per-operation seconds."""
        value, pct, n = tail(values)
        self.metrics["p50_ms"] = median(values) * 1e3
        self.metrics["tail_ms"] = value * 1e3
        self.details["tail"] = {"of": name, "percentile": pct, "n": n}

    def normalize(self, reference: Reference, phases: dict[str, str]) -> None:
        """Scale each time by the reference factor of the phase that
        measured it (``phases``: metric -> phase); keep what was measured."""
        factors = {phase: reference.factor(phase) for phase in reference.samples}
        self.details["measured"] = dict(self.metrics)
        self.details["reference"] = {
            "nominal_s": REFERENCE_NOMINAL_S, "samples_s": reference.samples, "factors": factors}
        for name in TIMES:
            self.metrics[name] *= factors[phases[name]]
        for name in RATES:
            self.metrics[name] /= factors[phases[name]]


# -- shared pieces ------------------------------------------------------------------


def _campaign(store: pathlib.Path, logs: pathlib.Path, tag: str, workers: int,
              spans: pathlib.Path | None = None, op: str | None = None, resume: bool = False):
    args = ["campaign", "--devices", CAMPAIGN_DEVICES, "--workers", str(workers),
            "--no-progress", "--store", str(store)]
    if resume:
        args.append("--resume")
    done = run_child(cli_argv(args, spans, op), logs, tag)
    if done.returncode != 0:
        raise RuntimeError(f"campaign failed ({done.returncode}): {done.stderr[-400:]}")
    return done


def _bundle_digest(store: pathlib.Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((store / "models").rglob("*.json")):
        digest.update(path.relative_to(store).as_posix().encode())
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def _titan_bundle(store: pathlib.Path) -> pathlib.Path:
    from repro.serve.registry import ModelKey, ModelRegistry

    return ModelRegistry(store / "models").path_for(ModelKey(device=TITAN_X, recipe="paper"))


def fidelity(service) -> dict[str, float]:
    """Fig. 6/7 RMSE (mean over the four memory panels) and Table 2 mean D."""
    from repro.gpusim.executor import GPUSimulator
    from repro.harness import evaluate_suite, prediction_errors
    from repro.suite import test_benchmarks

    sim = GPUSimulator(service.device)
    specs = test_benchmarks()
    settings = service.models.settings
    out: dict[str, float] = {}
    panels: dict[str, dict] = {}
    for metric, objective in (("speedup_rmse_pct", "speedup"), ("energy_rmse_pct", "energy")):
        analysis = prediction_errors(sim, service.models, specs, settings, objective=objective)
        per_panel = {label: analysis.reports[label].rmse_pct for label in ("H", "h", "l", "L")}
        panels[metric] = per_panel
        out[metric] = sum(per_panel.values()) / len(per_panel)
    evals = evaluate_suite(sim, service.predictor, specs, settings)
    out["pareto_d"] = sum(e.coverage_diff for e in evals) / len(evals)
    out["_panels"] = panels
    return out


def _record_fidelity(outcome: Outcome, scores: dict) -> None:
    for key in ("speedup_rmse_pct", "energy_rmse_pct", "pareto_d"):
        outcome.metrics[key] = scores[key]
    outcome.details["fidelity"] = {
        "panels": scores["_panels"],
        "paper_reference": PAPER_FIDELITY,
    }


def _front_text(result) -> str:
    from repro.harness.report import format_front

    return format_front(result) + "\n"


# -- campaign -----------------------------------------------------------------------


def campaign(seed: int, seconds: float, traced: bool) -> Outcome:
    """Paper campaigns into fresh stores, each checked and warm-served."""
    from repro.serve.service import PredictionService

    out = Outcome()
    work = fresh_dir(WORK / "campaign")
    logs = fresh_dir(work / "logs")
    rng = random.Random(f"campaign/{seed}")
    kernels = inputs.real_kernels() + [
        inputs.mix_kernel(rng, f"c{seed}-{i}", ops)
        for i, ops in enumerate(inputs.stratified_ops(rng, 4, 512, 12))
    ]
    out.inputs = inputs.describe(kernels)
    batch = [(k.source, k.name) for k in kernels]
    reference = Reference(logs)

    tracer = None
    if traced:  # the untraced baseline, then layer calls this process makes
        untraced_s = _campaign(work / "untraced", logs, "untraced", WORKERS).wall_s
        tracer = tracing.Tracer()
        tracing.install(tracer)
    first = None  # the first finished store: the bundle every later one must equal
    digest = None
    walls, rss, latencies, span_files = [], [], [], []
    predict_wall = 0.0
    deadline = time.perf_counter() + seconds
    index = 0
    while index < MIN_CAMPAIGNS or time.perf_counter() < deadline:
        op = f"op-{index}"
        store = fresh_dir(work / f"store-{index}")
        spans = work / f"spans-{index}.json" if traced else None
        index += 1
        reference.sample("campaign")
        if tracer is not None:
            tracer.op = op
        try:
            done = _campaign(store, logs, op, 1 if traced else WORKERS, spans, op)
        except RuntimeError as exc:
            out.error()
            out.details.setdefault("errors", []).append(str(exc))
            continue
        walls.append(done.wall_s)
        rss.append(done.peak_rss_mb)
        if spans is not None:
            span_files.append(spans)
            out.details.setdefault("store_bytes", []).append(tree_bytes(store))
            out.details.setdefault("train_leg_s", []).extend(layers.campaign_train_legs(store))
        if first is None:
            first, digest = store, _bundle_digest(store)
        else:
            out.check(_bundle_digest(store) == digest)
        service = PredictionService.from_artifact(_titan_bundle(store))
        service.predict_batch(batch)
        start = time.perf_counter()
        while time.perf_counter() - start < WARM_PREDICT_S:
            t0 = time.perf_counter()
            service.predict_batch(batch)
            latencies.append(time.perf_counter() - t0)
        predict_wall += time.perf_counter() - start
        if tracer is not None:
            tracer.op = None
        if store != first:
            shutil.rmtree(store)
    if first is None:
        raise RuntimeError("no campaign finished: " + "; ".join(out.details["errors"]))

    if not traced:
        resumes = []
        for i in range(SETUP_REPEATS):
            reference.sample("setup")
            resumes.append(_campaign(first, logs, f"resume-{i}", WORKERS, resume=True).wall_s)
        out.check(_bundle_digest(first) == digest)
        out.metrics["setup_s"] = median(resumes)
        out.details["setup_samples_s"] = resumes
    _record_fidelity(out, fidelity(PredictionService.from_artifact(_titan_bundle(first))))
    out.metrics["campaign_s"] = median(walls)
    out.timing("in-process predict_batch", latencies)
    out.metrics["qps"] = len(latencies) * len(kernels) / predict_wall
    out.metrics["peak_rss_mb"] = max(rss)
    out.details["campaign_samples_s"] = walls
    out.details["bundle_sha256"] = digest
    if traced:
        spans = layers.load_spans(span_files) + [
            s for s in tracer.spans if str(s[5]).startswith("op-")]
        ops = len(walls)
        out.layers, out.layer_report = layers.per_layer(
            spans, ops=ops, e2e_s=sum(walls), requests=len(kernels) * (ops + len(latencies)),
            extra={
                "store.bytes_written": sum(out.details["store_bytes"]) / ops,
                "campaign.train_leg_ms": 1e3 * sum(out.details["train_leg_s"])
                / max(1, len(out.details["train_leg_s"])),
            })
        out.layers["trace.overhead_pct"] = 100.0 * (median(walls) / untraced_s - 1.0)
    else:
        out.normalize(reference, dict.fromkeys(TIMES + RATES, "campaign") | {"setup_s": "setup"})
    return out


# -- serve-unique ----------------------------------------------------------------------


class Daemon:
    """``repro serve-daemon`` on a free port, as its own process."""

    ADDRESS = re.compile(r"http://([\d.]+):(\d+)")

    def __init__(self, store: pathlib.Path, logs: pathlib.Path, tag: str,
                 spans: pathlib.Path | None = None) -> None:
        argv = cli_argv(["serve-daemon", "--store", str(store), "--port", "0"], spans)
        self.peak_rss_mb = 0.0
        self.start = time.perf_counter()
        self.err = open(logs / f"{tag}.err", "wb")
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=self.err,
                                     env=child_env(), cwd=str(logs))
        # A daemon that never comes up is killed, which ends the readline.
        watchdog = threading.Timer(120.0, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline().decode()
            match = self.ADDRESS.search(line)
            if match is None:
                raise RuntimeError(f"daemon did not start: {line!r}")
            self.host, self.port = match.group(1), int(match.group(2))
            while self.get("/healthz")[0] != 200:
                if self.proc.poll() is not None:
                    raise RuntimeError("daemon exited before /healthz answered")
                time.sleep(0.005)
            self.ready_s = time.perf_counter() - self.start
        except BaseException:
            self.stop()
            raise
        finally:
            watchdog.cancel()

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def get(self, path: str) -> tuple[int, bytes]:
        try:
            with urllib.request.urlopen(f"http://{self.host}:{self.port}{path}", timeout=30) as r:
                return r.status, r.read()
        except OSError:
            return 0, b""

    def stats(self) -> dict:
        status, body = self.get("/stats?format=json")
        if status != 200:
            raise RuntimeError(f"/stats answered {status}")
        return json.loads(body)

    def stop(self) -> None:
        """SIGTERM and reap (once); records the daemon's peak RSS in MB."""
        if self.proc.returncode is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        _code, self.peak_rss_mb = reap(self.proc)
        self.proc.stdout.close()
        self.err.close()


def _payload(items) -> bytes:
    return json.dumps({"requests": [
        {"device": device, "source": kernel.source, "kernel_name": kernel.name}
        for device, kernel in items
    ]}).encode("utf-8")


#: The fleet the verifying processes render with, inherited through fork.
_FLEET = None


def _render(requests: list[tuple]) -> bytes:
    results = _FLEET.predict_batch(requests)
    return b"\n".join(_front_text(r).encode("utf-8") for r in results)


def _verify(out: Outcome, samples, fleet, bursts) -> None:
    """Check each answered burst against the direct fleet rendering of
    ``bursts[sample.index]``, rendered on ``WORKERS`` forked processes."""
    global _FLEET
    _FLEET = fleet
    indices = sorted({s.index for s in samples})
    requests = [[(d, k.source, k.name) for d, k in bursts[i]] for i in indices]
    pool = multiprocessing.get_context("fork").Pool(WORKERS)
    try:
        expected = dict(zip(indices, pool.map(_render, requests, chunksize=8)))
        pool.close()
    finally:
        pool.terminate()
        pool.join()
    for sample in samples:
        if sample.error or sample.status != 200:
            out.error()
            continue
        shed = sample.body.count(b"(status 503)")
        if shed:
            out.shed += shed
            out.error()
            continue
        out.check(sample.body == expected[sample.index])


def serve_unique(seed: int, seconds: float, traced: bool) -> Outcome:
    """Rounds of open- and closed-loop predict-batch bursts against the
    daemon, every kernel in every burst never seen before."""
    from repro.serve.fleet import FleetService
    from repro.serve.service import PredictionService

    out = Outcome()
    began = time.perf_counter()
    work = fresh_dir(WORK / "serve-unique")
    logs = fresh_dir(work / "logs")
    reference = Reference(logs)
    store = work / "store"
    builds, digest = [], None
    for i in range(1 if traced else SERVE_CAMPAIGNS):
        target = store if i == 0 else work / f"store-{i}"
        reference.sample("campaign")
        builds.append(_campaign(target, logs, f"campaign-{i}", WORKERS).wall_s)
        if digest is None:
            digest = _bundle_digest(target)
        else:
            out.check(_bundle_digest(target) == digest)
            shutil.rmtree(target)
    reference.sample("campaign")
    out.metrics["campaign_s"] = median(builds)
    out.details["campaign_samples_s"] = builds
    _record_fidelity(out, fidelity(PredictionService.from_artifact(_titan_bundle(store))))
    fleet = FleetService.from_campaign_store(store)

    open_round_s = OPEN_PER_ROUND / OPEN_RATE
    closed_round_s = max(0.5, seconds / ROUNDS - open_round_s)
    n_open = ROUNDS * OPEN_PER_ROUND * BURST
    n_closed = int(ROUNDS * closed_round_s * CLOSED_POOL_RATE) * BURST
    pool = inputs.unique_kernels(seed, n_open + n_closed + 2 * BURST)
    items = [(SERVE_DEVICES[i % 2], k) for i, k in enumerate(pool)]
    warm = [items[:BURST], items[BURST:2 * BURST]]
    rest = items[2 * BURST:]
    open_bursts = [rest[i:i + BURST] for i in range(0, n_open, BURST)]
    closed_bursts = [rest[i:i + BURST] for i in range(n_open, len(rest) - BURST + 1, BURST)]
    out.inputs = inputs.describe(pool)
    open_payloads = [_payload(b) for b in open_bursts]
    closed_payloads = [_payload(b) for b in closed_bursts]

    spawns = []
    for i in range(DAEMON_SPAWNS - 1):
        reference.sample("setup")
        with Daemon(store, logs, f"spawn-{i}") as daemon:
            spawns.append(daemon.ready_s)
    untraced_qps = None
    closed_used = 0
    if traced:  # untraced capacity on kernels the traced daemon never sees
        with Daemon(store, logs, "plain") as daemon:
            plain, t0, t1 = load.closed_loop(daemon.host, daemon.port, closed_payloads,
                                             ROUNDS * closed_round_s / 2, WORKERS)
        untraced_qps = BURST * len(plain) / (t1 - t0)
        closed_used = len(plain)
    span_file = work / "daemon-spans.json" if traced else None
    opened, closed = [], []
    closed_s = load_s = 0.0
    reference.sample("setup")
    with Daemon(store, logs, "load", span_file) as daemon:
        spawns.append(daemon.ready_s)
        warm_samples = [load.send_once(daemon.host, daemon.port, i, _payload(burst))
                        for i, burst in enumerate(warm)]
        before = daemon.stats()
        t_open = time.perf_counter()
        for r in range(ROUNDS):
            reference.sample("load")
            r0 = time.perf_counter()
            opened += load.open_loop(daemon.host, daemon.port, open_payloads, OPEN_RATE,
                                     WORKERS, first=r * OPEN_PER_ROUND, count=OPEN_PER_ROUND)
            samples, c0, c1 = load.closed_loop(daemon.host, daemon.port, closed_payloads,
                                               closed_round_s, WORKERS, first=closed_used)
            closed += samples
            closed_used += len(samples)
            closed_s += c1 - c0
            load_s += time.perf_counter() - r0
        t_end = time.perf_counter()
        after = daemon.stats()
        reference.sample("load")
    out.metrics["setup_s"] = median(spawns)
    out.details["setup_samples_s"] = spawns
    _verify(out, warm_samples, fleet, warm)

    verify_start = time.perf_counter()
    _verify(out, opened, fleet, open_bursts)
    _verify(out, closed, fleet, closed_bursts)
    out.details["phase_s"] = {"before_load": t_open - began, "load": t_end - t_open,
                              "verify": time.perf_counter() - verify_start}
    good_open = [s for s in opened if s.status == 200 and not s.error]
    out.timing("open-loop burst", [s.done - s.due for s in good_open])
    out.metrics["qps"] = BURST * len(closed) / closed_s
    out.metrics["peak_rss_mb"] = daemon.peak_rss_mb
    lag = [max(0.0, s.sent - s.due) for s in opened]
    out.details["open_loop"] = {"rate_bursts_per_s": OPEN_RATE, "burst": BURST,
                                "rounds": ROUNDS, "bursts": len(opened), "lag_tail": tail(lag),
                                "latency_s": distribution([s.done - s.due for s in good_open])}
    out.details["closed_loop"] = {"connections": WORKERS, "bursts": len(closed),
                                  "seconds": closed_s}
    answered = [s for s in opened + closed if s.status == 200 and not s.error]
    out.details["daemon"] = layers.daemon_counters(before, after, [s.done - s.sent for s in answered])
    if traced:
        spans = [s for s in layers.load_spans([span_file]) if t_open <= s[2] <= t_end]
        bursts_done = len(opened) + len(closed)
        out.layers, out.layer_report = layers.per_layer(
            spans, ops=bursts_done, e2e_s=load_s, requests=BURST * bursts_done, extra=dict(
                out.details["daemon"], **{"gen.lag_tail_ms": 1e3 * tail(lag)[0]}))
        out.layers["trace.overhead_pct"] = 100.0 * (untraced_qps / out.metrics["qps"] - 1.0)
        out.layers["import.cli_ms"] = layers.import_ms(layers.load_spans([span_file]))
    else:
        out.normalize(reference, dict.fromkeys(TIMES + RATES, "load") | {
            "setup_s": "setup", "campaign_s": "campaign"})
    return out


WORKLOADS = {
    "campaign": campaign,
    "serve-unique": serve_unique,
}
