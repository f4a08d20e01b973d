"""Serve daemon under concurrent load: micro-batched vs singleton QPS.

`repro.serve.daemon.ServeDaemon` exists to amortize the per-request model
pass: requests landing in a device lane within one batching window are
drained into a single vectorized ``predict_batch`` call, and duplicate
(source, kernel) requests coalesce into one shared prediction.  This
bench drives an in-process daemon with persistent-connection client
threads, each submitting **bursts** over ``POST /predict-batch`` — the
shape of a fleet autotuner flushing its pending kernels — and compares
sustained predictions/s and burst p50/p99 latency between the
micro-batched configuration and ``max_batch=1`` (the same daemon, same
workload, batching disabled), plus cold-vs-warm first-request latency.

Full runs serve the **paper-recipe** model artifacts — the deployment
the daemon exists for, where one model pass costs real milliseconds and
amortization is the difference between keeping up with a fleet and not.
Quick runs swap in the cheap quick-recipe models to stay inside CI
budgets; there the HTTP envelope dominates and the QPS ratio says
nothing about batching, so it is recorded but not asserted.

Byte identity is asserted on *every* response of *every* run: bursts use
``?format=text``, whose body is the per-item ``format_front`` rendering
(the same bytes CI's ``cmp`` pins against the offline CLI) joined by
blank lines — each response must equal the concatenation of direct
``FleetService.predict`` renderings against the same store.  A JSON
agreement pass on ``/predict`` additionally pins exact front membership
and ~1-ulp float agreement — the precision the predictor guarantees
across batch shapes.
"""

import http.client
import json
import math
import os
import statistics
import tempfile
import threading
import time

from _common import latency_summary, write_artifact

from repro.harness.context import paper_context, quick_context
from repro.harness.report import format_front, format_heading, format_table
from repro.serve.daemon import DaemonConfig, ServeDaemon
from repro.serve.fleet import FleetService
from repro.serve.registry import ModelKey, ModelRegistry
from repro.store.layout import MODELS_SUBDIR
from repro.synthetic import generate_micro_benchmarks

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
DEVICES = ("NVIDIA GTX Titan X", "NVIDIA Tesla P100")
ALIASES = ("titan-x", "p100")
RECIPE = "quick" if QUICK else "paper"
N_CLIENTS = 8 if QUICK else 32
BURSTS_PER_CLIENT = 6 if QUICK else 8
#: Requests per burst: one /predict-batch POST carrying this many
#: kernels, spanning both devices (the fleet routes each item).
BURST = 4 if QUICK else 6
#: Few hot kernels, many clients — the coalescing-friendly shape of a
#: fleet autotuner hammering the kernels it is currently tuning.
N_KERNELS = 4 if QUICK else 6
BATCH_WINDOW_MS = 10.0
#: Deep enough for one drain to swallow a whole concurrent wave of
#: client bursts — coalescing then collapses N_CLIENTS x BURST requests
#: to ~N_KERNELS model passes per device, which is where the headroom
#: over max_batch=1 comes from.
MAX_BATCH = 256

#: Micro-batching must buy at least this much sustained throughput over
#: the same daemon with ``max_batch=1`` under concurrent clients.  With
#: paper-recipe artifacts the per-kernel pass is the request, so grouped
#: passes plus coalescing clear this with headroom; 3x also absorbs
#: loaded CI machines.
MIN_BATCH_SPEEDUP = 3.0
#: Load runs per configuration.  The two configurations run alternately,
#: one pair at a time, so a stretch of host load lands on both alike, and
#: the gate reads the median of the per-pair QPS ratios.
PAIRS = 1 if QUICK else 5


def _build_store(root) -> None:
    registry = ModelRegistry(root / MODELS_SUBDIR)
    context = quick_context if QUICK else paper_context
    for device in DEVICES:
        ctx = context(device=device)
        registry.put(ModelKey(device=device, recipe=RECIPE), ctx.models)


def _requests():
    """One entry per distinct (device, kernel) request."""
    specs = generate_micro_benchmarks()[:N_KERNELS]
    return [
        {
            "alias": alias,
            "source": spec.source,
            "name": spec.kernel_name,
            "payload": json.dumps(
                {
                    "device": alias,
                    "source": spec.source,
                    "kernel_name": spec.kernel_name,
                }
            ).encode("utf-8"),
        }
        for spec in specs
        for alias in ALIASES
    ]


def _bursts(requests, oracle_texts):
    """Prebuilt burst payloads + their byte oracles, one per rotation.

    Serializing each burst once per *workload* rather than once per send
    mirrors a real client (pending kernels don't change between flushes)
    and keeps client-side JSON encoding out of the measurement.
    """
    n = len(requests)
    bursts = []
    for offset in range(n):
        picked = [requests[(offset + j) % n] for j in range(BURST)]
        payload = json.dumps(
            {
                "requests": [
                    {
                        "device": r["alias"],
                        "source": r["source"],
                        "kernel_name": r["name"],
                    }
                    for r in picked
                ]
            }
        ).encode("utf-8")
        expected = b"\n".join(
            oracle_texts[(r["alias"], r["name"])] for r in picked
        )
        bursts.append({"payload": payload, "expected": expected})
    return bursts


def _oracle(store_root, requests) -> tuple[dict, dict]:
    """Reference answers from a *direct* fleet — the identity oracle.

    Returns ``(text_bodies, fronts)``: the ``format=text`` rendering (the
    bytes CI's ``cmp`` pins against the offline CLI) and the raw fronts
    for the JSON agreement pass.
    """
    fleet = FleetService.from_campaign_store(store_root)
    bodies, fronts = {}, {}
    for request in requests:
        alias, name = request["alias"], request["name"]
        result = fleet.predict(request["source"], kernel_name=name, device=alias)
        bodies[(alias, name)] = (format_front(result) + "\n").encode("utf-8")
        fronts[(alias, name)] = [
            (p.core_mhz, p.mem_mhz, p.speedup, p.norm_energy, p.modeled)
            for p in result.front
        ]
    return bodies, fronts


def _post(conn, path, payload) -> bytes:
    conn.request(
        "POST", path, body=payload,
        headers={"Content-Type": "application/json"},
    )
    response = conn.getresponse()
    body = response.read()
    assert response.status == 200, (response.status, body[:200])
    return body


def _check_json_agreement(conn, requests, fronts) -> None:
    """Exact front membership + ~1-ulp objective agreement on JSON.

    JSON carries full-precision floats, where the predictor's documented
    caveat applies: batch shape may reassociate BLAS sums by ~1 ulp, so
    equality here is isclose at 1e-9 relative, not bitwise.
    """
    for request in requests:
        alias, name = request["alias"], request["name"]
        body = _post(conn, "/predict?format=json", request["payload"])
        front = json.loads(body)["front"]
        expected = fronts[(alias, name)]
        assert [(p["core_mhz"], p["mem_mhz"], p["modeled"]) for p in front] == [
            (e[0], e[1], e[4]) for e in expected
        ], f"front membership for {name} on {alias} differs from direct"
        for point, exp in zip(front, expected):
            for got, want in ((point["speedup"], exp[2]),
                              (point["norm_energy"], exp[3])):
                if got is None or want is None:
                    assert got == want
                else:
                    assert math.isclose(got, want, rel_tol=1e-9), (
                        name, alias, got, want
                    )


def _run_load(store_root, requests, bursts, expected, fronts, max_batch) -> dict:
    """One sustained-load run; returns predictions/s + latency summary."""
    config = DaemonConfig(
        port=0,
        batch_window_ms=BATCH_WINDOW_MS,
        max_batch=max_batch,
        max_queue=10_000,  # measure throughput, not shedding
        reload_interval_s=0.0,
    )
    daemon = ServeDaemon.from_store(store_root, config=config)
    daemon.fleet.warm()
    with daemon:
        host, port = daemon.address

        # Cold/warm first-request latency through the full HTTP path
        # (lane threads spin up, feature cache fills on the first hit).
        conn = http.client.HTTPConnection(host, port)
        start = time.perf_counter()
        _post(conn, "/predict?format=text", requests[0]["payload"])
        t_first = time.perf_counter() - start
        start = time.perf_counter()
        _post(conn, "/predict?format=text", requests[0]["payload"])
        t_second = time.perf_counter() - start
        for request in requests:  # warm every lane + kernel, check bytes
            body = _post(conn, "/predict?format=text", request["payload"])
            assert body == expected[(request["alias"], request["name"])], (
                f"daemon response for {request['name']} on {request['alias']} "
                f"is not byte-identical to the direct prediction"
            )
        _check_json_agreement(conn, requests, fronts)
        conn.close()

        samples_per_client = [[] for _ in range(N_CLIENTS)]
        errors = []
        go = threading.Event()

        def client(idx: int) -> None:
            connection = http.client.HTTPConnection(host, port)
            samples = samples_per_client[idx]
            try:
                go.wait()
                for i in range(BURSTS_PER_CLIENT):
                    burst = bursts[(idx + i) % len(bursts)]
                    t0 = time.perf_counter()
                    body = _post(
                        connection, "/predict-batch?format=text",
                        burst["payload"],
                    )
                    samples.append(time.perf_counter() - t0)
                    assert body == burst["expected"], (
                        "a /predict-batch response is not byte-identical "
                        "to the concatenated direct predictions"
                    )
            except Exception as exc:  # surfaced after join
                errors.append(exc)
            finally:
                connection.close()

        threads = [
            threading.Thread(target=client, args=(i,), daemon=True)
            for i in range(N_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        start = time.perf_counter()
        go.set()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        if errors:
            raise errors[0]

    samples = [s for client_samples in samples_per_client for s in client_samples]
    assert len(samples) == N_CLIENTS * BURSTS_PER_CLIENT
    n = N_CLIENTS * BURSTS_PER_CLIENT * BURST
    return {
        "elapsed_s": elapsed,
        "qps": n / elapsed,
        "burst_latency": latency_summary(samples),
        "first_request_s": t_first,
        "warm_request_s": t_second,
    }


def regenerate_serve_daemon() -> tuple[str, dict]:
    with tempfile.TemporaryDirectory(prefix="daemon-bench-") as tmp:
        import pathlib

        root = pathlib.Path(tmp)
        _build_store(root)
        requests = _requests()
        expected, fronts = _oracle(root, requests)
        bursts = _bursts(requests, expected)
        pairs = [
            tuple(
                _run_load(root, requests, bursts, expected, fronts, max_batch=m)
                for m in (1, MAX_BATCH)
            )
            for _ in range(PAIRS)
        ]

    ratios = [batched["qps"] / single["qps"] for single, batched in pairs]
    speedup = statistics.median(ratios)
    # The table shows the pair whose ratio is the median one.
    single, batched = pairs[ratios.index(sorted(ratios)[len(ratios) // 2])]
    n = N_CLIENTS * BURSTS_PER_CLIENT * BURST
    rows = [
        ("singleton (max_batch=1)", f"{single['qps']:8.0f}",
         f"{single['burst_latency']['p50'] * 1e3:8.2f}",
         f"{single['burst_latency']['p99'] * 1e3:8.2f}", "1.00x"),
        (f"micro-batched (window {BATCH_WINDOW_MS:.0f}ms, max {MAX_BATCH})",
         f"{batched['qps']:8.0f}",
         f"{batched['burst_latency']['p50'] * 1e3:8.2f}",
         f"{batched['burst_latency']['p99'] * 1e3:8.2f}", f"{speedup:.2f}x"),
    ]
    table = format_table(
        ["daemon configuration", "pred/s", "burst p50 ms", "burst p99 ms",
         "vs single"],
        rows,
    )
    text = (
        format_heading("repro.serve.daemon — sustained QPS under concurrent clients")
        + "\n" + table
        + f"\n({N_CLIENTS} clients x {BURSTS_PER_CLIENT} bursts x {BURST} "
        + f"kernels = {n} predictions, {RECIPE}-recipe models, "
        + f"{len(ALIASES)} devices, {N_KERNELS} kernels; every response "
        + "asserted byte-identical to direct predictions)"
        + f"\nQPS ratio: median {speedup:.2f}x over {PAIRS} alternating "
        + f"pair(s): {', '.join(f'{r:.2f}x' for r in ratios)}"
        + f"\ncold first request {batched['first_request_s'] * 1e3:.1f} ms, "
        + f"warm {batched['warm_request_s'] * 1e3:.1f} ms"
    )
    data = {
        "quick": QUICK,
        "recipe": RECIPE,
        "clients": N_CLIENTS,
        "bursts_per_client": BURSTS_PER_CLIENT,
        "burst_size": BURST,
        "n_kernels": N_KERNELS,
        "config": {"batch_window_ms": BATCH_WINDOW_MS, "max_batch": MAX_BATCH},
        "qps": {"singleton": single["qps"], "batched": batched["qps"]},
        "latency_s": {
            "singleton_burst": single["burst_latency"],
            "batched_burst": batched["burst_latency"],
            "cold_first_request": batched["first_request_s"],
            "warm_first_request": batched["warm_request_s"],
        },
        "ratios": {"batch_qps_speedup": speedup, "batch_qps_speedup_pairs": ratios},
        "asserted": {
            "byte_identity": True,
            "batch_qps_speedup_min": MIN_BATCH_SPEEDUP,
        },
        "assertions_active": {
            # Quick runs serve the cheap quick-recipe models, where the
            # HTTP envelope dominates the request and the ratio says
            # nothing about batching; it is recorded but unasserted.
            "byte_identity": True,
            "batch_qps_speedup": not QUICK,
        },
    }
    return text, data


def test_serve_daemon_throughput():
    text, data = regenerate_serve_daemon()
    write_artifact("serve_daemon", text, data=data)
    speedup = data["ratios"]["batch_qps_speedup"]
    ratios = data["ratios"]["batch_qps_speedup_pairs"]
    if not QUICK:
        assert speedup >= MIN_BATCH_SPEEDUP, (
            f"micro-batching bought only {speedup:.2f}x QPS in the median "
            f"of {PAIRS} pairs {ratios} (needs >= {MIN_BATCH_SPEEDUP}x)"
        )
