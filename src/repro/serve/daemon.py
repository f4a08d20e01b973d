"""The serve daemon: a long-lived micro-batched HTTP front door.

:class:`~repro.serve.fleet.FleetService` is library-only — every caller
pays per-request Python overhead, and nothing bounds concurrency.  This
module wraps it in a persistent stdlib-HTTP daemon whose core is a
**micro-batching engine**: requests land in a bounded per-device queue, a
batching loop drains up to ``max_batch`` of them within a
``batch_window_ms`` window into *one* vectorized
:meth:`~repro.serve.service.PredictionService.predict_batch` pass, and
futures fan the results back in request order.  Duplicate requests in a
batch (same source and kernel — the common case when an autotuner fleet
hammers hot kernels) are **coalesced**: one prediction, shared across
their futures.  Fixed per-pass costs amortize across the batch and
coalesced duplicates are nearly free, which is where the throughput
headroom lives (``BENCH_serve_daemon.json`` tracks it).

Three contracts the tests pin down:

* **Byte identity** — a daemon response carries the prediction a direct
  ``FleetService.predict`` call returns.  Micro-batching changes *when*
  the model runs, never *what* it answers: front membership and configs
  are exact (the vectorized dominance test matches Algorithm 1
  index-for-index), and the rendered response (``?format=text``) is
  byte-identical to the CLI's.  Raw JSON floats inherit the predictor's
  documented caveat — batch shape may reassociate BLAS sums by ~1 ulp
  (:meth:`~repro.core.predictor.ParetoPredictor.predict_batch`).
* **Admission control** — each device lane bounds queued work at
  ``max_queue``; beyond it the daemon sheds with ``503 Retry-After``
  instead of stalling the fleet.  A cold or slow device only ever backs
  up its own lane.
* **Hot reload** — a poller fingerprints the store's model registry and,
  when a campaign publishes new bundles, re-discovers routes via
  :meth:`FleetService.refresh_from_store` (which invalidates the
  registry's in-process copies).  A reload never changes an in-flight
  response: a batch resolves its service once, up front, and keeps it.

Endpoints: ``POST /predict``, ``POST /predict-batch``, ``POST /pareto``
(alias), ``GET /healthz``, ``GET /stats`` (JSON or Prometheus via
:mod:`repro.obs.export`).  ``?format=text`` on ``/predict`` (and, item
by item, on ``/predict-batch``) renders through the same
:func:`~repro.harness.report.format_front` as ``repro predict`` so CI
can compare online and offline output byte-for-byte.
"""

from __future__ import annotations

import json
import pathlib
import queue
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import asdict, dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from ..clkernel.errors import CLFrontendError
from ..harness.report import format_front
from ..obs import declare_daemon_metrics, save_snapshot, to_json, to_prometheus
from ..obs.instruments import (
    DAEMON_BATCHED_KERNELS_TOTAL,
    DAEMON_BATCHES_TOTAL,
    DAEMON_COALESCED_TOTAL,
    DAEMON_QUEUE_DEPTH,
    DAEMON_QUEUE_WAIT_SECONDS,
    DAEMON_RELOADS_TOTAL,
    DAEMON_REQUEST_SECONDS,
    DAEMON_REQUESTS_TOTAL,
    DAEMON_SHED_TOTAL,
    FLEET_BATCHES_ROUTED_TOTAL,
    FLEET_REQUESTS_ROUTED_TOTAL,
)
from ..store.layout import DAEMON_METRICS_FILENAME, METRICS_SUBDIR
from .fleet import FleetError, FleetService
from .service import PredictionService, ServiceError


class DaemonError(ServiceError):
    """Raised for daemon lifecycle/configuration mistakes."""


class Overloaded(DaemonError):
    """A device lane is at its admission bound; the request was shed."""

    def __init__(self, device: str, depth: int, retry_after: int = 1) -> None:
        super().__init__(
            f"device {device!r} lane is at capacity ({depth} queued); "
            f"retry in {retry_after}s"
        )
        self.device = device
        self.depth = depth
        self.retry_after = retry_after


@dataclass(frozen=True)
class DaemonConfig:
    """Tunables of one :class:`ServeDaemon`.

    ``batch_window_ms`` is the most the *first* request of a batch waits
    for company; a lone request under no load pays at most one window of
    added latency, while under load the window fills long before it
    expires.  ``max_queue`` bounds queued-plus-in-flight requests per
    device lane (the admission-control knob).  ``reload_interval_s = 0``
    disables the hot-reload poller.
    """

    host: str = "127.0.0.1"
    port: int = 8077
    batch_window_ms: float = 5.0
    max_batch: int = 32
    max_queue: int = 64
    reload_interval_s: float = 2.0
    request_timeout_s: float = 60.0

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise DaemonError("max_batch must be >= 1")
        if self.max_queue < 1:
            raise DaemonError("max_queue must be >= 1")
        if self.batch_window_ms < 0:
            raise DaemonError("batch_window_ms must be >= 0")


class _QueuedRequest:
    __slots__ = ("source", "kernel_name", "future", "enqueued_at")

    def __init__(self, source: str, kernel_name: str | None, enqueued_at: float):
        self.source = source
        self.kernel_name = kernel_name
        self.future: Future = Future()
        self.enqueued_at = enqueued_at


class DeviceLane:
    """One device's bounded queue plus its micro-batching worker thread.

    The worker blocks on the queue, then drains up to ``max_batch``
    requests arriving within ``batch_window_ms`` into one grouped
    ``predict_batch`` pass, coalescing duplicate (source, kernel)
    requests into a single shared prediction.  The service is resolved
    once per batch (under the daemon's fleet lock) — the in-flight half
    of the hot-reload invariant.
    """

    def __init__(self, daemon: "ServeDaemon", slug: str) -> None:
        self.daemon = daemon
        self.slug = slug
        self.queue: "queue.Queue[_QueuedRequest | None]" = queue.Queue()
        self._pending = 0
        self._pending_lock = threading.Lock()
        self.thread = threading.Thread(
            target=self._run, name=f"repro-lane-{slug}", daemon=True
        )

    def start(self) -> None:
        self.thread.start()

    def stop(self, timeout: float | None = 10.0) -> None:
        self.queue.put(None)
        self.thread.join(timeout=timeout)

    def submit(self, source: str, kernel_name: str | None) -> Future:
        """Admission-checked enqueue; Overloaded when the lane is full."""
        config = self.daemon.config
        with self._pending_lock:
            full = self._pending >= config.max_queue
            if not full:
                self._pending += 1
            depth = self._pending
        if full:
            self.daemon.observe_shed(self.slug)
            raise Overloaded(self.slug, depth)
        self.daemon.observe_depth(self.slug, depth)
        request = _QueuedRequest(source, kernel_name, self.daemon.clock())
        self.queue.put(request)
        return request.future

    def _settle(self, count: int) -> None:
        with self._pending_lock:
            self._pending -= count
            depth = self._pending
        self.daemon.observe_depth(self.slug, depth)

    def _run(self) -> None:
        config = self.daemon.config
        window = config.batch_window_ms / 1000.0
        # An arrival pause this long flushes the batch early.  The window
        # bounds the worst-case coalescing latency; the gap keeps the
        # lane from idling out the whole window after a concurrent burst
        # has already landed (which would cap QPS at batches-per-window).
        idle_gap = window / 10.0
        while True:
            item = self.queue.get()
            if item is None:
                return
            batch = [item]
            stopping = False
            if config.max_batch > 1:
                deadline = self.daemon.clock() + window
                while len(batch) < config.max_batch:
                    remaining = deadline - self.daemon.clock()
                    try:
                        if remaining > 0:
                            nxt = self.queue.get(timeout=min(remaining, idle_gap))
                        else:
                            nxt = self.queue.get_nowait()
                    except queue.Empty:
                        break
                    if nxt is None:
                        stopping = True
                        break
                    batch.append(nxt)
            self._serve(batch)
            if stopping:
                return

    def _serve(self, batch: list[_QueuedRequest]) -> None:
        daemon = self.daemon
        now = daemon.clock()
        for request in batch:
            daemon.observe_queue_wait(self.slug, now - request.enqueued_at)
        try:
            service = daemon.service_for_slug(self.slug)
        except Exception as exc:  # route vanished mid-reload, load failure
            for request in batch:
                request.future.set_exception(exc)
            self._settle(len(batch))
            return
        # Per-item feature validation: one bad kernel source must fail
        # only its own request, never the whole coalesced batch.  The
        # extraction lands in the shared cache, so the grouped pass below
        # re-uses it — validation costs the batch nothing extra.
        good: list[_QueuedRequest] = []
        for request in batch:
            try:
                service.features_for(request.source, request.kernel_name)
            except Exception as exc:
                request.future.set_exception(exc)
            else:
                good.append(request)
        # Coalesce duplicates: concurrent requests for the same kernel
        # collapse to one prediction whose result object is shared across
        # their futures — identical responses by construction, and the
        # model pass only pays for unique kernels.
        unique: dict[tuple[str, str | None], list[_QueuedRequest]] = {}
        for request in good:
            unique.setdefault((request.source, request.kernel_name), []).append(
                request
            )
        if unique:
            try:
                results = service.predict_batch(list(unique))
            except Exception as exc:
                for request in good:
                    request.future.set_exception(exc)
            else:
                for holders, result in zip(unique.values(), results):
                    for request in holders:
                        request.future.set_result(result)
        daemon.observe_batch(self.slug, requests=len(batch), unique=len(unique))
        self._settle(len(batch))


class ServeDaemon:
    """The long-lived HTTP front door over a :class:`FleetService`.

    Owns one lane per requested device, the hot-reload poller, and the
    HTTP server.  All fleet access (routing, service resolution, reload,
    stats) is serialized under one lock — ``FleetService`` itself is not
    thread-safe; the lanes only hold the lock to *resolve* a service,
    never across a model pass, so devices still predict concurrently.
    """

    def __init__(
        self,
        fleet: FleetService,
        config: DaemonConfig | None = None,
        store_root: str | pathlib.Path | None = None,
    ) -> None:
        self.fleet = fleet
        self.config = config or DaemonConfig()
        self.store_root = (
            pathlib.Path(store_root).expanduser() if store_root is not None else None
        )
        self.clock = time.monotonic
        #: The fleet's registry, extended with the daemon families — one
        #: snapshot is the complete serving picture (/stats serves it).
        self.metrics = fleet.metrics
        declare_daemon_metrics(self.metrics)
        self._fleet_lock = threading.RLock()
        self._lanes: dict[str, DeviceLane] = {}
        self._lanes_lock = threading.Lock()
        self._stop = threading.Event()
        self._server: _DaemonServer | None = None
        self._server_thread: threading.Thread | None = None
        self._reload_thread: threading.Thread | None = None
        self._started_at: float | None = None
        self._store_print = self._store_fingerprint()

    @classmethod
    def from_store(
        cls,
        store_root: str | pathlib.Path,
        config: DaemonConfig | None = None,
        recipe: str | None = None,
        max_services: int | None = None,
    ) -> "ServeDaemon":
        """Deploy a campaign store behind the daemon (the CLI path)."""
        fleet = FleetService.from_campaign_store(
            store_root, recipe=recipe, max_services=max_services
        )
        return cls(fleet, config=config, store_root=store_root)

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> None:
        """Bind the HTTP server and start serving (non-blocking)."""
        if self._server is not None:
            raise DaemonError("daemon already started")
        self._started_at = self.clock()
        self._server = _DaemonServer((self.config.host, self.config.port), self)
        self._server_thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-daemon-http",
            daemon=True,
        )
        self._server_thread.start()
        if self.config.reload_interval_s > 0:
            self._reload_thread = threading.Thread(
                target=self._reload_loop, name="repro-daemon-reload", daemon=True
            )
            self._reload_thread.start()

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — resolves ``port=0`` to the real one."""
        if self._server is None:
            raise DaemonError("daemon not started")
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    def close(self) -> None:
        """Orderly shutdown: stop intake, drain lanes, persist metrics."""
        self._stop.set()
        if self._reload_thread is not None:
            self._reload_thread.join(timeout=10.0)
            self._reload_thread = None
        if self._server is not None:
            self._server.shutdown()
        with self._lanes_lock:
            lanes = list(self._lanes.values())
        for lane in lanes:
            lane.stop()
        if self._server is not None:
            self._server.server_close()
            self._server = None
            self._server_thread = None
        self.persist_metrics()

    def __enter__(self) -> "ServeDaemon":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- serving ----------------------------------------------------------------

    def submit(self, device: str, source: str, kernel_name: str | None = None) -> Future:
        """Enqueue one prediction; the future resolves to its Pareto set."""
        with self._fleet_lock:
            slug = self.fleet.slug_for(device)
        return self._lane_for(slug).submit(source, kernel_name)

    def predict(self, device: str, source: str, kernel_name: str | None = None):
        """Blocking single prediction through the micro-batching path."""
        return self.submit(device, source, kernel_name).result(
            timeout=self.config.request_timeout_s
        )

    def _lane_for(self, slug: str) -> DeviceLane:
        with self._lanes_lock:
            lane = self._lanes.get(slug)
            if lane is None:
                lane = DeviceLane(self, slug)
                lane.start()
                self._lanes[slug] = lane
            return lane

    def service_for_slug(self, slug: str) -> PredictionService:
        """Resolve a lane's service under the fleet lock (batch start)."""
        with self._fleet_lock:
            if slug not in self.fleet._keys:
                raise FleetError(
                    f"device route {slug!r} disappeared during a reload"
                )
            return self.fleet._service_for_slug(slug)

    def canonical_device(self, device: str) -> str:
        with self._fleet_lock:
            slug = self.fleet.slug_for(device)
            return self.fleet._keys[slug].device_spec().name

    # -- hot reload -------------------------------------------------------------

    def _store_fingerprint(self) -> tuple:
        """(slug, mtime_ns, size) of every artifact under the registry.

        A pure ``stat`` scan — the cheap *did anything change* probe the
        poller runs; envelope metadata is only re-read (by
        ``refresh_from_store``) once this fingerprint moves.
        """
        registry = self.fleet.registry
        prints = []
        for slug in sorted(registry.entries()):
            try:
                stat = registry.path_for_slug(slug).stat()
                prints.append((slug, stat.st_mtime_ns, stat.st_size))
            except OSError:
                prints.append((slug, None, None))
        return tuple(prints)

    def poll_reload(self) -> bool:
        """One reload poll; True when routing actually changed."""
        fingerprint = self._store_fingerprint()
        if fingerprint == self._store_print:
            return False
        with self._fleet_lock:
            report = self.fleet.refresh_from_store()
        self._store_print = fingerprint
        result = "changed" if report.changed else "unchanged"
        self.metrics.get(DAEMON_RELOADS_TOTAL).inc(1.0, result=result)
        return report.changed

    def _reload_loop(self) -> None:
        interval = self.config.reload_interval_s
        while not self._stop.wait(interval):
            try:
                self.poll_reload()
            except Exception:
                # A torn mid-publish store must not kill the poller; the
                # next poll sees the completed publish.
                self.metrics.get(DAEMON_RELOADS_TOTAL).inc(1.0, result="failed")
            self.persist_metrics()

    # -- telemetry --------------------------------------------------------------

    def observe_depth(self, slug: str, depth: int) -> None:
        self.metrics.get(DAEMON_QUEUE_DEPTH).set(float(depth), device=slug)

    def observe_shed(self, slug: str) -> None:
        self.metrics.get(DAEMON_SHED_TOTAL).inc(1.0, device=slug)

    def observe_queue_wait(self, slug: str, seconds: float) -> None:
        self.metrics.get(DAEMON_QUEUE_WAIT_SECONDS).observe(
            max(0.0, seconds), device=slug
        )

    def observe_batch(self, slug: str, requests: int, unique: int) -> None:
        self.metrics.get(DAEMON_BATCHES_TOTAL).inc(1.0, device=slug)
        self.metrics.get(DAEMON_BATCHED_KERNELS_TOTAL).inc(
            float(unique), device=slug
        )
        if requests > unique:
            self.metrics.get(DAEMON_COALESCED_TOTAL).inc(
                float(requests - unique), device=slug
            )
        self.fleet.stats.inc(FLEET_BATCHES_ROUTED_TOTAL)
        self.fleet.stats.inc(FLEET_REQUESTS_ROUTED_TOTAL, float(requests))

    def observe_request(self, endpoint: str, status: int, seconds: float) -> None:
        self.metrics.get(DAEMON_REQUESTS_TOTAL).inc(
            1.0, endpoint=endpoint, status=str(status)
        )
        self.metrics.get(DAEMON_REQUEST_SECONDS).observe(seconds, endpoint=endpoint)

    def request_count(self) -> int:
        """Total HTTP requests handled (all endpoints and statuses)."""
        metric = self.metrics.get(DAEMON_REQUESTS_TOTAL)
        with self.metrics._lock:
            return int(sum(metric._data.series.values()))  # type: ignore[union-attr]

    def persist_metrics(self) -> None:
        """Drop a snapshot beside the store (metrics/serve-daemon.json)."""
        if self.store_root is None:
            return
        try:
            save_snapshot(
                self.metrics.snapshot(),
                self.store_root / METRICS_SUBDIR / DAEMON_METRICS_FILENAME,
            )
        except OSError:
            pass  # a read-only store still serves

    def health(self) -> dict:
        with self._fleet_lock:
            devices = self.fleet.devices()
            loaded = self.fleet.loaded_devices()
        uptime = self.clock() - self._started_at if self._started_at else 0.0
        return {
            "status": "ok",
            "devices": devices,
            "loaded": loaded,
            "uptime_s": uptime,
            "config": asdict(self.config),
        }


# -- HTTP layer ----------------------------------------------------------------


def _status_for(exc: BaseException) -> int:
    if isinstance(exc, Overloaded):
        return 503
    if isinstance(exc, FleetError):
        return 404
    if isinstance(exc, (CLFrontendError, ServiceError, ValueError, TypeError)):
        return 400
    if isinstance(exc, (FutureTimeout, TimeoutError)):
        return 504
    return 500


def _front_payload(result, device: str) -> dict:
    return {
        "kernel": result.kernel,
        "device": device,
        "front": [
            {
                "core_mhz": point.core_mhz,
                "mem_mhz": point.mem_mhz,
                "speedup": point.speedup,
                "norm_energy": point.norm_energy,
                "modeled": point.modeled,
            }
            for point in result.front
        ],
    }


def _text_body(result) -> bytes:
    """Render ``?format=text`` once per *result object*.

    Rendering a front costs more than parsing the request; coalesced
    requests share one ``PredictedParetoSet``, so caching the bytes on
    the result amortizes rendering exactly like the model pass — every
    holder of the shared prediction serves the same buffer.  Racing
    handler threads may both render; they produce identical bytes, so
    the last-writer-wins attribute set is benign.
    """
    body = getattr(result, "_daemon_text", None)
    if body is None:
        body = (format_front(result) + "\n").encode("utf-8")
        try:
            result._daemon_text = body
        except AttributeError:
            pass  # slotted/foreign result objects just re-render
    return body


def _json_body(result, device: str) -> bytes:
    """Cached JSON rendering, same sharing story as :func:`_text_body`."""
    cached = getattr(result, "_daemon_json", None)
    if cached is not None and cached[0] == device:
        return cached[1]
    body = (json.dumps(_front_payload(result, device)) + "\n").encode("utf-8")
    try:
        result._daemon_json = (device, body)
    except AttributeError:
        pass
    return body


class _DaemonServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    #: socketserver's default accept backlog is 5 — a burst of concurrent
    #: clients connecting at once overflows it and gets reset mid-handshake.
    request_queue_size = 128

    def __init__(self, address, repro_daemon: ServeDaemon) -> None:
        super().__init__(address, _DaemonHandler)
        self.repro_daemon = repro_daemon


class _DaemonHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve-daemon"
    #: One TCP segment per response.  The stock handler writes headers
    #: and body as two small segments; with Nagle on, the second waits
    #: out the client's delayed ACK (~40ms) on every keep-alive request.
    wbufsize = -1
    disable_nagle_algorithm = True

    @property
    def daemon(self) -> ServeDaemon:
        return self.server.repro_daemon  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # per-request stderr lines would swamp a load test

    # -- plumbing ---------------------------------------------------------------

    def _respond(
        self,
        status: int,
        body: bytes,
        content_type: str = "application/json",
        headers: dict | None = None,
    ) -> None:
        # send_response_only skips the Server/Date headers send_response
        # adds — Date formatting is measurable at thousands of requests
        # per second, and nothing in the stack consumes either header.
        self.send_response_only(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _respond_json(self, status: int, payload: dict, headers: dict | None = None):
        body = (json.dumps(payload) + "\n").encode("utf-8")
        self._respond(status, body, headers=headers)

    def _respond_error(self, status: int, message: str, headers: dict | None = None):
        self._respond_json(status, {"error": message, "status": status}, headers)

    def _read_json(self) -> dict:
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0:
            # Reject before reading: rfile.read(-1) would block this thread
            # until the client hangs up, and without a length the body
            # cannot be framed, so the connection is not reusable either.
            self.close_connection = True
            raise ValueError(f"invalid Content-Length: {header!r}")
        raw = self.rfile.read(length) if length else b""
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    def _dispatch(self, endpoint: str, handler) -> None:
        started = self.daemon.clock()
        try:
            status = handler()
        except Exception as exc:
            status = _status_for(exc)
            headers = (
                {"Retry-After": str(exc.retry_after)}
                if isinstance(exc, Overloaded)
                else None
            )
            message = exc.args[0] if exc.args else repr(exc)
            try:
                self._respond_error(status, str(message), headers)
            except (BrokenPipeError, ConnectionResetError):
                pass
        self.daemon.observe_request(endpoint, status, self.daemon.clock() - started)

    # -- endpoints --------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        parts = urlsplit(self.path)
        if parts.path == "/healthz":
            self._dispatch("healthz", lambda: self._handle_health())
        elif parts.path == "/stats":
            query = parse_qs(parts.query)
            self._dispatch("stats", lambda: self._handle_stats(query))
        else:
            self._dispatch("unknown", lambda: self._handle_not_found())

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        parts = urlsplit(self.path)
        query = parse_qs(parts.query)
        if parts.path in ("/predict", "/pareto"):
            endpoint = parts.path.lstrip("/")
            self._dispatch(endpoint, lambda: self._handle_predict(query))
        elif parts.path == "/predict-batch":
            self._dispatch(
                "predict-batch", lambda: self._handle_predict_batch(query)
            )
        else:
            self._dispatch("unknown", lambda: self._handle_not_found())

    def _handle_not_found(self) -> int:
        self._respond_error(404, f"no such endpoint: {self.path}")
        return 404

    def _handle_health(self) -> int:
        self._respond_json(200, self.daemon.health())
        return 200

    def _handle_stats(self, query: dict) -> int:
        fmt = (query.get("format") or ["json"])[0]
        snapshot = self.daemon.metrics.snapshot()
        if fmt == "prom":
            self._respond(200, to_prometheus(snapshot).encode("utf-8"),
                          content_type="text/plain; version=0.0.4")
        elif fmt == "json":
            self._respond(200, (to_json(snapshot) + "\n").encode("utf-8"))
        else:
            raise ValueError(f"format must be 'json' or 'prom', got {fmt!r}")
        return 200

    def _item_request(self, item: dict) -> tuple[str, str, str | None]:
        if not isinstance(item, dict):
            raise ValueError("each request must be a JSON object")
        device = item.get("device")
        if not device:
            raise ValueError("request needs a 'device'")
        source = item.get("source")
        if not isinstance(source, str) or not source:
            raise ValueError("request needs a non-empty 'source' (kernel text)")
        return device, source, item.get("kernel_name") or item.get("name")

    def _handle_predict(self, query: dict) -> int:
        payload = self._read_json()
        device, source, name = self._item_request(payload)
        result = self.daemon.predict(device, source, name)
        if (query.get("format") or ["json"])[0] == "text":
            self._respond(200, _text_body(result),
                          content_type="text/plain; charset=utf-8")
        else:
            canonical = self.daemon.canonical_device(device)
            self._respond(200, _json_body(result, canonical))
        return 200

    def _handle_predict_batch(self, query: dict) -> int:
        as_text = (query.get("format") or ["json"])[0] == "text"
        payload = self._read_json()
        items = payload.get("requests")
        if not isinstance(items, list) or not items:
            raise ValueError("'requests' must be a non-empty JSON array")
        # Everything is enqueued before anything is awaited, so the lane
        # can coalesce the whole batch into grouped passes per device.
        outcomes: list = []
        for item in items:
            try:
                device, source, name = self._item_request(item)
                outcomes.append((device, self.daemon.submit(device, source, name)))
            except Exception as exc:
                outcomes.append((None, exc))
        results = []
        texts: list[bytes] = []
        shed = 0
        for device, outcome in outcomes:
            if not isinstance(outcome, BaseException):
                try:
                    outcome = outcome.result(
                        timeout=self.daemon.config.request_timeout_s
                    )
                except Exception as exc:
                    outcome = exc
            if isinstance(outcome, BaseException):
                status = _status_for(outcome)
                shed += status == 503
                message = str(outcome.args[0] if outcome.args else repr(outcome))
                if as_text:
                    texts.append(f"error: {message} (status {status})\n".encode())
                else:
                    results.append({"error": message, "status": status})
            elif as_text:
                texts.append(_text_body(outcome))
            else:
                results.append(
                    _front_payload(outcome, self.daemon.canonical_device(device))
                )
        if as_text:
            # Item renderings (each via the same ``format_front`` as the
            # CLI, each ending in one newline) separated by blank lines —
            # concatenating per-item oracle bytes reproduces this exactly.
            self._respond(200, b"\n".join(texts),
                          content_type="text/plain; charset=utf-8")
        else:
            self._respond_json(200, {"results": results, "shed": shed})
        return 200
