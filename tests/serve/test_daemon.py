"""ServeDaemon: the micro-batched HTTP front door over a FleetService.

These tests pin the daemon's three contracts (byte identity with direct
``FleetService`` predictions, admission control, hot reload) plus the
HTTP surface itself.  The module store is built from cached quick
contexts — the same published-bundle layout a campaign produces, without
re-running one per module.
"""

import dataclasses
import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.harness.context import quick_context
from repro.harness.report import format_front
from repro.obs.instruments import (
    DAEMON_BATCHED_KERNELS_TOTAL,
    DAEMON_BATCHES_TOTAL,
    DAEMON_COALESCED_TOTAL,
    DAEMON_RELOADS_TOTAL,
    DAEMON_SHED_TOTAL,
)
from repro.serve.daemon import DaemonConfig, DaemonError, Overloaded, ServeDaemon
from repro.serve.fleet import FleetService
from repro.serve.registry import ModelKey, ModelRegistry
from repro.store.layout import DAEMON_METRICS_FILENAME, METRICS_SUBDIR, MODELS_SUBDIR

TITAN = "NVIDIA GTX Titan X"
P100 = "NVIDIA Tesla P100"

SAXPY = """
__kernel void saxpy(__global float* x, __global float* y, float a) {
  int i = get_global_id(0);
  y[i] = a * x[i] + y[i];
}
"""

SCALE = """
__kernel void scale(__global float* x, float a) {
  int i = get_global_id(0);
  x[i] = a * x[i];
}
"""


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """A two-device published-bundle store (campaign-store layout)."""
    root = tmp_path_factory.mktemp("daemon-store")
    registry = ModelRegistry(root / MODELS_SUBDIR)
    for device in (TITAN, P100):
        ctx = quick_context(device=device)
        registry.put(ModelKey(device=device, recipe="quick"), ctx.models)
    return root


def make_daemon(store, **overrides):
    """A started daemon on an ephemeral port, hot-reload poller off."""
    defaults = dict(port=0, batch_window_ms=2.0, reload_interval_s=0.0)
    defaults.update(overrides)
    daemon = ServeDaemon.from_store(store, config=DaemonConfig(**defaults))
    daemon.start()
    return daemon


@pytest.fixture(scope="module")
def daemon(store):
    with ServeDaemon.from_store(
        store,
        config=DaemonConfig(port=0, batch_window_ms=2.0, reload_interval_s=0.0),
    ) as d:
        yield d


@pytest.fixture(scope="module")
def oracle(store):
    """A direct (non-daemon) fleet over the same store."""
    return FleetService.from_campaign_store(store)


def front_bytes(result):
    return [(p.config, p.objectives) for p in result.front]


def request(daemon, method, path, payload=None, raw_body=None):
    host, port = daemon.address
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        body = raw_body
        if body is None and payload is not None:
            body = json.dumps(payload).encode("utf-8")
        conn.request(method, path, body=body)
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


class TestEndpoints:
    def test_healthz(self, daemon):
        status, _, body = request(daemon, "GET", "/healthz")
        assert status == 200
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["devices"] == [TITAN, P100]
        assert health["config"]["max_batch"] == 32
        assert health["uptime_s"] >= 0

    def test_predict_json_matches_direct_fleet(self, daemon, oracle):
        status, headers, body = request(
            daemon, "POST", "/predict",
            {"device": "titan-x", "source": SAXPY, "name": "saxpy"},
        )
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        payload = json.loads(body)
        direct = oracle.predict(SAXPY, kernel_name="saxpy", device="titan-x")
        assert payload["kernel"] == "saxpy"
        assert payload["device"] == TITAN
        # A batch of one runs the same code path shape as a direct call,
        # so the floats are bitwise equal, not merely close.
        assert [
            ((p["core_mhz"], p["mem_mhz"]), (p["speedup"], p["norm_energy"]))
            for p in payload["front"]
        ] == front_bytes(direct)

    def test_predict_text_is_byte_identical_to_cli_rendering(self, daemon, oracle):
        status, headers, body = request(
            daemon, "POST", "/predict?format=text",
            {"device": "p100", "source": SAXPY, "name": "saxpy"},
        )
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        direct = oracle.predict(SAXPY, kernel_name="saxpy", device="p100")
        assert body == (format_front(direct) + "\n").encode("utf-8")

    def test_pareto_alias(self, daemon):
        one = request(
            daemon, "POST", "/predict?format=text",
            {"device": "titan-x", "source": SCALE, "name": "scale"},
        )
        two = request(
            daemon, "POST", "/pareto?format=text",
            {"device": "titan-x", "source": SCALE, "name": "scale"},
        )
        assert one[0] == two[0] == 200
        assert one[2] == two[2]

    def test_predict_batch_preserves_order_and_isolates_errors(self, daemon):
        items = [
            {"device": "titan-x", "source": SAXPY, "name": "saxpy"},
            {"device": "p100", "source": SCALE, "name": "scale"},
            {"device": "no-such-gpu", "source": SAXPY, "name": "saxpy"},
            {"device": "p100", "source": SAXPY, "name": "saxpy"},
            {"device": "titan-x", "source": SCALE, "name": "scale"},
        ]
        status, _, body = request(
            daemon, "POST", "/predict-batch", {"requests": items}
        )
        assert status == 200
        payload = json.loads(body)
        results = payload["results"]
        assert len(results) == len(items)
        assert payload["shed"] == 0
        assert [r.get("kernel") for r in results] == [
            "saxpy", "scale", None, "saxpy", "scale",
        ]
        assert [r.get("device") for r in results] == [
            TITAN, P100, None, P100, TITAN,
        ]
        assert results[2]["status"] == 404
        assert "no-such-gpu" in results[2]["error"]

    def test_predict_batch_text_concatenates_item_renderings(self, daemon, oracle):
        items = [
            {"device": "p100", "source": SCALE, "name": "scale"},
            {"device": "titan-x", "source": SAXPY, "name": "saxpy"},
            {"device": "p100", "source": SAXPY, "name": "saxpy"},
        ]
        status, _, body = request(
            daemon, "POST", "/predict-batch?format=text", {"requests": items}
        )
        assert status == 200
        expected = b"\n".join(
            (
                format_front(
                    oracle.predict(
                        i["source"], kernel_name=i["name"], device=i["device"]
                    )
                )
                + "\n"
            ).encode("utf-8")
            for i in items
        )
        assert body == expected

    def test_unknown_endpoint_404(self, daemon):
        assert request(daemon, "GET", "/nope")[0] == 404
        assert request(daemon, "POST", "/nope", {})[0] == 404

    def test_bad_json_400(self, daemon):
        status, _, body = request(
            daemon, "POST", "/predict", raw_body=b"{not json"
        )
        assert status == 400
        assert "not valid JSON" in json.loads(body)["error"]

    def test_missing_fields_400(self, daemon):
        assert request(daemon, "POST", "/predict", {"source": SAXPY})[0] == 400
        assert request(
            daemon, "POST", "/predict", {"device": "titan-x"}
        )[0] == 400
        assert request(daemon, "POST", "/predict-batch", {"requests": []})[0] == 400

    def test_too_deeply_nested_kernel_400(self, daemon):
        depth = 400
        source = "__kernel void deep(__global float* a) { a[0] = %s1%s; }" % (
            "(" * depth,
            ")" * depth,
        )
        status, _, body = request(
            daemon, "POST", "/predict", {"source": source, "device": "titan-x"}
        )
        assert status == 400
        assert "nesting deeper than" in json.loads(body)["error"]

    @pytest.mark.parametrize("length", ["-1", "abc"])
    def test_invalid_content_length_400_without_reading(self, daemon, length):
        """A bad length is refused up front; the open connection must not
        leave the handler waiting for a body that will never be framed."""
        with socket.create_connection(daemon.address, timeout=5) as sock:
            sock.sendall(
                b"POST /predict HTTP/1.1\r\nHost: localhost\r\n"
                + f"Content-Length: {length}\r\n\r\n".encode("ascii")
            )
            # The client keeps its end open, so only a prompt reply (not
            # EOF) can end this read before the socket timeout.
            resp = http.client.HTTPResponse(sock)
            resp.begin()
            body = resp.read()
        assert resp.status == 400
        assert "Content-Length" in json.loads(body)["error"]

    def test_unknown_device_404(self, daemon):
        status, _, body = request(
            daemon, "POST", "/predict",
            {"device": "no-such-gpu", "source": SAXPY, "name": "saxpy"},
        )
        assert status == 404
        assert json.loads(body)["status"] == 404

    def test_stats_json_and_prometheus(self, daemon):
        status, _, body = request(daemon, "GET", "/stats")
        assert status == 200
        names = {f["name"] for f in json.loads(body)["families"]}
        assert "repro_daemon_requests_total" in names
        status, headers, body = request(daemon, "GET", "/stats?format=prom")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode("utf-8")
        assert "# TYPE repro_daemon_requests_total counter" in text
        assert "repro_fleet_requests_routed_total" in text
        assert request(daemon, "GET", "/stats?format=bogus")[0] == 400


class TestMicroBatching:
    def test_burst_coalesces_into_one_grouped_pass(self, store):
        daemon = make_daemon(store, batch_window_ms=500.0, max_batch=6)
        try:
            slug = daemon.fleet.slug_for("titan-x")
            futures = [
                daemon.submit("titan-x", source, name)
                for source, name in [
                    (SAXPY, "saxpy"), (SCALE, "scale"), (SAXPY, "saxpy"),
                    (SCALE, "scale"), (SAXPY, "saxpy"), (SCALE, "scale"),
                ]
            ]
            results = [f.result(timeout=30) for f in futures]
            # Duplicates share one prediction *object*, not merely equal
            # answers — the coalescing contract.
            assert results[0] is results[2] is results[4]
            assert results[1] is results[3] is results[5]
            assert results[0].kernel == "saxpy"
            assert results[1].kernel == "scale"
            metrics = daemon.metrics
            assert metrics.value(DAEMON_BATCHES_TOTAL, device=slug) == 1
            assert metrics.value(DAEMON_BATCHED_KERNELS_TOTAL, device=slug) == 2
            assert metrics.value(DAEMON_COALESCED_TOTAL, device=slug) == 4
        finally:
            daemon.close()

    def test_batched_answers_match_direct_fleet(self, store, oracle):
        daemon = make_daemon(store, batch_window_ms=200.0, max_batch=4)
        try:
            futures = [
                daemon.submit(device, source, name)
                for device, source, name in [
                    ("titan-x", SAXPY, "saxpy"),
                    ("p100", SAXPY, "saxpy"),
                    ("titan-x", SCALE, "scale"),
                    ("p100", SCALE, "scale"),
                ]
            ]
            for future, (device, source, name) in zip(futures, [
                ("titan-x", SAXPY, "saxpy"),
                ("p100", SAXPY, "saxpy"),
                ("titan-x", SCALE, "scale"),
                ("p100", SCALE, "scale"),
            ]):
                batched = future.result(timeout=30)
                direct = oracle.predict(source, kernel_name=name, device=device)
                assert [p.config for p in batched.front] == [
                    p.config for p in direct.front
                ]
        finally:
            daemon.close()

    def test_bad_kernel_fails_only_its_own_request(self, store):
        daemon = make_daemon(store, batch_window_ms=200.0, max_batch=3)
        try:
            good1 = daemon.submit("titan-x", SAXPY, "saxpy")
            bad = daemon.submit("titan-x", "this is not OpenCL", "nope")
            good2 = daemon.submit("titan-x", SCALE, "scale")
            assert good1.result(timeout=30).kernel == "saxpy"
            assert good2.result(timeout=30).kernel == "scale"
            with pytest.raises(Exception):
                bad.result(timeout=30)
        finally:
            daemon.close()


class TestAdmissionControl:
    def _block_service(self, daemon, device):
        """Patch the device's service so predict_batch blocks until released."""
        slug = daemon.fleet.slug_for(device)
        service = daemon.service_for_slug(slug)
        entered, release = threading.Event(), threading.Event()
        original = service.predict_batch

        def blocked(requests):
            entered.set()
            assert release.wait(timeout=30), "test never released the service"
            return original(requests)

        service.predict_batch = blocked
        return slug, entered, release

    def test_full_lane_sheds_with_overloaded(self, store):
        daemon = make_daemon(store, max_queue=2, batch_window_ms=1.0, max_batch=1)
        try:
            slug, entered, release = self._block_service(daemon, "titan-x")
            f1 = daemon.submit("titan-x", SAXPY, "saxpy")
            assert entered.wait(timeout=30)
            f2 = daemon.submit("titan-x", SCALE, "scale")
            with pytest.raises(Overloaded) as exc:
                daemon.submit("titan-x", SAXPY, "saxpy")
            assert exc.value.retry_after == 1
            assert daemon.metrics.value(DAEMON_SHED_TOTAL, device=slug) == 1
            release.set()
            assert f1.result(timeout=30).kernel == "saxpy"
            assert f2.result(timeout=30).kernel == "scale"
            # The lane drained, so admission opens up again.
            assert daemon.predict("titan-x", SAXPY, "saxpy").kernel == "saxpy"
        finally:
            daemon.close()

    def test_overload_is_503_with_retry_after_over_http(self, store):
        daemon = make_daemon(store, max_queue=1, batch_window_ms=1.0, max_batch=1)
        try:
            _, entered, release = self._block_service(daemon, "titan-x")
            first: dict = {}

            def post_first():
                first["response"] = request(
                    daemon, "POST", "/predict",
                    {"device": "titan-x", "source": SAXPY, "name": "saxpy"},
                )

            t = threading.Thread(target=post_first)
            t.start()
            try:
                assert entered.wait(timeout=30)
                status, headers, body = request(
                    daemon, "POST", "/predict",
                    {"device": "titan-x", "source": SAXPY, "name": "saxpy"},
                )
                assert status == 503
                assert headers["Retry-After"] == "1"
                assert json.loads(body)["status"] == 503
            finally:
                release.set()
                t.join(timeout=30)
            assert first["response"][0] == 200
            # A full titan lane never backs up the other device's lane.
            assert request(
                daemon, "POST", "/predict",
                {"device": "p100", "source": SAXPY, "name": "saxpy"},
            )[0] == 200
        finally:
            daemon.close()


class TestHotReload:
    def _publish_paper_titan(self, store):
        """Publish a paper-keyed titan bundle — RECIPE_PREFERENCE makes the
        fleet prefer it on reload.  The bundle is the quick titan models
        with a truncated settings menu, so its predictions are visibly
        different from the quick bundle's."""
        registry = ModelRegistry(store / MODELS_SUBDIR)
        key = ModelKey(device=TITAN, recipe="paper")
        models = quick_context(device=TITAN).models
        registry.put(key, dataclasses.replace(models, settings=models.settings[:8]))
        return key

    def test_poll_reload_swaps_routes_without_restart(self, store):
        daemon = make_daemon(store)
        try:
            before = daemon.predict("titan-x", SAXPY, "saxpy")
            assert daemon.poll_reload() is False  # nothing published yet
            key = self._publish_paper_titan(store)
            try:
                assert daemon.poll_reload() is True
                titan_key = next(
                    k for k in daemon.fleet.model_keys() if k.device == TITAN
                )
                assert titan_key.recipe == "paper"
                # The daemon now answers with the new bundle: identical to
                # a service built directly from the published models.
                after = daemon.predict("titan-x", SAXPY, "saxpy")
                oracle = FleetService.from_campaign_store(store)
                expected = oracle.predict(SAXPY, kernel_name="saxpy", device="titan-x")
                assert front_bytes(after) == front_bytes(expected)
                assert front_bytes(after) != front_bytes(before)
                # Repeating the poll with no new publish is a no-op.
                assert daemon.poll_reload() is False
                assert daemon.metrics.value(
                    DAEMON_RELOADS_TOTAL, result="changed"
                ) == 1
                # P100 routing survived untouched.
                assert daemon.predict("p100", SAXPY, "saxpy").kernel == "saxpy"
                assert before.kernel == "saxpy"
            finally:
                ModelRegistry(store / MODELS_SUBDIR).path_for(key).unlink()
            assert daemon.poll_reload() is True  # rollback is a reload too
        finally:
            daemon.close()

    def test_reload_never_changes_an_in_flight_response(self, store):
        daemon = make_daemon(store, batch_window_ms=1.0, max_batch=1)
        try:
            oracle_old = front_bytes(daemon.predict("titan-x", SAXPY, "saxpy"))
            slug = daemon.fleet.slug_for("titan-x")
            old_service = daemon.service_for_slug(slug)
            entered, release = threading.Event(), threading.Event()
            original = old_service.predict_batch

            def blocked(requests):
                entered.set()
                assert release.wait(timeout=30)
                return original(requests)

            old_service.predict_batch = blocked
            in_flight = daemon.submit("titan-x", SAXPY, "saxpy")
            assert entered.wait(timeout=30)
            key = self._publish_paper_titan(store)
            try:
                # Reload lands *while* the old service's pass is blocked.
                assert daemon.poll_reload() is True
                release.set()
                # The in-flight request still carries the old bundle's
                # answer — a batch resolves its service once, up front.
                assert front_bytes(in_flight.result(timeout=30)) == oracle_old
                # New requests resolve a freshly built service: the lane
                # re-resolves per batch, so the swap needs no restart.
                assert daemon.service_for_slug(slug) is not old_service
            finally:
                release.set()
                ModelRegistry(store / MODELS_SUBDIR).path_for(key).unlink()
            daemon.poll_reload()
        finally:
            daemon.close()


class TestLifecycle:
    def test_shutdown_persists_metrics_and_refuses_connections(self, store):
        daemon = make_daemon(store)
        status, _, _ = request(daemon, "GET", "/healthz")
        assert status == 200
        host, port = daemon.address
        daemon.close()
        snapshot_path = store / METRICS_SUBDIR / DAEMON_METRICS_FILENAME
        assert snapshot_path.exists()
        names = {f["name"] for f in json.loads(snapshot_path.read_text())["families"]}
        assert "repro_daemon_requests_total" in names
        assert "repro_fleet_requests_routed_total" in names
        with pytest.raises(ConnectionRefusedError):
            http.client.HTTPConnection(host, port, timeout=5).request(
                "GET", "/healthz"
            )
        daemon.close()  # idempotent

    def test_double_start_raises(self, store):
        daemon = make_daemon(store)
        try:
            with pytest.raises(DaemonError, match="already started"):
                daemon.start()
        finally:
            daemon.close()

    def test_config_validation(self):
        with pytest.raises(DaemonError):
            DaemonConfig(max_batch=0)
        with pytest.raises(DaemonError):
            DaemonConfig(max_queue=0)
        with pytest.raises(DaemonError):
            DaemonConfig(batch_window_ms=-1.0)


class TestCLI:
    def test_serve_daemon_cli_serves_and_shuts_down_cleanly(self, store):
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable, "-c",
                "import sys; from repro.cli import main; "
                "sys.exit(main(sys.argv[1:]))",
                "serve-daemon", "--store", str(store), "--port", "0",
                "--reload-interval", "0", "--no-warm",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            banner = proc.stdout.readline()
            match = re.search(r"at http://127\.0\.0\.1:(\d+)", banner)
            assert match, f"no address in banner: {banner!r}"
            port = int(match.group(1))
            deadline = time.monotonic() + 30
            health = None
            while time.monotonic() < deadline:
                try:
                    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
                    conn.request("GET", "/healthz")
                    health = json.loads(conn.getresponse().read())
                    conn.close()
                    break
                except OSError:
                    time.sleep(0.05)
            assert health is not None and health["status"] == "ok"

            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            conn.request(
                "POST", "/predict",
                body=json.dumps(
                    {"device": "titan-x", "source": SAXPY, "name": "saxpy"}
                ).encode(),
            )
            resp = conn.getresponse()
            assert resp.status == 200
            assert json.loads(resp.read())["kernel"] == "saxpy"
            conn.close()

            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=30)
        except BaseException:
            proc.kill()
            proc.wait(timeout=10)
            raise
        assert proc.returncode == 0, err
        assert "shut down cleanly" in out
