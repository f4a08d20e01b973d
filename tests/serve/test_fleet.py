"""FleetService: multi-device routing over a campaign store.

The module-scoped fixture runs one real (quick) two-device campaign, so
every test here exercises the actual deployment path: campaign store on
disk → fleet discovery from envelope metadata → routed predictions.
"""

import gc
import http.client
import json
import re
import shutil
import sys
import threading
import time
import weakref

import pytest

from repro.campaign import MODELS_SUBDIR, CampaignPlan, run_campaign
from repro.cli import main as cli_main
from repro.gpusim.device import device_slug, resolve_device
from repro.serve.daemon import DaemonConfig, ServeDaemon
from repro.serve.fleet import FleetError, FleetService
from repro.serve.registry import ModelKey, ModelRegistry
from repro.serve.service import PredictionService

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
    root = tmp_path_factory.mktemp("fleet-store")
    plan = CampaignPlan(devices=("titan-x", "tesla-p100"), recipe="quick")
    run_campaign(plan, store_root=root)
    return root


@pytest.fixture
def fleet(store):
    return FleetService.from_campaign_store(store)


def front_bytes(result):
    """The full prediction, exact: configs and float objectives."""
    return [(p.config, p.objectives) for p in result.front]


class TestDiscovery:
    def test_finds_every_campaign_device(self, fleet):
        assert fleet.devices() == [TITAN, P100]
        assert [k.recipe for k in fleet.model_keys()] == ["quick", "quick"]

    def test_missing_store_raises(self, tmp_path):
        with pytest.raises(FleetError, match="not a campaign store"):
            FleetService.from_campaign_store(tmp_path / "nowhere")

    def test_empty_models_dir_raises(self, tmp_path):
        (tmp_path / MODELS_SUBDIR).mkdir()
        with pytest.raises(FleetError, match="no servable model bundles"):
            FleetService.from_campaign_store(tmp_path)

    def test_recipe_filter_mismatch_raises(self, store):
        with pytest.raises(FleetError, match="recipe='paper'"):
            FleetService.from_campaign_store(store, recipe="paper")

    def test_foreign_files_are_ignored(self, store):
        junk = store / MODELS_SUBDIR / "not-a-bundle.json"
        junk.write_text("{\"hello\": 1}")
        try:
            assert FleetService.from_campaign_store(store).devices() == [
                TITAN,
                P100,
            ]
        finally:
            junk.unlink()

    def test_recipe_preference_and_filter(self, store):
        # Add a second (paper-keyed) titan bundle: the default routing
        # prefers it, an explicit recipe filter overrides the preference.
        registry = ModelRegistry(store / MODELS_SUBDIR)
        quick_key = ModelKey(device=TITAN, recipe="quick")
        paper_key = ModelKey(device=TITAN, recipe="paper")
        path = registry.put(paper_key, registry.get(quick_key))
        try:
            def titan_recipe(fleet):
                return next(
                    k.recipe
                    for k in fleet.model_keys()
                    if k.device_spec().name == TITAN
                )

            assert titan_recipe(FleetService.from_campaign_store(store)) == "paper"
            assert (
                titan_recipe(
                    FleetService.from_campaign_store(store, recipe="quick")
                )
                == "quick"
            )
        finally:
            path.unlink()

    def test_duplicate_device_keys_rejected(self, store):
        registry = ModelRegistry(store / MODELS_SUBDIR)
        key = ModelKey(device=TITAN, recipe="quick")
        with pytest.raises(FleetError, match="one bundle per device"):
            FleetService(
                registry, [key, ModelKey(device="titan-x", recipe="quick")]
            )


class TestRouting:
    def test_alias_and_full_name_share_one_service(self, fleet):
        by_alias = fleet.service_for("titan-x")
        assert fleet.service_for(TITAN) is by_alias
        assert fleet.service_for("titanx") is by_alias
        routing = fleet.stats_summary()["routing"]
        assert routing["service_loads"] == 1
        assert routing["service_hits"] == 2

    def test_unknown_device_error_lists_fleet(self, fleet):
        with pytest.raises(FleetError, match="unknown device") as err:
            fleet.predict(SAXPY, device="gtx-9999")
        assert TITAN in str(err.value)
        assert P100 in str(err.value)

    def test_registered_but_unmodeled_device_error_lists_fleet(
        self, store, tmp_path
    ):
        # A Titan-X-only store: the P100 is a registered device, but no
        # bundle for it was published here.
        bundle = ModelRegistry(store / MODELS_SUBDIR).path_for(
            ModelKey(device=TITAN, recipe="quick")
        )
        (tmp_path / MODELS_SUBDIR).mkdir()
        shutil.copy(bundle, tmp_path / MODELS_SUBDIR / bundle.name)
        titan_only = FleetService.from_campaign_store(tmp_path)
        with pytest.raises(FleetError, match="no model for device") as err:
            titan_only.predict(SAXPY, device="p100")
        assert P100 in str(err.value)
        assert TITAN in str(err.value)

    def test_routed_prediction_is_byte_identical_to_direct_service(
        self, store, fleet
    ):
        # Acceptance criterion: the fleet adds routing, never a different
        # answer — byte-identical to a directly-constructed single-device
        # service over the same bundle.
        for device in ("titan-x", "tesla-p100"):
            key = ModelKey(device=resolve_device(device).name, recipe="quick")
            direct = PredictionService(
                models=ModelRegistry(store / MODELS_SUBDIR).get(key),
                device=key.device_spec(),
            )
            assert front_bytes(
                fleet.predict(SAXPY, device=device)
            ) == front_bytes(direct.predict(SAXPY))

    def test_predict_is_a_routed_batch_of_one(self, fleet):
        [batched] = fleet.predict_batch([("p100", SAXPY)])
        assert front_bytes(fleet.predict(SAXPY, device="tesla-p100")) == (
            front_bytes(batched)
        )

    def test_devices_differ(self, fleet):
        # Sanity: routing matters — the two devices disagree on the front.
        titan = fleet.predict(SAXPY, device="titan-x")
        p100 = fleet.predict(SAXPY, device="p100")
        assert front_bytes(titan) != front_bytes(p100)


class TestBatch:
    def test_cross_device_batch_in_request_order(self, fleet):
        results = fleet.predict_batch(
            [
                ("titan-x", SAXPY),
                ("p100", SAXPY, "saxpy"),
                (TITAN, SAXPY),
            ]
        )
        assert front_bytes(results[0]) == front_bytes(
            fleet.predict(SAXPY, device="titan-x")
        )
        assert front_bytes(results[1]) == front_bytes(
            fleet.predict(SAXPY, device="tesla-p100")
        )
        assert front_bytes(results[0]) == front_bytes(results[2])

    def test_batch_groups_by_device(self, fleet):
        fleet.predict_batch([("titan-x", SAXPY), ("titanx", SAXPY)])
        titan_stats = fleet.stats_summary()["per_device"]["nvidia-gtx-titan-x"]
        assert titan_stats["batch_requests"] == 1
        assert titan_stats["kernels_served"] == 2

    def test_bare_string_requests_rejected(self, fleet):
        with pytest.raises(FleetError, match="must name a device"):
            fleet.predict_batch([SAXPY])

    def test_interleaved_devices_preserve_request_order(self, fleet):
        # Grouping by device reorders the *model passes*, never the
        # results: distinct kernels alternating devices come back exactly
        # where their requests went in.
        items = [
            ("titan-x", SAXPY, "saxpy"),
            ("p100", SCALE, "scale"),
            ("titan-x", SCALE, "scale"),
            ("p100", SAXPY, "saxpy"),
        ]
        results = fleet.predict_batch(items)
        assert [r.kernel for r in results] == ["saxpy", "scale", "scale", "saxpy"]
        for (device, source, name), result in zip(items, results):
            direct = fleet.predict(source, kernel_name=name, device=device)
            assert [p.config for p in result.front] == [
                p.config for p in direct.front
            ]

    def test_unknown_device_mid_batch_does_no_partial_work(self, store):
        # Slug resolution covers the whole batch before any model pass, so
        # a bad device fails the batch atomically: no kernel is served, no
        # feature extraction pollutes the shared cache.
        fleet = FleetService.from_campaign_store(store)
        fleet.predict(SAXPY, device="titan-x")  # warm one service
        before = fleet.stats_summary()
        fresh_kernel = SAXPY.replace("saxpy", "saxpy_unseen")
        with pytest.raises(FleetError, match="no-such-gpu"):
            fleet.predict_batch(
                [
                    ("titan-x", fresh_kernel, "saxpy_unseen"),
                    ("no-such-gpu", fresh_kernel, "saxpy_unseen"),
                    ("p100", fresh_kernel, "saxpy_unseen"),
                ]
            )
        after = fleet.stats_summary()
        assert after["merged"]["kernels_served"] == before["merged"]["kernels_served"]
        assert after["feature_cache"]["misses"] == before["feature_cache"]["misses"]
        assert after["routing"]["requests_routed"] == before["routing"]["requests_routed"]

    def test_eviction_racing_a_batch_still_answers_correctly(self, store):
        # With max_services=1, a cross-device batch forces an eviction
        # between its two grouped passes; both groups must still serve
        # from a fully loaded service and match direct predictions.
        fleet = FleetService.from_campaign_store(store, max_services=1)
        results = fleet.predict_batch(
            [
                ("titan-x", SAXPY, "saxpy"),
                ("p100", SAXPY, "saxpy"),
                ("titan-x", SCALE, "scale"),
                ("p100", SCALE, "scale"),
            ]
        )
        assert fleet.stats_summary()["routing"]["service_evictions"] >= 1
        assert len(fleet.loaded_devices()) == 1
        oracle = FleetService.from_campaign_store(store)
        for (device, source, name), result in zip(
            [
                ("titan-x", SAXPY, "saxpy"),
                ("p100", SAXPY, "saxpy"),
                ("titan-x", SCALE, "scale"),
                ("p100", SCALE, "scale"),
            ],
            results,
        ):
            direct = oracle.predict(source, kernel_name=name, device=device)
            assert front_bytes(result) == front_bytes(direct)


class TestSharedFeatureCache:
    def test_kernel_extracted_once_hits_across_devices(self, fleet):
        # Acceptance criterion: static features are device-independent, so
        # a kernel extracted for titan-x must hit the cache on p100.
        fleet.predict(SAXPY, device="titan-x")
        hits_before = fleet.stats_summary()["feature_cache"]["hits"]
        fleet.predict(SAXPY, device="p100")
        cache = fleet.stats_summary()["feature_cache"]
        assert cache["hits"] == hits_before + 1
        assert cache["misses"] == 1

    def test_same_features_object_served_to_both_devices(self, fleet):
        titan_features = fleet.service_for("titan-x").features_for(SAXPY)
        p100_features = fleet.service_for("p100").features_for(SAXPY)
        assert p100_features is titan_features


class TestLRU:
    def test_eviction_keeps_only_the_bound(self, store):
        fleet = FleetService.from_campaign_store(store, max_services=1)
        fleet.predict(SAXPY, device="titan-x")
        titan_models = weakref.ref(fleet.service_for("titan-x").models)
        fleet.predict(SAXPY, device="p100")
        assert fleet.loaded_devices() == [P100]
        assert fleet.stats_summary()["routing"]["service_evictions"] == 1
        # Nothing but the evicted service held the bundle, so the bound
        # actually caps memory.
        gc.collect()
        assert titan_models() is None

    def test_counters_survive_eviction_and_reload(self, store):
        fleet = FleetService.from_campaign_store(store, max_services=1)
        fleet.predict(SAXPY, device="titan-x")
        fleet.predict(SAXPY, device="p100")  # evicts titan-x
        fleet.predict(SAXPY, device="titan-x")  # reloads from disk
        assert fleet.stats_summary()["routing"]["service_loads"] == 3
        per_device = fleet.stats_summary()["per_device"]
        assert per_device["nvidia-gtx-titan-x"]["kernels_served"] == 2
        assert per_device["nvidia-tesla-p100"]["kernels_served"] == 1

    def test_reloaded_service_predicts_identically(self, store):
        fleet = FleetService.from_campaign_store(store, max_services=1)
        before = front_bytes(fleet.predict(SAXPY, device="titan-x"))
        fleet.predict(SAXPY, device="p100")  # evict
        assert front_bytes(fleet.predict(SAXPY, device="titan-x")) == before

    def test_concurrent_resolution_loads_each_device_once(self, store):
        # The fleet serializes its own LRU: threads racing to resolve the
        # same cold device share one load, and listing the loaded devices
        # or reloading routes meanwhile never trips over a mutation.
        fleet = FleetService.from_campaign_store(store)
        devices = ("titan-x", "p100")
        workers, rounds = 8, 25
        seen: dict[str, set] = {device: set() for device in devices}
        errors: list[BaseException] = []
        start = threading.Barrier(workers + 1)

        def resolve(index: int) -> None:
            try:
                start.wait(timeout=30)
                for _ in range(rounds):
                    device = devices[index % 2]
                    seen[device].add(id(fleet.service_for(device)))
                    fleet.loaded_devices()
            except BaseException as exc:
                errors.append(exc)

        def reload() -> None:
            try:
                start.wait(timeout=30)
                for _ in range(rounds):
                    fleet.refresh_from_store()
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=resolve, args=(i,)) for i in range(workers)]
        threads.append(threading.Thread(target=reload))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert all(len(ids) == 1 for ids in seen.values())
        routing = fleet.stats_summary()["routing"]
        assert routing["service_loads"] == len(devices)
        assert routing["service_hits"] == workers * rounds - len(devices)


class Resolver(threading.Thread):
    """``fleet.service_for(device)`` on its own thread, keeping the outcome."""

    def __init__(self, fleet, device):
        super().__init__(daemon=True)
        self.fleet, self.device = fleet, device
        self.service = self.error = None

    def run(self):
        try:
            self.service = self.fleet.service_for(self.device)
        except BaseException as exc:
            self.error = exc


class TestColdLoadOutsideTheLock:
    """A cold bundle is read with the fleet lock released, then inserted
    under it again after checking that its route still stands."""

    @pytest.fixture
    def root(self, store, tmp_path):
        shutil.copytree(store, tmp_path / "store")
        return tmp_path / "store"

    @staticmethod
    def hold_titan_loads(fleet, parties=1):
        """Make ``registry.get`` read the Titan X bundle, then wait until
        ``parties`` loads have read it and the returned event is set."""
        real_get = fleet.registry.get
        titan = device_slug("titan-x")
        arrived = threading.Barrier(parties + 1)
        release = threading.Event()

        def get(key):
            models = real_get(key)
            if device_slug(key.device) == titan:
                arrived.wait(timeout=30)
                assert release.wait(timeout=30)
            return models

        fleet.registry.get = get
        return arrived, release

    def test_warm_device_resolves_while_another_loads(self, store):
        fleet = FleetService.from_campaign_store(store)
        p100 = fleet.service_for("p100")
        arrived, release = self.hold_titan_loads(fleet)
        cold = Resolver(fleet, "titan-x")
        cold.start()
        try:
            arrived.wait(timeout=30)  # the Titan X load is under way
            warm = Resolver(fleet, "p100")
            warm.start()
            warm.join(timeout=5)
            assert not warm.is_alive(), "a cold load blocked a warm device"
            assert warm.service is p100
            assert fleet.loaded_devices() == [P100]
        finally:
            release.set()
            cold.join(timeout=30)
        assert not cold.is_alive() and cold.error is None
        assert fleet.loaded_devices() == [P100, TITAN]

    def test_racing_loads_share_the_first_insert(self, store):
        fleet = FleetService.from_campaign_store(store)
        arrived, release = self.hold_titan_loads(fleet, parties=2)
        racers = [Resolver(fleet, "titan-x") for _ in range(2)]
        for racer in racers:
            racer.start()
        # Both loads read the bundle concurrently before either inserts.
        arrived.wait(timeout=30)
        release.set()
        for racer in racers:
            racer.join(timeout=30)
        assert not any(racer.is_alive() for racer in racers)
        assert [racer.error for racer in racers] == [None, None]
        assert racers[0].service is racers[1].service
        assert fleet.service_for("titan-x") is racers[0].service
        routing = fleet.stats_summary()["routing"]
        assert (routing["service_loads"], routing["service_hits"]) == (1, 2)

    def test_route_removed_during_the_load_is_a_fleet_error(self, root):
        fleet = FleetService.from_campaign_store(root)
        arrived, release = self.hold_titan_loads(fleet)
        cold = Resolver(fleet, "titan-x")
        cold.start()
        try:
            arrived.wait(timeout=30)
            fleet.registry.path_for(ModelKey(device=TITAN, recipe="quick")).unlink()
            assert fleet.refresh_from_store().removed == (device_slug("titan-x"),)
        finally:
            release.set()
            cold.join(timeout=30)
        assert not cold.is_alive()
        assert isinstance(cold.error, FleetError)
        assert "disappeared during a reload" in str(cold.error)
        assert fleet.loaded_devices() == []

    def test_bundle_republished_during_the_load_is_not_cached(self, root):
        fleet = FleetService.from_campaign_store(root)
        arrived, release = self.hold_titan_loads(fleet)
        cold = Resolver(fleet, "titan-x")
        cold.start()
        try:
            arrived.wait(timeout=30)
            path = fleet.registry.path_for(ModelKey(device=TITAN, recipe="quick"))
            path.write_bytes(path.read_bytes() + b"\n")
            assert fleet.refresh_from_store().updated == (device_slug("titan-x"),)
        finally:
            release.set()
            cold.join(timeout=30)
        assert not cold.is_alive() and cold.error is None
        assert cold.service.predict(SAXPY).front
        # The answer came from the bundle it read; the next request loads
        # the re-published one.
        assert fleet.loaded_devices() == []
        assert fleet.stats_summary()["routing"]["service_loads"] == 0


def models_snapshot(root):
    """Every file under a store's models/ directory: path → (size, mtime)."""
    return {
        str(path.relative_to(root)): (path.stat().st_size, path.stat().st_mtime_ns)
        for path in sorted((root / MODELS_SUBDIR).rglob("*"))
        if path.is_file()
    }


class TestVanishedBundle:
    """Serving only loads: a bundle deleted after discovery is an error,
    never an in-request retrain that writes a new bundle into the store."""

    @pytest.fixture
    def root(self, store, tmp_path):
        shutil.copytree(store, tmp_path / "store")
        return tmp_path / "store"

    @staticmethod
    def unlink_titan_bundle(fleet):
        path = fleet.registry.path_for(ModelKey(device=TITAN, recipe="quick"))
        path.unlink()
        return path

    def test_fleet_predict_names_the_missing_bundle(self, root):
        fleet = FleetService.from_campaign_store(root)
        path = self.unlink_titan_bundle(fleet)
        before = models_snapshot(root)
        with pytest.raises(FleetError, match=re.escape(str(path))):
            fleet.predict(SAXPY, device="titan-x")
        assert models_snapshot(root) == before

    def test_daemon_answers_404_without_stalling(self, root):
        config = DaemonConfig(port=0, batch_window_ms=2.0, reload_interval_s=0.0)
        with ServeDaemon.from_store(root, config=config) as daemon:
            path = self.unlink_titan_bundle(daemon.fleet)
            before = models_snapshot(root)
            conn = http.client.HTTPConnection(*daemon.address, timeout=30)
            payload = {"device": "titan-x", "source": SAXPY, "name": "saxpy"}
            start = time.perf_counter()
            conn.request("POST", "/predict", body=json.dumps(payload))
            resp = conn.getresponse()
            body = json.loads(resp.read())
            elapsed = time.perf_counter() - start
            conn.close()
        assert (resp.status, body["status"]) == (404, 404)
        assert str(path) in body["error"]
        assert elapsed < 5.0
        assert models_snapshot(root) == before


class TestUndecodableBundle:
    """A bundle that no longer decodes (here, a scaler kind this build does
    not know) is a FleetError naming it, as a vanished bundle is."""

    @pytest.fixture
    def root(self, store, tmp_path):
        shutil.copytree(store, tmp_path / "store")
        return tmp_path / "store"

    @staticmethod
    def break_titan_bundle(fleet):
        path = fleet.registry.path_for(ModelKey(device=TITAN, recipe="quick"))
        envelope = json.loads(path.read_text())
        envelope["payload"]["scaler"]["kind"] = "welford_scaler"
        path.write_text(json.dumps(envelope))
        return path

    def test_fleet_predict_names_the_bundle(self, root):
        fleet = FleetService.from_campaign_store(root)
        path = self.break_titan_bundle(fleet)
        with pytest.raises(FleetError, match=re.escape(str(path))) as err:
            fleet.predict(SAXPY, device="titan-x")
        assert "unknown scaler kind 'welford_scaler'" in str(err.value)
        # The other device still serves.
        assert fleet.predict(SAXPY, device="p100").front

    def test_daemon_answers_404(self, root):
        config = DaemonConfig(port=0, batch_window_ms=2.0, reload_interval_s=0.0)
        with ServeDaemon.from_store(root, config=config) as daemon:
            path = self.break_titan_bundle(daemon.fleet)
            conn = http.client.HTTPConnection(*daemon.address, timeout=30)
            payload = {"device": "titan-x", "source": SAXPY, "name": "saxpy"}
            conn.request("POST", "/predict", body=json.dumps(payload))
            resp = conn.getresponse()
            body = json.loads(resp.read())
            conn.close()
        assert (resp.status, body["status"]) == (404, 404)
        assert str(path) in body["error"]
        assert "welford_scaler" in body["error"]


class TestWarmAndStats:
    def test_warm_preloads_every_device(self, fleet):
        assert fleet.warm() == [TITAN, P100]
        loads = fleet.stats_summary()["routing"]["service_loads"]
        fleet.predict(SAXPY, device="titan-x")
        fleet.predict(SAXPY, device="p100")
        assert fleet.stats_summary()["routing"]["service_loads"] == loads

    def test_warm_selected_devices(self, fleet):
        assert fleet.warm(["p100"]) == [P100]
        assert fleet.loaded_devices() == [P100]

    def test_merged_counters_sum_devices(self, fleet):
        fleet.predict(SAXPY, device="titan-x")
        fleet.predict_batch([("p100", SAXPY), ("titan-x", SAXPY)])
        summary = fleet.stats_summary()
        per_device = summary["per_device"]
        assert summary["merged"]["kernels_served"] == sum(
            d["kernels_served"] for d in per_device.values()
        ) == 3
        assert summary["routing"]["requests_routed"] == 3
        assert summary["routing"]["batches_routed"] == 1

    def test_warmed_idle_device_lists_at_zero(self, fleet):
        fleet.warm(["p100"])
        per_device = fleet.stats_summary()["per_device"]
        assert list(per_device) == ["nvidia-tesla-p100"]
        assert per_device["nvidia-tesla-p100"]["kernels_served"] == 0
        assert per_device["nvidia-tesla-p100"]["extract_latency"]["p50"] == 0.0

    def test_summary_keys_are_stable(self, fleet):
        # `repro predict-batch --stats` prints these keys in this order.
        fleet.predict(SAXPY, device="titan-x")
        summary = fleet.stats_summary()
        serving = [
            "single_requests", "batch_requests", "kernels_served",
            "extract_seconds", "predict_seconds",
            "extract_latency", "predict_latency",
        ]
        assert list(summary) == [
            "devices", "loaded", "routing", "per_device", "merged", "feature_cache",
        ]
        assert list(summary["routing"]) == [
            "requests_routed", "batches_routed",
            "service_loads", "service_hits", "service_evictions",
        ]
        assert list(summary["per_device"]["nvidia-gtx-titan-x"]) == serving
        assert list(summary["merged"]) == serving
        assert list(summary["feature_cache"]) == ["hits", "misses", "evictions", "hit_rate"]
        service = fleet.service_for("titan-x").stats_summary()
        assert list(service) == serving + ["feature_cache", "candidates"]

    def test_shared_cache_reported_once_at_top_level(self, fleet):
        fleet.predict(SAXPY, device="titan-x")
        summary = fleet.stats_summary()
        assert "feature_cache" in summary
        assert all(
            "feature_cache" not in d for d in summary["per_device"].values()
        )


class TestCLI:
    @pytest.fixture
    def kernel_file(self, tmp_path):
        path = tmp_path / "saxpy.cl"
        path.write_text(SAXPY)
        return path

    def test_serve_status_lists_devices(self, store, capsys):
        assert cli_main(["serve-status", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "2 device(s) servable" in out
        assert TITAN in out
        assert P100 in out
        assert "titan-x" in out  # aliases column

    def test_serve_status_bad_store_errors(self, tmp_path, capsys):
        assert cli_main(["serve-status", "--store", str(tmp_path)]) == 2
        assert "not a campaign store" in capsys.readouterr().err

    def test_predict_from_store(self, store, kernel_file, capsys):
        code = cli_main(
            [
                "predict", str(kernel_file),
                "--device", "p100",
                "--store", str(store),
            ]
        )
        assert code == 0
        assert "predicted Pareto set for 'saxpy'" in capsys.readouterr().out

    def test_predict_quick_narrows_to_quick_bundles(
        self, store, kernel_file, capsys
    ):
        # --quick must not be silently ignored on the fleet path: it
        # filters routing to quick-recipe bundles (this store's only kind).
        code = cli_main(
            [
                "predict", str(kernel_file),
                "--device", "p100",
                "--quick",
                "--store", str(store),
            ]
        )
        assert code == 0
        assert "predicted Pareto set" in capsys.readouterr().out

    def test_predict_from_store_requires_device(
        self, store, kernel_file, capsys
    ):
        code = cli_main(
            ["predict", str(kernel_file), "--store", str(store)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--device required" in err
        assert P100 in err

    def test_predict_model_and_store_conflict(
        self, store, kernel_file, capsys
    ):
        code = cli_main(
            [
                "predict", str(kernel_file),
                "--model", "whatever.json",
                "--store", str(store),
            ]
        )
        assert code == 2
        assert "not both" in capsys.readouterr().err

    def test_predict_batch_from_store_with_stats(
        self, store, kernel_file, capsys
    ):
        code = cli_main(
            [
                "predict-batch", str(kernel_file), str(kernel_file),
                "--device", "titan-x",
                "--store", str(store),
                "--stats",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("predicted Pareto set") == 2
        assert "-- fleet stats" in out
        assert "feature_cache.hits: 1" in out
        assert "routing.requests_routed: 2" in out

    def test_predict_batch_requests_file_routes_devices(
        self, store, kernel_file, tmp_path, capsys
    ):
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            "# a comment and a blank line are skipped\n"
            "\n"
            f'{{"device": "titan-x", "kernel": "{kernel_file}"}}\n'
            f'{{"device": "p100", "source": {json.dumps(SAXPY)}, '
            f'"name": "saxpy"}}\n'
        )
        code = cli_main(
            ["predict-batch", "--requests", str(requests), "--store", str(store)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("predicted Pareto set for 'saxpy'") == 2
        assert f"== {kernel_file} @ titan-x" in out
        assert "== saxpy @ p100" in out

    def test_predict_batch_requests_file_default_device(
        self, store, tmp_path, capsys
    ):
        requests = tmp_path / "requests.jsonl"
        requests.write_text(f'{{"source": {json.dumps(SAXPY)}, "name": "saxpy"}}\n')
        code = cli_main(
            [
                "predict-batch", "--requests", str(requests),
                "--device", "p100", "--store", str(store),
            ]
        )
        assert code == 0
        assert "== saxpy @ p100" in capsys.readouterr().out

    def test_predict_batch_requests_and_paths_conflict(
        self, store, kernel_file, tmp_path, capsys
    ):
        requests = tmp_path / "requests.jsonl"
        requests.write_text(f'{{"kernel": "{kernel_file}"}}\n')
        code = cli_main(
            [
                "predict-batch", str(kernel_file),
                "--requests", str(requests), "--store", str(store),
            ]
        )
        assert code == 2
        assert "not both" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, diagnostic",
        [
            ("{not json", "not valid JSON"),
            ('["a", "list"]', "must be a JSON object"),
            ('{"device": "titan-x"}', "exactly one of"),
            ('{"source": "x", "kernel": "y"}', "exactly one of"),
            ('{"kernel": "/nowhere/missing.cl"}', "kernel file not found"),
        ],
    )
    def test_predict_batch_requests_file_diagnostics(
        self, store, tmp_path, capsys, line, diagnostic
    ):
        requests = tmp_path / "requests.jsonl"
        requests.write_text("# header comment\n" + line + "\n")
        code = cli_main(
            ["predict-batch", "--requests", str(requests), "--store", str(store)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert diagnostic in err
        assert f"{requests}:2" in err  # path:lineno points at the bad line

    def test_predict_batch_requests_file_empty(self, store, tmp_path, capsys):
        requests = tmp_path / "requests.jsonl"
        requests.write_text("# only comments\n\n")
        code = cli_main(
            ["predict-batch", "--requests", str(requests), "--store", str(store)]
        )
        assert code == 2
        assert "no requests" in capsys.readouterr().err

    def test_predict_batch_requests_missing_file(self, store, capsys):
        code = cli_main(
            [
                "predict-batch", "--requests", "/nowhere/reqs.jsonl",
                "--store", str(store),
            ]
        )
        assert code == 2
        assert "file not found" in capsys.readouterr().err

    def test_predict_batch_requests_devices_need_a_store(
        self, tmp_path, capsys
    ):
        requests = tmp_path / "requests.jsonl"
        requests.write_text(f'{{"device": "titan-x", "source": {json.dumps(SAXPY)}}}\n')
        code = cli_main(
            ["predict-batch", "--requests", str(requests), "--quick"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "no fleet to route them" in err
        assert "add --store" in err

    def test_predict_batch_requests_service_path(self, tmp_path, capsys):
        # Without --store the request file feeds the single in-process
        # service, as long as no line tries to route by device.
        requests = tmp_path / "requests.jsonl"
        requests.write_text(f'{{"source": {json.dumps(SAXPY)}, "name": "saxpy"}}\n')
        code = cli_main(["predict-batch", "--requests", str(requests), "--quick"])
        assert code == 0
        out = capsys.readouterr().out
        assert "== saxpy" in out
        assert "predicted Pareto set for 'saxpy'" in out

    def test_cli_matches_library_routing(self, store, fleet, kernel_file, capsys):
        assert (
            cli_main(
                [
                    "predict", str(kernel_file),
                    "--device", "titan-x",
                    "--store", str(store),
                ]
            )
            == 0
        )
        cli_out = capsys.readouterr().out
        result = fleet.predict(SAXPY, device="titan-x")
        for point in result.front:
            assert f"{point.core_mhz:.0f}" in cli_out
