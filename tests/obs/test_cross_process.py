"""Cross-process metric merging and the no-perturbation invariant.

Campaign sweeps run on worker processes; each task records into a private
delta registry whose snapshot rides home with the result.  These tests pin
the two load-bearing properties: pooled runs report exactly the serial
run's totals (integral counters are exact in float64, so bit-for-bit),
and observability never changes a byte of the measurement artifacts.
"""

import filecmp

from repro.analysis.recipes import DEFAULT_RECIPE
from repro.campaign import CampaignPlan, run_campaign
from repro.core.config import sample_training_settings
from repro.gpusim.device import device_slug, make_titan_x
from repro.measure import DevicePool
from repro.obs import MetricsRegistry, load_snapshot, read_spans
from repro.obs.instruments import (
    CAMPAIGN_SWEEPS_DONE_TOTAL,
    FEATURE_CACHE_REQUESTS_TOTAL,
    SWEEP_CONFIGS_TOTAL,
    SWEEP_DURATION_SECONDS,
    SWEEPS_TOTAL,
    TRAININGS_TOTAL,
)
from repro.store.layout import (
    CAMPAIGN_METRICS_FILENAME,
    METRICS_SUBDIR,
    MODELS_SUBDIR,
    SPANS_FILENAME,
    TRACES_SUBDIR,
)
from repro.synthetic import generate_micro_benchmarks

N_SPECS = 6
N_SETTINGS = 4


def _pool_snapshot(workers: int):
    device = make_titan_x()
    settings = sample_training_settings(device, total=N_SETTINGS)
    tasks = [
        (device.name, spec, settings, DEFAULT_RECIPE)
        for spec in generate_micro_benchmarks()[:N_SPECS]
    ]
    registry = MetricsRegistry()
    with DevicePool(workers=workers, registry=registry) as pool:
        for _ in pool.imap_sweeps(tasks):
            pass
    return registry.snapshot(), device_slug(device.name)


class TestWorkerDeltaMerging:
    def test_pooled_totals_equal_serial_bit_for_bit(self):
        serial, slug = _pool_snapshot(workers=1)
        pooled, _ = _pool_snapshot(workers=2)
        labels = {"device": slug, "backend": "simulator"}
        assert serial.value(SWEEPS_TOTAL, **labels) == N_SPECS
        for name in (SWEEPS_TOTAL, SWEEP_CONFIGS_TOTAL):
            assert pooled.value(name, **labels) == serial.value(name, **labels)
        assert (
            pooled.histogram(SWEEP_DURATION_SECONDS, **labels).count
            == serial.histogram(SWEEP_DURATION_SECONDS, **labels).count
        )

    def test_worker_deltas_do_not_leak_into_the_process_default(self):
        from repro.obs import get_registry

        before = get_registry().value(
            SWEEPS_TOTAL, device="nvidia-gtx-titan-x", backend="simulator"
        )
        _pool_snapshot(workers=2)
        after = get_registry().value(
            SWEEPS_TOTAL, device="nvidia-gtx-titan-x", backend="simulator"
        )
        assert after == before


class TestCampaignMetrics:
    def _run(self, tmp_path, name, workers):
        plan = CampaignPlan(devices=("titan-x",), recipe="quick", workers=workers)
        store = tmp_path / name
        return run_campaign(plan, store_root=store), store

    def test_parallel_campaign_totals_equal_serial_bit_for_bit(self, tmp_path):
        report1, store1 = self._run(tmp_path, "serial", workers=1)
        report2, store2 = self._run(tmp_path, "pooled", workers=2)
        slug = device_slug(report1.results[0].device)
        for name in (
            CAMPAIGN_SWEEPS_DONE_TOTAL,
            TRAININGS_TOTAL,
        ):
            v1 = report1.metrics.value(name, device=slug)
            v2 = report2.metrics.value(name, device=slug)
            assert v1 == v2 and v1 > 0, (name, v1, v2)
        labels = {"device": slug, "backend": "simulator"}
        for name in (SWEEPS_TOTAL, SWEEP_CONFIGS_TOTAL):
            assert report1.metrics.value(name, **labels) == report2.metrics.value(
                name, **labels
            )

    def test_observability_never_perturbs_the_artifacts(self, tmp_path):
        """Default-registry run vs caller-registry run: identical bytes."""
        _, store1 = self._run(tmp_path, "a", workers=1)
        plan = CampaignPlan(devices=("titan-x",), recipe="quick", workers=1)
        store2 = tmp_path / "b"
        run_campaign(plan, store_root=store2, registry=MetricsRegistry())
        for subdir in (TRACES_SUBDIR, MODELS_SUBDIR):
            cmp = filecmp.dircmp(store1 / subdir, store2 / subdir)
            assert not cmp.diff_files, cmp.diff_files
            assert not cmp.left_only and not cmp.right_only
            identical, mismatch, errors = filecmp.cmpfiles(
                store1 / subdir,
                store2 / subdir,
                cmp.common_files,
                shallow=False,
            )
            assert not mismatch and not errors, (mismatch, errors)

    def test_obs_files_live_beside_not_inside_the_artifacts(self, tmp_path):
        _, store = self._run(tmp_path, "layout", workers=1)
        assert (store / SPANS_FILENAME).is_file()
        assert (store / METRICS_SUBDIR / CAMPAIGN_METRICS_FILENAME).is_file()
        for subdir in (TRACES_SUBDIR, MODELS_SUBDIR):
            names = {p.name for p in (store / subdir).rglob("*")}
            assert SPANS_FILENAME not in names
            assert CAMPAIGN_METRICS_FILENAME not in names

    def test_store_snapshot_matches_the_report_and_covers_serving(self, tmp_path):
        report, store = self._run(tmp_path, "snap", workers=2)
        stored = load_snapshot(store / METRICS_SUBDIR / CAMPAIGN_METRICS_FILENAME)
        slug = device_slug(report.results[0].device)
        labels = {"device": slug, "backend": "simulator"}
        assert stored.value(SWEEPS_TOTAL, **labels) == report.metrics.value(
            SWEEPS_TOTAL, **labels
        )
        hist = stored.histogram(SWEEP_DURATION_SECONDS, **labels)
        assert hist is not None and hist.count > 0
        # The serve-cache counters are exported (at zero) even though the
        # campaign never served — `repro stats` on a fresh store must show
        # them, per the acceptance criteria.
        assert stored.label_values(FEATURE_CACHE_REQUESTS_TOTAL) == [
            ("hit",),
            ("miss",),
        ]

    def test_span_log_records_the_run_hierarchy(self, tmp_path):
        _, store = self._run(tmp_path, "spans", workers=1)
        events = read_spans(store / SPANS_FILENAME)
        started = [e["name"] for e in events if e["event"] == "start"]
        ended = {e["id"] for e in events if e["event"] == "end"}
        assert "campaign.run" in started
        assert "campaign.sweep" in started
        assert "campaign.train" in started
        # every span ended, and ended ok
        assert {e["id"] for e in events if e["event"] == "start"} == ended
        assert all(
            e["status"] == "ok" for e in events if e["event"] == "end"
        )
