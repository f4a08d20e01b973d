"""Tests for the experiment harness: sweeps, errors, evaluation, report."""

import numpy as np
import pytest

from repro.harness.characterize import characterize_kernel
from repro.harness.context import quick_context
from repro.harness.errors import prediction_errors
from repro.harness.evaluation import evaluate_pareto_prediction, evaluate_suite
from repro.harness.report import (
    ascii_scatter,
    format_box,
    format_error_panel,
    format_heading,
    format_table,
)
from repro.harness.runner import measure_configs, sweep_kernel
from repro.ml.metrics import BoxStats, GroupedErrorReport
from repro.pareto.dominance import dominates
from repro.suite import get_benchmark
from repro.suite import test_benchmarks as suite_benchmarks


@pytest.fixture(scope="module")
def ctx():
    return quick_context()


class TestRunner:
    def test_sweep_by_domain_sorted(self, ctx):
        sweep = sweep_kernel(ctx.sim, get_benchmark("K-means"), ctx.settings)
        for label, points in sweep.by_domain().items():
            cores = [p.core_mhz for p in points]
            assert cores == sorted(cores), label

    def test_sweep_default_covers_everything(self, ctx):
        sweep = sweep_kernel(ctx.sim, get_benchmark("Flte"))
        assert len(sweep.points) == len(ctx.device.real_configurations())

    def test_lookup(self, ctx):
        sweep = sweep_kernel(ctx.sim, get_benchmark("MD"), ctx.settings)
        config = ctx.settings[0]
        found = sweep.lookup(config)
        assert found is not None and found.config == config
        assert sweep.lookup((1.0, 2.0)) is None

    def test_measure_configs_keys(self, ctx):
        configs = ctx.settings[:5]
        measured = measure_configs(ctx.sim, get_benchmark("MT"), configs)
        assert set(measured) == set(configs)


class TestCharacterize:
    def test_series_cover_sampled_domains(self, ctx):
        ch = characterize_kernel(ctx.sim, get_benchmark("AES"), ctx.settings)
        assert set(ch.series) == {"L", "l", "h", "H"}

    def test_rows_align(self, ctx):
        ch = characterize_kernel(ctx.sim, get_benchmark("AES"), ctx.settings)
        for series in ch.series.values():
            assert len(series.rows()) == len(series.core_mhz)

    def test_speedup_span_positive(self, ctx):
        ch = characterize_kernel(ctx.sim, get_benchmark("k-NN"), ctx.settings)
        assert ch.speedup_span > 0.3


class TestPredictionErrors:
    def test_reports_cover_domains(self, ctx):
        ea = prediction_errors(
            ctx.sim, ctx.models, suite_benchmarks()[:4], ctx.settings, "speedup"
        )
        assert set(ea.reports) == {"L", "l", "h", "H"}

    def test_each_report_has_all_benchmarks(self, ctx):
        specs = suite_benchmarks()[:4]
        ea = prediction_errors(ctx.sim, ctx.models, specs, ctx.settings, "speedup")
        for report in ea.reports.values():
            assert set(report.per_key) == {s.name for s in specs}

    def test_low_memory_harder_than_high(self, ctx):
        """The Fig. 6/7 headline shape: the low memory domains are harder
        to predict than the high ones."""
        ea = prediction_errors(
            ctx.sim, ctx.models, suite_benchmarks(), ctx.settings, "speedup"
        )
        high = min(ea.reports["H"].rmse_pct, ea.reports["h"].rmse_pct)
        low = max(ea.reports["l"].rmse_pct, ea.reports["L"].rmse_pct)
        assert low > high

    def test_invalid_objective_rejected(self, ctx):
        with pytest.raises(ValueError):
            prediction_errors(ctx.sim, ctx.models, [], ctx.settings, "latency")

    @pytest.mark.parametrize("objective", ["speedup", "energy"])
    def test_errors_score_each_model_on_the_kernel_block(self, ctx, objective):
        """Each benchmark's errors come from its own 40-row block through
        the scaled design matrix, bit for bit."""
        from repro.features.vector import build_batch_design_matrix

        spec = get_benchmark("MT")
        ea = prediction_errors(ctx.sim, ctx.models, [spec], ctx.settings, objective)
        model = (
            ctx.models.speedup_model if objective == "speedup"
            else ctx.models.energy_model
        )
        x = ctx.models.scaler.transform(
            build_batch_design_matrix([spec.static_features()], ctx.settings)
        )
        measured = measure_configs(ctx.sim, spec, ctx.settings)
        expected = {}
        for config, pred in zip(ctx.settings, model.predict(x)):
            point = measured[config]
            truth = point.speedup if objective == "speedup" else point.norm_energy
            label = ctx.device.domain(config[1]).label
            expected.setdefault(label, []).append(100.0 * (pred - truth) / truth)
        assert {
            label: report.rmse_pct for label, report in ea.reports.items()
        } == {
            label: float(np.sqrt(np.mean(np.asarray(errors) ** 2)))
            for label, errors in expected.items()
        }

    def test_energy_analysis_runs(self, ctx):
        ea = prediction_errors(
            ctx.sim, ctx.models, suite_benchmarks()[:2], ctx.settings, "energy"
        )
        assert ea.objective == "energy"
        assert all(np.isfinite(r.rmse_pct) for r in ea.reports.values())


class TestEvaluation:
    def test_single_benchmark_row(self, ctx):
        ev = evaluate_pareto_prediction(
            ctx.sim, ctx.predictor, get_benchmark("K-means"), ctx.settings
        )
        assert ev.coverage_diff >= 0.0
        assert ev.predicted_size >= 1
        assert ev.true_size >= 1
        row = ev.table_row()
        assert row[0] == "K-means"

    def test_true_front_is_nondominated(self, ctx):
        ev = evaluate_pareto_prediction(
            ctx.sim, ctx.predictor, get_benchmark("MT"), ctx.settings
        )
        objs = [p.objectives for p in ev.true_front]
        for i, a in enumerate(objs):
            for b in objs[i + 1 :]:
                assert not dominates(a, b) and not dominates(b, a)

    def test_suite_sorted_by_coverage(self, ctx):
        evals = evaluate_suite(
            ctx.sim, ctx.predictor, suite_benchmarks()[:5], ctx.settings
        )
        values = [e.coverage_diff for e in evals]
        assert values == sorted(values)

    def test_predicted_measured_match_configs(self, ctx):
        ev = evaluate_pareto_prediction(
            ctx.sim, ctx.predictor, get_benchmark("MD"), ctx.settings
        )
        assert len(ev.predicted_measured) == len(ev.predicted_set.configs)


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [("a", 1.0), ("bbbb", 2.25)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "bbbb" in lines[3]

    def test_format_table_empty(self):
        text = format_table(["x"], [])
        assert "x" in text

    def test_format_box_within_width(self):
        stats = BoxStats.from_values(np.array([-20.0, -5.0, 0.0, 5.0, 20.0]))
        box = format_box(stats, width=41)
        assert len(box) == 41
        assert "|" in box and "=" in box

    def test_format_box_clamps_outliers(self):
        stats = BoxStats.from_values(np.array([-500.0, 0.0, 500.0]))
        assert len(format_box(stats, width=21)) == 21

    def test_error_panel_contains_rmse(self):
        report = GroupedErrorReport.build("H", {"bench": np.array([1.0, -2.0, 3.0])})
        text = format_error_panel(report, "Memory Frequency: 3505 MHz")
        assert "RMSE" in text and "bench" in text

    def test_ascii_scatter_renders(self):
        text = ascii_scatter(
            {"measured": [(0.5, 1.0), (1.0, 0.8)], "predicted": [(1.0, 0.8)]},
            width=32,
            height=8,
        )
        assert "legend" in text
        assert "m" in text  # measured glyph

    def test_ascii_scatter_empty(self):
        assert ascii_scatter({}) == "(no points)"

    def test_heading(self):
        assert format_heading("Title") == "\nTitle\n====="


class TestNearZeroTruthExclusion:
    """Regression: near-zero measured truths (the paper's §4.2 erratic
    low-memory power states) must be excluded and counted, not divided
    by — one such point otherwise blows the panel RMSE to absurdity."""

    @pytest.fixture
    def fake_world(self, monkeypatch):
        from types import SimpleNamespace

        from repro.gpusim.device import resolve_device
        from repro.synthetic import generate_micro_benchmarks

        device = resolve_device("titan-x")
        spec = generate_micro_benchmarks()[0]
        settings = [(1000.0, 3505.0), (1100.0, 3505.0), (1200.0, 3505.0)]
        truths = {settings[0]: 1.05, settings[1]: 1e-9, settings[2]: 0.95}

        def fake_measure(_sim, _spec, configs):
            return {
                c: SimpleNamespace(speedup=truths[c], norm_energy=truths[c])
                for c in configs
            }

        monkeypatch.setattr(
            "repro.harness.errors.measure_configs", fake_measure
        )

        class FakeModels:
            feature_recipe = "paper10"

            def predict_objective_arrays(self, statics, configs):
                ones = np.ones((len(statics), len(configs)))
                return ones, ones

        return SimpleNamespace(device=device), FakeModels(), [spec], settings

    def test_near_zero_truth_excluded_and_counted(self, fake_world):
        sim, models, specs, settings = fake_world
        ea = prediction_errors(sim, models, specs, settings, "speedup")
        assert ea.excluded == 1
        report = ea.reports["H"]
        assert report.per_key[specs[0].name].n == 2
        assert report.rmse_pct < 100.0

    def test_min_truth_zero_keeps_every_point(self, fake_world):
        sim, models, specs, settings = fake_world
        ea = prediction_errors(
            sim, models, specs, settings, "speedup", min_truth=0.0
        )
        # Without the guard the 1e-9 truth point survives and its
        # relative error is ~1e11 % — the blow-up the default prevents.
        assert ea.excluded == 0
        assert ea.reports["H"].per_key[specs[0].name].n == 3
        assert ea.reports["H"].rmse_pct > 1e6

    def test_energy_objective_guarded_too(self, fake_world):
        sim, models, specs, settings = fake_world
        ea = prediction_errors(sim, models, specs, settings, "energy")
        assert ea.excluded == 1
