"""Tests for the core pipeline: sampling, dataset, training, prediction."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.config import (
    exhaustive_settings,
    make_sampling_plans,
    mem_l_heuristic_config,
    prediction_candidates,
    sample_training_settings,
)
from repro.core.dataset import build_training_dataset
from repro.core.pipeline import train_models
from repro.core.predictor import ParetoPredictor, PredictedPoint
from repro.gpusim.device import make_tesla_p100, make_titan_x
from repro.gpusim.executor import GPUSimulator
from repro.harness.context import quick_context
from repro.measure import SimulatorBackend
from repro.pareto.algorithms import pareto_front_masks
from repro.pareto.dominance import dominates
from repro.suite import get_benchmark
from repro.suite import test_benchmarks as suite_benchmarks
from repro.synthetic import generate_micro_benchmarks


@pytest.fixture(scope="module")
def device():
    return make_titan_x()


@pytest.fixture(scope="module")
def ctx():
    return quick_context()


class TestSampling:
    def test_paper_sample_size(self, device):
        settings = sample_training_settings(device)
        assert len(settings) == 40

    def test_sample_includes_all_mem_l(self, device):
        settings = sample_training_settings(device)
        mem_l = [s for s in settings if s[1] == 405.0]
        assert len(mem_l) == 6

    def test_sample_covers_all_domains(self, device):
        settings = sample_training_settings(device)
        assert {s[1] for s in settings} == {405.0, 810.0, 3304.0, 3505.0}

    def test_samples_are_real_configs(self, device):
        real = set(device.real_configurations())
        for s in sample_training_settings(device):
            assert s in real

    def test_exhaustive_is_all_real(self, device):
        assert exhaustive_settings(device) == device.real_configurations()

    def test_sampling_plans_increase(self, device):
        plans = make_sampling_plans(device)
        sizes = [p.size for p in plans]
        assert sizes == sorted(sizes)
        assert plans[-1].name == "exhaustive"

    def test_too_small_budget_rejected(self, device):
        with pytest.raises(ValueError):
            sample_training_settings(device, total=2)


class TestPredictionCandidates:
    def test_excludes_mem_l_domain(self, device):
        candidates = prediction_candidates(device)
        assert all(mem != 405.0 for _, mem in candidates)

    def test_covers_three_domains(self, device):
        candidates = prediction_candidates(device)
        assert {mem for _, mem in candidates} == {810.0, 3304.0, 3505.0}

    def test_p100_single_domain_modeled(self):
        dev = make_tesla_p100()
        candidates = prediction_candidates(dev)
        assert candidates == dev.real_configurations()

    def test_heuristic_config_is_last_mem_l(self, device):
        cfg = mem_l_heuristic_config(device)
        assert cfg == (405.0, 405.0)

    def test_p100_has_no_heuristic(self):
        assert mem_l_heuristic_config(make_tesla_p100()) is None


class TestDataset:
    def test_measure_kernel_normalizes_to_baseline(self, device):
        sim = GPUSimulator(device)
        spec = get_benchmark("K-means")
        m = SimulatorBackend(sim=sim).measure(spec, [device.default_config])
        point = m.points[0]
        assert point.speedup == pytest.approx(1.0, abs=0.05)
        assert point.norm_energy == pytest.approx(1.0, abs=0.05)

    def test_dataset_shapes(self, device):
        sim = GPUSimulator(device)
        specs = generate_micro_benchmarks()[:5]
        settings = sample_training_settings(device, total=12)
        ds = build_training_dataset(sim, specs, settings)
        assert ds.x.shape == (5 * len(settings), 32)
        assert ds.y_speedup.shape == (ds.n_samples,)
        assert ds.n_kernels == 5

    def test_groups_align_with_rows(self, device):
        sim = GPUSimulator(device)
        specs = generate_micro_benchmarks()[:3]
        settings = sample_training_settings(device, total=12)
        ds = build_training_dataset(sim, specs, settings)
        assert len(ds.groups) == ds.n_samples
        assert ds.groups[0] == specs[0].name
        assert ds.groups[-1] == specs[-1].name

    def test_design_matrix_stacks_per_kernel_blocks(self, ctx):
        """The assembler builds the matrix once; it equals each kernel's
        own block, stacked in add order, bit for bit."""
        from repro.features.vector import build_batch_design_matrix

        ds = ctx.dataset
        blocks = [
            build_batch_design_matrix([static], ctx.settings)
            for static in ds.static_features.values()
        ]
        assert np.array_equal(ds.x, np.vstack(blocks))

    def test_assembler_refuses_mixed_recipe_widths(self, device):
        from repro.core.dataset import DatasetAssembler

        sim = GPUSimulator(device)
        specs = generate_micro_benchmarks()[:2]
        settings = sample_training_settings(device, total=12)
        backend = SimulatorBackend(sim=sim)
        assembler = DatasetAssembler(settings)
        for spec, recipe in zip(specs, ("paper10", "paper10+loops")):
            assembler.add(
                spec, spec.static_features(recipe), backend.measure(spec, settings)
            )
        with pytest.raises(ValueError, match="one feature recipe"):
            assembler.finish()

    def test_subset(self, ctx):
        ds = ctx.dataset
        mask = np.zeros(ds.n_samples, dtype=bool)
        mask[:10] = True
        sub = ds.subset(mask)
        assert sub.n_samples == 10

    def test_empty_inputs_rejected(self, device):
        sim = GPUSimulator(device)
        with pytest.raises(ValueError):
            build_training_dataset(sim, [], [(1001.0, 3505.0)])
        with pytest.raises(ValueError):
            build_training_dataset(sim, generate_micro_benchmarks()[:1], [])


class TestTrainedModels:
    def test_predictions_roughly_track_measurements(self, ctx):
        """Model sanity: averaged over held-out benchmarks, predicted
        speedup must correlate strongly with measured speedup (the quick
        context is deliberately under-trained, so the bar is moderate)."""
        corrs = []
        for spec in suite_benchmarks():
            objs = ctx.models.predict_objectives(spec.static_features(), ctx.settings)
            m = SimulatorBackend(sim=ctx.sim).measure(spec, ctx.settings)
            predicted = np.array([o[0] for o in objs])
            measured = np.array([p.speedup for p in m.points])
            corrs.append(np.corrcoef(predicted, measured)[0, 1])
        assert np.mean(corrs) > 0.75
        assert min(corrs) > 0.3

    def test_predict_objectives_is_one_kernel_of_the_batch_pass(self, ctx):
        from repro.features.vector import build_batch_design_matrix

        static = get_benchmark("MT").static_features()
        pairs = ctx.models.predict_objectives(static, ctx.settings)
        speedups, energies = ctx.models.predict_objective_arrays(
            [static], ctx.settings
        )
        assert pairs == list(zip(speedups[0].tolist(), energies[0].tolist()))
        # Each model on the scaled one-kernel matrix gives the same values
        # bit for bit.
        x = ctx.models.scaler.transform(
            build_batch_design_matrix([static], ctx.settings)
        )
        assert [s for s, _ in pairs] == ctx.models.speedup_model.predict(x).tolist()
        assert [e for _, e in pairs] == ctx.models.energy_model.predict(x).tolist()

    def test_energy_predictions_positive(self, ctx):
        spec = get_benchmark("MT")
        objs = ctx.models.predict_objectives(spec.static_features(), ctx.settings)
        assert all(e > 0 for _, e in objs)

    def test_custom_energy_factory(self, ctx):
        from repro.ml.kernels import RBFKernel
        from repro.ml.svr import SVR

        models = train_models(
            ctx.dataset,
            make_energy=lambda: SVR(kernel=RBFKernel(gamma=0.1), C=3.0),
            settings=ctx.settings,
        )
        assert models.energy_model.C == 3.0
        assert models.speedup_model.to_state() == ctx.models.speedup_model.to_state()


class TestParetoPredictor:
    def test_predicted_front_nonempty(self, ctx):
        for spec in suite_benchmarks()[:4]:
            result = ctx.predictor.predict_for_spec(spec)
            assert result.size >= 2, spec.name

    def test_front_is_mutually_nondominated_in_modeled_points(self, ctx):
        result = ctx.predictor.predict_for_spec(get_benchmark("K-means"))
        modeled = result.modeled_front()
        for i, a in enumerate(modeled):
            for b in modeled[i + 1 :]:
                assert not dominates(a.objectives, b.objectives)
                assert not dominates(b.objectives, a.objectives)

    def test_mem_l_heuristic_point_present(self, ctx):
        result = ctx.predictor.predict_for_spec(get_benchmark("MD"))
        heuristic = result.heuristic_points()
        assert len(heuristic) == 1
        assert heuristic[0].config == (405.0, 405.0)

    def test_heuristic_can_be_disabled(self, ctx):
        predictor = ParetoPredictor(
            ctx.models, ctx.device, use_mem_l_heuristic=False,
            candidates=ctx.predictor.candidates,
        )
        result = predictor.predict_for_spec(get_benchmark("MD"))
        assert not result.heuristic_points()
        assert all(mem != 405.0 for _, mem in result.configs)

    def test_predict_from_source(self, ctx):
        src = """
        __kernel void axpy(__global const float* x, __global float* y, const float a) {
            int gid = get_global_id(0);
            y[gid] = a * x[gid] + y[gid];
        }
        """
        result = ctx.predictor.predict_from_source(src)
        assert result.kernel == "axpy"
        assert result.size >= 1

    def test_single_kernel_entry_points_are_batches_of_one(self, ctx):
        spec = get_benchmark("K-means")
        [batched] = ctx.predictor.predict_batch([spec.static_features()])
        for result in (
            ctx.predictor.predict_for_spec(spec),
            ctx.predictor.predict_from_source(spec.source, spec.kernel_name),
        ):
            assert result.front == batched.front
            assert result.all_points == batched.all_points

    def test_all_points_cover_candidates(self, ctx):
        result = ctx.predictor.predict_for_spec(get_benchmark("AES"))
        assert len(result.all_points) == len(ctx.predictor.candidates)

    def test_front_configs_are_candidates_or_heuristic(self, ctx):
        result = ctx.predictor.predict_for_spec(get_benchmark("Convolution"))
        allowed = set(ctx.predictor.candidates) | {(405.0, 405.0)}
        assert set(result.configs) <= allowed


def reference_front(candidates, heuristic, speedups, energies, mask):
    """One kernel's front the per-kernel way: its modeled points in
    candidate order, the heuristic point appended unless its configuration
    is on the front, then a stable sort by (speedup, energy)."""
    front = [
        PredictedPoint(*candidates[i], speedups[i], energies[i])
        for i in np.flatnonzero(mask).tolist()
    ]
    if heuristic is not None and heuristic not in {p.config for p in front}:
        corner = (min(p.speedup for p in front), min(p.norm_energy for p in front))
        front.append(PredictedPoint(*heuristic, *corner, modeled=False))
    return sorted(front, key=lambda p: (p.speedup, p.norm_energy))


class TestBatchedFronts:
    """predict_batch builds every kernel's front in one pass over the batch;
    each must be the per-kernel construction's, point for point."""

    @pytest.mark.parametrize("heuristic_on", [True, False])
    @pytest.mark.parametrize("levels", [None, 2, 8])
    def test_matches_the_per_kernel_fronts(self, ctx, heuristic_on, levels):
        # The heuristic configuration is a candidate twice over, so the
        # fronts that hold it get no extra point; coarse objective levels
        # make ties in speedup, in energy and in both.
        heuristic = mem_l_heuristic_config(ctx.device)
        candidates = list(prediction_candidates(ctx.device))
        candidates[3:3] = [heuristic]
        candidates.append(heuristic)
        rng = np.random.default_rng(levels or 0)
        shape = (24, len(candidates))
        speedups, energies = rng.random(shape), rng.random(shape)
        if levels:
            speedups = np.round(speedups * levels) / levels
            energies = np.round(energies * levels) / levels
        # Every third kernel's best point is the heuristic configuration.
        speedups[::3, 3], energies[::3, 3] = 2.0, -1.0
        models = SimpleNamespace(
            feature_recipe=ctx.models.feature_recipe,
            predict_objective_arrays=lambda statics, cands: (speedups, energies),
        )
        predictor = ParetoPredictor(
            models, ctx.device, use_mem_l_heuristic=heuristic_on, candidates=candidates
        )
        statics = [SimpleNamespace(kernel_name=f"k{i}") for i in range(shape[0])]
        masks = pareto_front_masks(speedups, energies)
        results = predictor.predict_batch(statics)
        assert [r.kernel for r in results] == [s.kernel_name for s in statics]
        for i, result in enumerate(results):
            expected = reference_front(
                candidates,
                heuristic if heuristic_on else None,
                speedups[i].tolist(),
                energies[i].tolist(),
                masks[i],
            )
            assert result.front == expected
            assert [p.modeled for p in result.front] == [p.modeled for p in expected]
        holds = masks[:, [3, len(candidates) - 1]].any(axis=1)
        assert holds[::3].all() and not holds.all()
