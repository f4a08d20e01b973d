"""Batched inference: equivalence with the sequential per-kernel path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.context import quick_context
from repro.pareto.algorithms import (
    pareto_front_masks,
    pareto_set_brute,
    pareto_set_numpy,
    pareto_set_simple,
)
from repro.suite import test_benchmarks as suite_benchmarks

#: Batched model predictions may differ from the per-kernel path by BLAS
#: sum reassociation (shape-dependent blocking) — a few ulp, nothing more.
ULP_TOL = 1e-12


@pytest.fixture(scope="module")
def ctx():
    return quick_context()


@pytest.fixture(scope="module")
def statics(ctx):
    return [spec.static_features() for spec in ctx.micro_benchmarks[:12]]


point_lists = st.lists(
    st.tuples(
        st.floats(-5, 5, allow_nan=False).map(lambda v: round(v, 2)),
        st.floats(-5, 5, allow_nan=False).map(lambda v: round(v, 2)),
    ),
    max_size=40,
)


class TestVectorizedPareto:
    @settings(max_examples=200, deadline=None)
    @given(points=point_lists)
    def test_numpy_matches_algorithm_one(self, points):
        assert pareto_set_numpy(points) == pareto_set_simple(points)

    @settings(max_examples=200, deadline=None)
    @given(points=point_lists)
    def test_numpy_matches_brute(self, points):
        assert pareto_set_numpy(points) == pareto_set_brute(points)

    def test_empty(self):
        assert pareto_set_numpy([]) == []

    @settings(max_examples=100, deadline=None)
    @given(points=st.lists(point_lists.filter(bool), min_size=1, max_size=5))
    def test_masks_match_per_kernel(self, points):
        width = min(len(p) for p in points)
        rows = [p[:width] for p in points]
        speedups = np.asarray([[s for s, _ in row] for row in rows])
        energies = np.asarray([[e for _, e in row] for row in rows])
        masks = pareto_front_masks(speedups, energies)
        for row, mask in zip(rows, masks):
            assert np.flatnonzero(mask).tolist() == pareto_set_simple(row)

    def test_masks_shape_validation(self):
        with pytest.raises(ValueError):
            pareto_front_masks(np.zeros(3), np.zeros(3))


class TestObjectiveBatching:
    def test_arrays_shape(self, ctx, statics):
        configs = ctx.predictor.candidates
        speedups, energies = ctx.models.predict_objective_arrays(statics, configs)
        assert speedups.shape == energies.shape == (len(statics), len(configs))


class TestPredictorBatch:
    def test_batch_matches_sequential(self, ctx, statics):
        predictor = ctx.predictor
        sequential = [predictor.predict_from_features(s) for s in statics]
        batched = predictor.predict_batch(statics)
        assert len(batched) == len(sequential)
        for seq, bat in zip(sequential, batched):
            assert bat.kernel == seq.kernel
            # Identical front membership, same order.
            assert [p.config for p in bat.front] == [p.config for p in seq.front]
            assert [p.modeled for p in bat.front] == [p.modeled for p in seq.front]
            for bp, sp in zip(bat.front, seq.front):
                assert bp.speedup == pytest.approx(sp.speedup, abs=ULP_TOL)
                assert bp.norm_energy == pytest.approx(sp.norm_energy, abs=ULP_TOL)

    def test_batch_on_suite_benchmarks(self, ctx):
        specs = suite_benchmarks()
        statics = [spec.static_features() for spec in specs]
        batched = ctx.predictor.predict_batch(statics)
        for spec, result in zip(specs, batched):
            single = ctx.predictor.predict_for_spec(spec)
            assert result.kernel == spec.name
            assert [p.config for p in result.front] == [
                p.config for p in single.front
            ]

    def test_all_points_materialize_lazily(self, ctx, statics):
        result = ctx.predictor.predict_batch(statics[:1])[0]
        points = result.all_points
        assert len(points) == len(ctx.predictor.candidates)
        assert result.all_points is points  # materialized once
        single = ctx.predictor.predict_from_features(statics[0])
        assert [p.config for p in points] == [p.config for p in single.all_points]

    def test_empty_batch(self, ctx):
        assert ctx.predictor.predict_batch([]) == []

    def test_batch_preserves_order(self, ctx, statics):
        shuffled = list(reversed(statics))
        results = ctx.predictor.predict_batch(shuffled)
        assert [r.kernel for r in results] == [s.kernel_name for s in shuffled]
