"""Batched inference: a batch of N kernels against N batches of one."""

import pathlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features import extract_features
from repro.harness.context import quick_context
from repro.pareto.algorithms import (
    pareto_front_masks,
    pareto_set_numpy,
    pareto_set_simple,
)
from repro.suite import test_benchmarks as suite_benchmarks
from tests.pareto.oracle_pareto import pareto_set_brute
from repro.synthetic import MixRecipe, generate_micro_benchmarks, render_mix

#: Batched model predictions may differ from a batch of one by BLAS sum
#: reassociation (shape-dependent blocking) — a few ulp, nothing more.
ULP_TOL = 1e-12

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples" / "kernels"

_MIX_CLASSES = (
    "int_add", "int_mul", "int_div", "int_bw", "float_add",
    "float_mul", "float_div", "sf", "gl_access", "loc_access",
)


def _corpus_statics():
    """Suite, micro-benchmarks, example kernels and 40 seeded mix kernels."""
    specs = suite_benchmarks() + generate_micro_benchmarks()
    statics = [spec.static_features() for spec in specs]
    statics += [
        extract_features(path.read_text()) for path in sorted(EXAMPLES.glob("*.cl"))
    ]
    rng = random.Random(13)
    for i in range(40):
        ops = {
            c: rng.randint(1, 40)
            for c in rng.sample(_MIX_CLASSES, rng.randint(2, 4))
        }
        statics.append(
            extract_features(render_mix(MixRecipe(name=f"mix-{i}", ops=ops)))
        )
    return statics


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
        sequential = [predictor.predict_batch([s])[0] for s in statics]
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
        batched = ctx.predictor.predict_batch(statics)[0]
        assert [p.config for p in points] == [p.config for p in batched.all_points]
        for single_point, batched_point in zip(points, batched.all_points):
            assert single_point.speedup == pytest.approx(
                batched_point.speedup, abs=ULP_TOL
            )

    def test_corpus_fronts_match_batches_of_one(self, ctx):
        statics = _corpus_statics()
        assert len(statics) == 12 + 106 + 3 + 40
        batched = ctx.predictor.predict_batch(statics)
        for static, result in zip(statics, batched):
            [single] = ctx.predictor.predict_batch([static])
            assert result.kernel == single.kernel == static.kernel_name
            assert [(p.config, p.modeled) for p in result.front] == [
                (p.config, p.modeled) for p in single.front
            ], static.kernel_name

    def test_empty_batch(self, ctx):
        assert ctx.predictor.predict_batch([]) == []

    def test_batch_preserves_order(self, ctx, statics):
        shuffled = list(reversed(statics))
        results = ctx.predictor.predict_batch(shuffled)
        assert [r.kernel for r in results] == [s.kernel_name for s in shuffled]
