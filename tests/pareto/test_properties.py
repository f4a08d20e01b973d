"""Property-based tests (hypothesis) for the multi-objective machinery."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pareto.algorithms import (
    pareto_points,
    pareto_set_brute,
    pareto_set_numpy,
    pareto_set_simple,
)
from repro.pareto.dominance import dominates
from repro.pareto.hypervolume import coverage_difference, hypervolume

objective = st.tuples(
    st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
)
point_sets = st.lists(objective, min_size=0, max_size=24)


@given(a=objective, b=objective)
def test_dominance_is_asymmetric(a, b):
    assert not (dominates(a, b) and dominates(b, a))


@given(a=objective)
def test_dominance_is_irreflexive(a):
    assert not dominates(a, a)


@given(a=objective, b=objective, c=objective)
def test_dominance_is_transitive(a, b, c):
    if dominates(a, b) and dominates(b, c):
        assert dominates(a, c)


@given(points=point_sets)
@settings(max_examples=200)
def test_all_three_algorithms_agree(points):
    expected = pareto_set_brute(points)
    assert pareto_set_simple(points) == expected
    assert pareto_set_numpy(points) == expected


@given(points=point_sets)
def test_front_members_are_mutually_incomparable(points):
    front = [points[i] for i in pareto_set_numpy(points)]
    for i, a in enumerate(front):
        for b in front[i + 1 :]:
            assert not dominates(a, b)
            assert not dominates(b, a)


@given(points=st.lists(objective, min_size=1, max_size=24))
def test_every_point_dominated_by_or_on_front(points):
    front = {points[i] for i in pareto_set_numpy(points)}
    for p in points:
        assert p in front or any(dominates(f, p) for f in front)


@given(points=point_sets, extra=objective)
def test_hypervolume_monotone_under_addition(points, extra):
    assert hypervolume(points + [extra]) >= hypervolume(points) - 1e-12


@given(points=point_sets)
def test_hypervolume_non_negative_and_bounded(points):
    hv = hypervolume(points)
    assert 0.0 <= hv <= 2.0 * 2.0 + 1e-9


@given(points=point_sets)
def test_hypervolume_depends_only_on_front(points):
    front = pareto_points(points)
    assert abs(hypervolume(points) - hypervolume(front)) < 1e-9


@given(truth=point_sets, pred=point_sets)
def test_coverage_difference_non_negative(truth, pred):
    assert coverage_difference(truth, pred) >= -1e-12


@given(points=point_sets)
def test_coverage_of_self_is_zero(points):
    assert abs(coverage_difference(points, points)) < 1e-12


@given(truth=point_sets, pred=point_sets, extra=objective)
def test_coverage_shrinks_as_prediction_grows(truth, pred, extra):
    assert (
        coverage_difference(truth, pred + [extra])
        <= coverage_difference(truth, pred) + 1e-12
    )
