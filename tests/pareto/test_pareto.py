"""Tests for dominance, Pareto algorithms, hypervolume and extrema."""

import pytest

from repro.pareto.algorithms import (
    pareto_points,
    pareto_set_brute,
    pareto_set_numpy,
    pareto_set_simple,
)
from repro.pareto.dominance import (
    dominates,
    incomparable,
    is_pareto_optimal,
    weakly_dominates,
)
from repro.pareto.extrema import extrema_distance, extreme_points
from repro.pareto.front import ConfigFront, ConfigPoint
from repro.pareto.hypervolume import (
    PAPER_REFERENCE_POINT,
    coverage_difference,
    hypervolume,
    relative_coverage,
)

# Objectives: (speedup, energy) — maximize speedup, minimize energy.


class TestDominance:
    def test_strictly_better_both(self):
        assert dominates((1.0, 0.5), (0.5, 1.0))

    def test_better_speedup_equal_energy(self):
        assert dominates((1.0, 1.0), (0.5, 1.0))

    def test_equal_speedup_better_energy(self):
        assert dominates((1.0, 0.5), (1.0, 1.0))

    def test_equal_points_do_not_dominate(self):
        assert not dominates((1.0, 1.0), (1.0, 1.0))

    def test_tradeoff_is_incomparable(self):
        assert incomparable((1.0, 1.0), (0.5, 0.5))

    def test_antisymmetry(self):
        a, b = (1.0, 0.5), (0.5, 1.0)
        assert dominates(a, b) and not dominates(b, a)

    def test_weak_dominance_includes_equal(self):
        assert weakly_dominates((1.0, 1.0), (1.0, 1.0))

    def test_is_pareto_optimal(self):
        pts = [(1.0, 1.0), (2.0, 0.5)]
        assert is_pareto_optimal((2.0, 0.5), pts)
        assert not is_pareto_optimal((1.0, 1.0), pts)


FIXTURES = [
    [],
    [(1.0, 1.0)],
    [(1.0, 1.0), (2.0, 0.5)],
    [(1.0, 1.0), (2.0, 0.5), (0.5, 2.0)],
    [(1.0, 1.0), (1.0, 1.0)],  # duplicates on the front
    [(0.2, 1.8), (0.4, 1.4), (0.6, 1.1), (0.8, 0.9), (1.0, 1.0), (1.2, 1.3)],
    [(1.0, 0.5), (1.0, 0.7), (0.9, 0.5)],  # shared extremes
]


class TestAlgorithmsAgree:
    @pytest.mark.parametrize("points", FIXTURES)
    def test_simple_matches_brute(self, points):
        assert pareto_set_simple(points) == pareto_set_brute(points)

    @pytest.mark.parametrize("points", FIXTURES)
    def test_numpy_matches_brute(self, points):
        assert pareto_set_numpy(points) == pareto_set_brute(points)

    def test_known_front(self):
        pts = [(1.0, 1.0), (2.0, 0.5), (0.5, 2.0), (1.5, 0.8)]
        # (2.0, 0.5) dominates every other point (faster and cheaper).
        assert pareto_set_brute(pts) == [1]

    def test_staircase_front(self):
        # Ascending speedup with ascending energy = a true trade-off chain;
        # (1.5, 2.5) is dominated by (2.0, 2.0).
        pts = [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (1.5, 2.5)]
        assert pareto_set_brute(pts) == [0, 1, 2]

    def test_pareto_points_sorted_unique(self):
        pts = [(3.0, 3.0), (1.0, 1.0), (2.0, 2.0), (2.0, 2.0)]
        front = pareto_points(pts)
        assert front == [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]


class TestHypervolume:
    def test_single_point_rectangle(self):
        # Point (1, 1) vs reference (0, 2): area = 1 * (2-1) = 1.
        assert hypervolume([(1.0, 1.0)]) == pytest.approx(1.0)

    def test_two_point_staircase(self):
        # (1, 1) adds 1x1; (0.5, 0.5) adds 0.5x0.5 above it.
        hv = hypervolume([(1.0, 1.0), (0.5, 0.5)])
        assert hv == pytest.approx(1.0 + 0.25)

    def test_dominated_point_adds_nothing(self):
        base = hypervolume([(1.0, 1.0)])
        assert hypervolume([(1.0, 1.0), (0.5, 1.5)]) == pytest.approx(base)

    def test_out_of_region_point_contributes_zero(self):
        assert hypervolume([(1.0, 2.5)]) == 0.0
        assert hypervolume([(-0.5, 1.0)]) == 0.0

    def test_empty_set(self):
        assert hypervolume([]) == 0.0

    def test_custom_reference(self):
        hv = hypervolume([(2.0, 1.0)], reference=(0.0, 3.0))
        assert hv == pytest.approx(4.0)

    def test_monotone_in_added_points(self):
        pts = [(1.0, 1.0)]
        bigger = pts + [(1.2, 0.9)]
        assert hypervolume(bigger) >= hypervolume(pts)


class TestCoverageDifference:
    def test_identical_sets_zero(self):
        pts = [(1.0, 1.0), (0.5, 0.8)]
        assert coverage_difference(pts, pts) == pytest.approx(0.0)

    def test_prediction_superset_zero(self):
        truth = [(1.0, 1.0)]
        pred = [(1.0, 1.0), (1.2, 0.9)]
        assert coverage_difference(truth, pred) == pytest.approx(0.0)

    def test_missing_extreme_costs_area(self):
        truth = [(1.0, 1.0), (2.0, 1.5)]
        pred = [(1.0, 1.0)]
        d = coverage_difference(truth, pred)
        assert d == pytest.approx((2.0 - 1.0) * (2.0 - 1.5))

    def test_non_negative(self):
        truth = [(1.0, 0.8), (1.2, 1.1)]
        pred = [(0.9, 1.0), (1.1, 0.9)]
        assert coverage_difference(truth, pred) >= 0.0

    def test_relative_coverage_bounds(self):
        truth = [(1.0, 1.0)]
        assert relative_coverage(truth, truth) == pytest.approx(1.0)
        assert relative_coverage(truth, []) == pytest.approx(0.0)

    def test_paper_reference_point(self):
        assert PAPER_REFERENCE_POINT == (0.0, 2.0)


class TestExtrema:
    def test_extraction(self):
        pts = [(1.0, 1.0), (2.0, 1.5), (0.5, 0.4)]
        ext = extreme_points(pts)
        assert ext.max_speedup == (2.0, 1.5)
        assert ext.min_energy == (0.5, 0.4)

    def test_tie_broken_by_other_objective(self):
        pts = [(2.0, 1.5), (2.0, 1.0)]
        assert extreme_points(pts).max_speedup == (2.0, 1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            extreme_points([])

    def test_exact_prediction_distance_zero(self):
        pts = [(1.0, 1.0), (2.0, 1.5), (0.5, 0.4)]
        d = extrema_distance(pts, pts)
        assert d.max_speedup_exact and d.min_energy_exact

    def test_distance_pairs(self):
        truth = [(2.0, 1.5), (0.5, 0.4)]
        pred = [(1.8, 1.4), (0.6, 0.5)]
        d = extrema_distance(truth, pred)
        assert d.max_speedup_delta == pytest.approx((0.2, 0.1))
        assert d.min_energy_delta == pytest.approx((0.1, 0.1))

    def test_snapping_tolerance(self):
        truth = [(1.0, 1.0)]
        pred = [(1.0 + 1e-15, 1.0)]
        assert extrema_distance(truth, pred).max_speedup_exact


class TestConfigFront:
    def make_front(self):
        front = ConfigFront()
        front.add(ConfigPoint(1001.0, 3505.0, 1.0, 1.0))
        front.add(ConfigPoint(800.0, 3505.0, 0.8, 0.85))
        front.add(ConfigPoint(1202.0, 3505.0, 1.2, 1.1))
        front.add(ConfigPoint(513.0, 810.0, 0.5, 1.4))  # dominated
        return front

    def test_front_excludes_dominated(self):
        front = self.make_front().pareto_front()
        configs = [p.config for p in front]
        assert (513.0, 810.0) not in configs
        assert len(front) == 3

    def test_front_sorted_by_speedup(self):
        front = self.make_front().pareto_front()
        speeds = [p.speedup for p in front]
        assert speeds == sorted(speeds)

    def test_dominant_over_default(self):
        front = self.make_front()
        default = ConfigPoint(1001.0, 3505.0, 1.0, 1.0)
        better = ConfigPoint(1100.0, 3505.0, 1.1, 0.95)
        front.add(better)
        winners = front.dominant_over_default(default)
        assert better in winners

    def test_len(self):
        assert len(self.make_front()) == 4
