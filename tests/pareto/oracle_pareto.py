"""The O(n²) brute-force Pareto extractor, kept as a test oracle.

``repro.pareto.algorithms`` shipped this reference beside the production
extractor (:func:`~repro.pareto.algorithms.pareto_set_numpy`) and the
paper's Algorithm 1 (:func:`~repro.pareto.algorithms.pareto_set_simple`).
Nothing in the package calls it, so it lives with the tests that check
both against it.
"""

from __future__ import annotations

from repro.pareto.dominance import dominates


def pareto_set_brute(points: list[tuple[float, float]]) -> list[int]:
    """O(n²) oracle: index i survives iff nothing dominates points[i]."""
    return [
        i
        for i, candidate in enumerate(points)
        if not any(dominates(other, candidate) for j, other in enumerate(points) if j != i)
    ]
