"""Hypervolume indicator and the binary coverage-difference metric (Table 2).

For our objectives (maximize speedup ``s``, minimize normalized energy
``e``) a point ``(s, e)`` dominates the axis-aligned rectangle between
itself and the reference point ``(s_ref, e_ref)`` with ``s_ref ≤ s`` and
``e_ref ≥ e``.  The paper uses reference point ``(0.0, 2.0)`` (§4.5).

``HV(A)`` is the area of the union of those rectangles.  The paper's
coverage difference (Zitzler's binary hypervolume metric) is::

    D(P*, P') = HV(P* + P') − HV(P')

— the area covered by the true front but missed by the prediction; 0 means
the prediction covers everything the truth covers.
"""

from __future__ import annotations

from .algorithms import pareto_points

#: The paper's reference point: zero speedup, twice the baseline energy.
PAPER_REFERENCE_POINT: tuple[float, float] = (0.0, 2.0)


def hypervolume(
    points: list[tuple[float, float]],
    reference: tuple[float, float] = PAPER_REFERENCE_POINT,
) -> float:
    """Area dominated by ``points`` w.r.t. ``reference``.

    Points that do not dominate the reference point (speedup ≤ s_ref or
    energy ≥ e_ref) contribute nothing.  Dominated members contribute
    nothing extra, so the value depends only on the Pareto front of the set.
    """
    s_ref, e_ref = reference
    # Clip to the contributing region and reduce to the front.
    contributing = [(s, e) for s, e in points if s > s_ref and e < e_ref]
    if not contributing:
        return 0.0
    front = pareto_points(contributing)  # ascending speedup, descending energy
    return _staircase_area(front, s_ref, e_ref)


def _staircase_area(
    front: list[tuple[float, float]], s_ref: float, e_ref: float
) -> float:
    """Exact union area of the dominated rectangles of a clean front."""
    # front is ascending in speedup and strictly descending in energy.
    area = 0.0
    prev_e = e_ref
    for s, e in sorted(front, key=lambda p: -p[0]):
        # Rectangle from s_ref..s wide, from prev_e..e tall (new area only).
        area += (s - s_ref) * (prev_e - e)
        prev_e = e
    return area


def coverage_difference(
    true_front: list[tuple[float, float]],
    predicted: list[tuple[float, float]],
    reference: tuple[float, float] = PAPER_REFERENCE_POINT,
) -> float:
    """``D(P*, P') = HV(P* ∪ P') − HV(P')`` (Table 2, column 2).

    Non-negative; 0 iff the predicted set covers everything the true front
    covers.
    """
    combined = list(true_front) + list(predicted)
    return hypervolume(combined, reference) - hypervolume(predicted, reference)

