"""Pareto dominance for the paper's bi-objective problem (§3.4).

Objectives: **maximize speedup**, **minimize normalized energy**.  A point
is a pair ``(speedup, energy)``; the paper's dominance definition is

    w_i ≺ w_j  (w_i dominates w_j)  iff
        (s_i ≥ s_j and e_i < e_j)  or  (s_i > s_j and e_i ≤ e_j)

i.e. strictly better in at least one objective, not worse in the other.
"""

from __future__ import annotations


def dominates(a: tuple[float, float], b: tuple[float, float]) -> bool:
    """True iff ``a ≺ b`` under the paper's definition (a dominates b)."""
    sa, ea = a
    sb, eb = b
    return (sa >= sb and ea < eb) or (sa > sb and ea <= eb)


def weakly_dominates(a: tuple[float, float], b: tuple[float, float]) -> bool:
    """True iff ``a`` is at least as good as ``b`` in both objectives."""
    sa, ea = a
    sb, eb = b
    return sa >= sb and ea <= eb


def incomparable(a: tuple[float, float], b: tuple[float, float]) -> bool:
    """Neither dominates the other (and they are not equal)."""
    return not dominates(a, b) and not dominates(b, a) and a != b


def is_pareto_optimal(
    candidate: tuple[float, float], points: list[tuple[float, float]]
) -> bool:
    """No point in ``points`` dominates ``candidate``."""
    return not any(dominates(p, candidate) for p in points)
