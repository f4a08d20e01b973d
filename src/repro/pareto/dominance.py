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

