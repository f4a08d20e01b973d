"""Pareto-set extraction algorithms.

One production extractor and the paper's algorithm as its test oracle:

* :func:`pareto_set_numpy` — the O(n²) dominance test as one broadcasted
  numpy expression, used everywhere a front is computed;
  :func:`pareto_front_masks` is its whole-batch form, used by the batched
  serving path;
* :func:`pareto_set_simple` — the paper's Algorithm 1 verbatim (pop a
  candidate, compare against the rest, classify), the oracle the
  production extractor is property-tested against (the tests also keep
  an O(n²) brute-force oracle, ``tests/pareto/oracle_pareto.py``).

Both return *indices* into the input list, sorted ascending, so callers
can map back to configurations.  Duplicate points are kept (all copies are
on the front if one is), matching Algorithm 1's behaviour.
"""

from __future__ import annotations

import numpy as np

from .dominance import dominates


def pareto_set_simple(points: list[tuple[float, float]]) -> list[int]:
    """The paper's Algorithm 1 ("Simple Pareto set calculation").

    Works on a pool of unresolved indices: repeatedly pop a candidate,
    compare it against the remaining pool, discard whichever side is
    dominated, and keep the candidate when it survives the pass.
    """
    pool = list(range(len(points)))
    front: list[int] = []
    while pool:
        candidate = pool.pop(0)
        candidate_dominated = False
        survivors: list[int] = []
        for other in pool:
            if dominates(points[other], points[candidate]):
                candidate_dominated = True
                survivors.append(other)
            elif dominates(points[candidate], points[other]):
                # `other` is dominated: drop it from the pool entirely.
                continue
            else:
                survivors.append(other)
        pool = survivors
        if not candidate_dominated:
            front.append(candidate)
    front.sort()
    # Algorithm 1 removes dominated points from the pool before they are
    # ever popped, so equal duplicates of a front point also survive: keep
    # every index whose point equals a front point.
    front_points = {points[i] for i in front}
    return [i for i, p in enumerate(points) if p in front_points and _on_front(p, points)]


def _on_front(p: tuple[float, float], points: list[tuple[float, float]]) -> bool:
    return not any(dominates(q, p) for q in points)


def pareto_set_numpy(points) -> list[int]:
    """Vectorized dominance test, identical output to Algorithm 1.

    ``points`` may be a list of ``(speedup, energy)`` pairs or an ``(n, 2)``
    array.  A point survives iff no other point dominates it under the
    paper's definition (maximize speedup, minimize energy), which is exactly
    the set :func:`pareto_set_simple` returns — including duplicates.
    """
    arr = np.asarray(points, dtype=np.float64)
    if arr.size == 0:
        return []
    arr = arr.reshape(-1, 2)
    mask = pareto_front_masks(arr[None, :, 0], arr[None, :, 1])[0]
    return np.flatnonzero(mask).tolist()


def pareto_front_masks(speedups: np.ndarray, energies: np.ndarray) -> np.ndarray:
    """Per-row Pareto membership for a whole batch in one broadcast.

    ``speedups`` and ``energies`` are ``(n_kernels, n_points)`` arrays; the
    result is a boolean array of the same shape where ``mask[k, i]`` is
    True iff point ``i`` is on kernel ``k``'s front — row ``k`` equals
    ``pareto_set_numpy`` of that kernel's points.  Used by the batched
    serving path: one 3-D dominance tensor replaces n_kernels Python-level
    front extractions.
    """
    s = np.asarray(speedups, dtype=np.float64)
    e = np.asarray(energies, dtype=np.float64)
    if s.ndim != 2 or s.shape != e.shape:
        raise ValueError("expected matching (n_kernels, n_points) arrays")
    sj, si = s[:, :, None], s[:, None, :]
    ej, ei = e[:, :, None], e[:, None, :]
    # dom = (sj >= si & ej < ei) | (sj > si & ej <= ei), built in place to
    # keep the (n, m, m) boolean temporaries to two allocations.
    dom = sj >= si
    dom &= ej < ei
    strict = sj > si
    strict &= ej <= ei
    dom |= strict
    out = dom.any(axis=1)
    np.logical_not(out, out=out)
    return out


def pareto_points(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Convenience: the unique front points, sorted by ascending speedup."""
    idx = pareto_set_numpy(points)
    unique = sorted({points[i] for i in idx})
    return unique
