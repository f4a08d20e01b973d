"""The two kernels of the paper's SVRs (§3.4).

* linear — ``K(w_i, w_j) = w_i · w_j`` — for the speedup model (speedup is
  ~linear in core frequency at fixed code and memory clock);
* RBF — ``K(w_i, w_j) = exp(-γ ||w_i − w_j||²)`` with γ = 0.1 — for the
  normalized-energy model (parabolic behaviour in core frequency).

:class:`LinearKernel` only tags a model: an SVR with it is solved and
evaluated in the primal (:mod:`repro.ml.svr`), so it computes nothing and
persists as ``{"kind": "linear"}``.  :class:`RBFKernel` is the dual path's
kernel and persists as ``{"kind": "rbf", "gamma": γ}``.  Its functions are
vectorized: inputs are ``(n, d)`` and ``(m, d)`` matrices, output is the
``(n, m)`` Gram matrix.  A right-hand side used many times (the training
matrix while an SVR fits) is prepared once as a :class:`GramOperand` and
evaluated against with :meth:`RBFKernel.gram`; calling the kernel
prepares its ``b`` on the spot.

A fitted SVR predicts through :meth:`RBFKernel.expansion`, which prepares
its support vectors and β once and evaluates a block of rows as one
augmented GEMM (:class:`RBFExpansion`).  Fits always use the Gram rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _as_2d(x: np.ndarray) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ValueError(f"expected 1-D or 2-D input, got shape {arr.shape}")
    return arr


def _sq_norms(x2d: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", x2d, x2d)


@dataclass(frozen=True, eq=False)
class GramOperand:
    """The right-hand side of Gram matrices, prepared once: its ``(m, d)``
    rows and their squared norms (the RBF distance expansion's ``||b||²``).
    Build one with :func:`prepare`."""

    rows: np.ndarray
    sq_norms: np.ndarray


def prepare(b: np.ndarray) -> GramOperand:
    """``b`` as a :class:`GramOperand`: made 2-D, its row norms computed."""
    rows = _as_2d(b)
    return GramOperand(rows, _sq_norms(rows))


@dataclass(frozen=True, eq=False)
class RBFExpansion:
    """``Σ_j β_j exp(−γ‖x − s_j‖²)`` as one augmented GEMM per block.

    ``operand`` holds ``[2γ·s, −γ, −γ‖s‖²]`` per support vector, so a
    block's rows ``[x, ‖x‖², 1]`` times its transpose is ``−γ‖x − s‖²``
    in one BLAS call; a clamp, an in-place ``exp`` and a product with β
    finish the block.  It agrees with ``gram(x, support) @ β`` to about
    3e-14 relative (summation order) on the paper-scale energy models.
    """

    operand: np.ndarray
    beta: np.ndarray

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x2d = _as_2d(x)
        n, d = x2d.shape
        rows = np.empty((n, d + 2))
        rows[:, :d] = x2d
        rows[:, d] = _sq_norms(x2d)
        rows[:, d + 1] = 1.0
        gram = rows @ self.operand.T
        # −γ‖x − s‖² ≤ 0, though rounding can push it past 0.
        np.minimum(gram, 0.0, out=gram)
        np.exp(gram, out=gram)
        return gram @ self.beta


@dataclass(frozen=True)
class LinearKernel:
    """``K(a, b) = a · b`` (paper's speedup model kernel), solved in the
    primal: the kernel is only the model's tag."""

    def to_state(self) -> dict:
        return {"kind": "linear"}


@dataclass(frozen=True)
class RBFKernel:
    """``K(a, b) = exp(-γ ||a − b||²)`` (paper's energy model kernel, γ=0.1)."""

    gamma: float = 0.1

    def __post_init__(self) -> None:
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.gram(a, prepare(b))

    def gram(self, a: np.ndarray, b: GramOperand) -> np.ndarray:
        a2d = _as_2d(a)
        # ||a-b||^2 = ||a||^2 + ||b||^2 - 2 a·b, computed without n*m*d
        # blowup; ||b||^2 comes prepared.  The updates run in place (same
        # operands, same order, so bit-identical results) to avoid five
        # (n, m) temporaries.
        out = _sq_norms(a2d)[:, None] + b.sq_norms[None, :]
        cross = a2d @ b.rows.T
        cross *= 2.0
        out -= cross
        np.maximum(out, 0.0, out=out)
        out *= -self.gamma
        np.exp(out, out=out)
        return out

    def diag(self, x: np.ndarray) -> np.ndarray:
        return np.ones(_as_2d(x).shape[0])

    def expansion(self, support: np.ndarray, beta: np.ndarray) -> RBFExpansion:
        rows = _as_2d(support)
        operand = np.empty((rows.shape[0], rows.shape[1] + 2))
        operand[:, :-2] = 2.0 * self.gamma * rows
        operand[:, -2] = -self.gamma
        operand[:, -1] = -self.gamma * _sq_norms(rows)
        return RBFExpansion(operand, beta)

    def to_state(self) -> dict:
        return {"kind": "rbf", "gamma": self.gamma}
