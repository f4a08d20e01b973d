"""Kernel functions for support vector regression (paper §3.4).

The paper uses two kernels:

* linear — ``K(w_i, w_j) = w_i · w_j`` — for the speedup model (speedup is
  ~linear in core frequency at fixed code and memory clock);
* RBF — ``K(w_i, w_j) = exp(-γ ||w_i − w_j||²)`` with γ = 0.1 — for the
  normalized-energy model (parabolic behaviour in core frequency).

A polynomial kernel is included for the model-selection ablation.
All functions are fully vectorized: inputs are ``(n, d)`` and ``(m, d)``
matrices, output is the ``(n, m)`` Gram matrix.  A right-hand side used
many times (an SVR's training matrix while it fits) is prepared once as a
:class:`GramOperand` and evaluated against with :meth:`Kernel.gram`;
calling a kernel prepares its ``b`` on the spot.

A fitted SVR predicts through :meth:`Kernel.expansion`, which prepares its
support vectors and β once.  The kernel owns how a block of rows is
evaluated: the RBF kernel as one augmented GEMM (:class:`RBFExpansion`),
the others through their :meth:`Kernel.gram` (:class:`GramExpansion`).
Fits always use the Gram rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np


class Kernel(Protocol):
    """A positive-semidefinite kernel producing Gram matrices."""

    name: str

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray: ...

    def gram(self, a: np.ndarray, b: "GramOperand") -> np.ndarray:
        """``K(a, b.rows)`` against an operand prepared once."""
        ...

    def diag(self, x: np.ndarray) -> np.ndarray:
        """``K(x_i, x_i)`` for every row: the Gram diagonal, without the Gram."""
        ...

    def expansion(
        self, support: np.ndarray, beta: np.ndarray
    ) -> Callable[[np.ndarray], np.ndarray]:
        """``x ↦ K(x, support) @ beta``, prepared once for many blocks."""
        ...

    def to_state(self) -> dict: ...


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
class GramExpansion:
    """``K(x, support) @ β`` through the kernel's float64 Gram rows."""

    kernel: Kernel
    support: GramOperand
    beta: np.ndarray

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.kernel.gram(x, self.support) @ self.beta


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
    """``K(a, b) = a · b`` (paper's speedup model kernel)."""

    name: str = "linear"

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return _as_2d(a) @ _as_2d(b).T

    def gram(self, a: np.ndarray, b: GramOperand) -> np.ndarray:
        return self(a, b.rows)

    def diag(self, x: np.ndarray) -> np.ndarray:
        return _sq_norms(_as_2d(x))

    def expansion(self, support: np.ndarray, beta: np.ndarray) -> GramExpansion:
        return GramExpansion(self, prepare(support), beta)

    def to_state(self) -> dict:
        return {"kind": "linear"}


@dataclass(frozen=True)
class RBFKernel:
    """``K(a, b) = exp(-γ ||a − b||²)`` (paper's energy model kernel, γ=0.1)."""

    gamma: float = 0.1
    name: str = "rbf"

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


@dataclass(frozen=True)
class PolynomialKernel:
    """``K(a, b) = (γ a·b + c)^d`` — used only in the model ablation."""

    degree: int = 2
    gamma: float = 1.0
    coef0: float = 1.0
    name: str = "poly"

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (self.gamma * (_as_2d(a) @ _as_2d(b).T) + self.coef0) ** self.degree

    def gram(self, a: np.ndarray, b: GramOperand) -> np.ndarray:
        return self(a, b.rows)

    def diag(self, x: np.ndarray) -> np.ndarray:
        return (self.gamma * _sq_norms(_as_2d(x)) + self.coef0) ** self.degree

    def expansion(self, support: np.ndarray, beta: np.ndarray) -> GramExpansion:
        return GramExpansion(self, prepare(support), beta)

    def to_state(self) -> dict:
        return {
            "kind": "poly",
            "degree": self.degree,
            "gamma": self.gamma,
            "coef0": self.coef0,
        }


def kernel_from_state(state: dict) -> Kernel:
    """Reconstruct a kernel from its ``to_state`` dict."""
    params = {k: v for k, v in state.items() if k != "kind"}
    return make_kernel(state["kind"], **params)


def make_kernel(name: str, **params: float) -> Kernel:
    """Factory: ``make_kernel('rbf', gamma=0.1)`` etc."""
    factories: dict[str, Callable[..., Kernel]] = {
        "linear": LinearKernel,
        "rbf": RBFKernel,
        "poly": PolynomialKernel,
    }
    try:
        factory = factories[name]
    except KeyError:
        raise ValueError(f"unknown kernel {name!r}; known: {sorted(factories)}") from None
    return factory(**params)
