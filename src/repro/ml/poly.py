"""Polynomial regression (paper §3.4's alternative energy model).

The paper tested "polynomial regression and SVR for normalized energy
modeling" before selecting RBF-SVR.  This implementation expands features
to a total-degree polynomial basis and fits ridge-regularized least squares
on the expansion (plain OLS on a degree-2 expansion of 12 features is
rank-deficient without regularization).
"""

from __future__ import annotations

from itertools import combinations_with_replacement

import numpy as np

from .linear import RidgeRegression


def polynomial_expand(x: np.ndarray, degree: int) -> np.ndarray:
    """Total-degree polynomial basis without the constant term.

    For input columns ``x1..xd`` and ``degree=2`` the expansion is
    ``x1..xd`` plus every product ``xi·xj`` with ``i ≤ j``.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    arr = np.asarray(x, dtype=np.float64)
    squeeze = arr.ndim == 1
    if squeeze:
        arr = arr[None, :]
    n, d = arr.shape
    columns: list[np.ndarray] = []
    for deg in range(1, degree + 1):
        for combo in combinations_with_replacement(range(d), deg):
            col = np.ones(n)
            for idx in combo:
                col = col * arr[:, idx]
            columns.append(col)
    out = np.column_stack(columns)
    return out[0] if squeeze else out


def n_polynomial_terms(n_features: int, degree: int) -> int:
    """Number of columns :func:`polynomial_expand` produces."""
    total = 0
    for deg in range(1, degree + 1):
        # combinations with replacement: C(d + deg - 1, deg)
        num = 1
        for i in range(deg):
            num = num * (n_features + i) // (i + 1)
        total += num
    return total


class PolynomialRegression:
    """Ridge-regularized regression on a polynomial basis."""

    def __init__(self, degree: int = 2, alpha: float = 1e-6) -> None:
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.degree = degree
        self.alpha = alpha
        self._ridge = RidgeRegression(alpha=alpha, fit_intercept=True)
        self.n_features_: int | None = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "PolynomialRegression":
        arr = np.asarray(x, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("x must be 2-D")
        self.n_features_ = arr.shape[1]
        self._ridge.fit(polynomial_expand(arr, self.degree), y)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self.n_features_ is None:
            raise RuntimeError("model is not fitted")
        arr = np.asarray(x, dtype=np.float64)
        squeeze = arr.ndim == 1
        if squeeze:
            arr = arr[None, :]
        if arr.shape[1] != self.n_features_:
            raise ValueError(
                f"expected {self.n_features_} features, got {arr.shape[1]}"
            )
        out = self._ridge.predict(polynomial_expand(arr, self.degree))
        return out[0] if squeeze else out

    def to_state(self) -> dict:
        return {
            "kind": "poly_regression",
            "degree": self.degree,
            "alpha": self.alpha,
            "n_features": self.n_features_,
            "ridge": self._ridge.to_state(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "PolynomialRegression":
        model = cls(degree=state["degree"], alpha=state["alpha"])
        n_features = state["n_features"]
        model.n_features_ = None if n_features is None else int(n_features)
        model._ridge = RidgeRegression.from_state(state["ridge"])
        return model
