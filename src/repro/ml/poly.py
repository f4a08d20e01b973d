"""Polynomial regression (paper §3.4's alternative energy model).

The paper tested "polynomial regression and SVR for normalized energy
modeling" before selecting RBF-SVR.  This implementation expands features
to a total-degree polynomial basis and fits ridge-regularized least squares
on the expansion (plain OLS on a degree-2 expansion of 12 features is
rank-deficient without regularization).  It is fit/predict-only: the
model-ablation bench fits it, and no model bundle holds one.
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


class PolynomialRegression:
    """Ridge-regularized regression on a polynomial basis."""

    def __init__(self, degree: int = 2, alpha: float = 1e-6) -> None:
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.degree = degree
        self.alpha = alpha
        self._ridge = RidgeRegression(alpha=alpha)
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
