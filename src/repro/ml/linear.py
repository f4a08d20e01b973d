"""Linear regression family: OLS, ridge and LASSO.

The paper evaluated OLS and LASSO (along with SVR) for the speedup model
(§3.4) before settling on linear-kernel SVR.  These implementations are
kept for the model-selection ablation bench and as reference baselines for
testing the SVR solver (on clean linear data all of them must agree).
Each fits with an intercept and is fit/predict-only: no model bundle holds
one, so none persists.
"""

from __future__ import annotations

import numpy as np


def _validated(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64).ravel()
    if xa.ndim != 2:
        raise ValueError("x must be 2-D")
    if xa.shape[0] != ya.shape[0]:
        raise ValueError(f"{xa.shape[0]} rows of x vs {ya.shape[0]} targets")
    if xa.shape[0] == 0:
        raise ValueError("empty training set")
    return xa, ya


class OLSRegression:
    """Ordinary least squares via numpy's lstsq (rank-safe)."""

    def __init__(self) -> None:
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0

    def fit(self, x: np.ndarray, y: np.ndarray) -> "OLSRegression":
        xa, ya = _validated(x, y)
        design = np.hstack([xa, np.ones((xa.shape[0], 1))])
        solution, *_ = np.linalg.lstsq(design, ya, rcond=None)
        self.coef_ = solution[:-1]
        self.intercept_ = float(solution[-1])
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self.coef_ is None:
            raise RuntimeError("model is not fitted")
        xa = np.asarray(x, dtype=np.float64)
        squeeze = xa.ndim == 1
        if squeeze:
            xa = xa[None, :]
        out = xa @ self.coef_ + self.intercept_
        return out[0] if squeeze else out


class RidgeRegression:
    """L2-regularized least squares, closed form."""

    def __init__(self, alpha: float = 1.0) -> None:
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.alpha = alpha
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0

    def fit(self, x: np.ndarray, y: np.ndarray) -> "RidgeRegression":
        xa, ya = _validated(x, y)
        x_mean = xa.mean(axis=0)
        y_mean = float(ya.mean())
        xc = xa - x_mean
        yc = ya - y_mean
        d = xa.shape[1]
        gram = xc.T @ xc + self.alpha * np.eye(d)
        self.coef_ = np.linalg.solve(gram, xc.T @ yc)
        self.intercept_ = y_mean - float(x_mean @ self.coef_)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self.coef_ is None:
            raise RuntimeError("model is not fitted")
        xa = np.asarray(x, dtype=np.float64)
        squeeze = xa.ndim == 1
        if squeeze:
            xa = xa[None, :]
        out = xa @ self.coef_ + self.intercept_
        return out[0] if squeeze else out


class LassoRegression:
    """L1-regularized least squares via cyclic coordinate descent.

    Minimizes ``(1/2n)·||y − Xw − b||² + alpha·||w||₁`` — the standard
    LASSO objective.  Coordinate updates are the usual soft-threshold form;
    columns are pre-normalized internally for stable steps.
    """

    def __init__(
        self,
        alpha: float = 0.001,
        max_iter: int = 2000,
        tol: float = 1e-7,
    ) -> None:
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        if max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        self.alpha = alpha
        self.max_iter = max_iter
        self.tol = tol
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0
        self.n_iter_: int = 0

    @staticmethod
    def _soft_threshold(value: float, threshold: float) -> float:
        if value > threshold:
            return value - threshold
        if value < -threshold:
            return value + threshold
        return 0.0

    def fit(self, x: np.ndarray, y: np.ndarray) -> "LassoRegression":
        xa, ya = _validated(x, y)
        n, d = xa.shape
        x_mean = xa.mean(axis=0)
        y_mean = float(ya.mean())
        xc = xa - x_mean
        yc = ya - y_mean

        col_sq = np.einsum("ij,ij->j", xc, xc) / n
        w = np.zeros(d)
        residual = yc.copy()  # y − Xw
        threshold = self.alpha

        for iteration in range(self.max_iter):
            max_delta = 0.0
            for j in range(d):
                if col_sq[j] == 0.0:
                    continue
                w_old = w[j]
                # rho = (1/n) x_j · (residual + x_j w_j)
                rho = (xc[:, j] @ residual) / n + col_sq[j] * w_old
                w_new = self._soft_threshold(rho, threshold) / col_sq[j]
                if w_new != w_old:
                    residual -= xc[:, j] * (w_new - w_old)
                    w[j] = w_new
                    max_delta = max(max_delta, abs(w_new - w_old))
            if max_delta < self.tol:
                self.n_iter_ = iteration + 1
                break
        else:
            self.n_iter_ = self.max_iter

        self.coef_ = w
        self.intercept_ = y_mean - float(x_mean @ w)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self.coef_ is None:
            raise RuntimeError("model is not fitted")
        xa = np.asarray(x, dtype=np.float64)
        squeeze = xa.ndim == 1
        if squeeze:
            xa = xa[None, :]
        out = xa @ self.coef_ + self.intercept_
        return out[0] if squeeze else out
