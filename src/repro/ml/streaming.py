"""Random-Fourier-feature regression: an RBF approximation without a gram.

:class:`RandomFourierSVR` is kernel ridge on random Fourier features
(Rahimi & Recht), approximating the paper's RBF energy model without ever
materializing an n×n gram matrix.  The projection is drawn
deterministically from ``(seed, n_features)``.  It is fit/predict-only:
no model bundle holds one.
"""

from __future__ import annotations

import numpy as np

from .linear import RidgeRegression, _validated


class RandomFourierSVR:
    """RBF regression via random Fourier features + ridge.

    Approximates ``k(a, b) = exp(−γ‖a − b‖²)`` with the Rahimi–Recht map
    ``z(x) = √(2/D)·cos(xW + b)``, ``W ~ N(0, 2γ)``, ``b ~ U[0, 2π)``, then
    fits :class:`~repro.ml.linear.RidgeRegression` on ``z``.  The cost is
    O(rows·D) — no gram matrix, no support vectors.

    Determinism contract: ``W``/``b`` are drawn from ``default_rng(seed)``
    the first time the input dimension is seen; two instances with the
    same ``(seed, n_features)`` project identically.
    """

    def __init__(
        self,
        gamma: float = 0.1,
        n_components: int = 256,
        alpha: float = 1e-4,
        seed: int = 0,
    ) -> None:
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        if n_components < 1:
            raise ValueError("n_components must be >= 1")
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.gamma = float(gamma)
        self.n_components = int(n_components)
        self.alpha = float(alpha)
        self.seed = int(seed)
        self.n_features_: int | None = None
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0
        self._weights: np.ndarray | None = None
        self._offsets: np.ndarray | None = None

    def _projection(self) -> tuple[np.ndarray, np.ndarray]:
        if self.n_features_ is None:
            raise RuntimeError("input dimension not set")
        if self._weights is None:
            rng = np.random.default_rng(self.seed)
            # Draw order (W then b) is part of the determinism contract.
            self._weights = rng.standard_normal(
                (self.n_features_, self.n_components)
            ) * np.sqrt(2.0 * self.gamma)
            self._offsets = rng.uniform(0.0, 2.0 * np.pi, self.n_components)
        return self._weights, self._offsets

    def _features(self, x: np.ndarray) -> np.ndarray:
        weights, offsets = self._projection()
        z = x @ weights
        z += offsets
        np.cos(z, out=z)
        z *= np.sqrt(2.0 / self.n_components)
        return z

    def fit(self, x: np.ndarray, y: np.ndarray) -> "RandomFourierSVR":
        xa, ya = _validated(x, y)
        if self.n_features_ is None:
            self.n_features_ = int(xa.shape[1])
        elif xa.shape[1] != self.n_features_:
            raise ValueError(
                f"expected {self.n_features_} features, got {xa.shape[1]}"
            )
        ridge = RidgeRegression(alpha=self.alpha)
        ridge.fit(self._features(xa), ya)
        self.coef_, self.intercept_ = ridge.coef_, ridge.intercept_
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self.coef_ is None:
            raise RuntimeError("model is not fitted")
        xa = np.asarray(x, dtype=np.float64)
        squeeze = xa.ndim == 1
        if squeeze:
            xa = xa[None, :]
        out = self._features(xa) @ self.coef_ + self.intercept_
        return out[0] if squeeze else out
