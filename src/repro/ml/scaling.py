"""The feature scaler of every model bundle.

The paper's features are already individually normalized (instruction shares
in [0,1], frequencies mapped to [0,1]), but the training pipeline still
standardizes the assembled matrix before fitting ("the features are
normalized and used to train the two models", Fig. 2 step 5).  A bundle
holds one :class:`StandardScaler`, shared by both models.

``to_state`` returns a JSON-safe dict tagged ``kind: standard_scaler``, and
``from_state`` rebuilds the scaler exactly (float64 values survive the JSON
round-trip bit for bit); a state of any other kind is a ``ValueError``.
"""

from __future__ import annotations

import numpy as np


def array_to_state(arr: np.ndarray | None) -> list | None:
    """None-safe ndarray → nested-list conversion for ``to_state`` dicts."""
    return None if arr is None else arr.tolist()


def array_from_state(data: list | None) -> np.ndarray | None:
    """Inverse of :func:`array_to_state` (float64, None passes through)."""
    return None if data is None else np.asarray(data, dtype=np.float64)


class StandardScaler:
    """Zero-mean, unit-variance column scaling with safe zero-variance handling."""

    def __init__(self) -> None:
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, x: np.ndarray) -> "StandardScaler":
        arr = np.asarray(x, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("expected a 2-D matrix")
        if arr.shape[0] == 0:
            raise ValueError("cannot fit on an empty matrix")
        self.mean_ = arr.mean(axis=0)
        std = arr.std(axis=0)
        # Constant columns carry no information; dividing by 1 leaves them 0.
        # The threshold is relative: a column of identical values can come
        # out with std ~1e-17 from float summation (e.g. a single-memory-
        # clock device's f_mem feature), and dividing by *that* turns any
        # out-of-distribution input into an ~1e16 feature — which is how a
        # cross-device transfer once produced 1e14% prediction error.
        constant = std <= 1e-12 * (np.abs(self.mean_) + 1.0)
        std[constant] = 1.0
        self.scale_ = std
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        if self.mean_ is None or self.scale_ is None:
            raise RuntimeError("scaler is not fitted")
        arr = np.asarray(x, dtype=np.float64)
        squeeze = arr.ndim == 1
        if squeeze:
            arr = arr[None, :]
        # (arr - mean) allocates the output; dividing it in place avoids a
        # second full-size temporary on the batched serving path.
        out = arr - self.mean_
        out /= self.scale_
        return out[0] if squeeze else out

    def to_state(self) -> dict:
        return {
            "kind": "standard_scaler",
            "mean": array_to_state(self.mean_),
            "scale": array_to_state(self.scale_),
        }

    @classmethod
    def from_state(cls, state: dict) -> "StandardScaler":
        if state["kind"] != "standard_scaler":
            raise ValueError(f"unknown scaler kind {state['kind']!r}")
        scaler = cls()
        scaler.mean_ = array_from_state(state["mean"])
        scaler.scale_ = array_from_state(state["scale"])
        return scaler
