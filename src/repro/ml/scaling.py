"""Feature scalers.

The paper's features are already individually normalized (instruction shares
in [0,1], frequencies mapped to [0,1]), but the training pipeline still
standardizes the assembled matrix before fitting ("the features are
normalized and used to train the two models", Fig. 2 step 5).  Both scalers
follow the fit/transform convention.

Every scaler also implements the ``to_state``/``from_state`` persistence
protocol used by :mod:`repro.store.envelope`: ``to_state`` returns a plain
JSON-safe dict tagged with a ``kind`` discriminator, and
``from_state(state)`` reconstructs an equivalent instance exactly (float64
values survive the JSON round-trip bit-for-bit).
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

    def fit_transform(self, x: np.ndarray) -> np.ndarray:
        return self.fit(x).transform(x)

    def inverse_transform(self, x: np.ndarray) -> np.ndarray:
        if self.mean_ is None or self.scale_ is None:
            raise RuntimeError("scaler is not fitted")
        arr = np.asarray(x, dtype=np.float64)
        squeeze = arr.ndim == 1
        if squeeze:
            arr = arr[None, :]
        out = arr * self.scale_ + self.mean_
        return out[0] if squeeze else out

    def to_state(self) -> dict:
        return {
            "kind": "standard_scaler",
            "mean": array_to_state(self.mean_),
            "scale": array_to_state(self.scale_),
        }

    @classmethod
    def from_state(cls, state: dict) -> "StandardScaler":
        scaler = cls()
        scaler.mean_ = array_from_state(state["mean"])
        scaler.scale_ = array_from_state(state["scale"])
        return scaler


class MinMaxScaler:
    """Columns linearly mapped to [0, 1] (paper's frequency-feature mapping)."""

    def __init__(self) -> None:
        self.min_: np.ndarray | None = None
        self.range_: np.ndarray | None = None

    def fit(self, x: np.ndarray) -> "MinMaxScaler":
        arr = np.asarray(x, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("expected a 2-D matrix")
        if arr.shape[0] == 0:
            raise ValueError("cannot fit on an empty matrix")
        self.min_ = arr.min(axis=0)
        rng = arr.max(axis=0) - self.min_
        rng[rng == 0.0] = 1.0
        self.range_ = rng
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        if self.min_ is None or self.range_ is None:
            raise RuntimeError("scaler is not fitted")
        arr = np.asarray(x, dtype=np.float64)
        squeeze = arr.ndim == 1
        if squeeze:
            arr = arr[None, :]
        out = (arr - self.min_) / self.range_
        return out[0] if squeeze else out

    def fit_transform(self, x: np.ndarray) -> np.ndarray:
        return self.fit(x).transform(x)

    def inverse_transform(self, x: np.ndarray) -> np.ndarray:
        if self.min_ is None or self.range_ is None:
            raise RuntimeError("scaler is not fitted")
        arr = np.asarray(x, dtype=np.float64)
        squeeze = arr.ndim == 1
        if squeeze:
            arr = arr[None, :]
        out = arr * self.range_ + self.min_
        return out[0] if squeeze else out

    def to_state(self) -> dict:
        return {
            "kind": "minmax_scaler",
            "min": array_to_state(self.min_),
            "range": array_to_state(self.range_),
        }

    @classmethod
    def from_state(cls, state: dict) -> "MinMaxScaler":
        scaler = cls()
        scaler.min_ = array_from_state(state["min"])
        scaler.range_ = array_from_state(state["range"])
        return scaler


class IdentityScaler:
    """No-op scaler for ablations that bypass standardization."""

    def fit(self, x: np.ndarray) -> "IdentityScaler":
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64)

    def fit_transform(self, x: np.ndarray) -> np.ndarray:
        return self.transform(x)

    def inverse_transform(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64)

    def to_state(self) -> dict:
        return {"kind": "identity_scaler"}

    @classmethod
    def from_state(cls, state: dict) -> "IdentityScaler":
        return cls()


#: Discriminator → class, used by :func:`scaler_from_state`.
SCALER_KINDS: dict[str, type] = {
    "standard_scaler": StandardScaler,
    "minmax_scaler": MinMaxScaler,
    "identity_scaler": IdentityScaler,
}


def scaler_from_state(state: dict):
    """Reconstruct any scaler from its ``to_state`` dict."""
    try:
        cls = SCALER_KINDS[state["kind"]]
    except KeyError:
        raise ValueError(f"unknown scaler kind {state.get('kind')!r}") from None
    return cls.from_state(state)
