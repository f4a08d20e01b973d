"""From-scratch ML substrate: SVR, linear models, kernels, metrics, CV.

Every regressor and scaler implements the ``to_state``/``from_state``
persistence protocol (JSON-safe dicts tagged with a ``kind`` field);
:func:`regressor_from_state` and :func:`repro.ml.scaling.scaler_from_state`
are the dispatchers that reconstruct instances from saved artifacts.
"""

from .kernels import (
    Kernel,
    LinearKernel,
    PolynomialKernel,
    RBFKernel,
    kernel_from_state,
    make_kernel,
)
from .linear import LassoRegression, OLSRegression, RidgeRegression
from .metrics import (
    BoxStats,
    GroupedErrorReport,
    mae,
    mape,
    r2_score,
    relative_error_pct,
    rmse,
    rmse_pct,
)
from .model_select import (
    CVResult,
    cross_validate,
    grid_search,
    grouped_kfold_indices,
    kfold_indices,
)
from .model_select import Regressor
from .poly import PolynomialRegression, n_polynomial_terms, polynomial_expand
from .scaling import IdentityScaler, MinMaxScaler, StandardScaler, scaler_from_state
from .streaming import RandomFourierSVR
from .svr import SVR, make_energy_svr, make_speedup_svr

#: Discriminator → regressor class, used by :func:`regressor_from_state`.
REGRESSOR_KINDS: dict[str, type] = {
    "svr": SVR,
    "ols": OLSRegression,
    "ridge": RidgeRegression,
    "lasso": LassoRegression,
    "poly_regression": PolynomialRegression,
    "rff_svr": RandomFourierSVR,
}


def regressor_from_state(state: dict) -> Regressor:
    """Reconstruct any :mod:`repro.ml` regressor from its ``to_state`` dict."""
    try:
        cls = REGRESSOR_KINDS[state["kind"]]
    except KeyError:
        raise ValueError(f"unknown regressor kind {state.get('kind')!r}") from None
    return cls.from_state(state)


__all__ = [
    "BoxStats",
    "CVResult",
    "GroupedErrorReport",
    "IdentityScaler",
    "Kernel",
    "LassoRegression",
    "LinearKernel",
    "MinMaxScaler",
    "OLSRegression",
    "PolynomialKernel",
    "PolynomialRegression",
    "RBFKernel",
    "REGRESSOR_KINDS",
    "RandomFourierSVR",
    "Regressor",
    "RidgeRegression",
    "SVR",
    "StandardScaler",
    "cross_validate",
    "grid_search",
    "grouped_kfold_indices",
    "kernel_from_state",
    "kfold_indices",
    "mae",
    "make_energy_svr",
    "make_kernel",
    "make_speedup_svr",
    "regressor_from_state",
    "scaler_from_state",
    "mape",
    "n_polynomial_terms",
    "polynomial_expand",
    "r2_score",
    "relative_error_pct",
    "rmse",
    "rmse_pct",
]
