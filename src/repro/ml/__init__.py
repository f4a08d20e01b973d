"""From-scratch ML substrate: SVR, linear models, kernels, metrics, CV.

A model bundle is one :class:`StandardScaler` and two :class:`SVR` models,
the paper's linear-kernel speedup model and RBF energy model (§3.4).  Only
those two classes persist (``to_state``/``from_state``), each checking its
own ``kind`` tag.  OLS, ridge, LASSO, polynomial regression and
:class:`RandomFourierSVR` are fit/predict-only ablation models.
"""

from .kernels import LinearKernel, RBFKernel
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
from .poly import PolynomialRegression, polynomial_expand
from .scaling import StandardScaler
from .streaming import RandomFourierSVR
from .svr import SVR, make_energy_svr, make_speedup_svr

__all__ = [
    "BoxStats",
    "CVResult",
    "GroupedErrorReport",
    "LassoRegression",
    "LinearKernel",
    "OLSRegression",
    "PolynomialRegression",
    "RBFKernel",
    "RandomFourierSVR",
    "Regressor",
    "RidgeRegression",
    "SVR",
    "StandardScaler",
    "cross_validate",
    "grid_search",
    "grouped_kfold_indices",
    "kfold_indices",
    "mae",
    "make_energy_svr",
    "make_speedup_svr",
    "mape",
    "polynomial_expand",
    "r2_score",
    "relative_error_pct",
    "rmse",
    "rmse_pct",
]
