"""Ablation — regression-model choice (paper §3.4).

The paper "tested different kinds of regression models including OLS,
LASSO and SVR for speedup modeling, and polynomial regression and SVR for
normalized energy modeling" and kept SVR for both.  This bench regenerates
that comparison on the simulated substrate: grouped-by-kernel CV RMSE on
the training set plus held-out test RMSE on the twelve benchmarks.

Shape target: the paper's chosen models (linear-SVR speedup, RBF-SVR
energy) must be at or near the top of each ranking.

It also records the evidence behind the energy model's declared ``C``
(:func:`repro.ml.svr.make_energy_svr`): for each C in ``ENERGY_C_SWEEP``
at γ = 0.1, ε = 0.1, the grouped-CV RMSE, the held-out Fig. 7 RMSE per
memory panel and Table 2's mean coverage difference D, and whether every
fit reached the solver's KKT tolerance within the sweep's own round cap
(``ENERGY_C_SWEEP_MAX_ITER``).
"""

import os

import numpy as np
from _common import write_artifact

from repro.core.config import modeled_subset
from repro.core.pipeline import train_models
from repro.core.predictor import ParetoPredictor
from repro.harness.context import paper_context
from repro.harness.errors import prediction_errors
from repro.harness.evaluation import evaluate_suite
from repro.harness.report import format_heading, format_table
from repro.ml.kernels import RBFKernel
from repro.ml.linear import LassoRegression, OLSRegression
from repro.ml.metrics import rmse
from repro.ml.model_select import cross_validate, grid_search
from repro.ml.poly import PolynomialRegression
from repro.ml.svr import SVR, make_energy_svr, make_speedup_svr
from repro.suite import test_benchmarks as held_out_benchmarks

SPEEDUP_CANDIDATES = {
    "SVR-linear (paper)": make_speedup_svr,
    "OLS": OLSRegression,
    "LASSO (a=1e-4)": lambda: LassoRegression(alpha=1e-4),
    "SVR-RBF (g=0.1)": lambda: SVR(kernel=RBFKernel(gamma=0.1), C=1000.0, epsilon=0.1),
}

ENERGY_CANDIDATES = {
    "SVR-RBF (paper)": make_energy_svr,
    "polynomial deg-2": lambda: PolynomialRegression(degree=2, alpha=1e-4),
    "OLS": OLSRegression,
    "SVR-linear": make_speedup_svr,
}


#: Energy-model C values swept at γ = 0.1, ε = 0.1: the declared C = 1
#: and its neighbours on a rough log scale.
ENERGY_C_SWEEP = (0.3, 1.0, 3.0, 10.0)
#: The sweep's own round cap, so each C is compared at convergence: C = 10
#: needs 77,602 rounds on the paper-scale Titan X set, past the default
#: ``SVR.max_iter``.  The shipped energy model keeps the default.
ENERGY_C_SWEEP_MAX_ITER = 100_000
PANELS = ("H", "h", "l", "L")


def _recording(factory, fitted: list):
    """``factory`` that also keeps every model it makes, to read the
    solver's convergence record after cross-validation fits them."""

    def make():
        model = factory()
        fitted.append(model)
        return model

    return make


def _converged(fitted: list) -> bool | None:
    """Whether every fitted dual SVR met its tolerance (None: no dual SVR)."""
    flags = [m.converged_ for m in fitted if getattr(m, "beta_", None) is not None]
    return all(flags) if flags else None


def energy_c_sweep(ctx) -> dict:
    """Grouped CV, held-out Fig. 7 RMSE and Table 2 D for each swept C."""
    xs = ctx.models.scaler.transform(ctx.dataset.x)
    specs = held_out_benchmarks()
    candidates = modeled_subset(ctx.device, ctx.settings)
    out = {}
    for c_box in ENERGY_C_SWEEP:
        fitted: list = []
        make = _recording(
            lambda c_box=c_box: SVR(
                kernel=RBFKernel(gamma=0.1),
                C=c_box,
                epsilon=0.1,
                max_iter=ENERGY_C_SWEEP_MAX_ITER,
            ),
            fitted,
        )
        cv = cross_validate(
            make, xs, ctx.dataset.y_energy, n_splits=4, groups=ctx.dataset.groups
        )
        models = train_models(ctx.dataset, make_energy=make, settings=ctx.settings)
        fig7 = prediction_errors(ctx.sim, models, specs, ctx.settings, objective="energy")
        panels = {label: fig7.reports[label].rmse_pct for label in PANELS}
        evals = evaluate_suite(
            ctx.sim, ParetoPredictor(models, ctx.device, candidates=candidates),
            specs, ctx.settings,
        )
        energy = models.energy_model
        out[f"{c_box:g}"] = {
            "cv_rmse": cv.mean_score,
            "cv_std": cv.std_score,
            "fig7_energy_rmse_pct": panels,
            "fig7_energy_rmse_mean_pct": sum(panels.values()) / len(panels),
            "table2_mean_d": sum(e.coverage_diff for e in evals) / len(evals),
            "n_support": energy.n_support_,
            "iterations": energy.iterations_,
            "converged": _converged(fitted),
        }
    return out


def regenerate_model_ablation() -> tuple[str, dict]:
    ctx = paper_context()
    xs = ctx.models.scaler.transform(ctx.dataset.x)
    groups = ctx.dataset.groups

    sections = [format_heading("Ablation — regression model choice (§3.4)")]
    data: dict = {"quick": bool(os.environ.get("REPRO_QUICK"))}
    for key, objective, y, candidates in (
        ("speedup", "speedup", ctx.dataset.y_speedup, SPEEDUP_CANDIDATES),
        ("energy", "normalized energy", ctx.dataset.y_energy, ENERGY_CANDIDATES),
    ):
        fitted = {name: [] for name in candidates}
        recorded = {name: _recording(f, fitted[name]) for name, f in candidates.items()}
        results = grid_search(recorded, xs, y, n_splits=4, groups=groups)
        rows = [
            (r.label, f"{r.mean_score:.4f}", f"{r.std_score:.4f}") for r in results
        ]
        sections.append(f"\n{objective} — grouped 4-fold CV (RMSE, lower is better):")
        sections.append(format_table(["model", "cv rmse", "std"], rows))
        data[f"{key}_cv"] = {
            r.label: {
                "cv_rmse": r.mean_score,
                "cv_std": r.std_score,
                "converged": _converged(fitted[r.label]),
            }
            for r in results
        }

    sweep = energy_c_sweep(ctx)
    data["energy_c_sweep"] = {
        "gamma": 0.1,
        "epsilon": 0.1,
        "max_iter": ENERGY_C_SWEEP_MAX_ITER,
        "by_C": sweep,
    }
    sections.append(
        "\nenergy SVR-RBF (γ=0.1, ε=0.1) by C — grouped CV, held-out Fig. 7, Table 2:"
    )
    sections.append(
        format_table(
            ["C", "cv rmse", "fig7 H/h/l/L (%)", "mean", "D", "rounds", "converged"],
            [
                (
                    c_box,
                    f"{r['cv_rmse']:.4f}",
                    " / ".join(f"{r['fig7_energy_rmse_pct'][p]:.1f}" for p in PANELS),
                    f"{r['fig7_energy_rmse_mean_pct']:.2f}",
                    f"{r['table2_mean_d']:.4f}",
                    str(r["iterations"]),
                    str(r["converged"]),
                )
                for c_box, r in sweep.items()
            ],
        )
    )
    return "\n".join(sections), data


def test_model_ablation(benchmark):
    text, data = benchmark.pedantic(regenerate_model_ablation, rounds=1, iterations=1)
    write_artifact("ablation_models", text, data=data)
    assert "SVR-RBF (paper)" in text
    assert data["energy_cv"]["SVR-RBF (paper)"]["converged"] is True
    assert set(data["energy_c_sweep"]["by_C"]) == {f"{c:g}" for c in ENERGY_C_SWEEP}
    # Every C is compared at convergence, within the sweep's own cap.
    assert all(r["converged"] for r in data["energy_c_sweep"]["by_C"].values())


def test_rbf_svr_best_for_energy():
    """§3.4's selection: a non-linear model wins for normalized energy."""
    ctx = paper_context()
    xs = ctx.models.scaler.transform(ctx.dataset.x)
    results = grid_search(
        ENERGY_CANDIDATES, xs, ctx.dataset.y_energy, n_splits=4,
        groups=ctx.dataset.groups,
    )
    ranking = [r.label for r in results]
    # The paper's RBF-SVR must beat the purely linear alternatives.
    assert ranking.index("SVR-RBF (paper)") < ranking.index("OLS")
    assert ranking.index("SVR-RBF (paper)") < ranking.index("SVR-linear")


def test_linear_family_adequate_for_speedup():
    """§3.4: speedup is ~linear in the clocks, so the linear-kernel SVR
    must be competitive with (within 20% of) the best candidate."""
    ctx = paper_context()
    xs = ctx.models.scaler.transform(ctx.dataset.x)
    results = grid_search(
        SPEEDUP_CANDIDATES, xs, ctx.dataset.y_speedup, n_splits=4,
        groups=ctx.dataset.groups,
    )
    by_label = {r.label: r.mean_score for r in results}
    best = min(by_label.values())
    assert by_label["SVR-linear (paper)"] <= best * 1.2


def test_train_fit_quality_floor():
    """Both paper models must fit their training data decently in
    absolute terms (the ε=0.1 tube bounds what 'decent' can mean)."""
    ctx = paper_context()
    xs = ctx.models.scaler.transform(ctx.dataset.x)
    speed_rmse = rmse(ctx.dataset.y_speedup, ctx.models.speedup_model.predict(xs))
    energy_rmse = rmse(ctx.dataset.y_energy, ctx.models.energy_model.predict(xs))
    assert speed_rmse < 0.15
    assert energy_rmse < 0.25
    assert np.isfinite(speed_rmse) and np.isfinite(energy_rmse)
