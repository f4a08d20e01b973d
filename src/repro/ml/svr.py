"""ε-insensitive Support Vector Regression (paper §3.4, Eq. 1).

The model is ``f(w) = Σ_i (α_i − α_i*) K(w, w_i) + b`` trained by solving
the SVR dual.  We solve it with *dual coordinate descent* over the
difference variables ``β_i = α_i − α_i*``:

    min_β  ½ βᵀKβ − yᵀβ + ε‖β‖₁      s.t.  −C ≤ β_i ≤ C

The bias is handled by target centering (``b = mean(y)``), which removes
the equality constraint ``Σβ = 0`` from the dual; for the RBF and
standardized linear kernels used here the centered formulation is the
standard, well-conditioned choice.  Each coordinate has a closed-form
update (soft-threshold then box clip), so the solver is exact at
convergence, deterministic, and needs only numpy.

**Linear kernel special case** — the linear Gram matrix has rank ≤ d, and
dual CD zigzags across its flat valleys (pathologically slow convergence).
Since the linear model has an explicit finite-dimensional primal, we solve
that directly instead: ``min ½‖w‖² + C·Σ L_ε(y − Xw − b)`` with a Huber-
smoothed ε-insensitive loss and L-BFGS (the LIBLINEAR-style formulation).
The two paths expose the same fit/predict API.

Hyper-parameters follow the paper: ``C = 1000``, ``ε = 0.1`` and, for the
energy model, an RBF kernel with ``γ = 0.1``.
"""

from __future__ import annotations

import numpy as np

from .kernels import Kernel, LinearKernel, RBFKernel, kernel_from_state
from .scaling import array_from_state, array_to_state


class SVR:
    """Kernel SVR trained by dual coordinate descent.

    Parameters
    ----------
    kernel:
        Any :class:`~repro.ml.kernels.Kernel`; defaults to linear.
    C:
        Box constraint on the dual variables (paper: 1000).
    epsilon:
        Width of the insensitive tube (paper: 0.1).
    max_epochs, tol:
        CD stopping: run until the largest primal-scale coordinate change
        in an epoch falls below ``tol``, or ``max_epochs`` is reached.
    shuffle_seed:
        Seed for the coordinate visit order (deterministic by default).
    """

    def __init__(
        self,
        kernel: Kernel | None = None,
        C: float = 1000.0,
        epsilon: float = 0.1,
        max_epochs: int = 120,
        tol: float = 1e-4,
        shuffle_seed: int = 0,
    ) -> None:
        if C <= 0:
            raise ValueError("C must be positive")
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        self.kernel = kernel or LinearKernel()
        self.C = C
        self.epsilon = epsilon
        self.max_epochs = max_epochs
        self.tol = tol
        self.shuffle_seed = shuffle_seed

        self.beta_: np.ndarray | None = None
        self.coef_: np.ndarray | None = None  # primal path (linear kernel)
        self._sv_mask: np.ndarray | None = None
        self.bias_: float = 0.0
        self.x_train_: np.ndarray | None = None
        self.y_centered_: np.ndarray | None = None
        self.n_epochs_: int = 0

    # -- training ---------------------------------------------------------------

    def fit(self, x: np.ndarray, y: np.ndarray) -> "SVR":
        xa = np.asarray(x, dtype=np.float64)
        ya = np.asarray(y, dtype=np.float64).ravel()
        if xa.ndim != 2:
            raise ValueError("x must be 2-D")
        if xa.shape[0] != ya.shape[0]:
            raise ValueError("x and y disagree on the sample count")
        n = xa.shape[0]
        if n == 0:
            raise ValueError("empty training set")

        if isinstance(self.kernel, LinearKernel):
            return self._fit_linear_primal(xa, ya)

        self.bias_ = float(ya.mean())
        yc = ya - self.bias_

        gram = self.kernel(xa, xa)
        diag = np.ascontiguousarray(np.diag(gram)).copy()
        # Guard against zero diagonal (duplicate zero rows under linear kernel).
        diag[diag <= 1e-12] = 1e-12

        beta = np.zeros(n)
        f = np.zeros(n)  # f = K @ beta, maintained incrementally
        rng = np.random.default_rng(self.shuffle_seed)
        order = np.arange(n)

        eps = self.epsilon
        c_box = self.C
        for epoch in range(self.max_epochs):
            rng.shuffle(order)
            max_delta = 0.0
            for j in order:
                g = f[j] - diag[j] * beta[j] - yc[j]
                # Closed-form minimizer of the 1-D subproblem.
                if -g > eps:
                    cand = (-g - eps) / diag[j]
                elif -g < -eps:
                    cand = (-g + eps) / diag[j]
                else:
                    cand = 0.0
                new_beta = min(max(cand, -c_box), c_box)
                delta = new_beta - beta[j]
                if delta != 0.0:
                    f += gram[j] * delta
                    beta[j] = new_beta
                    step = abs(delta) * diag[j]
                    if step > max_delta:
                        max_delta = step
            self.n_epochs_ = epoch + 1
            if max_delta < self.tol:
                break

        self.beta_ = beta
        self.x_train_ = xa
        self.y_centered_ = yc
        return self

    def _fit_linear_primal(self, xa: np.ndarray, ya: np.ndarray) -> "SVR":
        """L-BFGS on the primal with a Huber-smoothed ε-insensitive loss.

        The smoothing width ``δ`` is small relative to ε (or to the target
        scale when ε = 0), so the optimum matches the exact SVR to within
        the measurement noise of any downstream use.
        """
        n, d = xa.shape
        eps = self.epsilon
        c_weight = self.C
        delta = max(eps, float(np.std(ya)), 1e-6) * 1e-3
        y_mean = float(ya.mean())
        yc = ya - y_mean

        def objective(params: np.ndarray) -> tuple[float, np.ndarray]:
            w = params[:d]
            b = params[d]
            residual = yc - xa @ w - b
            t = np.abs(residual) - eps
            # Huber hinge: quadratic in (0, delta], linear above.
            quad = t <= delta
            active = t > 0.0
            loss = np.zeros(n)
            loss[active & quad] = t[active & quad] ** 2 / (2.0 * delta)
            loss[~quad] = t[~quad] - delta / 2.0
            dldt = np.zeros(n)
            dldt[active & quad] = t[active & quad] / delta
            dldt[~quad] = 1.0
            # d loss_i/d residual_i = -dldt_i · sign(residual_i), and
            # d residual_i/dw = -x_i — so d loss/dw = C·Xᵀ(grad_r).
            grad_r = -np.sign(residual) * dldt
            grad_w = w + c_weight * (xa.T @ grad_r)
            grad_b = c_weight * float(np.sum(grad_r))
            value = 0.5 * float(w @ w) + c_weight * float(np.sum(loss))
            return value, np.concatenate([grad_w, [grad_b]])

        # Imported here, not at module level: loading scipy.optimize costs
        # more than the rest of a cold start, and serving never fits.
        from scipy.optimize import minimize

        start = np.zeros(d + 1)
        result = minimize(
            objective,
            start,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": 500, "ftol": 1e-12, "gtol": 1e-9},
        )
        w = result.x[:d]
        b = result.x[d]
        residual = yc - xa @ w - b
        self.coef_ = w
        self.bias_ = y_mean + b
        self.x_train_ = xa
        self.y_centered_ = yc
        self.n_epochs_ = int(result.nit)
        # 'Support vectors' of the primal path: points outside the tube.
        self._sv_mask = np.abs(residual) >= eps - 1e-12
        self.beta_ = None
        return self

    # -- inference ---------------------------------------------------------------

    #: Row-block size for large kernel-expansion predictions.  Batched
    #: serving stacks thousands of rows; evaluating the Gram matrix in
    #: blocks keeps each (block × n_sv) slab cache-resident, which is
    #: measurably faster than one huge allocation.  Per-row results are
    #: unaffected (each output row depends only on its own input row).
    PREDICT_CHUNK_ROWS = 512

    def predict(self, x: np.ndarray) -> np.ndarray:
        xa = np.asarray(x, dtype=np.float64)
        squeeze = xa.ndim == 1
        if squeeze:
            xa = xa[None, :]
        if self.coef_ is not None:
            out = xa @ self.coef_ + self.bias_
            return out[0] if squeeze else out
        if self.beta_ is None or self.x_train_ is None:
            raise RuntimeError("model is not fitted")
        # Only support vectors contribute; skip the dead columns.
        sv_mask = self.beta_ != 0.0
        if not np.any(sv_mask):
            out = np.full(xa.shape[0], self.bias_)
        else:
            sv = self.x_train_[sv_mask]
            beta = self.beta_[sv_mask]
            n = xa.shape[0]
            chunk = self.PREDICT_CHUNK_ROWS
            if n > chunk:
                out = np.empty(n)
                for start in range(0, n, chunk):
                    block = xa[start : start + chunk]
                    out[start : start + chunk] = (
                        self.kernel(block, sv) @ beta + self.bias_
                    )
            else:
                out = self.kernel(xa, sv) @ beta + self.bias_
        return out[0] if squeeze else out

    # -- persistence ------------------------------------------------------------

    def to_state(self) -> dict:
        """JSON-safe snapshot of hyper-parameters and the fitted solution.

        Only the state :meth:`predict` needs is serialized — the primal
        path stores ``coef_``, the dual path stores the *support vectors*
        and their ``beta_`` entries (dead rows contribute nothing to the
        kernel expansion).  A reloaded model predicts bit-identically, and
        artifacts stay kilobytes instead of shipping the whole training
        matrix.  Introspection that needs the full training set
        (:meth:`dual_objective`; dual-path ``support_indices_`` relative
        to the original sample order) is unavailable after a reload.
        """
        state = {
            "kind": "svr",
            "kernel": self.kernel.to_state(),
            "C": self.C,
            "epsilon": self.epsilon,
            "max_epochs": self.max_epochs,
            "tol": self.tol,
            "shuffle_seed": self.shuffle_seed,
            "bias": self.bias_,
            "n_epochs": self.n_epochs_,
            "beta": None,
            "coef": array_to_state(self.coef_),
            "sv_mask": None,
            "x_train": None,
        }
        if self.coef_ is not None:
            state["sv_mask"] = (
                None if self._sv_mask is None else self._sv_mask.tolist()
            )
        elif self.beta_ is not None and self.x_train_ is not None:
            sv = self.beta_ != 0.0
            state["beta"] = self.beta_[sv].tolist()
            state["x_train"] = self.x_train_[sv].tolist()
        return state

    @classmethod
    def from_state(cls, state: dict) -> "SVR":
        model = cls(
            kernel=kernel_from_state(state["kernel"]),
            C=state["C"],
            epsilon=state["epsilon"],
            max_epochs=state["max_epochs"],
            tol=state["tol"],
            shuffle_seed=state["shuffle_seed"],
        )
        model.bias_ = float(state["bias"])
        model.n_epochs_ = int(state["n_epochs"])
        model.beta_ = array_from_state(state["beta"])
        model.coef_ = array_from_state(state["coef"])
        mask = state["sv_mask"]
        model._sv_mask = None if mask is None else np.asarray(mask, dtype=bool)
        x_train = state["x_train"]
        if x_train is not None:
            d = len(x_train[0]) if x_train else 0
            model.x_train_ = np.asarray(x_train, dtype=np.float64).reshape(-1, d)
        return model

    # -- introspection ----------------------------------------------------------

    @property
    def support_indices_(self) -> np.ndarray:
        if self.coef_ is not None:
            return np.flatnonzero(self._sv_mask)
        if self.beta_ is None:
            raise RuntimeError("model is not fitted")
        return np.flatnonzero(self.beta_ != 0.0)

    @property
    def n_support_(self) -> int:
        return int(self.support_indices_.size)

    def dual_objective(self) -> float:
        """Value of the (minimized) dual objective at the current solution.

        ``½ βᵀKβ − y_cᵀβ + ε‖β‖₁`` — useful in tests to verify that the
        coordinate-descent solution cannot be improved by perturbation.
        Only available for the dual (non-linear-kernel) path, and only on
        the originally fitted model (serialization keeps just the support
        vectors, not the centered targets).
        """
        if self.coef_ is not None:
            raise RuntimeError(
                "linear-kernel SVR is trained in the primal; no dual variables"
            )
        if self.beta_ is None or self.x_train_ is None:
            raise RuntimeError("model is not fitted")
        if self.y_centered_ is None:
            raise RuntimeError(
                "dual objective needs the full training state, which is "
                "not serialized; compute it on the originally fitted model"
            )
        gram = self.kernel(self.x_train_, self.x_train_)
        beta = self.beta_
        quad = 0.5 * float(beta @ gram @ beta)
        lin = float(self.y_centered_ @ beta)
        reg = self.epsilon * float(np.sum(np.abs(beta)))
        return quad - lin + reg


def make_speedup_svr(seed: int = 0) -> SVR:
    """The paper's speedup model: linear kernel, C=1000, ε=0.1 (§3.4)."""
    return SVR(kernel=LinearKernel(), C=1000.0, epsilon=0.1, shuffle_seed=seed)


def make_energy_svr(seed: int = 0) -> SVR:
    """The paper's energy model: RBF kernel γ=0.1, C=1000, ε=0.1 (§3.4)."""
    return SVR(kernel=RBFKernel(gamma=0.1), C=1000.0, epsilon=0.1, shuffle_seed=seed)
