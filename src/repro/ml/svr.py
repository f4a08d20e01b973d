"""ε-insensitive Support Vector Regression (paper §3.4, Eq. 1).

The model is ``f(w) = Σ_i (α_i − α_i*) K(w, w_i) + b`` trained by solving
the SVR dual over the difference variables ``β_i = α_i − α_i*``:

    min_β  ½ βᵀKβ − yᵀβ + ε‖β‖₁      s.t.  −C ≤ β_i ≤ C

The bias is handled by target centering (``b = mean(y)``), which removes
the equality constraint ``Σβ = 0`` from the dual; for the RBF and
standardized linear kernels used here the centered formulation is the
standard, well-conditioned choice.

**Solver: greedy coordinate descent to a KKT tolerance.**  Each coordinate
has a closed-form 1-D minimizer (soft-threshold, then box clip).  Every
round scores all coordinates' exact steps and objective decreases in one
vectorized pass, then updates the :attr:`SVR.WORKING_SET` best ones in
turn, each step re-evaluated exactly against the current gradient
``g = Kβ − y`` (the greedy, first-order cousin of LIBSVM's working-set
selection — Fan, Chen & Lin, JMLR 2005).  ``g`` is kept current with one
kernel row per update; rows are computed on first use and cached, so the
n × n Gram matrix is never built: only coordinates that ever move pay
for a row (about 750 of 4240 on the paper-scale Titan X energy fit, 140
on the P100).  Rounds work on a *shrunk* active set, LIBSVM's technique:
every :attr:`SVR.SHRINK_EVERY` rounds a coordinate held at 0 inside the
tube, or at ±C with its gradient pushing outward, by a margin, leaves
it (318 of 4240 remain on the Titan X fit), and the shrunk gradients
catch up from the cached rows of the coordinates that moved.  The fit
stops when the largest step any coordinate could take — all n of them,
re-admitted and checked on the full gradient — is at most ``tol``, or
after ``max_iter`` rounds; ``iterations_``, ``kkt_violation_`` and
``converged_`` record which, so a capped fit is never silent.  There is
no RNG: ties go to the lowest index and two fits are bit-identical.

**Linear kernel special case** — the linear Gram matrix has rank ≤ d, and
dual CD zigzags across its flat valleys (pathologically slow convergence).
Since the linear model has an explicit finite-dimensional primal, we solve
that directly instead: ``min ½‖w‖² + C·Σ L_ε(y − Xw − b)`` with a Huber-
smoothed ε-insensitive loss (the LIBLINEAR-style formulation), by a
numpy L-BFGS (:func:`_lbfgs`: two-loop recursion, backtracking Armijo line
search, started at zero).  It stops when a step lowers the objective by at
most ``1e-12`` relative, or the gradient's largest entry is at most
``1e-9`` (L-BFGS-B's ``ftol``/``gtol`` rules), and records
``iterations_``/``converged_``; a fit stopped by the 500-iteration cap
reports ``converged_ = False``.  The runtime needs numpy alone; a
reference L-BFGS-B is only this solver's test oracle.  The two paths
expose the same fit/predict API.

**Prediction.** The dual path evaluates ``Σ β_i K(w, w_i) + b`` over the
support vectors only, in cache-sized blocks of rows, through the
expansion the RBF kernel prepares once (:meth:`RBFKernel.expansion`).  A
block is one augmented GEMM whose product is ``−γ‖w − w_i‖²``, then an
in-place ``exp`` and a product with β; it agrees with the Gram-row
expansion to about 3e-14 relative.  Fits still use the Gram rows, and β
and the bundles do not depend on the pass.

**Persistence.** :meth:`SVR.to_state` is a JSON-safe dict tagged
``kind: svr`` whose ``kernel`` is ``{"kind": "linear"}`` or
``{"kind": "rbf", "gamma": γ}``; :meth:`SVR.from_state` refuses any other
model or kernel kind with a ``ValueError``.

Hyper-parameters follow the paper (``C = 1000``, ``ε = 0.1``) except the
energy model's ``C``; :func:`make_energy_svr` says why it is 1.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .kernels import LinearKernel, RBFKernel, prepare
from .scaling import array_from_state, array_to_state

#: Entries in one block's (rows × support vectors) Gram slab when the
#: dual path predicts: 48 Ki entries, 384 KiB, so the slab stays in a
#: core's L2 cache.  Against the paper-scale Titan X energy model's 691
#: support vectors that is 71 rows.  With the Gram-row expansion, 512-row
#: blocks took about twice as long over a 918-row batch.  The augmented
#: GEMM leaves two element-wise passes over the slab where that made six.
#: On a 2 MiB-L2 Xeon, 32–192 Ki entries then timed alike over that batch
#: (medians 1.8–2.7 ms, each inside the others' ranges in two sweeps), so
#: the budget stays.
GRAM_BLOCK_ENTRIES = 48 * 1024


class SVR:
    """Kernel SVR: greedy dual coordinate descent, or the linear primal.

    Parameters
    ----------
    kernel:
        :class:`~repro.ml.kernels.LinearKernel` (solved in the primal, the
        default) or :class:`~repro.ml.kernels.RBFKernel` (the dual).
    C:
        Box constraint on the dual variables (paper: 1000).
    epsilon:
        Width of the insensitive tube (paper: 0.1).
    tol, max_iter:
        Dual stopping: stop once no coordinate's exact step exceeds ``tol``
        (on the primal scale, ``|Δβ_j|·K_jj``), or after ``max_iter``
        greedy rounds.  The linear primal path ignores both.
    """

    #: Coordinates updated per greedy round.  One vectorized scoring pass
    #: costs about as much as a few scalar updates, so batching the best
    #: few amortizes it; 8 was fastest on the paper-scale energy fits.
    WORKING_SET = 8
    #: Greedy rounds between shrink passes.  A pass costs a few vector ops
    #: over the active set plus, when something shrinks, one row update
    #: per coordinate moved since the last.  On the paper-scale Titan X
    #: fit, 50–800 timed within noise of each other; 200 had the best
    #: median.
    SHRINK_EVERY = 200
    #: A coordinate shrinks only while its gradient clears the tube's edge
    #: or its bound by this many times the current violation.
    SHRINK_MARGIN = 2.0

    def __init__(
        self,
        kernel: LinearKernel | RBFKernel | None = None,
        C: float = 1000.0,
        epsilon: float = 0.1,
        tol: float = 1e-3,
        max_iter: int = 20_000,
    ) -> None:
        if C <= 0:
            raise ValueError("C must be positive")
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if tol <= 0:
            raise ValueError("tol must be positive")
        if max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        self.kernel = kernel or LinearKernel()
        self.C = C
        self.epsilon = epsilon
        self.tol = tol
        self.max_iter = max_iter

        self.beta_: np.ndarray | None = None
        self.coef_: np.ndarray | None = None  # primal path (linear kernel)
        self._sv_mask: np.ndarray | None = None
        #: Dual path: the support vectors' β and the kernel's expansion
        #: over them, prepared once by fit/from_state for every predict.
        self._support_beta: np.ndarray | None = None
        self._expansion: Callable[[np.ndarray], np.ndarray] | None = None
        self.bias_: float = 0.0
        self.x_train_: np.ndarray | None = None
        self.y_centered_: np.ndarray | None = None
        #: Solver record: rounds (dual) or L-BFGS iterations (primal), the
        #: largest remaining KKT step (dual only) and whether the stopping
        #: test was met.  ``None`` when unknown (a reloaded older bundle).
        self.iterations_: int = 0
        self.kkt_violation_: float | None = None
        self.converged_: bool | None = None
        #: Dual fit, not serialized: kernel rows computed, the active-set
        #: size at the last re-admission (n if nothing was shrunk), and
        #: how often the shrunk coordinates were re-admitted to test the
        #: full gradient (once the active set met ``tol`` or at the cap).
        self.rows_computed_: int = 0
        self.active_size_: int = 0
        self.full_checks_: int = 0

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
        self.beta_ = self._fit_dual(xa, yc)
        self.x_train_ = xa
        self.y_centered_ = yc
        self._prepare_support()
        return self

    def _prepare_support(self) -> None:
        """Prepare the kernel's expansion over the rows with ``β ≠ 0``
        once: only support vectors contribute to it."""
        sv = self.beta_ != 0.0
        self._support_beta = self.beta_[sv]
        self._expansion = self.kernel.expansion(self.x_train_[sv], self._support_beta)

    def _fit_dual(self, xa: np.ndarray, yc: np.ndarray) -> np.ndarray:
        """Greedy coordinate descent on the dual, with shrinking; returns β.

        For coordinate ``j`` with gradient ``g_j`` the 1-D subproblem
        ``min_b ½K_jj(b − β_j)² + g_j(b − β_j) + ε|b|`` on ``[−C, C]`` is
        solved by soft-thresholding ``β_j − g_j/K_jj`` at ``ε/K_jj`` and
        clipping; its objective change is
        ``d(g_j + ½K_jj d) + ε(|b| − |β_j|)`` for the step ``d = b − β_j``.

        Rounds score, select and update only the *active* coordinates,
        held compacted (``active`` lists their indices, ascending, so ties
        still go to the lowest index).  Every :attr:`SHRINK_EVERY` rounds
        a coordinate that cannot move leaves the active set: β = 0 with
        ``|g| < ε − 2m``, β = C with ``g < −ε − 2m``, or β = −C with
        ``g > ε + 2m``, where ``m`` is the current violation.  (With a
        margin of ``m``, a paper-scale Titan X coordinate shrunk at 0 in
        round 2,200 became a support vector later; the fit then ended 252
        rounds later at a different β.  At ``2m`` every paper-scale fit
        keeps the unshrunk solver's rounds and β bit for bit.)  A shrunk
        coordinate's gradient is brought up to date only when it is
        needed — before more coordinates shrink, and when the active set
        meets the stopping test — by ``g += row · Δβ`` over the cached
        rows of the coordinates that moved since the last such sync.
        Then all n coordinates are re-admitted and the test is re-run on
        the full gradient, so the fit stops only when every coordinate
        meets ``tol`` (or at ``max_iter``, reporting the full violation).

        Full kernel rows are cached only for active coordinates that have
        moved; a shrunk coordinate cannot move, so its row is dropped.
        Each active row is also kept restricted to the active set (the
        full row itself while every coordinate is active).  Rows are
        evaluated against ``xa`` prepared once, so its row norms are not
        recomputed per row.
        """
        n = xa.shape[0]
        kernel = self.kernel
        operand = prepare(xa)
        eps, c_box = self.epsilon, self.C
        diag = np.array(kernel.diag(xa), dtype=np.float64)
        # Guard against a zero diagonal (an all-zero row where K(0, 0) = 0).
        diag[diag <= 1e-12] = 1e-12
        inv_diag = 1.0 / diag
        half_diag = 0.5 * diag
        threshold = eps * inv_diag

        beta = np.zeros(n)
        g = -yc  # gradient Kβ − y at β = 0
        #: Full rows by coordinate, and the same rows restricted to the
        #: active set (one dict while every coordinate is active).
        rows: dict[int, np.ndarray] = {}
        active_rows = rows
        #: Active positions moved since the last sync -> β at that sync.
        pending: dict[int, float] = {}
        buffers = [np.empty(n) for _ in range(5)]
        active = np.arange(n)
        m = n
        b_a, g_a, d_a, inv_a, half_a, thr_a = (
            beta, g, diag, inv_diag, half_diag, threshold
        )
        z, new, step, score, work = buffers
        rounds = full_checks = computed = 0
        active_size = n

        def sync() -> None:
            # Shrunk gradients catch up with every active move since the
            # last sync; active entries of g are refreshed from g_a later.
            for j, b_old in pending.items():
                delta = b_a.item(j) - b_old
                if delta != 0.0:
                    np.add(g, rows[active.item(j)] * delta, out=g)
            pending.clear()

        while True:
            # Every active coordinate's exact step: z = β − g/K,
            # soft-threshold, clip, and the largest primal-scale step as
            # the KKT violation.
            np.multiply(g_a, inv_a, out=z)
            np.subtract(b_a, z, out=z)
            np.abs(z, out=new)
            new -= thr_a
            np.maximum(new, 0.0, out=new)
            np.minimum(new, c_box, out=new)
            np.copysign(new, z, out=new)
            np.subtract(new, b_a, out=step)
            np.abs(step, out=work)
            work *= d_a
            violation = float(work.max()) if m else 0.0
            if violation <= self.tol or rounds == self.max_iter:
                if m == n:
                    break
                # The active set meets the test: re-admit everything and
                # re-run it on the full gradient.
                sync()
                beta[active] = b_a
                g[active] = g_a
                full_checks += 1
                active_size = m
                active, m = np.arange(n), n
                b_a, g_a, d_a, inv_a, half_a, thr_a = (
                    beta, g, diag, inv_diag, half_diag, threshold
                )
                active_rows = rows
                z, new, step, score, work = buffers
                continue
            rounds += 1
            # Objective change of each step (≤ 0): the greedy score.
            np.multiply(half_a, step, out=score)
            score += g_a
            score *= step
            np.abs(new, out=work)
            work -= np.abs(b_a)
            work *= eps
            score += work
            for _ in range(self.WORKING_SET):
                j = int(score.argmin())  # the first minimum: lowest index
                if score[j] >= 0.0:
                    break
                score[j] = np.inf
                # Re-solve j against the gradient the earlier updates of
                # this round left, so every step is exact.
                k_jj = d_a.item(j)
                b_j = b_a.item(j)
                z_j = b_j - g_a.item(j) / k_jj
                t_j = min(abs(z_j) - eps / k_jj, c_box)
                b_new = 0.0 if t_j <= 0.0 else (t_j if z_j > 0.0 else -t_j)
                delta = b_new - b_j
                if delta == 0.0:
                    continue
                i = active.item(j)
                row = active_rows.get(i)
                if row is None:
                    row = rows[i] = kernel.gram(xa[i : i + 1], operand)[0]
                    computed += 1
                    if m < n:
                        row = active_rows[i] = row[active]
                if m < n and j not in pending:
                    pending[j] = b_j
                b_a[j] = b_new
                g_a += row * delta

            if rounds % self.SHRINK_EVERY:
                continue
            # Coordinates that cannot move: inside the tube at 0, or
            # pushed against a bound, by a margin.
            slack = self.SHRINK_MARGIN * violation
            out = (b_a == 0.0) & (np.abs(g_a) < eps - slack)
            out |= (b_a == c_box) & (g_a < -eps - slack)
            out |= (b_a == -c_box) & (g_a > eps + slack)
            if not out.any():
                continue
            keep = np.flatnonzero(~out)
            dropped = np.flatnonzero(out)
            shrunk = active[dropped]
            if m == n:
                # Shrinking from the full set copies each kept row
                # restricted to the active set: it waits until the rows it
                # drops pay for those copies.
                kept = len(rows) - sum(i in rows for i in shrunk.tolist())
                if kept * (n + keep.size) > len(rows) * n:
                    continue
            sync()
            beta[shrunk] = b_a[dropped]
            g[shrunk] = g_a[dropped]
            for i in shrunk.tolist():
                rows.pop(i, None)
            active, m = active[keep], keep.size
            b_a, g_a, d_a, inv_a, half_a, thr_a = (
                a[keep] for a in (b_a, g_a, d_a, inv_a, half_a, thr_a)
            )
            if active_rows is rows:
                active_rows = {i: row[keep] for i, row in rows.items()}
            else:
                for i in list(active_rows):
                    if i in rows:
                        active_rows[i] = active_rows[i][keep]
                    else:
                        del active_rows[i]
            z, new, step, score, work = (a[:m] for a in buffers)

        self.iterations_ = rounds
        self.kkt_violation_ = violation
        self.converged_ = violation <= self.tol
        self.rows_computed_ = computed
        self.active_size_ = active_size
        self.full_checks_ = full_checks
        return beta

    def _fit_linear_primal(self, xa: np.ndarray, ya: np.ndarray) -> "SVR":
        """L-BFGS on the primal with a Huber-smoothed ε-insensitive loss."""
        d = xa.shape[1]
        eps = self.epsilon
        y_mean = float(ya.mean())
        yc = ya - y_mean
        params, self.iterations_, self.converged_ = _lbfgs(
            _smoothed_primal(xa, ya, eps, self.C), np.zeros(d + 1)
        )
        w = params[:d]
        b = params[d]
        residual = yc - xa @ w - b
        self.coef_ = w
        self.bias_ = y_mean + b
        self.x_train_ = xa
        self.y_centered_ = yc
        self.kkt_violation_ = None
        # 'Support vectors' of the primal path: points outside the tube.
        self._sv_mask = np.abs(residual) >= eps - 1e-12
        self.beta_ = None
        return self

    # -- inference ---------------------------------------------------------------

    @property
    def block_rows(self) -> int:
        """Rows per block of a dual-path prediction: as many as keep one
        block's Gram slab within :data:`GRAM_BLOCK_ENTRIES`."""
        n_sv = 0 if self._support_beta is None else self._support_beta.size
        return max(1, GRAM_BLOCK_ENTRIES // max(n_sv, 1))

    def predict(self, x: np.ndarray) -> np.ndarray:
        xa = np.asarray(x, dtype=np.float64)
        squeeze = xa.ndim == 1
        if squeeze:
            xa = xa[None, :]
        if self.coef_ is not None:
            out = xa @ self.coef_ + self.bias_
        elif self._expansion is None:
            raise RuntimeError("model is not fitted")
        else:
            # The kernel expansion, one cache-sized block of rows at a
            # time; each output row depends only on its own input row.
            out = np.full(xa.shape[0], self.bias_)
            if self._support_beta.size:  # else the model is its bias
                step = self.block_rows
                for start in range(0, xa.shape[0], step):
                    rows = slice(start, start + step)
                    out[rows] += self._expansion(xa[rows])
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
            "tol": self.tol,
            "max_iter": self.max_iter,
            "bias": self.bias_,
            "iterations": self.iterations_,
            "kkt_violation": self.kkt_violation_,
            "converged": self.converged_,
            "beta": None,
            "coef": array_to_state(self.coef_),
            "sv_mask": None,
            "x_train": None,
        }
        if self.coef_ is not None:
            state["sv_mask"] = (
                None if self._sv_mask is None else self._sv_mask.tolist()
            )
        elif self._expansion is not None:
            state["beta"] = self._support_beta.tolist()
            state["x_train"] = self.x_train_[self.beta_ != 0.0].tolist()
        return state

    @classmethod
    def from_state(cls, state: dict) -> "SVR":
        """Rebuild a fitted model, also from bundles written before the
        greedy solver (``max_epochs``/``shuffle_seed``/``n_epochs`` keys,
        no convergence record)."""
        if state["kind"] != "svr":
            raise ValueError(f"unknown regressor kind {state['kind']!r}")
        kernel_state = state["kernel"]
        kernel: LinearKernel | RBFKernel
        if kernel_state["kind"] == "linear":
            kernel = LinearKernel()
        elif kernel_state["kind"] == "rbf":
            kernel = RBFKernel(gamma=kernel_state["gamma"])
        else:
            raise ValueError(f"unknown kernel kind {kernel_state['kind']!r}")
        model = cls(
            kernel=kernel,
            C=state["C"],
            epsilon=state["epsilon"],
            tol=state["tol"],
        )
        model.max_iter = state.get("max_iter", model.max_iter)
        model.bias_ = float(state["bias"])
        model.iterations_ = int(state.get("iterations", state.get("n_epochs", 0)))
        model.kkt_violation_ = state.get("kkt_violation")
        model.converged_ = state.get("converged")
        model.beta_ = array_from_state(state["beta"])
        model.coef_ = array_from_state(state["coef"])
        mask = state["sv_mask"]
        model._sv_mask = None if mask is None else np.asarray(mask, dtype=bool)
        x_train = state["x_train"]
        if x_train is not None:
            d = len(x_train[0]) if x_train else 0
            model.x_train_ = np.asarray(x_train, dtype=np.float64).reshape(
                len(x_train), d
            )
        if model.beta_ is not None and model.x_train_ is not None:
            model._prepare_support()
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
        vectors, not the centered targets).  Rows with ``β_i = 0`` add
        nothing, so only the support block of the Gram matrix is built.
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
        sv = np.flatnonzero(self.beta_)
        beta = self.beta_[sv]
        x_sv = self.x_train_[sv]
        quad = 0.5 * float(beta @ self.kernel(x_sv, x_sv) @ beta)
        lin = float(self.y_centered_[sv] @ beta)
        reg = self.epsilon * float(np.sum(np.abs(beta)))
        return quad - lin + reg


#: Linear-primal L-BFGS: iteration cap and curvature pairs kept.  The
#: stopping tolerances are L-BFGS-B's (``ftol`` on the relative decrease
#: of one step, ``gtol`` on the largest gradient entry).
LBFGS_MAX_ITER = 500
LBFGS_MEMORY = 10
LBFGS_FTOL = 1e-12
LBFGS_GTOL = 1e-9


def _smoothed_primal(
    xa: np.ndarray, ya: np.ndarray, epsilon: float, c_weight: float
) -> Callable[[np.ndarray], tuple[float, np.ndarray]]:
    """The linear SVR's primal ``½‖w‖² + C·Σ L_ε(y − Xw − b)`` and its
    gradient, as a function of ``params = [w, b]`` on centered targets.

    ``L_ε`` is the ε-insensitive loss with its hinge Huber-smoothed over a
    width ``δ`` that is small relative to ε (or to the target scale when
    ε = 0), so the optimum matches the exact SVR to within the measurement
    noise of any downstream use.
    """
    n, d = xa.shape
    delta = max(epsilon, float(np.std(ya)), 1e-6) * 1e-3
    yc = ya - float(ya.mean())

    def objective(params: np.ndarray) -> tuple[float, np.ndarray]:
        w = params[:d]
        b = params[d]
        residual = yc - xa @ w - b
        t = np.abs(residual) - epsilon
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

    return objective


def _lbfgs(
    fun: Callable[[np.ndarray], tuple[float, np.ndarray]], x0: np.ndarray
) -> tuple[np.ndarray, int, bool]:
    """Minimize ``fun`` (value and gradient) from ``x0`` by limited-memory
    BFGS (Liu & Nocedal, Math. Programming 45, 1989).

    The two-loop recursion turns the last :data:`LBFGS_MEMORY` curvature
    pairs into a search direction; a backtracking line search (quadratic
    interpolation, Armijo condition) accepts only steps that decrease
    ``fun``, and a pair with ``sᵀy ≤ 0`` is skipped.  Returns the
    minimizer, the iterations taken and whether a stopping test was met:
    the largest gradient entry at most :data:`LBFGS_GTOL`, or a step's
    decrease at most :data:`LBFGS_FTOL` times ``max(|f_old|, |f_new|, 1)``.
    The cap (:data:`LBFGS_MAX_ITER`) or a failed line search reports
    ``False``.
    """
    x = x0.copy()
    f, g = fun(x)
    pairs: list[tuple[np.ndarray, np.ndarray, float]] = []  # (s, y, 1/sᵀy)
    for iteration in range(LBFGS_MAX_ITER):
        if float(np.abs(g).max()) <= LBFGS_GTOL:
            return x, iteration, True
        direction = -g
        alphas = []
        for s, y, rho in reversed(pairs):
            alpha = rho * float(s @ direction)
            direction = direction - alpha * y
            alphas.append(alpha)
        if pairs:
            s, y, rho = pairs[-1]
            direction = direction / (rho * float(y @ y))  # H₀ = sᵀy/yᵀy
            step = 1.0
        else:
            step = 1.0 / float(np.linalg.norm(g))
        for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
            direction = direction + (alpha - rho * float(y @ direction)) * s
        slope = float(g @ direction)
        if slope >= 0.0:  # not a descent direction: restart from -g
            pairs.clear()
            direction = -g
            slope = -float(g @ g)
        for _ in range(60):
            x_new = x + step * direction
            f_new, g_new = fun(x_new)
            if f_new <= f + 1e-4 * step * slope:
                break
            # Minimizer of the quadratic through f, slope and f_new,
            # kept within [0.1, 0.5] of the rejected step.
            curvature = 2.0 * (f_new - f - slope * step)
            trial = -slope * step * step / curvature if curvature > 0.0 else 0.0
            step = min(max(trial, 0.1 * step), 0.5 * step)
        else:
            return x, iteration, False
        s, y = x_new - x, g_new - g
        sy = float(s @ y)
        if sy > 0.0:
            pairs.append((s, y, 1.0 / sy))
            del pairs[:-LBFGS_MEMORY]
        stalled = f - f_new <= LBFGS_FTOL * max(abs(f), abs(f_new), 1.0)
        x, f, g = x_new, f_new, g_new
        if stalled:
            return x, iteration + 1, True
    return x, LBFGS_MAX_ITER, False


def make_speedup_svr() -> SVR:
    """The paper's speedup model: linear kernel, C=1000, ε=0.1 (§3.4)."""
    return SVR(kernel=LinearKernel(), C=1000.0, epsilon=0.1)


def make_energy_svr() -> SVR:
    """The energy model: RBF kernel γ=0.1, ε=0.1 (§3.4), and C = 1.

    Why not the paper's C = 1000: solved to tolerance, it predicts
    held-out energy (Fig. 7, mem H/h/l/L) at 12.3 / 14.5 / 47.4 / 26.8%
    RMSE.  A random-order CD capped at 120 epochs got 9.4 / 9.5 / 28.5 /
    20.3% from the same C only because it stopped far from that optimum
    (dual objective −288 against about −8320), which regularized the fit
    without saying so.  C = 1 declares that
    regularization and is solved to ``tol``: 9.0 / 9.9 / 29.9 / 18.0%
    and Table 2 D 0.0365 on the Titan X.  The sweep over C ∈ {0.3, 1,
    3, 10} (``benchmarks/bench_ablation_models.py``) solves every C to
    ``tol`` under its own 100,000-round cap.  C = 1 converges in 7,063
    rounds, inside the default ``max_iter``; C = 3 and 10 need 22,843 and
    77,602, past it.  Converged, they score 2.8% and 1.5% better in
    grouped CV (0.1033 and 0.1047 against 0.1063), but held out they trade
    the gain away: Fig. 7 mean 16.85 and 16.62% against 16.71%, Table 2 D
    0.0344 and 0.0407 against 0.0365.  C = 0.3 underfits (CV 0.118).
    Random-order CD run to convergence at C = 1 gives the same fidelity,
    so the numbers depend on (C, γ, ε) and not on the solver.
    """
    return SVR(kernel=RBFKernel(gamma=0.1), C=1.0, epsilon=0.1)
