"""The unshrunk greedy coordinate descent, kept as a test oracle.

:meth:`repro.ml.svr.SVR._fit_dual` shipped this loop before it learned
to shrink: every round scores all n coordinates and every update moves
the gradient over all n.  Shrinking must not change what the solver
converges to, so the shrunk solver's tests fit :class:`UnshrunkSVR` beside
it and compare rounds, support and β.
"""

from __future__ import annotations

import numpy as np

from repro.ml.kernels import prepare
from repro.ml.svr import SVR


class UnshrunkSVR(SVR):
    """:class:`~repro.ml.svr.SVR` whose dual fit never shrinks."""

    def _fit_dual(self, xa: np.ndarray, yc: np.ndarray) -> np.ndarray:
        n = xa.shape[0]
        kernel = self.kernel
        operand = prepare(xa)
        eps, c_box = self.epsilon, self.C
        diag = np.array(kernel.diag(xa), dtype=np.float64)
        diag[diag <= 1e-12] = 1e-12
        inv_diag = 1.0 / diag
        half_diag = 0.5 * diag
        threshold = eps * inv_diag

        beta = np.zeros(n)
        g = -yc
        rows: dict[int, np.ndarray] = {}
        z, new, step, score, work = (np.empty(n) for _ in range(5))
        rounds = 0
        while True:
            np.multiply(g, inv_diag, out=z)
            np.subtract(beta, z, out=z)
            np.abs(z, out=new)
            new -= threshold
            np.maximum(new, 0.0, out=new)
            np.minimum(new, c_box, out=new)
            np.copysign(new, z, out=new)
            np.subtract(new, beta, out=step)
            np.abs(step, out=work)
            work *= diag
            violation = float(work.max())
            if violation <= self.tol or rounds == self.max_iter:
                break
            rounds += 1
            np.multiply(half_diag, step, out=score)
            score += g
            score *= step
            np.abs(new, out=work)
            work -= np.abs(beta)
            work *= eps
            score += work
            for _ in range(self.WORKING_SET):
                j = int(score.argmin())
                if score[j] >= 0.0:
                    break
                score[j] = np.inf
                k_jj = diag.item(j)
                b_j = beta.item(j)
                z_j = b_j - g.item(j) / k_jj
                t_j = min(abs(z_j) - eps / k_jj, c_box)
                b_new = 0.0 if t_j <= 0.0 else (t_j if z_j > 0.0 else -t_j)
                delta = b_new - b_j
                if delta == 0.0:
                    continue
                row = rows.get(j)
                if row is None:
                    row = rows[j] = kernel.gram(xa[j : j + 1], operand)[0]
                beta[j] = b_new
                g += row * delta

        self.iterations_ = rounds
        self.kkt_violation_ = violation
        self.converged_ = violation <= self.tol
        self.rows_computed_ = len(rows)
        return beta
