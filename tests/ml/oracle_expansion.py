"""The one-shot float64 kernel expansion, kept as a test oracle.

:meth:`repro.ml.svr.SVR.predict` evaluated a dual-path model as
``kernel.gram(x, support) @ β + bias`` before the RBF kernel learned to
evaluate a block as one augmented GEMM (:class:`repro.ml.kernels.RBFExpansion`).
The two differ only in summation order, so the production pass must agree
with this oracle within :data:`EXPANSION_RTOL`, and every front built on it
must be the oracle's.
"""

from __future__ import annotations

import numpy as np

from repro.ml.kernels import prepare

#: Largest relative difference allowed between ``SVR.predict`` and
#: :func:`oracle_predict`, about 3× the largest measured.  Measured maxima:
#: 2.1e-14 and 3.0e-14 on the paper-scale Titan X energy model (118
#: kernels over its 34 modeled and 177 real configurations), 5.3e-15 on
#: the P100's, 4.3e-15 on the quick Titan X bundle's suite kernels,
#: 2.4e-15 on the legacy C = 1000 state and 4.5e-16 on the random
#: 700-support model of ``TestBlockedExpansion``.
EXPANSION_RTOL = 1e-13


def oracle_predict(model, x: np.ndarray) -> np.ndarray:
    """``K(x, support) @ β + bias`` for a fitted dual-path SVR, in one
    float64 Gram slab."""
    sv = model.beta_ != 0.0
    support = prepare(model.x_train_[sv])
    return model.kernel.gram(np.asarray(x, dtype=np.float64), support) @ model.beta_[sv] + model.bias_
