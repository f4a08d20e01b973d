"""Random-Fourier-feature regression (``repro.ml.streaming``)."""

import numpy as np
import pytest

from repro.ml.kernels import RBFKernel
from repro.ml.streaming import RandomFourierSVR
from repro.ml.svr import SVR


class TestRandomFourierSVR:
    @staticmethod
    def rbf_like_data(n=240, d=4, seed=5):
        """A smooth nonlinear target an RBF kernel fits well."""
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1.5, 1.5, size=(n, d))
        y = np.exp(-0.8 * np.sum(x**2, axis=1)) + 0.3 * x[:, 0]
        return x, y

    def test_mape_within_band_of_exact_rbf(self):
        x, y = self.rbf_like_data()
        y = y + 1.0  # keep the target away from zero for a stable MAPE
        exact = SVR(kernel=RBFKernel(gamma=0.5), C=10.0, epsilon=0.01).fit(x, y)
        rff = RandomFourierSVR(gamma=0.5, n_components=512, alpha=1e-5).fit(x, y)

        def mape(pred):
            return float(np.mean(np.abs((pred - y) / y)))

        exact_mape = mape(exact.predict(x))
        rff_mape = mape(rff.predict(x))
        # The approximation may cost at most 5 points of training-set MAPE
        # over the exact gram solve (it is usually within 1-2).
        assert rff_mape <= exact_mape + 0.05, (exact_mape, rff_mape)

    def test_same_seed_same_projection(self):
        x, y = self.rbf_like_data(n=50)
        a = RandomFourierSVR(seed=9).fit(x, y)
        b = RandomFourierSVR(seed=9).fit(x, y)
        c = RandomFourierSVR(seed=10).fit(x, y)
        assert np.array_equal(a.predict(x), b.predict(x))
        assert not np.array_equal(a.predict(x), c.predict(x))

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomFourierSVR(gamma=0.0)
        with pytest.raises(ValueError):
            RandomFourierSVR(n_components=0)
        with pytest.raises(ValueError):
            RandomFourierSVR(alpha=-1.0)
        with pytest.raises(RuntimeError):
            RandomFourierSVR().predict(np.ones((1, 2)))
