"""Tests for the two SVR kernels and the standard scaler."""

import numpy as np
import pytest

from repro.ml.kernels import LinearKernel, RBFKernel, prepare
from repro.ml.scaling import StandardScaler


class TestKernelTags:
    def test_linear_state_is_its_kind(self):
        assert LinearKernel().to_state() == {"kind": "linear"}

    def test_rbf_state_carries_gamma(self):
        assert RBFKernel(gamma=0.25).to_state() == {"kind": "rbf", "gamma": 0.25}

    def test_kernels_compare_by_value(self):
        assert LinearKernel() == LinearKernel()
        assert RBFKernel(gamma=0.1) == RBFKernel()
        assert RBFKernel(gamma=0.1) != RBFKernel(gamma=0.2)
        assert LinearKernel() != RBFKernel()


class TestPreparedOperand:
    def test_gram_against_a_prepared_operand_is_the_call(self):
        kernel = RBFKernel(gamma=0.1)
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(7, 4)), rng.normal(size=(9, 4))
        operand = prepare(b)
        assert np.array_equal(operand.sq_norms, np.einsum("ij,ij->i", b, b))
        assert np.array_equal(kernel.gram(a, operand), kernel(a, b))
        # A block of rows gives those rows of the whole Gram matrix.
        assert np.allclose(kernel.gram(a[2:5], operand), kernel(a, b)[2:5], rtol=1e-14)

    def test_rbf_keeps_its_elementwise_arithmetic(self):
        # ||a||² + ||b||² − 2·(a·bᵀ), clamped at 0, times −γ, exp: the
        # formula every fitted bundle's predictions were computed with.
        rng = np.random.default_rng(6)
        a, b = rng.normal(size=(6, 5)), rng.normal(size=(8, 5))
        a_sq = np.einsum("ij,ij->i", a, a)[:, None]
        b_sq = np.einsum("ij,ij->i", b, b)[None, :]
        expected = np.exp(np.maximum(a_sq + b_sq - 2.0 * (a @ b.T), 0.0) * -0.3)
        assert np.array_equal(RBFKernel(gamma=0.3).gram(a, prepare(b)), expected)

    def test_1d_operand_is_one_row(self):
        operand = prepare(np.array([3.0, 4.0]))
        assert operand.rows.shape == (1, 2)
        assert operand.sq_norms.tolist() == [25.0]


class TestRBFKernel:
    def test_self_similarity_is_one(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(5, 3))
        g = RBFKernel(gamma=0.1)(a, a)
        assert np.allclose(np.diag(g), 1.0)

    def test_bounded_between_zero_and_one(self):
        rng = np.random.default_rng(3)
        g = RBFKernel(gamma=0.5)(rng.normal(size=(8, 4)), rng.normal(size=(9, 4)))
        assert np.all(g > 0.0) and np.all(g <= 1.0)

    def test_matches_explicit_formula(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[3.0, 4.0]])  # distance 5
        g = RBFKernel(gamma=0.1)(a, b)
        assert g[0, 0] == pytest.approx(np.exp(-0.1 * 25.0))

    def test_decreases_with_distance(self):
        a = np.array([[0.0]])
        near = RBFKernel(gamma=0.1)(a, np.array([[1.0]]))[0, 0]
        far = RBFKernel(gamma=0.1)(a, np.array([[5.0]]))[0, 0]
        assert near > far

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError):
            RBFKernel(gamma=0.0)

    def test_gram_psd(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(20, 5))
        g = RBFKernel(gamma=0.1)(a, a)
        eigs = np.linalg.eigvalsh(g)
        assert eigs.min() > -1e-9


def test_diag_matches_gram_diagonal():
    kernel = RBFKernel(gamma=0.3)
    x = np.random.default_rng(2).normal(size=(7, 4))
    assert np.allclose(kernel.diag(x), np.diag(kernel(x, x)), rtol=1e-12, atol=1e-12)
    assert kernel.diag(x[0]).shape == (1,)


class TestStandardScaler:
    def test_zero_mean_unit_var(self):
        rng = np.random.default_rng(5)
        x = rng.normal(loc=3.0, scale=2.0, size=(100, 4))
        z = StandardScaler().fit(x).transform(x)
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(z.std(axis=0), 1.0, atol=1e-12)

    def test_constant_column_maps_to_zero(self):
        x = np.column_stack([np.ones(10), np.arange(10.0)])
        z = StandardScaler().fit(x).transform(x)
        assert np.allclose(z[:, 0], 0.0)

    def test_1d_transform(self):
        x = np.arange(10.0).reshape(-1, 1)
        s = StandardScaler().fit(x)
        row = s.transform(np.array([4.5]))
        assert row.shape == (1,)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.ones((2, 2)))

    def test_1d_fit_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            StandardScaler().fit(np.arange(5.0))

    def test_transform_leaves_its_input_alone(self):
        rng = np.random.default_rng(9)
        x = rng.normal(loc=2.0, size=(12, 3))
        before = x.copy()
        StandardScaler().fit(x).transform(x)
        assert np.array_equal(x, before)

    def test_empty_fit_rejected(self):
        with pytest.raises(ValueError):
            StandardScaler().fit(np.empty((0, 3)))
