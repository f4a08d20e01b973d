"""The dual SVR solver: KKT optimality, shrinking, memory, determinism,
old bundles."""

import json
import tracemalloc

import numpy as np
import pytest

from repro.core.pipeline import build_batch_design_matrix
from repro.harness.context import quick_context
from repro.ml.kernels import RBFKernel, prepare
from repro.ml.svr import GRAM_BLOCK_ENTRIES, SVR
from repro.pareto.algorithms import pareto_front_masks
from repro.suite import test_benchmarks

from .oracle_expansion import EXPANSION_RTOL, oracle_predict
from .oracle_greedy_cd import UnshrunkSVR


def smooth_data(n, d=3, noise=0.05, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, size=(n, d))
    y = np.sin(x[:, 0]) + 0.5 * x[:, 1] + noise * rng.normal(size=n)
    return x, y


def full_gram_kkt_steps(model, x, y):
    """Each coordinate's exact 1-D step, from the dense Gram matrix.

    Independent of the solver's incremental gradient: ``g = Kβ − y_c``
    recomputed from scratch, then the soft-threshold/box-clip minimizer.
    """
    gram = model.kernel(x, x)
    k_diag = np.diag(gram)
    beta = model.beta_
    g = gram @ beta - (y - y.mean())
    z = beta - g / k_diag
    target = np.sign(z) * np.clip(np.abs(z) - model.epsilon / k_diag, 0.0, model.C)
    return np.abs(target - beta) * k_diag, gram


class TestKKT:
    @pytest.mark.parametrize(
        "kernel, C",
        [
            (RBFKernel(gamma=0.5), 1.0),
            (RBFKernel(gamma=0.5), 0.05),  # many β at the box bound
            (RBFKernel(gamma=2.0), 100.0),
        ],
    )
    def test_fitted_beta_is_optimal_to_tol(self, kernel, C):
        x, y = smooth_data(120, noise=0.3, seed=4)
        model = SVR(kernel=kernel, C=C, epsilon=0.1).fit(x, y)
        steps, gram = full_gram_kkt_steps(model, x, y)
        assert model.converged_ is True
        assert steps.max() <= model.tol * (1 + 1e-9)
        assert model.kkt_violation_ == pytest.approx(steps.max(), rel=1e-9, abs=1e-12)
        assert np.all(np.abs(model.beta_) <= C)
        if C == 0.05:
            assert np.any(np.abs(model.beta_) == C)
        beta = model.beta_
        dense = 0.5 * beta @ gram @ beta - (y - y.mean()) @ beta
        dense += model.epsilon * np.abs(beta).sum()
        assert model.dual_objective() == pytest.approx(dense, rel=1e-9, abs=1e-12)

    def test_iteration_cap_is_reported_not_silent(self):
        x, y = smooth_data(200, noise=0.3)
        model = SVR(kernel=RBFKernel(gamma=0.5), C=1000.0, max_iter=5).fit(x, y)
        assert model.iterations_ == 5
        assert model.converged_ is False
        assert model.kkt_violation_ > model.tol
        steps, _ = full_gram_kkt_steps(model, x, y)
        assert model.kkt_violation_ == pytest.approx(steps.max(), rel=1e-9)
        state = json.loads(json.dumps(model.to_state()))
        assert state["converged"] is False and state["iterations"] == 5


#: Problems on which the default solver shrinks (its active set ends far
#: below n), as (data arguments, SVR arguments).
SHRINKING_PROBLEMS = {
    "rbf-C1": (dict(n=400, d=2, noise=0.3, seed=4), dict(gamma=0.5, C=1.0)),
    "rbf-C3": (dict(n=400, d=3, noise=0.5, seed=4), dict(gamma=0.5, C=3.0)),
}


def shrinking_problem(name, cls=SVR, **svr_args):
    data, args = SHRINKING_PROBLEMS[name]
    x, y = smooth_data(**data)
    model = cls(kernel=RBFKernel(gamma=args["gamma"]), C=args["C"], **svr_args)
    return model, x, y


class EagerSVR(SVR):
    """Shrinks after every round, on no margin: shrunk coordinates are
    often wrong, so the full-gradient check has to catch them."""

    SHRINK_EVERY = 1
    SHRINK_MARGIN = 0.0


class TestShrinking:
    @pytest.mark.parametrize("name", sorted(SHRINKING_PROBLEMS))
    def test_matches_the_unshrunk_oracle(self, name):
        model, x, y = shrinking_problem(name)
        oracle, _, _ = shrinking_problem(name, cls=UnshrunkSVR)
        model.fit(x, y)
        oracle.fit(x, y)
        assert model.active_size_ < len(x) // 4
        assert model.full_checks_ == 1
        assert model.converged_ is True
        assert model.iterations_ == oracle.iterations_
        assert model.n_support_ == oracle.n_support_
        np.testing.assert_allclose(model.beta_, oracle.beta_, rtol=0.0, atol=1e-10)
        again, _, _ = shrinking_problem(name)
        again.fit(x, y)
        assert np.array_equal(again.beta_, model.beta_)
        assert again.to_state() == model.to_state()

    def test_shrunk_fit_meets_the_dense_kkt_test(self):
        x, y = smooth_data(120, noise=0.3, seed=4)
        model = EagerSVR(kernel=RBFKernel(gamma=0.5), C=1.0).fit(x, y)
        steps, _ = full_gram_kkt_steps(model, x, y)
        assert model.active_size_ < len(x)
        assert model.converged_ is True
        assert steps.max() <= model.tol * (1 + 1e-9)
        assert model.kkt_violation_ == pytest.approx(steps.max(), rel=1e-9, abs=1e-12)

    def test_wrongly_shrunk_coordinate_is_readmitted_and_moves(self):
        # With C small, round 1 puts every coordinate it moves at a bound,
        # and the eager solver shrinks right after it: exactly those that
        # then sit at 0 inside the tube or at a bound pushed outward.
        x, y = smooth_data(200, noise=0.3, seed=4)
        kernel, c_box, eps = RBFKernel(gamma=0.5), 0.05, 0.1
        first = EagerSVR(kernel=kernel, C=c_box, epsilon=eps, max_iter=1).fit(x, y)
        b1 = first.beta_
        g1 = kernel(x, x) @ b1 - (y - y.mean())
        shrunk = (b1 == 0.0) & (np.abs(g1) < eps)
        shrunk |= (b1 == c_box) & (g1 < -eps)
        shrunk |= (b1 == -c_box) & (g1 > eps)
        assert first.active_size_ == len(x) - np.count_nonzero(shrunk)

        model = EagerSVR(kernel=kernel, C=c_box, epsilon=eps).fit(x, y)
        assert np.any(shrunk & (model.beta_ != b1))
        assert model.full_checks_ >= 2
        steps, _ = full_gram_kkt_steps(model, x, y)
        assert model.converged_ is True
        assert steps.max() <= model.tol * (1 + 1e-9)

    def test_capped_shrunk_fit_reports_the_full_violation(self):
        model, x, y = shrinking_problem("rbf-C1", max_iter=1000)
        oracle, _, _ = shrinking_problem("rbf-C1", cls=UnshrunkSVR, max_iter=1000)
        model.fit(x, y)
        oracle.fit(x, y)
        assert model.active_size_ < len(x)
        assert model.iterations_ == 1000
        assert model.converged_ is False
        steps, _ = full_gram_kkt_steps(model, x, y)
        assert model.kkt_violation_ == pytest.approx(steps.max(), rel=1e-9)
        assert model.kkt_violation_ == pytest.approx(oracle.kkt_violation_, rel=1e-9)
        assert model.kkt_violation_ > model.tol

    def test_peak_memory_at_most_the_oracles(self):
        peaks = []
        for cls in (UnshrunkSVR, SVR):
            model, x, y = shrinking_problem("rbf-C1", cls=cls)
            tracemalloc.start()
            try:
                model.fit(x, y)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        oracle_peak, shrunk_peak = peaks
        assert shrunk_peak <= oracle_peak


class TestNoGram:
    def test_fit_never_allocates_a_quarter_gram(self):
        n = 3000
        x, y = smooth_data(n)
        tracemalloc.start()
        try:
            model = SVR(kernel=RBFKernel(gamma=0.5), C=1.0, epsilon=0.1).fit(x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4
        assert model.converged_ is True
        assert model.rows_computed_ < n

    def test_no_full_gram_in_fit_or_dual_objective(self):
        class Recording(RBFKernel):
            # Every RBF evaluation, called or against a prepared operand.
            def gram(self, a, b):
                shapes.append((np.shape(a)[0], b.rows.shape[0]))
                return super().gram(a, b)

        shapes = []
        x, y = smooth_data(400)
        model = SVR(kernel=Recording(gamma=0.5), C=1.0).fit(x, y)
        model.dual_objective()
        assert model.n_support_ < 400
        assert (400, 400) not in shapes
        assert max(a * b for a, b in shapes) <= 400 * model.n_support_


class TestPreparedOperand:
    def test_fit_matches_per_row_kernel_calls_bitwise(self):
        # The fit evaluates each kernel row against the training matrix
        # prepared once; preparing it afresh for every row, as a plain
        # kernel(xa[j:j+1], xa) call does, must give the same β bit for bit.
        class PerRow(RBFKernel):
            def gram(self, a, b):
                return super().gram(a, prepare(b.rows))

        x, y = smooth_data(300, noise=0.3, seed=9)
        prepared = SVR(kernel=RBFKernel(gamma=0.5), C=1.0).fit(x, y)
        per_row = SVR(kernel=PerRow(gamma=0.5), C=1.0).fit(x, y)
        assert prepared.rows_computed_ == per_row.rows_computed_ > 0
        assert np.array_equal(prepared.beta_, per_row.beta_)


def support_model(n_sv, d=32, seed=0):
    """A dual-path RBF model with ``n_sv`` random support vectors."""
    rng = np.random.default_rng(seed)
    return SVR.from_state(
        {
            "kind": "svr",
            "kernel": {"kind": "rbf", "gamma": 0.1},
            "C": 1.0,
            "epsilon": 0.1,
            "tol": 1e-3,
            "bias": 0.7,
            "beta": rng.uniform(-1.0, 1.0, n_sv).tolist(),
            "coef": None,
            "sv_mask": None,
            "x_train": rng.normal(size=(n_sv, d)).tolist(),
        }
    )


class TestBlockedExpansion:
    """predict evaluates the kernel expansion in blocks of rows whose Gram
    slab stays within GRAM_BLOCK_ENTRIES; neither the blocks nor the RBF
    kernel's augmented GEMM change an answer beyond summation order, so
    every answer is the float64 oracle's within EXPANSION_RTOL."""

    N_SV = 700

    @pytest.fixture(scope="class")
    def model(self):
        return support_model(self.N_SV)

    def test_block_rows_follow_the_support_count(self, model):
        assert model.block_rows == GRAM_BLOCK_ENTRIES // self.N_SV
        assert model.block_rows * self.N_SV <= GRAM_BLOCK_ENTRIES
        assert support_model(GRAM_BLOCK_ENTRIES + 1, d=2).block_rows == 1

    @pytest.mark.parametrize(
        "blocks, extra",
        [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (5, 3)],
        ids=["0", "1", "B-1", "B", "B+1", "5B+3"],
    )
    def test_agrees_with_the_one_shot_expansion(self, model, blocks, extra):
        n = blocks * model.block_rows + extra
        x = np.random.default_rng(n).normal(size=(n, 32))
        predicted = model.predict(x)
        assert predicted.shape == (n,)
        np.testing.assert_allclose(
            predicted, oracle_predict(model, x), rtol=EXPANSION_RTOL, atol=0.0
        )

    @pytest.mark.parametrize("far", [1e30, 1e300])
    def test_far_rows_predict_the_oracles_finite_value(self, model, far):
        # ‖x‖² is 1e60 or overflows to inf: −γ‖x‖² must reach exp as −inf,
        # never meet an inf of the opposite sign as NaN.
        x = np.random.default_rng(3).normal(size=(4, 32))
        x[1, 0] = far
        x[2, :] = -far
        predicted = model.predict(x)
        assert np.all(np.isfinite(predicted))
        np.testing.assert_allclose(
            predicted, oracle_predict(model, x), rtol=EXPANSION_RTOL, atol=0.0
        )
        assert predicted[1] == predicted[2] == model.bias_

    def test_single_row_input_returns_a_scalar(self, model):
        x = np.random.default_rng(1).normal(size=32)
        assert model.predict(x) == model.predict(x[None, :])[0]

    def test_a_zero_support_state_predicts_its_bias(self):
        state = support_model(1).to_state()
        model = SVR.from_state(state | {"beta": [], "x_train": []})
        x = np.random.default_rng(4).normal(size=(5, 3))
        assert model.n_support_ == 0
        assert np.array_equal(model.predict(x), np.full(5, model.bias_))
        # The expansion alone: no support vector, no contribution.
        expansion = model.kernel.expansion(np.empty((0, 3)), np.empty(0))
        assert np.array_equal(expansion(x), np.zeros(5))

    def test_no_support_vectors_predicts_the_bias(self):
        x, y = smooth_data(50)
        model = SVR(kernel=RBFKernel(gamma=0.5), epsilon=100.0).fit(x, y)
        assert model.n_support_ == 0
        reloaded = SVR.from_state(json.loads(json.dumps(model.to_state())))
        for m in (model, reloaded):
            assert np.array_equal(m.predict(x), np.full(len(x), model.bias_))
            assert m.predict(x[0]) == model.bias_
            assert m.predict(x[:0]).shape == (0,)

    def test_predict_allocates_block_sized_slabs(self, model):
        # 918 rows (27 kernels × 34 candidates) against 700 support
        # vectors: one 918-row Gram slab and its temporary would be
        # 10 MB; 512-row blocks were 5.7 MB.
        x = np.random.default_rng(2).normal(size=(918, 32))
        model.predict(x)
        tracemalloc.start()
        try:
            model.predict(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestDeterminism:
    def test_two_fits_are_bit_identical(self):
        x, y = smooth_data(300, noise=0.3, seed=9)
        a = SVR(kernel=RBFKernel(gamma=0.5), C=1.0).fit(x, y)
        b = SVR(kernel=RBFKernel(gamma=0.5), C=1.0).fit(x, y)
        assert np.array_equal(a.beta_, b.beta_)
        assert a.to_state() == b.to_state()
        assert np.array_equal(a.predict(x), b.predict(x))
        assert (a.active_size_, a.full_checks_) == (b.active_size_, b.full_checks_)


#: States written by the random-order CD solver with an epoch cap, before
#: the greedy one: ``max_epochs``/``shuffle_seed``/``n_epochs`` keys and
#: no convergence record.  Each pairs with its predictions at ``PROBE``,
#: as float.hex, computed when it was written.
PARENT_STATES = [
    (
        '{"kind": "svr", "kernel": {"kind": "rbf", "gamma": 0.1}, "C": 1000.0, '
        '"epsilon": 0.1, "max_epochs": 120, "tol": 0.0001, "shuffle_seed": 0, '
        '"bias": 1.3378333333333334, "n_epochs": 120, "beta": [-10.97586717151008, '
        "20.050829893428606, -4.329750185565446, 7.759600582972237, "
        "-2.4569229309683744, -19.060066947272762, 14.30400342474714, "
        "-6.6657775816575855, -9.540432601778878, 14.345745853916778], "
        '"coef": null, "sv_mask": null, "x_train": [[0.031, -0.428], '
        "[-0.892, -0.233], [-0.183, -0.909], [-0.902, 0.998], [0.305, -0.531], "
        "[-0.13, 0.948], [0.795, 0.688], [-0.215, -0.014], [0.111, -0.457], "
        "[0.759, -0.872]]}",
        ["0x1.1d2e5d006f40fp+0", "0x1.64c531b57a1a5p+0", "0x1.193fc051b53abp+0"],
    ),
    (
        '{"kind": "svr", "kernel": {"kind": "linear"}, "C": 1000.0, '
        '"epsilon": 0.1, "max_epochs": 120, "tol": 0.0001, "shuffle_seed": 0, '
        '"bias": 1.3283397493595563, "n_epochs": 22, "beta": null, '
        '"coef": [-0.08063108906665202, -0.18678561302929117], '
        '"sv_mask": [true, true, true, false, true, false, true, true, true, '
        'true, true, true], "x_train": null}',
        ["0x1.540e12e579e3cp+0", "0x1.55b03ff1041ecp+0", "0x1.3880307a05620p+0"],
    ),
]
PROBE = np.array([[0.0, 0.0], [0.5, -0.25], [-0.75, 0.9]])


class TestOlderStates:
    @pytest.mark.parametrize("text, expected", PARENT_STATES, ids=["rbf", "linear"])
    def test_loads_and_predicts_bit_identically(self, text, expected):
        # The pins hold bit for bit for the linear primal and for the
        # float64 oracle of the dual path; the RBF pass agrees with the
        # oracle within EXPANSION_RTOL (2.4e-15 measured here).
        state = json.loads(text)
        model = SVR.from_state(state)
        predicted = model.predict(PROBE)
        exact = predicted if model.coef_ is not None else oracle_predict(model, PROBE)
        assert [float(v).hex() for v in exact] == expected
        np.testing.assert_allclose(predicted, exact, rtol=EXPANSION_RTOL, atol=0.0)
        assert model.iterations_ == state["n_epochs"]
        assert model.converged_ is None and model.kkt_violation_ is None
        assert "max_epochs" not in model.to_state()


class TestOracleFronts:
    def test_quick_suite_fronts_are_the_oracles(self):
        """The quick bundle's suite fronts, over the predictor's candidates,
        are identical under the production pass and the float64 oracle."""
        ctx = quick_context()
        models = ctx.models
        statics = [s.static_features(models.feature_recipe) for s in test_benchmarks()]
        candidates = ctx.predictor.candidates
        x = models.scaler.transform(build_batch_design_matrix(statics, candidates))
        shape = (len(statics), len(candidates))
        speedups = models.speedup_model.predict(x).reshape(shape)
        energies = models.energy_model.predict(x).reshape(shape)
        oracle = oracle_predict(models.energy_model, x).reshape(shape)
        np.testing.assert_allclose(energies, oracle, rtol=EXPANSION_RTOL, atol=0.0)
        assert np.array_equal(
            pareto_front_masks(speedups, energies), pareto_front_masks(speedups, oracle)
        )
