import ctypes
import functools
import importlib
import math
import os
import pkgutil
import shutil
import stat
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.special import expit
from scipy.spatial.distance import cdist

import wattcast
import wattcast.regressors
import wattcast.regressors._distance as distance_module
import wattcast.regressors._native as native_module
import wattcast.regressors.base as base_module
import wattcast.regressors.gaussian_process as gp_module
import wattcast.regressors.mlp as mlp_module
import wattcast.regressors.svr as svr_module
from wattcast.errors import (
    CholeskyFailure,
    ConfigError,
    DivergedLoss,
    HistoryTooShort,
    KernelTooLarge,
    KTooLarge,
    LengthMismatch,
    MissingCells,
    NonFinitePrediction,
    Underdetermined,
)
from wattcast.regressors import (
    ForecastModel,
    GpModel,
    KnnModel,
    MlpModel,
    OlsModel,
    SvrModel,
    default_hidden,
)
from wattcast.synthetic import household_series
from wattcast.transform import SupervisedFrame, apply_scaler, fit_scaler, lag_embed


class MeanModel(ForecastModel):
    """Predicts the training-target mean (RAE 1 by construction): the
    smallest model the base class can run."""

    def _fit(self, X, y):
        self.mean_ = float(y.mean())

    def _predict(self, X):
        return np.full(X.shape[0], self.mean_)


def make_frame(X, y, lag_order=None):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    p = X.shape[1] if lag_order is None else lag_order
    names = tuple(f"lag_{p - j}" for j in range(p))
    names += tuple(f"x{j}" for j in range(X.shape[1] - p))
    positions = np.arange(p, p + y.size)
    return SupervisedFrame(X, y, p, names, positions)


def random_frame(rng, n=40, p=3):
    X = rng.normal(size=(n, p))
    y = X @ rng.normal(size=p) + 0.5 + 0.1 * rng.normal(size=n)
    return make_frame(X, y)


class TestOls:
    def test_hand_solved_line(self):
        model = OlsModel().fit(make_frame([[0], [1], [2]], [1, 3, 4]))
        assert abs(model.coef_[0] - 1.5) <= 1e-10
        assert abs(model.intercept_ - 7 / 6) <= 1e-10

    def test_constant_targets(self):
        model = OlsModel().fit(make_frame([[0], [1], [2], [5]], [3, 3, 3, 3]))
        assert abs(model.intercept_ - 3.0) <= 1e-10
        assert abs(model.coef_[0]) <= 1e-10

    def test_exact_linear_interpolation(self):
        x = np.arange(6.0)
        model = OlsModel().fit(make_frame(x[:, None], 2 * x))
        assert abs(model.coef_[0] - 2.0) <= 1e-10
        assert abs(model.intercept_) <= 1e-10
        assert np.allclose(model.predict_batch(x[:, None]), 2 * x, atol=1e-10)

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(10)
        frame = random_frame(rng)
        model = OlsModel().fit(frame)
        resid = frame.y - model.predict_batch(frame.X)
        A = np.column_stack([np.ones(frame.n_samples), frame.X])
        assert np.max(np.abs(A.T @ resid)) <= 1e-8 * max(np.abs(frame.y).sum(), 1.0)
        assert abs(resid.mean()) <= 1e-10

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(11)
        frame = random_frame(rng)
        perm = rng.permutation(frame.n_samples)
        shuffled = make_frame(frame.X[perm], frame.y[perm])
        a = OlsModel().fit(frame)
        b = OlsModel().fit(shuffled)
        probe = rng.normal(size=(5, frame.n_features))
        assert np.allclose(a.predict_batch(probe), b.predict_batch(probe), atol=1e-8)

    def test_underdetermined(self):
        with pytest.raises(Underdetermined):
            OlsModel().fit(make_frame(np.eye(3), [1, 2, 3]))

    def test_constant_column_handled_by_jitter(self):
        x = np.arange(8.0)
        X = np.column_stack([x, np.full(8, 5.0)])
        model = OlsModel().fit(make_frame(X, 2 * x + 1))
        assert abs(model.coef_[1]) <= 1e-3
        assert np.allclose(model.predict_batch(X), 2 * x + 1, atol=1e-6)


class TestKnn:
    def test_hand_ranked_neighbours(self):
        model = KnnModel(k=2).fit(make_frame([[0], [1], [2]], [0, 10, 20]))
        assert model.predict([0.6]) == 5.0

    def test_k1_at_training_point(self):
        model = KnnModel(k=1).fit(make_frame([[0], [1], [2]], [4, 8, 15]))
        assert model.predict([1.0]) == 8.0

    def test_k_equals_n_is_global_mean(self):
        y = np.array([1.0, 2.0, 6.0])
        model = KnnModel(k=3).fit(make_frame([[0], [1], [2]], y))
        assert model.predict([99.0]) == pytest.approx(y.mean())

    def test_overflowing_mean_is_infinite(self, recwarn):
        model = KnnModel(k=2).fit(make_frame([[0], [1], [2]], [1e308, 1e308, 0.0]))
        assert model.predict([0.4]) == np.inf  # refused downstream as NonFinitePrediction
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_tie_keeps_earlier_index(self):
        model = KnnModel(k=1).fit(make_frame([[0], [2], [4]], [100, 200, 300]))
        # query at 1 is equidistant from 0 and 2
        assert model.predict([1.0]) == 100.0

    def test_k_too_large(self):
        with pytest.raises(KTooLarge):
            KnnModel(k=4).fit(make_frame([[0], [1], [2]], [1, 2, 3]))

    def test_prediction_within_target_range(self):
        rng = np.random.default_rng(12)
        frame = random_frame(rng)
        model = KnnModel(k=3).fit(frame)
        preds = model.predict_batch(rng.normal(size=(30, frame.n_features)))
        assert preds.min() >= frame.y.min()
        assert preds.max() <= frame.y.max()

    @pytest.mark.parametrize("k", [1, 3, "n_train"])
    def test_bitwise_equal_to_a_full_stable_sort(self, k):
        # grid rows appear three times, so queries on the grid tie at the
        # k-th distance and off-grid queries mostly do not; targets spanning
        # 16 decades make the mean depend on the order of its summands
        rng = np.random.default_rng(13)
        X = np.vstack([np.repeat(rng.integers(0, 3, size=(8, 2)).astype(float), 3, axis=0),
                       rng.normal(size=(12, 2))])
        y = rng.normal(size=X.shape[0]) * 10.0 ** rng.integers(-8, 9, size=X.shape[0])
        k = X.shape[0] if k == "n_train" else k
        model = KnnModel(k=k).fit(make_frame(X, y))
        queries = np.vstack([X, rng.integers(0, 3, size=(20, 2)).astype(float),
                             rng.normal(size=(20, 2))])
        order = np.argsort(cdist(queries, X), axis=1, kind="stable")[:, :k]
        assert model.predict_batch(queries).tobytes() == y[order].mean(axis=1).tobytes()

    def test_ties_are_judged_on_the_euclidean_distance(self):
        # the squared distances to the origin differ in the last bit, their
        # square roots do not: a tie, which the stable sort gives to row 0
        X = np.array([[1.257157013469696, 0.3309928148524588],
                      [-0.12742753851267372, -1.2937396269839618]])
        origin = np.zeros((1, 2))
        sq = cdist(origin, X, "sqeuclidean")[0]
        assert sq[0] > sq[1] and np.sqrt(sq[0]) == np.sqrt(sq[1])
        model = KnnModel(k=1).fit(make_frame(X, [1.0, 2.0]))
        assert model.predict_batch(origin).tolist() == [1.0]


class TestGp:
    def test_near_noiseless_interpolation(self):
        frame = make_frame([[0], [1], [2]], [1.0, 2.0, 0.0])
        model = GpModel(noise_var=1e-12, standardize=False).fit(frame)
        assert np.allclose(model.predict_batch(frame.X), frame.y, atol=1e-6)

    def test_far_query_reverts_to_prior(self):
        frame = make_frame([[0], [1]], [3.0, 4.0])
        model = GpModel(signal_var=2.0, noise_var=0.5, standardize=False).fit(frame)
        mean, var = model.predict_with_variance([100.0])
        assert abs(mean) <= 1e-12
        assert var == pytest.approx(2.5, abs=1e-12)

    def test_two_point_linear_solve_oracle(self):
        frame = make_frame([[0.0], [1.0]], [0.0, 1.0])
        model = GpModel(signal_var=1.0, length_scale=1.0, noise_var=0.1,
                        standardize=False).fit(frame)
        K = np.exp(-0.5 * np.array([[0.0, 1.0], [1.0, 0.0]])) + 0.1 * np.eye(2)
        k_star = np.exp(-np.array([0.5 ** 2, 0.5 ** 2]) / 2.0)
        expected = k_star @ np.linalg.solve(K, np.array([0.0, 1.0]))
        assert abs(model.predict([0.5]) - expected) <= 1e-10

    def test_posterior_variance_bounded_by_prior(self):
        rng = np.random.default_rng(13)
        frame = random_frame(rng, n=25)
        model = GpModel(standardize=False).fit(frame)
        prior = model.signal_var + model.noise_var
        for row in frame.X[:10]:
            _, var = model.predict_with_variance(row)
            assert 0.0 <= var <= prior + 1e-12

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(14)
        frame = random_frame(rng, n=30)
        perm = rng.permutation(frame.n_samples)
        a = GpModel().fit(frame)
        b = GpModel().fit(make_frame(frame.X[perm], frame.y[perm]))
        probe = rng.normal(size=(8, frame.n_features))
        assert np.allclose(a.predict_batch(probe), b.predict_batch(probe), atol=1e-8)

    def test_standardized_far_query_reverts_to_train_mean(self):
        rng = np.random.default_rng(15)
        frame = random_frame(rng, n=20)
        model = GpModel().fit(frame)
        far = np.full((1, frame.n_features), 1e6)
        assert model.predict_batch(far)[0] == pytest.approx(frame.y.mean(), rel=1e-9)

    def test_rejects_zero_noise(self):
        with pytest.raises(ValueError):
            GpModel(noise_var=0.0)

    def test_nan_query_gives_nan_mean_and_variance(self):
        model = GpModel().fit(random_frame(np.random.default_rng(17), n=20))
        query = np.zeros(model.lag_order_)
        query[0] = np.nan
        mean, var = model.predict_with_variance(query)
        assert math.isnan(mean) and math.isnan(var)
        assert math.isnan(model.predict(query))

    @pytest.mark.parametrize("standardize", [True, False])
    def test_batch_mean_equals_posterior_mean(self, standardize):
        rng = np.random.default_rng(16)
        frame = random_frame(rng, n=40, p=4)
        model = GpModel(standardize=standardize).fit(frame)
        probe = rng.normal(size=(9, frame.n_features))
        scaled = apply_scaler(model.x_scaler_, probe) if standardize else probe
        mean, _ = model._posterior(scaled)
        if standardize:
            mean = mean * model.y_scaler_.scale + model.y_scaler_.mean
        assert model.predict_batch(probe).tobytes() == mean.tobytes()

    def test_jitter_rung_factors_a_clean_copy(self):
        # 40 identical rows make K all ones: rung 0 is singular, rung 1e-10 is not
        frame = make_frame(np.zeros((40, 2)), np.arange(40.0))
        model = GpModel(noise_var=1e-300, standardize=False).fit(frame)
        K = np.ones((40, 40))
        with pytest.raises(np.linalg.LinAlgError):
            cho_factor(K + 1e-300 * np.eye(40), lower=True)
        c = 1e-300 + 1e-10 * (model.signal_var + 1e-300)
        expected = cho_factor(K + c * np.eye(40), lower=True)
        assert np.tril(model.chol_[0]).tobytes() == np.tril(expected[0]).tobytes()
        assert model.alpha_.tobytes() == cho_solve(expected, frame.y).tobytes()

    def test_failed_rung_leaves_the_kernel_intact(self):
        # the last row repeats the first, so rung 0 fails at the last pivot,
        # after overwriting the whole triangle it factors; the rows differ
        # otherwise, so a next rung that factored any of that shows
        X = np.append(np.linspace(0.0, 2.0, 25), 0.0)[:, None]
        y = np.sin(3 * X[:, 0])
        model = GpModel(noise_var=1e-300, standardize=False).fit(make_frame(X, y))
        K = np.exp(-cdist(X, X, "sqeuclidean") / 2.0)
        with pytest.raises(np.linalg.LinAlgError):
            cho_factor(K + 1e-300 * np.eye(26), lower=True)
        expected = cho_factor(K + (1e-300 + 1e-10 * (1.0 + 1e-300)) * np.eye(26), lower=True)
        assert np.tril(model.chol_[0]).tobytes() == np.tril(expected[0]).tobytes()
        assert model.alpha_.tobytes() == cho_solve(expected, y).tobytes()

    def test_exhausted_ladder_raises_cholesky_failure(self, monkeypatch):
        # K is all ones: every rung of a ladder without jitter fails
        monkeypatch.setattr(gp_module, "_JITTER_LADDER", (0.0, 0.0))
        frame = make_frame(np.zeros((40, 2)), np.arange(40.0))
        with pytest.raises(CholeskyFailure, match="after maximum jitter 0$"):
            GpModel(noise_var=1e-300, standardize=False).fit(frame)

    def test_fit_holds_one_kernel_matrix(self):
        frame = lag_embed(household_series(324, seed=4), 24)
        n = frame.n_samples
        assert n == 300
        GpModel().fit(frame)  # loads what the fit imports outside the trace
        tracemalloc.start()
        try:
            GpModel().fit(frame)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * n * n


def project_box_hyperplane(v, z, box):
    """Euclidean projection onto {0 <= t <= box, z't = 0} by bisection."""
    lo = -(np.max(np.abs(v)) + box + 1.0)
    hi = -lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if z @ np.clip(v - mid * z, 0.0, box) > 0.0:
            lo = mid
        else:
            hi = mid
    return np.clip(v - 0.5 * (lo + hi) * z, 0.0, box)


def dual_objective(K, y, epsilon, alpha, alpha_star):
    """Epsilon-SVR dual objective in minimization form (lower is better)."""
    beta = alpha - alpha_star
    return float(0.5 * beta @ K @ beta + epsilon * np.sum(alpha + alpha_star) - y @ beta)


def svr_qp_oracle(K, y, C, epsilon, iters=400_000):
    """Dense projected-gradient solve of the epsilon-SVR dual."""
    n = y.size
    Q = np.block([[K, -K], [-K, K]])
    p = np.concatenate([epsilon - y, epsilon + y])
    z = np.concatenate([np.ones(n), -np.ones(n)])
    step = 1.0 / (np.linalg.eigvalsh(Q).max() + 1.0)
    theta = np.zeros(2 * n)
    for _ in range(iters):
        new = project_box_hyperplane(theta - step * (Q @ theta + p), z, C)
        if np.max(np.abs(new - theta)) < 1e-14:
            theta = new
            break
        theta = new
    return theta[:n], theta[n:]


@pytest.mark.parametrize("model, params", [
    (GpModel, {"signal_var": np.nan}),
    (GpModel, {"length_scale": -1.0}),
    (GpModel, {"length_scale": np.inf}),
    (GpModel, {"length_scale": 1e308}),  # its square overflows
    (GpModel, {"length_scale": 1e-320}),  # its square is 0
    (GpModel, {"noise_var": np.inf}),
    (SvrModel, {"C": np.inf}),
    (SvrModel, {"epsilon": np.nan}),
    (SvrModel, {"gamma": np.inf}),
    (MlpModel, {"lr": np.nan}),
], ids=lambda value: value.__name__ if isinstance(value, type) else next(iter(value)))
def test_rejects_non_finite_real_hyperparameter(model, params):
    with pytest.raises(ValueError, match="finite"):
        model(**params)


class TestSvr:
    def setup_method(self):
        self.X = np.array([[0.0], [1.0], [2.0], [3.0]])
        self.y = np.array([0.0, 0.9, 0.1, 0.8])
        self.gamma = 0.5
        self.K = np.exp(-self.gamma * cdist(self.X, self.X, "sqeuclidean"))

    def test_huge_gamma_kernel_underflows_without_warning(self, recwarn):
        model = SvrModel(gamma=1e308, standardize=False).fit(make_frame(self.X, self.y))
        assert np.isfinite(model.predict_batch(self.X + 0.5)).all()
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_flat_targets_give_no_support_vectors(self):
        frame = make_frame([[0], [1], [2]], [5.0, 5.0, 5.0])
        model = SvrModel(epsilon=0.1, standardize=False).fit(frame)
        assert model.support_.size == 0
        assert model.predict([1.5]) == 5.0
        assert model.converged_

    def test_duals_match_projected_gradient_oracle(self):
        frame = make_frame(self.X, self.y)
        model = SvrModel(C=1.0, epsilon=0.1, gamma=self.gamma, tol=1e-8,
                         standardize=False).fit(frame)
        alpha, alpha_star = svr_qp_oracle(self.K, self.y, 1.0, 0.1)
        assert np.max(np.abs(model.alpha_ - alpha)) <= 1e-4
        assert np.max(np.abs(model.alpha_star_ - alpha_star)) <= 1e-4

    def test_dual_objective_not_worse_than_oracle(self):
        frame = make_frame(self.X, self.y)
        model = SvrModel(C=1.0, epsilon=0.1, gamma=self.gamma,
                         standardize=False).fit(frame)
        ours = dual_objective(self.K, self.y, 0.1, model.alpha_, model.alpha_star_)
        alpha, alpha_star = svr_qp_oracle(self.K, self.y, 1.0, 0.1)
        reference = dual_objective(self.K, self.y, 0.1, alpha, alpha_star)
        scale = max(abs(reference), 1.0)
        assert ours <= reference + 1e-6 * scale

    def test_box_and_complementarity(self):
        rng = np.random.default_rng(16)
        frame = random_frame(rng, n=30)
        model = SvrModel().fit(frame)
        assert np.all(model.alpha_ >= 0) and np.all(model.alpha_ <= model.C + 1e-12)
        assert np.all(model.alpha_star_ >= 0) and np.all(model.alpha_star_ <= model.C + 1e-12)
        assert np.all(model.alpha_ * model.alpha_star_ == 0.0)

    def test_point_inside_tube_has_zero_duals(self):
        frame = make_frame(self.X, self.y)
        model = SvrModel(C=1.0, epsilon=0.1, gamma=self.gamma, tol=1e-8,
                         standardize=False).fit(frame)
        preds = model.predict_batch(self.X)
        inside = np.abs(preds - self.y) < 0.1 - 1e-9
        assert np.all(model.alpha_[inside] == 0.0)
        assert np.all(model.alpha_star_[inside] == 0.0)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(17)
        frame = random_frame(rng, n=25)
        perm = rng.permutation(frame.n_samples)
        a = SvrModel(tol=1e-6).fit(frame)
        b = SvrModel(tol=1e-6).fit(make_frame(frame.X[perm], frame.y[perm]))
        probe = rng.normal(size=(6, frame.n_features))
        assert np.allclose(a.predict_batch(probe), b.predict_batch(probe), atol=1e-4)

    def test_not_converged_keeps_best_iterate(self):
        rng = np.random.default_rng(18)
        frame = random_frame(rng, n=20)
        with pytest.warns(RuntimeWarning):
            model = SvrModel(max_iter=3).fit(frame)
        assert not model.converged_
        assert np.isfinite(model.predict([frame.X[0]]))


def _reference_smo(K, y, C, epsilon, tol, max_iter):
    """Masked maximal-violating-pair SMO: the oracle for svr._smo."""
    n = K.shape[0]
    z = np.concatenate([np.ones(n), -np.ones(n)])
    theta = np.zeros(2 * n)
    grad = np.concatenate([epsilon - y, epsilon + y])

    converged = False
    iterations = 0
    while iterations < max_iter:
        neg_zg = -z * grad
        up = ((theta < C) & (z > 0)) | ((theta > 0) & (z < 0))
        low = ((theta < C) & (z < 0)) | ((theta > 0) & (z > 0))
        m_val = np.max(neg_zg[up])
        big_m = np.min(neg_zg[low])
        if m_val - big_m <= tol:
            converged = True
            break
        i = np.flatnonzero(up)[np.argmax(neg_zg[up])]
        j = np.flatnonzero(low)[np.argmin(neg_zg[low])]

        ki, kj = i % n, j % n
        eta = K[ki, ki] + K[kj, kj] - 2.0 * K[ki, kj]
        step = (m_val - big_m) / max(eta, svr_module._TAU)
        cap_i = C - theta[i] if z[i] > 0 else theta[i]
        cap_j = theta[j] if z[j] > 0 else C - theta[j]
        step = min(step, cap_i, cap_j)

        theta[i] += z[i] * step
        theta[j] -= z[j] * step
        grad += step * z * np.concatenate([K[:, ki] - K[:, kj]] * 2)
        iterations += 1

    neg_zg = -z * grad
    up = ((theta < C) & (z > 0)) | ((theta > 0) & (z < 0))
    low = ((theta < C) & (z < 0)) | ((theta > 0) & (z > 0))
    bias = 0.5 * (np.max(neg_zg[up]) + np.min(neg_zg[low]))
    return theta[:n], theta[n:], bias, converged, iterations


def _four_point_frame():
    return make_frame([[0.0], [1.0], [2.0], [3.0]], [0.0, 0.9, 0.1, 0.8])


def _duplicated_frame():
    rng = np.random.default_rng(30)
    X = np.repeat(rng.normal(size=(10, 3)), 3, axis=0)
    y = np.repeat(rng.normal(size=10), 3)
    return make_frame(X, y)


class TestSmoMatchesReferenceLoop:
    CASES = {
        "four_points": (_four_point_frame,
                        dict(C=1.0, epsilon=0.1, gamma=0.5, tol=1e-8, standardize=False)),
        "random_n30": (lambda: random_frame(np.random.default_rng(16), n=30), {}),
        "odd_n131": (lambda: random_frame(np.random.default_rng(33), n=131), {}),
        "small_c": (lambda: random_frame(np.random.default_rng(31), n=40), dict(C=0.05)),
        "epsilon_0": (lambda: random_frame(np.random.default_rng(32), n=30),
                      dict(epsilon=0.0)),
        "duplicated_rows": (_duplicated_frame, {}),
        "max_iter_3": (lambda: random_frame(np.random.default_rng(18), n=20),
                       dict(max_iter=3)),
        "household_p24": (lambda: _household_frame(), {}),
    }

    def _solve(self, case, monkeypatch, backend="c"):
        """Fit the case, returning the solver's inputs and its result.
        ``backend`` "c" or "numpy" picks the loop; None keeps the installed
        loader, which must then fall back to the numpy loop."""
        make, params = self.CASES[case]
        real, calls, loops = svr_module._smo, [], []

        def spy(*args):
            calls.append((args, real(*args)))
            return calls[-1][1]

        loop = _kernel_or_skip(svr_module) if backend == "c" else svr_module._numpy_loop

        def counted(*args):
            loops.append(args)
            return loop(*args)

        monkeypatch.setattr(svr_module, "_smo", spy)
        if backend == "c":
            monkeypatch.setattr(svr_module, "_load_kernel", lambda: counted)
        else:
            monkeypatch.setattr(svr_module, "_numpy_loop", counted)
        if backend == "numpy":
            monkeypatch.setattr(svr_module, "_load_kernel", lambda: None)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            SvrModel(**params).fit(make())
        (args, result), = calls
        assert len(loops) == 1  # the loop ran on the backend asked for
        return args, result

    @staticmethod
    def assert_bitwise_equal_to_reference(args, result):
        alpha, alpha_star, bias, converged, iterations = result
        ref_alpha, ref_alpha_star, ref_bias, ref_converged, ref_iterations = \
            _reference_smo(*args)
        assert alpha.tobytes() == ref_alpha.tobytes()
        assert alpha_star.tobytes() == ref_alpha_star.tobytes()
        assert np.float64(bias).tobytes() == np.float64(ref_bias).tobytes()
        assert converged == ref_converged
        assert iterations == ref_iterations
        return converged

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bitwise_equal_to_reference(self, case, monkeypatch):
        converged = self.assert_bitwise_equal_to_reference(*self._solve(case, monkeypatch))
        assert converged == (case != "max_iter_3")

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_numpy_loop_bitwise_equal_to_reference(self, case, monkeypatch):
        # pins the numpy loop, the fallback when no C kernel can be built
        converged = self.assert_bitwise_equal_to_reference(
            *self._solve(case, monkeypatch, "numpy"))
        assert converged == (case != "max_iter_3")

    def test_cases_reach_their_regimes(self, monkeypatch):
        (K, y, C, *_), (alpha, alpha_star, *_) = self._solve("small_c", monkeypatch, "numpy")
        assert np.count_nonzero((alpha == C) | (alpha_star == C)) >= 10
        monkeypatch.undo()
        (K, y, *_), _ = self._solve("duplicated_rows", monkeypatch, "numpy")
        assert np.unique(K, axis=0).shape[0] == 10 and np.unique(y).size == 10
        monkeypatch.undo()
        (K, *_), _ = self._solve("household_p24", monkeypatch, "numpy")
        assert K.shape[0] >= 300
        monkeypatch.undo()
        (K, *_), _ = self._solve("odd_n131", monkeypatch, "numpy")
        assert K.shape[0] % 2 == 1 and K.shape[0] > 128  # past two whole C blocks

    # every remainder of the C pass's four lanes, one whole block of 64 and
    # the tails past it
    @pytest.mark.parametrize("n", [*range(1, 10), 64, 66, 131])
    @pytest.mark.parametrize("state", ["empty_up_set", "empty_low_set", "tied_scores",
                                       "tie_across_lanes", "nan_kernel", "infinite_score"])
    def test_c_loop_matches_numpy_loop_on_degenerate_states(self, state, n):
        """States no fit reaches: a set with no member, where numpy's argmax and
        argmin return index 0; ties across the C pass's blocks and lanes; and
        non-finite values, where the first NaN wins."""
        c_loop = _kernel_or_skip(svr_module)
        rng = np.random.default_rng(n)
        X = rng.normal(size=(n, 2))
        K = np.exp(-cdist(X, X, "sqeuclidean"))
        y = rng.normal(size=n)
        if state == "tied_scores":
            y = np.round(y)
        score = np.concatenate([y - 0.1, 0.1 + y])
        off_up = np.concatenate([np.zeros(n), np.full(n, -np.inf)])
        off_low = np.concatenate([np.full(n, np.inf), np.zeros(n)])
        if state == "empty_up_set":
            off_up[:] = -np.inf
        elif state == "empty_low_set":
            off_low[:] = np.inf
        elif state == "tie_across_lanes":
            # the extrema of each half held twice in one block: at index 3, the
            # last lane of its vector, and at index 5, lane 1 of the next
            for k in {min(3, n - 1), min(5, n - 1)}:
                score[k], score[n + k] = y.max() + 1.0, y.min() - 1.0
        elif state == "nan_kernel":
            K[:] = np.nan
        elif state == "infinite_score":
            score[n - 1] = np.inf
        runs = []
        for loop in (c_loop, svr_module._numpy_loop):
            state_arrays = [np.zeros(2 * n), score.copy(), off_up.copy(), off_low.copy()]
            with np.errstate(invalid="ignore"):
                outcome = loop(K, 0.5, 1e-3, 6, *state_arrays)
            # IEEE 754 leaves the sign of a NaN result open, so NaNs compare as one
            runs.append((outcome, [np.where(np.isnan(a), np.nan, a).tobytes()
                                   for a in state_arrays]))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("breakage", ["no_compiler", "build_fails", "load_fails"])
    def test_fallback_is_the_numpy_loop(self, breakage, monkeypatch, tmp_path):
        _break_the_build(svr_module, breakage, monkeypatch, tmp_path)
        self.assert_bitwise_equal_to_reference(*self._solve("odd_n131", monkeypatch, None))

    def test_loader_leaves_no_build_directory(self, monkeypatch, tmp_path):
        _assert_loader_leaves_no_build_directory(svr_module, monkeypatch, tmp_path)

    def test_two_fits_build_each_library_once(self, monkeypatch):
        _kernel_or_skip(svr_module)
        real_build, builds = native_module.build, []

        def counted(source):
            builds.append(source)
            return real_build(source)

        monkeypatch.setattr(native_module, "build", counted)
        # fresh loaders: this process may already hold the libraries
        for module in (svr_module, distance_module):
            monkeypatch.setattr(module, "_load_kernel",
                                functools.cache(module._load_kernel.__wrapped__))
        for seed in (16, 17):
            assert SvrModel().fit(random_frame(np.random.default_rng(seed), n=30)).converged_
        assert sorted(builds) == sorted([svr_module._KERNEL_SOURCE,
                                         distance_module._KERNEL_SOURCE])

    def test_rejects_buffers_off_an_n_by_n_kernel(self):
        c_loop = _kernel_or_skip(svr_module)
        with pytest.raises(ValueError):
            c_loop(np.eye(3), 1.0, 1e-3, 5, *(np.zeros(4) for _ in range(4)))


def _break_the_build(module, breakage, monkeypatch, tmp_path):
    """Make ``module``'s kernel unbuildable, check that its uncached loader
    returns None and removes its build directory, and install that loader."""
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    if breakage == "no_compiler":
        monkeypatch.setattr(shutil, "which", lambda name: None)
    elif breakage == "build_fails":
        broken = tmp_path / module._KERNEL_SOURCE.name
        broken.write_text("this is not C\n")
        monkeypatch.setattr(module, "_KERNEL_SOURCE", broken)
    else:
        def refuse(path):
            raise OSError(f"cannot load {path}")
        monkeypatch.setattr(ctypes, "CDLL", refuse)
    load = module._load_kernel.__wrapped__  # uncached: this process may hold a kernel
    assert load() is None
    assert list(scratch.iterdir()) == []  # the build directory is removed
    assert _build_directories() == []
    monkeypatch.setattr(module, "_load_kernel", load)


def _build_directories() -> list:
    """What a build left in the kernel cache besides its libraries."""
    return [p for p in native_module.cache_dir().iterdir() if p.suffix != ".so"]


def _assert_loader_leaves_no_build_directory(module, monkeypatch, tmp_path):
    """A build in a new cache loads the library from the cache and leaves
    nothing else there or in the temporary directory."""
    _kernel_or_skip(module)
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    loaded = module._load_kernel.__wrapped__()
    # the MLP's one load binds the epoch and the sigmoid
    entry_points = [loaded.epoch, loaded.sigmoid] if module is mlp_module else [loaded]
    assert all(map(callable, entry_points))
    assert list(scratch.iterdir()) == []
    cached, = (tmp_path / "cache" / "wattcast").iterdir()
    assert cached.name.startswith(module._KERNEL_SOURCE.stem + "-") and cached.suffix == ".so"


class TestNativeBuild:
    @staticmethod
    def fake_compiler(tmp_path, body):
        """A compiler script that logs its arguments, one call a line, then
        runs ``body``."""
        log = tmp_path / "calls"
        script = tmp_path / "fake-cc"
        script.write_text(f'#!/bin/sh\necho "$*" >> "{log}"\n{body}\n')
        script.chmod(0o755)
        return str(script), log

    def test_flag_rejected_builds_without_it(self, monkeypatch, tmp_path):
        real = shutil.which("gcc") or shutil.which("cc")
        if real is None:
            pytest.skip("no C compiler")
        fake, log = self.fake_compiler(
            tmp_path, 'case " $* " in *" -march=native "*) '
                      'echo "error: unrecognized option \'-march=native\'" >&2; exit 1;; esac\n'
                      f'exec "{real}" "$@"')
        monkeypatch.setattr(shutil, "which", lambda name: fake)
        lib = native_module.build(mlp_module._KERNEL_SOURCE)
        assert lib is not None and hasattr(lib, "mlp_epoch")
        first, second = log.read_text().splitlines()
        assert "-march=native" in first.split() and "-march=native" not in second.split()
        assert "-ffp-contract=off" in second.split()

    @pytest.mark.parametrize("error, calls", [("no such file", 1),  # no retry
                                              ("bad value for -march=", 2)])
    def test_failed_build_gives_none(self, monkeypatch, tmp_path, error, calls):
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        fake, log = self.fake_compiler(tmp_path, f'echo "error: {error}" >&2; exit 1')
        monkeypatch.setattr(shutil, "which", lambda name: fake)
        assert native_module.build(mlp_module._KERNEL_SOURCE) is None
        flagged = ["-march=native" in call.split() for call in log.read_text().splitlines()]
        assert flagged == [True, False][:calls]
        assert list(scratch.iterdir()) == []
        assert _build_directories() == []

    @pytest.mark.parametrize("source", sorted(Path(native_module.__file__).parent.glob("*.c")),
                             ids=lambda source: source.name)
    def test_source_compiles_without_warnings(self, source, tmp_path):
        built = subprocess.run([_compiler_or_skip(), *native_module._FLAGS, "-Wall", "-Wextra",
                                "-Werror", "-o", str(tmp_path / "kernel.so"), str(source), "-lm"],
                               stdin=subprocess.DEVNULL, capture_output=True, text=True,
                               timeout=120)
        assert built.returncode == 0, built.stderr


def _compiler_or_skip() -> str:
    compiler = shutil.which("gcc") or shutil.which("cc")
    if compiler is None:
        pytest.skip("no C compiler")
    return compiler


class TestKernelCache:
    SOURCE = distance_module._KERNEL_SOURCE

    @pytest.fixture
    def cache(self, monkeypatch, tmp_path):
        """An empty cache directory's path, and the list of compiler runs
        that builds append to."""
        _compiler_or_skip()
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        real_run, runs = subprocess.run, []

        def counted(argv, **kwargs):
            runs.append(argv)
            return real_run(argv, **kwargs)

        monkeypatch.setattr(subprocess, "run", counted)
        yield tmp_path / "xdg" / "wattcast", runs
        assert list(scratch.iterdir()) == []

    def library_path(self, cache_path):
        key = native_module.cache_key(self.SOURCE, _compiler_or_skip())
        if key is None:
            pytest.skip("the CPU's feature flags cannot be read")
        return cache_path / f"{self.SOURCE.stem}-{key}.so"

    def assert_loads(self):
        lib = native_module.build(self.SOURCE)
        assert lib is not None and hasattr(lib, "sq_distances")

    def test_a_hit_starts_no_compiler(self, cache):
        path, runs = cache
        library = self.library_path(path)
        self.assert_loads()
        assert len(runs) == 1
        built = Path(runs[0][runs[0].index("-o") + 1])
        assert built.parent.parent == path  # renamed within one file system
        self.assert_loads()
        assert len(runs) == 1
        assert list(path.iterdir()) == [library]
        assert stat.S_IMODE(path.stat().st_mode) == 0o700

    def test_corrupt_file_is_rebuilt(self, cache):
        path, runs = cache
        library = self.library_path(path)
        path.mkdir(parents=True)
        library.write_bytes(b"not a shared library\n")
        self.assert_loads()
        assert len(runs) == 1
        assert library.read_bytes()[:4] == b"\x7fELF"
        assert list(path.iterdir()) == [library]

    @pytest.mark.parametrize("flaw", ["foreign_owner", "group_writable", "other_writable",
                                      "not_a_directory", "no_cpu_flags"])
    def test_unusable_cache_builds_uncached(self, flaw, cache, monkeypatch):
        path, runs = cache
        path.parent.mkdir()
        if flaw == "not_a_directory":
            path.write_text("")
        else:
            path.mkdir(mode=0o700)
        if flaw == "foreign_owner":
            uid = os.getuid()
            monkeypatch.setattr(os, "getuid", lambda: uid + 1)
        elif flaw.endswith("_writable"):
            path.chmod(0o720 if flaw == "group_writable" else 0o702)
        elif flaw == "no_cpu_flags":
            monkeypatch.setattr(native_module, "_cpu_flags", lambda: None)
        self.assert_loads()
        self.assert_loads()
        assert len(runs) == 2  # nothing was cached
        assert path.is_file() or list(path.iterdir()) == []

    def test_key_follows_source_flags_compiler_and_cpu(self, monkeypatch, tmp_path):
        compiler = _compiler_or_skip()
        key = native_module.cache_key(self.SOURCE, compiler)
        if key is None:
            pytest.skip("the CPU's feature flags cannot be read")
        copy = tmp_path / "copy.c"
        copy.write_bytes(self.SOURCE.read_bytes())
        assert native_module.cache_key(copy, compiler) == key  # content, not path
        copy.write_bytes(self.SOURCE.read_bytes() + b"\n")
        assert native_module.cache_key(copy, compiler) != key
        other, _ = TestNativeBuild.fake_compiler(tmp_path, "exit 1")
        assert native_module.cache_key(self.SOURCE, other) != key
        with monkeypatch.context() as patch:
            patch.setattr(native_module, "_FLAGS", native_module._FLAGS + ("-g",))
            assert native_module.cache_key(self.SOURCE, compiler) != key
        monkeypatch.setattr(native_module, "_cpu_flags", lambda: b"flags\t: fpu\n")
        assert native_module.cache_key(self.SOURCE, compiler) != key

    def test_concurrent_builds_leave_one_library(self, tmp_path):
        # three builders race, more than a two-core machine runs at once
        _compiler_or_skip()
        env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path),
                   PYTHONPATH=str(Path(wattcast.__file__).parents[1]))
        probe = ("from wattcast.regressors import _distance, _native\n"
                 "assert _native.build(_distance._KERNEL_SOURCE) is not None")
        children = [subprocess.Popen([sys.executable, "-c", probe], env=env,
                                     stderr=subprocess.PIPE) for _ in range(3)]
        for child in children:
            _, err = child.communicate(timeout=120)
            assert child.returncode == 0, err
        library, = (tmp_path / "wattcast").iterdir()
        assert library.suffix == ".so"


def test_every_compiled_source_is_packaged():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    listed = tomllib.loads(pyproject.read_text())["tool"]["setuptools"]["package-data"]
    package_dir = Path(native_module.__file__).parent
    sources = sorted(path.name for path in package_dir.glob("*.c"))
    assert sorted(listed["wattcast.regressors"]) == sources
    # and every kernel a module builds is one of them
    for info in pkgutil.iter_modules(wattcast.regressors.__path__):
        module = importlib.import_module(f"wattcast.regressors.{info.name}")
        if hasattr(module, "_KERNEL_SOURCE"):
            assert module._KERNEL_SOURCE.parent == package_dir
            assert module._KERNEL_SOURCE.name in sources


def sgd_step_gradient_error(X, y, hidden, seed, lr=0.01, step=1e-5):
    """Worst relative gap between the gradient one training step applies and
    the central-difference gradient of half the squared error.

    On a one-row frame without momentum or scaling, one epoch moves every
    weight by ``-lr`` times the loss gradient at the initial weights, so
    ``(w[epochs=0] - w[epochs=1]) / lr`` is the gradient ``fit`` used.
    """
    frame = make_frame(X, y)
    kw = dict(hidden=hidden, lr=lr, momentum=0.0, seed=seed, standardize=False)
    start = MlpModel(epochs=0, **kw).fit(frame)
    stepped = MlpModel(epochs=1, **kw).fit(frame)
    assert stepped.final_lr_ == lr  # the step was kept, not rolled back

    worst = 0.0
    for name in ("w_in_", "b_in_", "w_out_", "b_out_"):
        weights = np.array(getattr(start, name), dtype=float)  # b_out_ as 0-d
        applied = (weights - getattr(stepped, name)) / lr
        for idx in np.ndindex(weights.shape):
            losses = []
            for delta in (step, -step):
                moved = weights.copy()
                moved[idx] += delta
                setattr(start, name, moved)
                err = start.predict_batch(X)[0] - y[0]
                losses.append(0.5 * err * err)
            fd = (losses[0] - losses[1]) / (2 * step)
            g = applied[idx]
            worst = max(worst, abs(g - fd) / max(abs(g), abs(fd), 1e-8))
        setattr(start, name, weights)
    return worst


class TestMlp:
    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="^seed must be >= 0$"):
            MlpModel(seed=-1)

    def test_refuses_weights_beyond_physical_memory_before_allocating(self, monkeypatch):
        monkeypatch.setattr(base_module, "physical_memory", lambda: 2 ** 20)
        frame = random_frame(np.random.default_rng(24), n=10)  # 3 features
        # 4 float64 arrays of h * (3 + 2) + 1 cells: 6553 units fit in 1 MiB, 6554 do not
        MlpModel(hidden=6553, epochs=0).fit(frame)
        with pytest.raises(ConfigError, match="^an MLP of 6554 hidden units needs "):
            MlpModel(hidden=6554, epochs=0).fit(frame)
        with pytest.raises(ConfigError, match="^an MLP of 1000000000000000000 hidden units"):
            MlpModel(hidden=10 ** 18, epochs=0).fit(frame)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(19)
        X = rng.normal(size=(1, 4))
        y = rng.normal(size=1)
        assert sgd_step_gradient_error(X, y, hidden=3, seed=5) <= 1e-4

    def test_zero_epochs_reproducible_from_seed(self):
        rng = np.random.default_rng(20)
        frame = random_frame(rng, n=10)
        a = MlpModel(epochs=0, seed=42).fit(frame)
        b = MlpModel(epochs=0, seed=42).fit(frame)
        probe = rng.normal(size=(4, frame.n_features))
        assert np.array_equal(a.predict_batch(probe), b.predict_batch(probe))
        c = MlpModel(epochs=0, seed=43).fit(frame)
        assert not np.array_equal(a.predict_batch(probe), c.predict_batch(probe))

    def test_learns_linear_relation(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(60, 2))
        y = 2.0 * X[:, 0] - X[:, 1] + 0.3
        model = MlpModel(hidden=4, epochs=500, seed=1).fit(make_frame(X, y))
        assert model.loss_curve_[-1] <= 0.05

    def test_loss_curve_monotone_non_increasing(self):
        rng = np.random.default_rng(22)
        frame = random_frame(rng, n=30)
        model = MlpModel(epochs=80, seed=3, lr=0.6).fit(frame)
        assert np.all(np.diff(model.loss_curve_) <= 0.0)

    @pytest.mark.parametrize("backend", ["c", "numpy"])
    def test_diverged_loss_raises(self, backend, monkeypatch):
        calls = []
        if backend == "c":
            kernel = _kernel_or_skip()

            def counted(*args, **kwargs):
                calls.append(args)
                return kernel.epoch(*args, **kwargs)

            monkeypatch.setattr(mlp_module, "_load_kernel",
                                lambda: SimpleNamespace(epoch=counted, sigmoid=kernel.sigmoid))
        else:
            monkeypatch.setattr(mlp_module, "_load_kernel", lambda: None)
        rng = np.random.default_rng(23)
        X = rng.normal(size=(20, 2)) * 1e3
        y = rng.normal(size=20) * 1e3
        with np.errstate(all="ignore"):
            with pytest.raises(DivergedLoss):
                MlpModel(lr=1e12, epochs=5, standardize=False).fit(make_frame(X, y))
        if backend == "c":
            assert len(calls) >= 2  # the initial loss, then at least one epoch

    def test_default_hidden_width(self):
        assert default_hidden(24) == 13
        assert default_hidden(1) == 1
        rng = np.random.default_rng(24)
        frame = random_frame(rng, n=12, p=5)
        model = MlpModel(epochs=0).fit(frame)
        assert model.w_in_.shape == (3, 5)

    def test_reproducible_from_seed_and_row_order(self):
        rng = np.random.default_rng(25)
        frame = random_frame(rng, n=15)
        a = MlpModel(epochs=20, seed=9).fit(frame)
        b = MlpModel(epochs=20, seed=9).fit(frame)
        assert np.array_equal(a.w_in_, b.w_in_)
        assert np.array_equal(a.w_out_, b.w_out_)


def _reference_fit(self, frame):
    """Per-sample SGD with one array per weight block: the oracle for MlpModel.fit."""
    X, y = frame.X, frame.y
    if self.standardize:
        self.x_scaler_ = fit_scaler(X)
        self.y_scaler_ = fit_scaler(y)
        X = apply_scaler(self.x_scaler_, X)
        y = apply_scaler(self.y_scaler_, y)
    n, n_feat = X.shape
    h = self.hidden if self.hidden is not None else default_hidden(n_feat)

    rng = np.random.default_rng(self.seed)
    self.w_in_ = rng.uniform(-0.5, 0.5, size=(h, n_feat))
    self.b_in_ = rng.uniform(-0.5, 0.5, size=h)
    self.w_out_ = rng.uniform(-0.5, 0.5, size=h)
    self.b_out_ = float(rng.uniform(-0.5, 0.5))

    v_w_in = np.zeros_like(self.w_in_)
    v_b_in = np.zeros_like(self.b_in_)
    v_w_out = np.zeros_like(self.w_out_)
    v_b_out = 0.0

    def rmse():
        return float(np.sqrt(np.mean((self._predict(X) - y) ** 2)))

    lr = self.lr
    prev_loss = rmse()
    curve = [prev_loss]
    for epoch in range(self.epochs):
        snapshot = (self.w_in_.copy(), self.b_in_.copy(),
                    self.w_out_.copy(), self.b_out_)
        for x_row, target in zip(X, y):
            z_hidden = self.w_in_ @ x_row + self.b_in_
            hidden_act = expit(z_hidden)
            err = self.w_out_ @ hidden_act + self.b_out_ - target
            delta = err * self.w_out_ * hidden_act * (1.0 - hidden_act)

            v_w_out = self.momentum * v_w_out - lr * err * hidden_act
            v_b_out = self.momentum * v_b_out - lr * err
            v_w_in = self.momentum * v_w_in - lr * np.outer(delta, x_row)
            v_b_in = self.momentum * v_b_in - lr * delta
            self.w_out_ += v_w_out
            self.b_out_ += v_b_out
            self.w_in_ += v_w_in
            self.b_in_ += v_b_in

        loss = rmse()
        if not np.isfinite(loss):
            raise DivergedLoss(
                f"training loss became non-finite at epoch {epoch} (lr={lr:g})")
        if loss > prev_loss:
            # roll the epoch back and retry more cautiously
            self.w_in_, self.b_in_, self.w_out_, self.b_out_ = snapshot
            v_w_in[:] = 0.0
            v_b_in[:] = 0.0
            v_w_out[:] = 0.0
            v_b_out = 0.0
            lr *= 0.5
            curve.append(prev_loss)
        else:
            prev_loss = loss
            curve.append(loss)

    self.loss_curve_ = np.asarray(curve)
    self.final_lr_ = lr
    return self


def _exog_frame():
    rng = np.random.default_rng(28)
    X = rng.normal(size=(80, 6))
    y = X[:, :4] @ rng.normal(size=4) + 0.5 * X[:, 4] * X[:, 5]
    return make_frame(X, y, lag_order=4)  # 4 lags + 2 exogenous columns


def _household_frame():
    return lag_embed(household_series(340, seed=2), 24)


class TestMlpMatchesReferenceLoop:
    CASES = {
        "default_width_p24": (_household_frame, dict(epochs=12, seed=1)),
        "hidden_1": (_household_frame, dict(hidden=1, epochs=12, seed=2)),
        "exogenous": (_exog_frame, dict(epochs=25, seed=3)),
        "raw_units": (_exog_frame, dict(epochs=25, seed=4, lr=0.01,
                                        standardize=False)),
        "no_momentum": (_exog_frame, dict(epochs=25, seed=5, momentum=0.0)),
        "rollbacks": (_household_frame, dict(epochs=12, seed=1, lr=0.6)),
    }

    @staticmethod
    def assert_bitwise_equal_to_reference(make, params):
        frame = make()
        fitted = MlpModel(**params).fit(frame)
        expected = _reference_fit(MlpModel(**params), frame)
        for name in ("w_in_", "b_in_", "w_out_", "loss_curve_"):
            assert getattr(fitted, name).tobytes() == getattr(expected, name).tobytes(), name
        assert np.float64(fitted.b_out_).tobytes() == np.float64(expected.b_out_).tobytes()
        assert np.float64(fitted.final_lr_).tobytes() == np.float64(expected.final_lr_).tobytes()
        assert fitted.w_in_.flags.c_contiguous and fitted.b_in_.flags.c_contiguous
        return fitted

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bitwise_equal_to_reference(self, case, monkeypatch):
        # pins the numpy loop, the fallback when no C kernel can be built
        monkeypatch.setattr(mlp_module, "_load_kernel", lambda: None)
        make, params = self.CASES[case]
        fitted = self.assert_bitwise_equal_to_reference(make, params)
        if case == "rollbacks":
            assert fitted.final_lr_ < params["lr"]

    @pytest.mark.parametrize("breakage", ["no_compiler", "build_fails", "load_fails"])
    def test_fallback_is_the_numpy_loop(self, breakage, monkeypatch, tmp_path):
        _break_the_build(mlp_module, breakage, monkeypatch, tmp_path)
        make, params = self.CASES["rollbacks"]
        self.assert_bitwise_equal_to_reference(make, params)

    def test_default_case_shape(self):
        frame = _household_frame()
        assert frame.n_features == 24 and frame.n_samples >= 300
        assert MlpModel(epochs=0).fit(frame).w_in_.shape == (default_hidden(24), 24)


def _kernel_or_skip(module=mlp_module):
    kernel = module._load_kernel()
    if kernel is None:
        pytest.skip(f"no C compiler could build {module._KERNEL_SOURCE.name}")
    return kernel


class TestMlpKernelMatchesNumpy:
    """The C epoch against the numpy loop: equal to within rounding, since
    only the two dot products per row are summed in a different order."""

    @pytest.mark.parametrize("case", sorted(TestMlpMatchesReferenceLoop.CASES))
    def test_within_rounding_of_numpy_loop(self, case, monkeypatch):
        kernel = _kernel_or_skip()
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("train", True))
            return kernel.epoch(*args, **kwargs)

        monkeypatch.setattr(mlp_module, "_load_kernel",
                            lambda: SimpleNamespace(epoch=counted, sigmoid=kernel.sigmoid))
        make, params = TestMlpMatchesReferenceLoop.CASES[case]
        frame = make()
        compiled = MlpModel(**params).fit(frame)
        # the initial loss, then every epoch, ran in C
        assert calls == [False] + [True] * params["epochs"]
        monkeypatch.setattr(mlp_module, "_load_kernel", lambda: None)
        looped = MlpModel(**params).fit(frame)

        names = ("w_in_", "b_in_", "w_out_", "b_out_")
        gap = max(np.max(np.abs(np.subtract(getattr(compiled, n), getattr(looped, n))))
                  for n in names)
        scale = max(np.max(np.abs(getattr(looped, n))) for n in names)
        assert gap <= 1e-12 * scale
        np.testing.assert_allclose(compiled.loss_curve_, looped.loss_curve_, rtol=1e-12, atol=0)
        assert compiled.final_lr_ == looped.final_lr_
        rollbacks = [np.flatnonzero(np.diff(m.loss_curve_) == 0) for m in (compiled, looped)]
        assert np.array_equal(*rollbacks)
        if case == "rollbacks":
            assert rollbacks[0].size > 0

    def test_loader_leaves_no_build_directory(self, monkeypatch, tmp_path):
        _assert_loader_leaves_no_build_directory(mlp_module, monkeypatch, tmp_path)

    def test_rejects_buffers_off_the_packed_layout(self):
        kernel = _kernel_or_skip()
        X_aug = np.ones((4, 3))
        theta, vel = np.zeros(2 * 4 + 1), np.zeros(2 * 4 + 1)
        with pytest.raises(ValueError):
            kernel.epoch(X_aug, np.zeros(4), theta, vel, 3, 0.1, 0.0)  # sized for h=2


class TestMlpSigmoid:
    """The kernel's elementwise sigmoid, which predictions use in place of
    scipy's ``expit``."""

    def test_bitwise_equal_to_expit(self):
        sigmoid = _kernel_or_skip().sigmoid
        rng = np.random.default_rng(11)
        z = np.concatenate([rng.normal(0, 1, 50_000), rng.normal(0, 40, 50_000),
                            rng.uniform(-800, 800, 50_000),
                            [np.inf, -np.inf, 745.0, -745.0, 0.0, -0.0, 5e-324, -5e-324]])
        expected = expit(z)
        got = sigmoid(z.copy())
        assert got.tobytes() == expected.tobytes()

    def test_predictions_equal_the_expit_path(self, monkeypatch):
        _kernel_or_skip()
        frame = _household_frame()
        model = MlpModel(epochs=3, seed=4).fit(frame)
        compiled = model.predict_batch(frame.X)
        monkeypatch.setattr(mlp_module, "_load_kernel", lambda: None)
        assert model.predict_batch(frame.X).tobytes() == compiled.tobytes()


def _c_exp(v):
    """exp as the C library returns it: inf, not an error, on overflow."""
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _oracle_epoch(X_aug, y, theta, vel, h, lr, momentum):
    """One epoch of the C kernel's arithmetic, in place: each hidden sum adds
    ``W[:, j] * x[j]`` for j ascending, then the bias; the output adds one
    unit at a time; the sigmoid takes the C library's ``exp``."""
    cols = X_aug.shape[1]
    size = h * cols
    W, V = theta[:size].reshape(h, cols), vel[:size].reshape(h, cols)
    w_out, v_out = theta[size:-1], vel[size:-1]
    for x, target in zip(X_aug, y.tolist()):
        z = np.zeros(h)
        for j in range(cols - 1):
            z += W[:, j] * x[j]
        z += W[:, -1]
        act = np.array([1.0 / (1.0 + _c_exp(-v)) for v in z.tolist()])
        out = 0.0
        for w, a in zip(w_out.tolist(), act.tolist()):
            out += w * a
        err = out + theta.item(-1) - target
        step = lr * err
        delta = w_out * err
        delta *= act
        delta *= 1.0 - act
        V[:] = V * momentum - (delta[:, None] * x) * lr
        W += V
        v_out[:] = v_out * momentum - act * step
        w_out += v_out
        vel[-1] = vel[-1] * momentum - step
        theta[-1] += vel[-1]


def _epoch_inputs(case, p, h):
    """A case's training rows cycled to p columns, augmented with ones, and
    seeded weights for h hidden units, as ``fit`` hands them to an epoch."""
    make, params = TestMlpMatchesReferenceLoop.CASES[case]
    frame = make()
    X, y = frame.X[:, np.arange(p) % frame.n_features], frame.y
    if params.get("standardize", True):
        X, y = apply_scaler(fit_scaler(X), X), apply_scaler(fit_scaler(y), y)
    X_aug = np.ascontiguousarray(np.hstack([X, np.ones((X.shape[0], 1))]))
    theta = np.random.default_rng(params["seed"]).uniform(-0.5, 0.5, h * (p + 2) + 1)
    return X_aug, np.ascontiguousarray(y), theta, params.get("lr", 0.3), params.get("momentum", 0.2)


class TestMlpKernelMatchesOracle:
    """The C epoch bit for bit against a numpy loop that sums in its order,
    at hidden widths on both sides of the lane width."""

    @pytest.mark.parametrize("p", [1, 24])
    @pytest.mark.parametrize("h", [1, 7, 8, 9, 13, 17])
    @pytest.mark.parametrize("case", sorted(TestMlpMatchesReferenceLoop.CASES))
    def test_bitwise_equal_to_oracle(self, case, h, p):
        kernel = _kernel_or_skip()
        X_aug, y, theta, lr, momentum = _epoch_inputs(case, p, h)
        vel = np.zeros_like(theta)
        expected_theta, expected_vel = theta.copy(), vel.copy()
        for _ in range(2):  # the second epoch starts from a non-zero velocity
            kernel.epoch(X_aug, y, theta, vel, h, lr, momentum)
            with np.errstate(all="ignore"):  # lr=0.6 overflows at the wider widths
                _oracle_epoch(X_aug, y, expected_theta, expected_vel, h, lr, momentum)
            # IEEE 754 leaves the sign of a NaN result open, so NaNs compare as one
            for got, expected in ((theta, expected_theta), (vel, expected_vel)):
                assert (np.where(np.isnan(got), np.nan, got).tobytes()
                        == np.where(np.isnan(expected), np.nan, expected).tobytes())

    @pytest.mark.parametrize("h", [1, 9, 13])
    @pytest.mark.parametrize("case", sorted(TestMlpMatchesReferenceLoop.CASES))
    def test_returned_loss_is_the_rmse(self, case, h):
        kernel = _kernel_or_skip()
        X_aug, y, theta, lr, momentum = _epoch_inputs(case, 24, h)
        vel = np.zeros_like(theta)
        size = h * X_aug.shape[1]

        def rmse():
            out = expit(X_aug @ theta[:size].reshape(h, -1).T) @ theta[size:-1] + theta[-1]
            return np.sqrt(np.mean((out - y) ** 2))

        before = theta.copy()
        scored = kernel.epoch(X_aug, y, theta, vel, h, lr, momentum, train=False)
        assert theta.tobytes() == before.tobytes() and not vel.any()
        assert abs(scored - rmse()) <= 1e-13 * rmse()
        trained = kernel.epoch(X_aug, y, theta, vel, h, lr, momentum)
        assert theta.tobytes() != before.tobytes()
        assert abs(trained - rmse()) <= 1e-13 * rmse()


class TestPredictSeries:
    def identity_model(self):
        # slope-1 zero-intercept AR(1): the model repeats its input
        return OlsModel().fit(make_frame([[1.0], [2.0], [3.0]], [1.0, 2.0, 3.0]))

    def test_recursive_fixed_point(self):
        model = self.identity_model()
        preds = model.predict_series(np.array([5.0]), 3)
        assert np.allclose(preds, [5.0, 5.0, 5.0], atol=1e-8)

    def test_history_too_short(self):
        rng = np.random.default_rng(26)
        model = OlsModel().fit(random_frame(rng, n=20, p=4))
        with pytest.raises(HistoryTooShort):
            model.predict_series(np.array([1.0, 2.0]), 2)

    def test_missing_seed_value_is_history_too_short(self):
        model = self.identity_model()
        with pytest.raises(HistoryTooShort) as caught:
            model.predict_series(np.array([5.0, np.nan]), 3)
        assert str(caught.value) == "missing value inside the lag window at step 0"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_prediction_is_not_fed_back(self, bad):
        class StuckModel(MeanModel):
            calls = 0

            def _predict(self, X):
                self.calls += 1
                return np.full(X.shape[0], bad if self.calls == 2 else self.mean_)

        model = StuckModel().fit(make_frame([[1.0], [2.0], [3.0]], [1.0, 2.0, 3.0]))
        with pytest.raises(NonFinitePrediction, match="^prediction at step 1 is not finite$"):
            model.predict_series(np.array([5.0]), 4)
        assert model.calls == 2

    def test_exog_shape_enforced(self):
        rng = np.random.default_rng(27)
        X = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        frame = make_frame(X, y, lag_order=2)  # 2 lags + 1 exogenous column
        model = OlsModel().fit(frame)
        with pytest.raises(LengthMismatch):
            model.predict_series(np.array([1.0, 2.0]), 2)
        preds = model.predict_series(np.array([1.0, 2.0]), 2,
                                     exog=np.zeros((2, 1)))
        assert preds.shape == (2,)


class TestMeanModel:
    def test_predicts_training_mean(self):
        frame = make_frame([[0], [1], [2]], [1.0, 2.0, 6.0])
        model = MeanModel().fit(frame)
        assert model.predict([123.0]) == pytest.approx(3.0)
        assert np.allclose(model.predict_batch(np.zeros((5, 1))), 3.0)


def _six_models():
    return {"ols": OlsModel(), "knn": KnnModel(), "mean": MeanModel(),
            "gp": GpModel(), "svr": SvrModel(), "mlp": MlpModel(epochs=30, seed=1)}


class TestModelContract:
    @pytest.mark.parametrize("name", sorted(_six_models()))
    def test_fit_and_predict_contract(self, name):
        frame = _exog_frame()
        model = _six_models()[name]
        assert model.fit(frame) is model
        assert (model.lag_order_, model.n_exog_) == (4, 2)
        row = frame.X[7]
        batch = model.predict_batch(row[None, :])
        assert batch.shape == (1,)
        assert np.float64(model.predict(row.tolist())).tobytes() == batch[0].tobytes()

    @pytest.mark.parametrize("name", ["gp", "mlp", "svr"])
    def test_standardized_models_are_power_of_two_equivariant(self, name):
        # train-only standardization removes exact power-of-two rescalings of
        # X and y, so the fit is unchanged and predictions scale by 2**5
        frame = lag_embed(household_series(200, 3), 6)
        scaled = SupervisedFrame(frame.X * 2.0 ** -7, frame.y * 2.0 ** 5, 6,
                                 frame.feature_names, frame.target_positions)
        model = _six_models()[name]
        assert model.standardize
        expected = model.fit(frame).predict_batch(frame.X)
        got = _six_models()[name].fit(scaled).predict_batch(scaled.X)
        assert got.tobytes() == (expected * 2.0 ** 5).tobytes()
        assert not np.array_equal(expected, frame.y)


class TestTrainingFrameChecks:
    @pytest.mark.parametrize("cell", ["nan_target", "inf_feature"])
    @pytest.mark.parametrize("name", sorted(_six_models()))
    def test_non_finite_cell_fails_before_any_fit(self, name, cell, monkeypatch):
        frame = _exog_frame()
        X, y = frame.X.copy(), frame.y.copy()
        if cell == "nan_target":
            y[17] = np.nan
        else:
            X[17, 5] = np.inf
        model = _six_models()[name]

        def never(self, X, y):
            raise AssertionError("_fit ran on a frame with a non-finite cell")

        monkeypatch.setattr(type(model), "_fit", never)
        with pytest.raises(MissingCells, match="^1 of the training frame's"):
            model.fit(SupervisedFrame(X, y, frame.lag_order, frame.feature_names,
                                      frame.target_positions))

    @pytest.mark.parametrize("model", [GpModel, SvrModel])
    def test_kernel_larger_than_physical_memory_is_refused(self, model, monkeypatch):
        frame = random_frame(np.random.default_rng(40), n=20)
        monkeypatch.setattr(base_module, "physical_memory", lambda: 8 * 20 * 20 - 1)
        with pytest.raises(KernelTooLarge, match="20 training rows"):
            model().fit(frame)
        monkeypatch.setattr(base_module, "physical_memory", lambda: 8 * 20 * 20)
        model().fit(frame)  # a kernel of exactly that size fits
        monkeypatch.setattr(base_module, "physical_memory", lambda: None)  # unknown
        model().fit(frame)

    def test_knn_distances_larger_than_physical_memory_are_refused(self, monkeypatch):
        model = KnnModel().fit(random_frame(np.random.default_rng(40), n=20))
        queries = np.random.default_rng(42).normal(size=(30, 3))
        monkeypatch.setattr(base_module, "physical_memory", lambda: 8 * 30 * 20 - 1)
        with pytest.raises(KernelTooLarge, match="of 30 query rows by 20 training rows"):
            model.predict_batch(queries)
        monkeypatch.setattr(base_module, "physical_memory", lambda: 8 * 30 * 20)
        assert model.predict_batch(queries).shape == (30,)
        monkeypatch.setattr(base_module, "physical_memory", lambda: 8 * 20 * 20 - 1)
        with pytest.raises(KernelTooLarge, match="of 20 query rows by 20 training rows"):
            model.predict_batch(queries[:20])  # square, but not the training matrix

    def test_memory_guard_runs_before_the_kernel_is_built(self, monkeypatch):
        frame = random_frame(np.random.default_rng(41), n=5)
        knn = KnnModel().fit(frame)

        def never(A, rows, upper=False):
            raise AssertionError("a distance was computed")

        monkeypatch.setattr(base_module, "physical_memory", lambda: 1)
        monkeypatch.setattr(distance_module, "sq_distances", never)
        for run in (lambda: GpModel().fit(frame), lambda: SvrModel().fit(frame),
                    lambda: knn.predict_batch(frame.X)):
            with pytest.raises(KernelTooLarge):
                run()

    def test_physical_memory_probe(self, monkeypatch):
        have = base_module.physical_memory()
        assert have is None or have > 0

        def unsupported(name):
            raise ValueError(f"unrecognized configuration name {name}")

        monkeypatch.setattr(base_module.os, "sysconf", unsupported)
        assert base_module.physical_memory() is None
