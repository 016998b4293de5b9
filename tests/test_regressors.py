import warnings

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.special import expit
from scipy.spatial.distance import cdist

import wattcast.regressors.svr as svr_module
from wattcast.errors import (
    DivergedLoss,
    HistoryTooShort,
    KTooLarge,
    LengthMismatch,
    Underdetermined,
)
from wattcast.regressors import (
    GpModel,
    KnnModel,
    MeanModel,
    MlpModel,
    OlsModel,
    SvrModel,
    default_hidden,
    dual_objective,
)
from wattcast.synthetic import household_series
from wattcast.transform import SupervisedFrame, apply_scaler, fit_scaler, lag_embed


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


class TestSvr:
    def setup_method(self):
        self.X = np.array([[0.0], [1.0], [2.0], [3.0]])
        self.y = np.array([0.0, 0.9, 0.1, 0.8])
        self.gamma = 0.5
        self.K = np.exp(-self.gamma * cdist(self.X, self.X, "sqeuclidean"))

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
        "small_c": (lambda: random_frame(np.random.default_rng(31), n=40), dict(C=0.05)),
        "epsilon_0": (lambda: random_frame(np.random.default_rng(32), n=30),
                      dict(epsilon=0.0)),
        "duplicated_rows": (_duplicated_frame, {}),
        "max_iter_3": (lambda: random_frame(np.random.default_rng(18), n=20),
                       dict(max_iter=3)),
        "household_p24": (lambda: _household_frame(), {}),
    }

    def _solve(self, case, monkeypatch):
        """Fit the case, returning the solver's inputs and its result."""
        make, params = self.CASES[case]
        real, calls = svr_module._smo, []

        def spy(*args):
            calls.append((args, real(*args)))
            return calls[-1][1]

        monkeypatch.setattr(svr_module, "_smo", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            SvrModel(**params).fit(make())
        (args, result), = calls
        return args, result

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bitwise_equal_to_reference(self, case, monkeypatch):
        args, (alpha, alpha_star, bias, converged, iterations) = self._solve(
            case, monkeypatch)
        ref_alpha, ref_alpha_star, ref_bias, ref_converged, ref_iterations = \
            _reference_smo(*args)
        assert alpha.tobytes() == ref_alpha.tobytes()
        assert alpha_star.tobytes() == ref_alpha_star.tobytes()
        assert np.float64(bias).tobytes() == np.float64(ref_bias).tobytes()
        assert converged == ref_converged
        assert iterations == ref_iterations
        assert converged == (case != "max_iter_3")

    def test_cases_reach_their_regimes(self, monkeypatch):
        (K, y, C, *_), (alpha, alpha_star, *_) = self._solve("small_c", monkeypatch)
        assert np.count_nonzero((alpha == C) | (alpha_star == C)) >= 10
        monkeypatch.undo()
        (K, y, *_), _ = self._solve("duplicated_rows", monkeypatch)
        assert np.unique(K, axis=0).shape[0] == 10 and np.unique(y).size == 10
        monkeypatch.undo()
        (K, *_), _ = self._solve("household_p24", monkeypatch)
        assert K.shape[0] >= 300


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

    def test_diverged_loss_raises(self):
        rng = np.random.default_rng(23)
        X = rng.normal(size=(20, 2)) * 1e3
        y = rng.normal(size=20) * 1e3
        with np.errstate(all="ignore"):
            with pytest.raises(DivergedLoss):
                MlpModel(lr=1e12, epochs=5, standardize=False).fit(make_frame(X, y))

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

    lr = self.lr
    prev_loss = self._rmse(X, y)
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

        loss = self._rmse(X, y)
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

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bitwise_equal_to_reference(self, case):
        make, params = self.CASES[case]
        frame = make()
        fitted = MlpModel(**params).fit(frame)
        expected = _reference_fit(MlpModel(**params), frame)
        for name in ("w_in_", "b_in_", "w_out_", "loss_curve_"):
            assert getattr(fitted, name).tobytes() == getattr(expected, name).tobytes(), name
        assert np.float64(fitted.b_out_).tobytes() == np.float64(expected.b_out_).tobytes()
        assert np.float64(fitted.final_lr_).tobytes() == np.float64(expected.final_lr_).tobytes()
        assert fitted.w_in_.flags.c_contiguous and fitted.b_in_.flags.c_contiguous
        if case == "rollbacks":
            assert fitted.final_lr_ < params["lr"]

    def test_default_case_shape(self):
        frame = _household_frame()
        assert frame.n_features == 24 and frame.n_samples >= 300
        assert MlpModel(epochs=0).fit(frame).w_in_.shape == (default_hidden(24), 24)


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
