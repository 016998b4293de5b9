import numpy as np
import pytest

from wattcast.arima import arima_fit
from wattcast.errors import ConfigError, HistoryTooShort, MissingCells, TooShort
from wattcast.series import MultiSeries, TimeSeries
from wattcast.synthetic import arma_series, var_series
from wattcast.var import VarModel, select_var_order, var_fit, var_forecast, var_one_step

A_TRI = np.array([[0.5, 0.1], [0.0, 0.3]])


class TestFit:
    def test_noiseless_var1_recovery(self):
        data = var_series(100, A_TRI, noise_sd=0.0, initial=[[1.0, 0.7]])
        model = var_fit(data, 1)
        assert np.max(np.abs(model.coef[0] - A_TRI)) <= 1e-8
        assert np.max(np.abs(model.intercept)) <= 1e-8

    def test_univariate_matches_ar_stage(self):
        s = arma_series(400, ar=(0.5, 0.2), noise_sd=1.0, seed=30)
        var_model = var_fit(s, 2)
        ar_model = arima_fit(s, 2, 0, 0)
        assert np.max(np.abs(var_model.coef[:, 0, 0] - ar_model.ar)) <= 1e-6
        assert abs(var_model.intercept[0] - ar_model.intercept) <= 1e-6

    def test_constant_columns_collapse_to_intercept(self):
        values = np.column_stack([np.full(30, 5.0), np.full(30, 3.0)])
        data = MultiSeries(0.0, 3600.0, ("a", "b"), values)
        model = var_fit(data, 1)
        assert np.max(np.abs(model.coef)) <= 1e-5
        assert np.allclose(model.intercept, [5.0, 3.0], atol=1e-4)

    def test_residuals_orthogonal_per_equation(self):
        data = var_series(200, A_TRI, intercept=[1.0, -0.5], noise_sd=1.0, seed=31)
        model = var_fit(data, 1)
        values = data.values
        A = np.column_stack([np.ones(199), values[:-1]])
        resid = values[1:] - (model.intercept + values[:-1] @ model.coef[0].T)
        scale = np.abs(values).sum()
        assert np.max(np.abs(A.T @ resid)) <= 1e-8 * scale

    def test_resid_cov_symmetric_psd(self):
        data = var_series(150, A_TRI, noise_sd=1.0, seed=32)
        model = var_fit(data, 2)
        assert np.array_equal(model.resid_cov, model.resid_cov.T)
        assert np.linalg.eigvalsh(model.resid_cov).min() >= -1e-10

    def test_too_short(self):
        data = var_series(5, A_TRI, noise_sd=1.0, seed=33)
        with pytest.raises(TooShort):
            var_fit(data, 2)

    def test_missing_cells(self):
        values = np.ones((30, 2))
        values[4, 1] = np.nan
        data = MultiSeries(0.0, 3600.0, ("a", "b"), values)
        with pytest.raises(MissingCells):
            var_fit(data, 1)

    def test_invalid_order(self):
        with pytest.raises(ConfigError):
            var_fit(var_series(50, A_TRI, seed=34), 0)


class TestForecast:
    def fitted(self):
        return VarModel(1, A_TRI[None], np.array([0.2, -0.1]), ("a", "b"),
                        np.eye(2))

    def test_one_step_is_affine_map_of_last_row(self):
        model = self.fitted()
        last = np.array([2.0, 3.0])
        history = MultiSeries(0.0, 3600.0, ("a", "b"), np.vstack([[0.0, 0.0], last]))
        forecast = var_forecast(model, history, 1)
        assert np.allclose(forecast[0], model.intercept + A_TRI @ last, atol=1e-12)

    def test_identity_matrix_repeats_last_row(self):
        model = VarModel(1, np.eye(2)[None], np.zeros(2), ("a", "b"), np.eye(2))
        history = MultiSeries(0.0, 3600.0, ("a", "b"), np.array([[4.0, 9.0]]))
        forecast = var_forecast(model, history, 5)
        assert np.allclose(forecast, np.tile([4.0, 9.0], (5, 1)), atol=1e-12)

    def test_two_step_hand_recursion(self):
        model = self.fitted()
        last = np.array([1.0, 2.0])
        step1 = model.intercept + A_TRI @ last
        step2 = model.intercept + A_TRI @ step1
        history = MultiSeries(0.0, 3600.0, ("a", "b"), last[None])
        forecast = var_forecast(model, history, 2)
        assert np.max(np.abs(forecast - np.vstack([step1, step2]))) <= 1e-10

    def test_one_row_history_is_one_row(self):
        # a (1, k) history is one observation of k variables, not k observations
        data = var_series(60, A_TRI, noise_sd=0.5, seed=36)
        model = var_fit(data, 1)
        from_last_row = var_forecast(model, data.values[-1:], 2)
        assert np.array_equal(from_last_row, var_forecast(model, data, 2))

    def test_history_too_short(self):
        model = VarModel(3, np.zeros((3, 2, 2)), np.zeros(2), ("a", "b"), np.eye(2))
        history = MultiSeries(0.0, 3600.0, ("a", "b"), np.ones((2, 2)))
        with pytest.raises(HistoryTooShort):
            var_forecast(model, history, 1)

    def test_variable_count_mismatch(self):
        model = self.fitted()
        with pytest.raises(ConfigError):
            var_forecast(model, TimeSeries(0.0, 3600.0, [1.0, 2.0]), 1)


class TestOneStep:
    def test_rows_before_window_are_nan(self):
        data = var_series(50, A_TRI, noise_sd=1.0, seed=35)
        model = var_fit(data, 2)
        preds = var_one_step(model, data)
        assert np.isnan(preds[:2]).all()
        assert not np.isnan(preds[2:]).any()

    def test_matches_direct_formula(self):
        data = var_series(50, A_TRI, noise_sd=1.0, seed=36)
        model = var_fit(data, 1)
        preds = var_one_step(model, data)
        t = 10
        expected = model.intercept + model.coef[0] @ data.values[t - 1]
        assert np.allclose(preds[t], expected, atol=1e-12)


class TestOrderSelection:
    def test_recovers_order_one(self):
        data = var_series(400, A_TRI * 1.6, noise_sd=1.0, seed=37)
        assert select_var_order(data, 5) == 1

    def test_white_noise_selects_smallest_model(self):
        data = var_series(300, np.zeros((2, 2)), noise_sd=1.0, seed=38)
        assert select_var_order(data, 4) == 1

    def test_matches_brute_force_aic(self):
        data = var_series(250, A_TRI, noise_sd=1.0, seed=39)
        n, k = data.values.shape
        aics = []
        for p in range(1, 5):
            model = var_fit(data, p)
            aics.append(np.log(np.linalg.det(model.resid_cov))
                        + 2.0 * (k * k * p + k) / (n - p))
        assert select_var_order(data, 4) == int(np.argmin(aics)) + 1

    def test_max_p_one(self):
        data = var_series(100, A_TRI, noise_sd=1.0, seed=40)
        assert select_var_order(data, 1) == 1
