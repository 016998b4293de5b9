import numpy as np
import pytest

import wattcast.arima as arima_module
from wattcast.arima import (
    ArimaModel,
    ar_roots_stationary,
    arima_fit,
    arima_forecast,
    arima_one_step,
    css_residuals,
    _hannan_rissanen,
)
from wattcast.errors import (
    ConfigError,
    DegenerateSeries,
    HistoryTooShort,
    MissingCells,
    TooShort,
)
from wattcast.series import TimeSeries
from wattcast.synthetic import arma_series, household_series


def ts(values):
    return TimeSeries(0.0, 3600.0, values)


def ma1_css(w, intercept, theta):
    """Independent MA(1) residual recursion: e_t = w_t - c - theta * e_{t-1}."""
    e_prev = 0.0
    total = 0.0
    for value in w:
        e = value - intercept - theta * e_prev
        total += e * e
        e_prev = e
    return total


def nelder_mead_css(w, p, q, x0):
    """CSS after the Nelder-Mead refinement that ``arima_fit`` runs for MA
    terms, here from ``x0`` for any order: the oracle a closed-form fit
    without MA terms must match. Never worse than the start."""
    from scipy.optimize import minimize

    def objective(params):
        e = css_residuals(w, params[1:1 + p], params[1 + p:], params[0])
        return float(e @ e)

    result = minimize(objective, x0, method="Nelder-Mead",
                      options={"xatol": 1e-8, "fatol": 1e-12,
                               "maxfev": 500 * (p + q + 1), "maxiter": 10 ** 6})
    return min(result.fun, objective(x0))


class TestFit:
    def test_noiseless_ar1_recovery(self):
        s = arma_series(200, ar=(0.5,), intercept=1.0, noise_sd=0.0, initial=[10.0])
        model = arima_fit(s, 1, 0, 0)
        assert abs(model.ar[0] - 0.5) <= 1e-3
        assert abs(model.intercept - 1.0) <= 1e-3
        assert model.stationary

    def test_ramp_becomes_constant_after_differencing(self):
        s = ts(np.arange(0.0, 100.0, 2.0))
        model = arima_fit(s, 0, 1, 0)
        assert model.intercept == pytest.approx(2.0, abs=1e-12)
        forecast = arima_forecast(model, s, 3)
        assert np.allclose(forecast, [100.0, 102.0, 104.0], atol=1e-10)

    def test_ma1_matches_grid_search_oracle(self):
        s = arma_series(2000, ma=(0.4,), noise_sd=1.0, seed=8)
        model = arima_fit(s, 0, 0, 1)
        assert abs(model.ma[0] - 0.4) <= 0.05
        grid = np.arange(0.0, 0.8001, 0.01)
        losses = [ma1_css(s.values, model.intercept, theta) for theta in grid]
        assert abs(model.ma[0] - grid[int(np.argmin(losses))]) <= 0.01

    def test_refinement_never_worse_than_initializer(self):
        s = arma_series(300, ar=(0.6,), ma=(0.3,), noise_sd=1.0, seed=9)
        w = s.values
        c0, ar0, ma0 = _hannan_rissanen(w, 1, 1)
        e0 = css_residuals(w, ar0, ma0, c0)
        model = arima_fit(s, 1, 0, 1)
        e1 = css_residuals(w, model.ar, model.ma, model.intercept)
        assert e1 @ e1 <= e0 @ e0 + 1e-9

    def test_search_builds_one_lag_matrix_and_keeps_the_bits(self, monkeypatch):
        # the Nelder-Mead search as it ran with a lag matrix built per call
        from scipy.optimize import minimize

        s = household_series(300, seed=2)
        w = s.values
        c0, ar0, ma0 = _hannan_rissanen(w, 2, 1)
        x0 = np.concatenate([[c0], ar0, ma0])

        def objective(params):
            e = css_residuals(w, params[1:3], params[3:], params[0])
            return float(e @ e)

        result = minimize(objective, x0, method="Nelder-Mead",
                          options={"xatol": 1e-8, "fatol": 1e-12, "maxfev": 2000,
                                   "maxiter": 10 ** 6})
        best = result.x if result.fun <= objective(x0) else x0

        built = []
        real = arima_module.lag_design
        monkeypatch.setattr(arima_module, "lag_design",
                            lambda *args: built.append(args[1]) or real(*args))
        model = arima_fit(s, 2, 0, 1)
        assert np.float64(model.intercept).tobytes() == best[0].tobytes()
        assert model.ar.tobytes() == best[1:3].tobytes()
        assert model.ma.tobytes() == best[3:].tobytes()
        # three for Hannan-Rissanen, one for the search, one for sigma2
        assert len(built) == 5

    @pytest.mark.parametrize("p, d", [(0, 1), (1, 0), (3, 1), (24, 0)])
    def test_without_ma_terms_the_fit_is_least_squares(self, p, d):
        s = household_series(400, seed=5)
        w = np.diff(s.values, n=d)
        c, ar, _ = _hannan_rissanen(w, p, 0)
        model = arima_fit(s, p, d, 0)
        assert model.intercept == c and model.ar.tobytes() == ar.tobytes()
        assert model.ma.size == 0
        e = css_residuals(w, model.ar, model.ma, model.intercept)
        assert model.sigma2 == e @ e / len(e)
        refined = nelder_mead_css(w, p, 0, np.concatenate([[c], ar]))
        assert abs(e @ e - refined) <= 1e-12 * refined

    def test_one_step_beats_mean_model_in_sample(self):
        s = arma_series(500, ar=(0.7,), noise_sd=1.0, seed=10)
        model = arima_fit(s, 1, 0, 0)
        preds = arima_one_step(model, s)
        ok = ~np.isnan(preds)
        rmse = np.sqrt(np.mean((s.values[ok] - preds[ok]) ** 2))
        rmse_mean = np.sqrt(np.mean((s.values[ok] - s.values.mean()) ** 2))
        assert rmse <= rmse_mean

    def test_mean_only_model_with_differencing(self):
        s = arma_series(60, noise_sd=1.0, seed=11)
        model = arima_fit(s, 0, 1, 0)
        diffs = np.diff(s.values)
        assert model.intercept == pytest.approx(diffs.mean())
        assert model.sigma2 == pytest.approx(np.mean((diffs - diffs.mean()) ** 2))

    def test_too_short(self):
        with pytest.raises(TooShort):
            arima_fit(ts(np.arange(10.0)), 1, 0, 0)

    def test_degenerate_series(self):
        with pytest.raises(DegenerateSeries):
            arima_fit(ts(np.full(50, 7.0)), 1, 0, 0)

    def test_empty_model_rejected(self):
        with pytest.raises(ConfigError):
            arima_fit(ts(np.arange(50.0)), 0, 0, 0)

    def test_missing_values_rejected(self):
        values = np.arange(50.0)
        values[10] = np.nan
        with pytest.raises(MissingCells):
            arima_fit(ts(values), 1, 0, 0)


class TestForecast:
    def test_intercept_only_repeats_mean(self):
        model = ArimaModel((0, 0, 0), [], [], 2.5, 1.0)
        forecast = arima_forecast(model, ts([1.0, 2.0, 3.0]), 4)
        assert np.array_equal(forecast, [2.5, 2.5, 2.5, 2.5])

    def test_ar1_hand_recursion(self):
        model = ArimaModel((1, 0, 0), [0.5], [], 0.0, 1.0)
        forecast = arima_forecast(model, ts([3.0, 8.0]), 3)
        assert np.allclose(forecast, [4.0, 2.0, 1.0], atol=1e-12)

    def test_random_walk_forecast_is_flat(self):
        model = ArimaModel((0, 1, 0), [], [], 0.0, 1.0)
        forecast = arima_forecast(model, ts([5.0, 7.0, 4.0]), 3)
        assert np.array_equal(forecast, [4.0, 4.0, 4.0])

    def test_arma11_hand_recursion(self):
        model = ArimaModel((1, 0, 1), [0.5], [0.3], 1.0, 1.0)
        # history w = [2, 4]: u_1 = 4 - 1 - 0.5*2 = 2, e_1 = 2
        # step 1: 1 + 0.5*4 + 0.3*2 = 3.6 ; step 2: 1 + 0.5*3.6 = 2.8
        forecast = arima_forecast(model, ts([2.0, 4.0]), 2)
        assert np.allclose(forecast, [3.6, 2.8], atol=1e-12)

    def test_differenced_forecast_continuous_with_history(self):
        s = arma_series(200, ar=(0.4,), intercept=0.5, noise_sd=1.0, seed=12)
        trended = ts(s.values + 0.3 * np.arange(len(s)))
        model = arima_fit(trended, 1, 1, 0)
        w = np.diff(trended.values)
        e = css_residuals(w, model.ar, model.ma, model.intercept)
        next_diff = model.intercept + model.ar[0] * w[-1]
        forecast = arima_forecast(model, trended, 1)
        assert abs(forecast[0] - (trended.values[-1] + next_diff)) <= 1e-10
        assert e.size == w.size - 1

    def test_history_too_short(self):
        model = ArimaModel((2, 1, 0), [0.2, 0.1], [], 0.0, 1.0)
        with pytest.raises(HistoryTooShort):
            arima_forecast(model, ts([1.0, 2.0]), 1)


class TestOneStep:
    def test_hand_example(self):
        model = ArimaModel((1, 0, 1), [0.5], [0.3], 1.0, 1.0)
        preds = arima_one_step(model, ts([2.0, 4.0, 3.0]))
        # pred_1 = c + phi*x_0 = 2 ; e_1 = 2 ; pred_2 = 1 + 0.5*4 + 0.3*2 = 3.6
        assert np.isnan(preds[0])
        assert preds[1] == pytest.approx(2.0, abs=1e-12)
        assert preds[2] == pytest.approx(3.6, abs=1e-12)

    def test_alignment_with_differencing(self):
        model = ArimaModel((1, 1, 0), [0.5], [], 0.0, 1.0)
        s = ts([0.0, 1.0, 3.0, 4.0])
        preds = arima_one_step(model, s)
        # w = [1, 2, 1]; pred w_2 = 0.5*1 -> x_2 hat = x_1 + 0.5 = 1.5
        assert np.isnan(preds[:2]).all()
        assert preds[2] == pytest.approx(1.5, abs=1e-12)
        assert preds[3] == pytest.approx(4.0, abs=1e-12)


class TestStationarityCheck:
    def test_stable_root(self):
        assert ar_roots_stationary([0.5])
        assert ar_roots_stationary([0.4, 0.3])
        assert ar_roots_stationary([])

    def test_explosive_root(self):
        assert not ar_roots_stationary([1.1])
        assert not ar_roots_stationary([-1.2])
        assert not ar_roots_stationary([1.0])
