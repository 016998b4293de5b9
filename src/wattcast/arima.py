"""ARIMA(p, d, q) estimation and forecasting.

Estimation is conditional sum of squares (CSS): the series is differenced
``d`` times, one-step residuals are computed with zero pre-sample shocks,
and the summed squared residuals are minimized. Without MA terms that is
ordinary least squares on lagged values, solved once. With them, the
Hannan-Rissanen procedure — a long autoregression provides residual
proxies, then one OLS on lagged values and proxies gives ``(c, phi,
theta)`` — starts a Nelder-Mead search. The ARMA sign convention is

    w_t = c + phi_1 w_{t-1} + ... + phi_p w_{t-p}
            + e_t + theta_1 e_{t-1} + ... + theta_q e_{t-q}.

Forecasts run the recursion with future shocks set to zero and are
integrated back to original units. A non-stationary fitted AR polynomial
sets a warning flag instead of failing: short noisy series sometimes land
there legitimately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DegenerateSeries,
    DivergedLoss,
    HistoryTooShort,
    MissingCells,
    TooShort,
)
from .regressors.linear import solve_normal_equations
from .series import TimeSeries
from .transform import lag_design


@dataclass(frozen=True)
class ArimaModel:
    """Fitted ARIMA model on the d-times differenced scale."""

    order: tuple
    ar: np.ndarray
    ma: np.ndarray
    intercept: float
    sigma2: float
    #: all AR roots outside the unit circle
    stationary: bool = True

    def __post_init__(self):
        for name in ("ar", "ma"):
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        p, _, q = self.order
        if self.ar.size != p or self.ma.size != q:
            raise ValueError("coefficient lengths do not match the stated order")


def css_residuals(w: np.ndarray, ar: np.ndarray, ma: np.ndarray,
                  intercept: float, lags: np.ndarray | None = None) -> np.ndarray:
    """One-step residuals e_p .. e_{n-1} with zero pre-sample shocks.

    ``lags`` is ``_lag_matrix(w, len(ar))``, passed by a caller that
    evaluates many parameters on one series; it is built here otherwise.
    """
    p, q = len(ar), len(ma)
    if lags is None:
        lags = _lag_matrix(w, p)
    u = w[p:] - intercept - lags @ np.asarray(ar)
    if q:
        from scipy.signal import lfilter

        return lfilter([1.0], np.concatenate([[1.0], ma]), u)
    return u


def _lag_matrix(w: np.ndarray, p: int) -> np.ndarray:
    """Row t holds w_{t+p-1} .. w_t, the p lags of w_{t+p}."""
    # p = 0 leaves an empty lag matrix, whose product is zeros
    return lag_design(w[:, None], p)[:, 1:]


def ar_roots_stationary(ar: np.ndarray) -> bool:
    """True if all roots of 1 - phi_1 z - ... - phi_p z^p lie outside |z| = 1."""
    ar = np.asarray(ar, dtype=float)
    if ar.size == 0:
        return True
    roots = np.roots(np.concatenate([-ar[::-1], [1.0]]))
    return bool(np.all(np.abs(roots) > 1.0))


def _hannan_rissanen(w: np.ndarray, p: int, q: int):
    column = w[:, None]
    if q == 0:
        beta = solve_normal_equations(lag_design(column, p), w[p:])
        return float(beta[0]), beta[1:], np.empty(0)

    long_order = min(10, len(w) // 4)
    A_long = lag_design(column, long_order)
    beta_long = solve_normal_equations(A_long, w[long_order:])
    proxies = np.full(len(w), 0.0)
    proxies[long_order:] = w[long_order:] - A_long @ beta_long

    start = max(p, long_order + q)
    A = np.hstack([lag_design(column[start - p:], p),
                   lag_design(proxies[start - q:, None], q)[:, 1:]])
    beta = solve_normal_equations(A, w[start:])
    return float(beta[0]), beta[1:1 + p], beta[1 + p:]


def check_order(p: int, d: int, q: int) -> None:
    """Refuse an order that ``arima_fit`` cannot estimate."""
    if p < 0 or d < 0 or q < 0:
        raise ConfigError("orders must be non-negative")
    if p == 0 and q == 0 and d == 0:
        raise ConfigError("ARIMA(0,0,0) has nothing to estimate; use d > 0 or p+q > 0")


def arima_fit(s: TimeSeries, p: int, d: int, q: int) -> ArimaModel:
    """Estimate an ARIMA(p, d, q) model by CSS, in closed form when q = 0."""
    check_order(p, d, q)
    if np.isnan(s.values).any():
        raise MissingCells("ARIMA estimation requires a fully observed series")
    floor = max(20, 4 * (p + q + 1))
    if len(s) - d < floor:
        raise TooShort(f"need at least {floor + d} observations for orders "
                       f"({p},{d},{q}), have {len(s)}")
    w = _difference_with_tails(s.values, d)[0]
    if p + q > 0 and np.ptp(w) == 0.0:
        raise DegenerateSeries("differenced series is constant; AR/MA terms unidentifiable")

    intercept, ar, ma = _hannan_rissanen(w, p, q)
    if q:
        from scipy.optimize import minimize

        x0 = np.concatenate([[intercept], ar, ma])
        lags = _lag_matrix(w, p)  # independent of the parameters

        def objective(params):
            e = css_residuals(w, params[1:1 + p], params[1 + p:], params[0], lags)
            return float(e @ e)

        # a trial point whose residuals overflow scores inf or NaN, and loses
        with np.errstate(over="ignore", invalid="ignore"):
            result = minimize(objective, x0, method="Nelder-Mead",
                              options={"xatol": 1e-8, "fatol": 1e-12,
                                       "maxfev": 500 * (p + q + 1), "maxiter": 10 ** 6})
            best = result.x if result.fun <= objective(x0) else x0
        intercept, ar, ma = float(best[0]), best[1:1 + p], best[1 + p:]

    e = css_residuals(w, ar, ma, intercept)
    with np.errstate(over="ignore"):
        sigma2 = float(e @ e / len(e))
    if not np.isfinite(sigma2):
        raise DivergedLoss(f"the CSS loss of ARIMA({p},{d},{q}) is not finite at the "
                           "best parameters found")
    return ArimaModel((p, d, q), ar, ma, intercept, sigma2,
                      stationary=ar_roots_stationary(ar))


def _difference_with_tails(values: np.ndarray, d: int):
    """d-fold difference plus the last value of each intermediate stage."""
    tails = []
    x = np.asarray(values, dtype=float)
    for _ in range(d):
        tails.append(x[-1])
        x = np.diff(x)
    return x, tails


def arima_forecast(model: ArimaModel, history: TimeSeries, horizon: int) -> np.ndarray:
    """Expected path for ``horizon`` steps beyond the end of ``history``."""
    if horizon < 1:
        raise ConfigError("horizon must be >= 1")
    p, d, q = model.order
    values = history.values if isinstance(history, TimeSeries) else np.asarray(history, dtype=float)
    if values.size < p + d:
        raise HistoryTooShort(f"need {p + d} observations, have {values.size}")
    if np.isnan(values).any():
        raise MissingCells("forecast history contains missing values")

    w, tails = _difference_with_tails(values, d)
    e = css_residuals(w, model.ar, model.ma, model.intercept)

    n = len(w)
    extended = np.concatenate([w, np.empty(horizon)])
    shocks = np.zeros(n + horizon)
    shocks[p:n] = e
    for k in range(n, n + horizon):
        value = model.intercept
        for i in range(1, p + 1):
            value += model.ar[i - 1] * extended[k - i]
        for j in range(1, q + 1):
            value += model.ma[j - 1] * shocks[k - j]
        extended[k] = value

    forecast = extended[n:]
    for tail in reversed(tails):
        forecast = tail + np.cumsum(forecast)
    return forecast


def arima_one_step(model: ArimaModel, s: TimeSeries) -> np.ndarray:
    """In-sample one-step predictions aligned with ``s``.

    Position t gets the expectation of x_t given actual history up to t-1;
    the first p + d positions, where the recursion has no full window, are
    NaN. Because differencing is a fixed linear map of known past values,
    the one-step innovation on the differenced scale equals the innovation
    in original units, so the prediction is simply x_t minus the filtered
    residual.
    """
    p, d, q = model.order
    values = s.values if isinstance(s, TimeSeries) else np.asarray(s, dtype=float)
    if values.size < p + d + 1:
        raise HistoryTooShort(f"need more than {p + d} observations, have {values.size}")
    if np.isnan(values).any():
        raise MissingCells("one-step prediction requires a fully observed series")
    w, _ = _difference_with_tails(values, d)
    e = css_residuals(w, model.ar, model.ma, model.intercept)
    preds = np.full(values.size, np.nan)
    preds[p + d:] = values[p + d:] - e
    return preds
