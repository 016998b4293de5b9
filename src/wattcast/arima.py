"""ARIMA(p, d, q) estimation and forecasting.

Estimation is conditional sum of squares (CSS): the series is differenced
``d`` times, one-step residuals are computed with zero pre-sample shocks,
and the summed squared residuals are minimized. Starting values come from
the Hannan-Rissanen procedure — a long autoregression provides residual
proxies, then a single OLS on lagged values and lagged proxies gives
``(c, phi, theta)`` — and a Nelder-Mead search refines them. The ARMA sign
convention is

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
from scipy.optimize import minimize
from scipy.signal import lfilter

from .errors import (
    ConfigError,
    DegenerateSeries,
    HistoryTooShort,
    MissingCells,
    TooShort,
)
from .regressors.linear import solve_normal_equations
from .series import TimeSeries
from .transform import difference


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
                  intercept: float) -> np.ndarray:
    """One-step residuals e_p .. e_{n-1} with zero pre-sample shocks."""
    p, q = len(ar), len(ma)
    n = len(w)
    if p:
        lags = np.column_stack([w[p - i: n - i] for i in range(1, p + 1)])
        u = w[p:] - intercept - lags @ np.asarray(ar)
    else:
        u = w - intercept
    if q:
        return lfilter([1.0], np.concatenate([[1.0], ma]), u)
    return u


def ar_roots_stationary(ar: np.ndarray) -> bool:
    """True if all roots of 1 - phi_1 z - ... - phi_p z^p lie outside |z| = 1."""
    ar = np.asarray(ar, dtype=float)
    if ar.size == 0:
        return True
    roots = np.roots(np.concatenate([-ar[::-1], [1.0]]))
    return bool(np.all(np.abs(roots) > 1.0))


def _hannan_rissanen(w: np.ndarray, p: int, q: int):
    n = len(w)
    if q == 0:
        A = np.column_stack([np.ones(n - p)] +
                            [w[p - i: n - i] for i in range(1, p + 1)])
        beta = solve_normal_equations(A, w[p:])
        return float(beta[0]), beta[1:], np.empty(0)

    long_order = min(10, n // 4)
    A_long = np.column_stack([np.ones(n - long_order)] +
                             [w[long_order - i: n - i] for i in range(1, long_order + 1)])
    beta_long = solve_normal_equations(A_long, w[long_order:])
    proxies = np.full(n, 0.0)
    proxies[long_order:] = w[long_order:] - A_long @ beta_long

    start = max(p, long_order + q)
    cols = [np.ones(n - start)]
    cols += [w[start - i: n - i] for i in range(1, p + 1)]
    cols += [proxies[start - j: n - j] for j in range(1, q + 1)]
    beta = solve_normal_equations(np.column_stack(cols), w[start:])
    return float(beta[0]), beta[1:1 + p], beta[1 + p:]


def arima_fit(s: TimeSeries, p: int, d: int, q: int) -> ArimaModel:
    """Estimate an ARIMA(p, d, q) model by CSS with Hannan-Rissanen starts."""
    if p < 0 or d < 0 or q < 0:
        raise ConfigError("orders must be non-negative")
    if p == 0 and q == 0 and d == 0:
        raise ConfigError("ARIMA(0,0,0) has nothing to estimate; use d > 0 or p+q > 0")
    if np.isnan(s.values).any():
        raise MissingCells("ARIMA estimation requires a fully observed series")
    floor = max(20, 4 * (p + q + 1))
    if len(s) - d < floor:
        raise TooShort(f"need at least {floor + d} observations for orders "
                       f"({p},{d},{q}), have {len(s)}")
    w = difference(s, d)[0].values
    if p + q > 0 and np.ptp(w) == 0.0:
        raise DegenerateSeries("differenced series is constant; AR/MA terms unidentifiable")

    if p + q == 0:
        intercept = float(w.mean())
        resid = w - intercept
        return ArimaModel((p, d, q), np.empty(0), np.empty(0), intercept,
                          float(resid @ resid / len(resid)))

    c0, ar0, ma0 = _hannan_rissanen(w, p, q)
    x0 = np.concatenate([[c0], ar0, ma0])

    def objective(params):
        e = css_residuals(w, params[1:1 + p], params[1 + p:], params[0])
        return float(e @ e)

    result = minimize(objective, x0, method="Nelder-Mead",
                      options={"xatol": 1e-8, "fatol": 1e-12,
                               "maxfev": 500 * (p + q + 1), "maxiter": 10 ** 6})
    best = result.x if result.fun <= objective(x0) else x0

    intercept = float(best[0])
    ar, ma = best[1:1 + p], best[1 + p:]
    e = css_residuals(w, ar, ma, intercept)
    return ArimaModel((p, d, q), ar, ma, intercept, float(e @ e / len(e)),
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
