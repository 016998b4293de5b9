"""Vector autoregression: VAR(p) estimation, forecasting, order selection.

Each variable is regressed on p lags of all k variables plus an intercept;
the design matrix is shared across equations, so the whole system is one
multi-right-hand-side least-squares solve. Order selection minimizes

    AIC(p) = log det(residual covariance) + 2 (k^2 p + k) / n_eff

over 1..max_p, with n_eff the number of usable rows for that p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, HistoryTooShort, MissingCells, TooShort
from .regressors.linear import solve_normal_equations
from .series import MultiSeries, TimeSeries
from .transform import lag_design


@dataclass(frozen=True)
class VarModel:
    lag_order: int
    #: stacked lag matrices, coef[i-1] is the k-by-k matrix on lag i
    coef: np.ndarray
    intercept: np.ndarray
    names: tuple
    resid_cov: np.ndarray

    def __post_init__(self):
        for name in ("coef", "intercept", "resid_cov"):
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "names", tuple(self.names))
        k = len(self.names)
        if self.coef.shape != (self.lag_order, k, k):
            raise ValueError("coef must have shape (p, k, k)")

    @property
    def k(self) -> int:
        return len(self.names)


def _as_matrix(data) -> tuple[np.ndarray, tuple]:
    if isinstance(data, TimeSeries):
        return data.values[:, None], ("value",)
    if isinstance(data, MultiSeries):
        return data.values, data.names
    arr = np.asarray(data, dtype=float)
    if arr.ndim < 2:  # one variable: a column
        arr = arr.reshape(-1, 1)
    return arr, tuple(f"y{j}" for j in range(arr.shape[1]))


def var_fit(data, p: int) -> VarModel:
    """Estimate a VAR(p) by per-equation OLS on a shared design."""
    if p < 1:
        raise ConfigError("lag order must be >= 1")
    values, names = _as_matrix(data)
    n, k = values.shape
    if np.isnan(values).any():
        raise MissingCells("VAR estimation requires a fully observed matrix")
    if n - p < k * p + 1:
        raise TooShort(f"need at least {p + k * p + 1} rows for k={k}, p={p}, have {n}")

    A = lag_design(values, p)
    params = solve_normal_equations(A, values[p:])
    coef = np.empty((p, k, k))
    for i in range(1, p + 1):
        coef[i - 1] = params[1 + (i - 1) * k: 1 + i * k].T
    resid = values[p:] - A @ params
    resid_cov = resid.T @ resid / (n - p)
    return VarModel(p, coef, params[0], names, resid_cov)


def var_forecast(model: VarModel, history, horizon: int) -> np.ndarray:
    """Recursive expectation forecast; returns a (horizon, k) matrix."""
    if horizon < 1:
        raise ConfigError("horizon must be >= 1")
    values, _ = _as_matrix(history)
    p, k = model.lag_order, model.k
    if values.shape[0] < p:
        raise HistoryTooShort(f"need {p} rows of history, have {values.shape[0]}")
    if values.shape[1] != k:
        raise ConfigError(f"history has {values.shape[1]} variables, model has {k}")
    if np.isnan(values[-p:]).any():
        raise MissingCells("forecast seed window contains missing values")

    buf = np.vstack([values[-p:], np.empty((horizon, k))])
    for step in range(horizon):
        t = p + step
        nxt = model.intercept.copy()
        for i in range(1, p + 1):
            nxt += model.coef[i - 1] @ buf[t - i]
        buf[t] = nxt
    return buf[p:]


def var_one_step(model: VarModel, data) -> np.ndarray:
    """One-step predictions from actual lags, aligned with the input rows.

    Rows 0..p-1 have no full lag window and are NaN.
    """
    values, _ = _as_matrix(data)
    p, k = model.lag_order, model.k
    if values.shape[0] <= p:
        raise HistoryTooShort(f"need more than {p} rows, have {values.shape[0]}")
    A = lag_design(values, p)
    params = np.vstack([model.intercept, *(model.coef[i].T for i in range(p))])
    preds = np.full_like(values, np.nan)
    preds[p:] = A @ params
    return preds


def select_var_order(data, max_p: int) -> int:
    """Smallest p in 1..max_p minimizing AIC."""
    if max_p < 1:
        raise ConfigError("max_p must be >= 1")
    values, _ = _as_matrix(data)
    n, k = values.shape
    best_p, best_aic = None, np.inf
    for p in range(1, max_p + 1):
        model = var_fit(values, p)
        sign, logdet = np.linalg.slogdet(model.resid_cov)
        logdet = -np.inf if sign <= 0 else logdet
        aic = logdet + 2.0 * (k * k * p + k) / (n - p)
        if aic < best_aic:
            best_p, best_aic = p, aic
    return best_p
