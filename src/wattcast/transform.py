"""Preprocessing transforms: lag embedding, differencing, seasonal
decomposition, and feature standardization.

Everything here is a pure function over immutable inputs. The supervised
embedding turns a series into (X, y) pairs whose features are the previous
lag-order values; differencing and the scaler come with exact inverses.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ArityMismatch, ConfigError, NumericOverflow, TooShort
from .series import MultiSeries, TimeSeries


@dataclass(frozen=True)
class SupervisedFrame:
    """Lag-embedded design matrix and next-step targets.

    Row i of X holds the ``lag_order`` values immediately preceding target
    y_i, oldest first, followed by any exogenous columns taken at the
    target's own timestamp. ``target_positions`` maps each sample back to
    the source-series index of its target (needed when missing rows were
    skipped).
    """

    X: np.ndarray
    y: np.ndarray
    lag_order: int
    feature_names: tuple
    target_positions: np.ndarray

    def __post_init__(self):
        for name in ("X", "y", "target_positions"):
            arr = np.asarray(getattr(self, name))
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    @property
    def n_exog(self) -> int:
        return self.n_features - self.lag_order


def lag_embed(s, p: int, target_column: str = "energy") -> SupervisedFrame:
    """Build a supervised frame with p lagged values as features.

    For a MultiSeries, ``target_column`` selects the forecast variable and
    the remaining columns are appended as exogenous features at the target
    timestamp. Samples whose window, target, or exogenous row contains a
    missing value are skipped, which automatically keeps only windows that
    are contiguous in time.
    """
    if p < 1:
        raise ConfigError(f"lag order must be >= 1, got {p}")
    if isinstance(s, MultiSeries):
        target = s.column(target_column)
        exog_names = tuple(n for n in s.names if n != target_column)
        exog = s.values[:, [s.names.index(n) for n in exog_names]]
    else:
        target = s.values
        exog_names = ()
        exog = None

    n = target.shape[0]
    if n <= p:
        raise TooShort(f"series of length {n} cannot be embedded with p={p}")

    n_win = n - p
    # windows[i] = target[i : i+p], oldest lag first
    windows = np.lib.stride_tricks.sliding_window_view(target, p)[:n_win]
    y = target[p:]
    missing = np.isnan(windows).any(axis=1) | np.isnan(y)
    if exog is not None:
        missing |= np.isnan(exog[p:]).any(axis=1)
    ok = ~missing
    # X is built once, from the kept rows only
    X = windows[ok] if exog is None else np.hstack([windows[ok], exog[p:][ok]])
    positions = np.arange(p, n)[ok]
    names = tuple(f"lag_{p - j}" for j in range(p)) + exog_names
    return SupervisedFrame(X, y[ok], p, names, positions)


def lag_design(values: np.ndarray, p: int) -> np.ndarray:
    """Regression design on p lags of every column of an (n, k) matrix.

    Row i is the intercept 1 followed by row i + p - 1 (lag 1), row i + p - 2
    (lag 2), ... down to row i (lag p), so it explains row i + p.
    """
    n, k = values.shape
    A = np.empty((n - p, 1 + k * p))
    A[:, 0] = 1.0
    for i in range(1, p + 1):
        A[:, 1 + (i - 1) * k: 1 + i * k] = values[p - i: n - i]
    return A


def difference(s: TimeSeries, d: int):
    """Apply the backward difference d times.

    Returns the differenced series and the d retained initial values (the
    first element of each intermediate differencing stage) needed to invert
    the transform. The differenced series starts d intervals later.
    """
    if d < 0:
        raise ValueError(f"differencing order must be >= 0, got {d}")
    if len(s) <= d:
        raise TooShort(f"series of length {len(s)} cannot be differenced d={d} times")
    x = s.values
    initial = np.empty(d)
    for j in range(d):
        initial[j] = x[0]
        x = np.diff(x)
    return TimeSeries(s.start + d * s.interval, s.interval, x), initial


def undifference(diff: TimeSeries, initial, d: int) -> TimeSeries:
    """Exact left inverse of :func:`difference`."""
    initial = np.asarray(initial, dtype=np.float64)
    if initial.shape != (d,):
        raise ArityMismatch(
            f"need exactly {d} initial values to invert d={d}, got {initial.shape}")
    x = diff.values
    for j in reversed(range(d)):
        x = np.cumsum(np.concatenate([[initial[j]], x]))
    return TimeSeries(diff.start - d * diff.interval, diff.interval, x)


@dataclass(frozen=True)
class Decomposition:
    """Classical additive decomposition: value = trend + seasonal + residual.

    Trend is undefined (NaN) in the first and last floor(period/2) positions;
    the seasonal component repeats with the period and sums to ~0 over one
    cycle.
    """

    trend: np.ndarray
    seasonal: np.ndarray
    residual: np.ndarray
    period: int

    @property
    def seasonal_pattern(self) -> np.ndarray:
        """One period of the seasonal component, phase-aligned with index 0."""
        return self.seasonal[: self.period]


def decompose(s: TimeSeries, period: int) -> Decomposition:
    """Classical additive decomposition with a centered moving-average trend.

    For even periods the standard 2-by-m average is used so the trend stays
    centered. Seasonal effects are the period-indexed means of the detrended
    values, re-centered to sum to zero. A component that overflows float64
    raises ``NumericOverflow``.
    """
    m = int(period)
    if m < 2:
        raise ConfigError(f"period must be >= 2, got {m}")
    x = s.values
    n = x.shape[0]
    if n < 2 * m:
        raise TooShort(f"need at least 2*period={2 * m} observations, got {n}")

    half = m // 2
    trend = np.full(n, np.nan)
    if m % 2 == 1:
        kernel = np.full(m, 1.0 / m)
    else:
        # 2 x m moving average: half weight on the two outermost points
        kernel = np.full(m + 1, 1.0 / m)
        kernel[0] = kernel[-1] = 0.5 / m
    width = kernel.shape[0]
    windows = np.lib.stride_tricks.sliding_window_view(x, width)
    trend[half: n - half] = windows @ kernel

    with np.errstate(over="ignore", invalid="ignore"):
        detrended = x - trend
        pattern = np.empty(m)
        # nanmean gives a phase without a detrended value NaN, and a warning
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for r in range(m):
                pattern[r] = np.nanmean(detrended[r::m])
        pattern -= pattern.mean()
        seasonal = np.tile(pattern, n // m + 1)[:n]
        residual = x - trend - seasonal
    if any(np.isinf(part).any() for part in (detrended, pattern, residual)):
        raise NumericOverflow("the decomposition of these values overflows float64")
    return Decomposition(trend, seasonal, residual, m)


@dataclass(frozen=True)
class Scaler:
    """Per-feature standardization learned from training rows only.

    The standard deviation is floored at 1e-12 so constant columns scale to
    zero instead of blowing up. ``fit_scaler`` raises ``NumericOverflow``
    when a mean or standard deviation overflows float64.
    """

    mean: np.ndarray
    scale: np.ndarray

    SD_FLOOR = 1e-12


def fit_scaler(X) -> Scaler:
    X = np.asarray(X, dtype=np.float64)
    if X.size == 0:
        raise ValueError("cannot fit a scaler on empty data")
    axis = 0 if X.ndim == 2 else None
    with np.errstate(over="ignore", invalid="ignore"):
        mean = np.atleast_1d(X.mean(axis=axis))
        sd = np.atleast_1d(X.std(axis=axis))
    if not (np.isfinite(mean).all() and np.isfinite(sd).all()):
        raise NumericOverflow("the mean or standard deviation of the values to "
                              "standardize overflows float64")
    return Scaler(mean, np.maximum(sd, Scaler.SD_FLOOR))


def apply_scaler(scaler: Scaler, X) -> np.ndarray:
    with np.errstate(over="ignore"):
        scaled = (np.asarray(X, dtype=np.float64) - scaler.mean) / scaler.scale
    if np.isinf(scaled).any():
        raise NumericOverflow("a value lies too many standard deviations from the "
                              "training mean to standardize in float64")
    return scaled


def invert_scaler(scaler: Scaler, X) -> np.ndarray:
    # an overflow is an infinite prediction, which callers refuse as NonFinitePrediction
    with np.errstate(over="ignore"):
        return np.asarray(X, dtype=np.float64) * scaler.scale + scaler.mean
