"""Shared forecasting interface for the supervised regression models.

Every model consumes a :class:`~wattcast.transform.SupervisedFrame` (lagged
values plus optional exogenous features). The base class owns the contract:
``fit`` learns the optional train-only scaling, calls the model's ``_fit``
and records the frame's shape; ``predict_batch`` coerces and scales the
features, calls ``_predict`` and maps the result back to target units. A
model implements only ``_fit(X, y)`` and ``_predict(X)``, and sets
``standardize`` to opt into scaling. ``fit`` refuses a frame with a
non-finite cell, and one with no rows, so every ``_fit`` sees finite data.

``predict_series`` forecasts recursively, feeding each prediction back as
the newest lag. One-step prediction on true history is ``predict_batch`` on
complete lag windows: the lag kind's ``one_step`` in ``evaluation.KINDS``.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod

import numpy as np

from ..errors import HistoryTooShort, LengthMismatch, MissingCells, NonFinitePrediction, TooShort
from ..series import TimeSeries
from ..transform import SupervisedFrame, apply_scaler, fit_scaler, invert_scaler


def physical_memory() -> int | None:
    """Bytes of physical memory in this machine, or None where ``os.sysconf``
    cannot tell."""
    try:
        pages, page_size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None
    return pages * page_size if pages > 0 and page_size > 0 else None


def check_memory(cells: int, error, what: str) -> None:
    """Raise ``error`` before a float64 array of ``cells`` cells outgrows the
    machine's physical memory; ``what`` names the array in the message."""
    need, have = 8 * cells, physical_memory()
    if have is not None and need > have:
        raise error(f"{what} needs {need / 2 ** 30:.1f} GiB; "
                    f"this machine has {have / 2 ** 30:.1f} GiB of physical memory")


class ForecastModel(ABC):
    """Base class for lag-embedding regressors.

    Fitted attributes follow the trailing-underscore convention. With
    ``standardize`` set, ``_fit`` and ``_predict`` work on features and
    targets standardized by ``x_scaler_``/``y_scaler_``, learned from the
    training frame only.
    """

    standardize = False
    lag_order_: int
    n_exog_: int

    @abstractmethod
    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        """Estimate parameters from (scaled) training rows."""

    @abstractmethod
    def _predict(self, X: np.ndarray) -> np.ndarray:
        """Predict one (scaled) target per (scaled) 2-D feature row."""

    def fit(self, frame: SupervisedFrame) -> "ForecastModel":
        """Estimate parameters from a supervised frame; returns ``self``."""
        if not frame.n_samples:
            raise TooShort("no complete training windows")
        X, y = frame.X, frame.y
        bad = np.count_nonzero(~np.isfinite(X)) + np.count_nonzero(~np.isfinite(y))
        if bad:
            raise MissingCells(f"{bad} of the training frame's {X.size + y.size} cells "
                               "are missing or non-finite")
        if self.standardize:
            self.x_scaler_ = fit_scaler(X)
            self.y_scaler_ = fit_scaler(y)
            X = apply_scaler(self.x_scaler_, X)
            y = apply_scaler(self.y_scaler_, y)
        self._fit(X, y)
        self.lag_order_ = frame.lag_order
        self.n_exog_ = frame.n_exog
        return self

    def _scale(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return apply_scaler(self.x_scaler_, X) if self.standardize else X

    def _unscale(self, y: np.ndarray) -> np.ndarray:
        return invert_scaler(self.y_scaler_, y) if self.standardize else y

    def predict_batch(self, X) -> np.ndarray:
        """Predict one target per feature row."""
        return self._unscale(self._predict(self._scale(X)))

    def predict(self, x) -> float:
        """Predict the target for a single feature vector."""
        return float(self.predict_batch(x)[0])

    def predict_series(self, history, horizon, *, exog=None) -> np.ndarray:
        """Recursively predict ``horizon`` consecutive values following ``history``.

        ``history`` is a TimeSeries or 1-D array of past target values; its
        last ``lag_order_`` entries seed the window, and each prediction
        becomes the newest lag of the next one: one that is not finite raises
        NonFinitePrediction first. If the model was fitted with exogenous
        features, ``exog`` must be a (horizon, n_exog) matrix of covariate
        values at each target step.
        """
        values = history.values if isinstance(history, TimeSeries) else np.asarray(history, dtype=float)
        p = self.lag_order_
        if values.size < p:
            raise HistoryTooShort(f"need {p} past values, have {values.size}")
        if horizon < 1:
            raise LengthMismatch("horizon must be >= 1")
        if self.n_exog_ and np.shape(exog) != (horizon, self.n_exog_):
            raise LengthMismatch(f"model uses {self.n_exog_} exogenous features; "
                                 f"exog must have shape ({horizon}, {self.n_exog_})")

        feed = np.concatenate([values[values.size - p:], np.empty(horizon)])
        if np.isnan(feed[:p]).any():
            raise HistoryTooShort("missing value inside the lag window at step 0")
        for i in range(horizon):
            x = np.concatenate([feed[i: i + p], exog[i]]) if self.n_exog_ else feed[i: i + p]
            feed[p + i] = self.predict(x)
            if not np.isfinite(feed[p + i]):
                raise NonFinitePrediction(f"prediction at step {i} is not finite")
        return feed[p:]
