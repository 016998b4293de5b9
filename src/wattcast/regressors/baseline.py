"""Naive baseline predictor: the training-target mean.

Useful as the reference point for relative absolute error — by definition
its RAE is exactly 1 under the train-mean denominator.
"""

from __future__ import annotations

import numpy as np

from .base import ForecastModel


class MeanModel(ForecastModel):

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        self.mean_ = float(y.mean())

    def _predict(self, X: np.ndarray) -> np.ndarray:
        return np.full(X.shape[0], self.mean_)
