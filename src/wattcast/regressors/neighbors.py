"""K-nearest-neighbour regression.

Prediction is the arithmetic mean of the targets of the K training points
closest in Euclidean distance. Distance ties keep the earlier training
index (stable sort), which makes the estimator deterministic.
"""

from __future__ import annotations

import numpy as np

from ..errors import KTooLarge
from .base import ForecastModel


class KnnModel(ForecastModel):

    def __init__(self, k: int = 3):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = int(k)

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        if self.k > X.shape[0]:
            raise KTooLarge(f"k={self.k} exceeds {X.shape[0]} training samples")
        self.X_ = X
        self.y_ = y

    def _predict(self, X: np.ndarray) -> np.ndarray:
        from scipy.spatial.distance import cdist

        dists = cdist(X, self.X_)
        order = np.argsort(dists, axis=1, kind="stable")[:, :self.k]
        return self.y_[order].mean(axis=1)
