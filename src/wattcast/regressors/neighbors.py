"""K-nearest-neighbour regression.

Prediction is the arithmetic mean of the targets of the K training points
closest in Euclidean distance: ``_distance.kernel_matrix`` takes the square
root of ``sq_distances`` (``cdist``'s Euclidean distance bit for bit) and
refuses too large a matrix. Distance ties keep the earlier training index
(stable sort), which makes the estimator deterministic.

A query row needs no full sort when exactly K training points lie at or
below its K-th smallest distance: those K, ordered by (distance, index), are
the stable sort's first K. Only rows with a tie at the K-th distance (or a
NaN distance) are sorted in full, so the neighbours and the order of the
mean's summands are the stable sort's.
"""

from __future__ import annotations

import numpy as np

from ..errors import KTooLarge
from ._distance import PackedRows, kernel_matrix
from .base import ForecastModel


class KnnModel(ForecastModel):

    def __init__(self, k: int = 3):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = int(k)

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        if self.k > X.shape[0]:
            raise KTooLarge(f"k={self.k} exceeds {X.shape[0]} training samples")
        self.train_ = PackedRows(X)
        self.y_ = y

    def _predict(self, X: np.ndarray) -> np.ndarray:
        dists = kernel_matrix(X, self.train_, lambda D: np.sqrt(D, out=D))
        k = self.k
        kth = np.partition(dists, k - 1, axis=1)[:, k - 1:k]
        within = dists <= kth
        exact = np.count_nonzero(within, axis=1) == k
        order = np.empty((dists.shape[0], k), dtype=np.intp)
        # row-major nonzero lists each exact row's k indices ascending
        cols = np.nonzero(within[exact])[1].reshape(-1, k)
        nearest = np.take_along_axis(dists[exact], cols, axis=1)
        order[exact] = np.take_along_axis(
            cols, np.argsort(nearest, axis=1, kind="stable"), axis=1)
        order[~exact] = np.argsort(dists[~exact], axis=1, kind="stable")[:, :k]
        with np.errstate(over="ignore"):  # an infinite mean fails as NonFinitePrediction
            return self.y_[order].mean(axis=1)
