"""Gaussian process regression with a squared-exponential kernel.

The posterior predictive at a query ``x*`` is

    mean = k*' (K + sn2 I)^-1 y
    var  = sf2 - k*' (K + sn2 I)^-1 k* + sn2

with ``k(x, x') = sf2 * exp(-||x - x'||^2 / (2 l^2))``. The noisy kernel
matrix is factored once by Cholesky at fit time; if it is not positive
definite a ladder of diagonal jitters is tried before giving up.

By default inputs and targets are standardized with train-only statistics,
so the unit defaults ``sf2 = 1, l = 1, sn2 = 0.01`` are sensible; with
``standardize=False`` the model works in raw units and its prior mean is 0.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.spatial.distance import cdist

from ..errors import CholeskyFailure
from .base import ForecastModel

_JITTER_LADDER = (0.0, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2)


class GpModel(ForecastModel):

    def __init__(self, signal_var: float = 1.0, length_scale: float = 1.0,
                 noise_var: float = 0.01, standardize: bool = True):
        if signal_var <= 0 or length_scale <= 0:
            raise ValueError("signal_var and length_scale must be positive")
        if noise_var <= 0:
            raise ValueError("noise_var must be positive")
        self.signal_var = float(signal_var)
        self.length_scale = float(length_scale)
        self.noise_var = float(noise_var)
        self.standardize = standardize

    def _kernel(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        K = cdist(A, B, "sqeuclidean")
        np.negative(K, out=K)
        K /= 2.0 * self.length_scale ** 2
        np.exp(K, out=K)
        K *= self.signal_var
        return K

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        K = self._kernel(X, X)
        n = K.shape[0]
        scale = self.signal_var + self.noise_var
        for jitter in _JITTER_LADDER:
            noisy = K.copy()
            noisy.flat[::n + 1] += self.noise_var + jitter * scale
            try:
                # noisy is symmetric, so its transpose is the same matrix in
                # Fortran order, which LAPACK factors in place
                factor = cho_factor(noisy.T, lower=True, overwrite_a=True)
                break
            except np.linalg.LinAlgError:
                continue
        else:
            raise CholeskyFailure(
                "kernel matrix not positive definite after maximum jitter "
                f"{_JITTER_LADDER[-1] * scale:g}")
        self.X_ = X
        self.chol_ = factor
        self.alpha_ = cho_solve(factor, y)

    def _posterior(self, X: np.ndarray):
        Kstar = self._kernel(X, self.X_)
        mean = Kstar @ self.alpha_
        V = solve_triangular(self.chol_[0], Kstar.T, lower=True)
        var = self.signal_var - np.einsum("ij,ij->j", V, V) + self.noise_var
        return mean, np.maximum(var, 0.0)

    def _predict(self, X: np.ndarray) -> np.ndarray:
        return self._kernel(X, self.X_) @ self.alpha_

    def predict_with_variance(self, x) -> tuple[float, float]:
        """Posterior mean and variance at a single query, in target units."""
        mean, var = self._posterior(self._scale(x))
        if self.standardize:
            var = var * self.y_scaler_.scale ** 2
        return float(self._unscale(mean)[0]), float(var[0])
