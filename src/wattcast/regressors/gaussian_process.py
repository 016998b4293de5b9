"""Gaussian process regression with a squared-exponential kernel.

The posterior predictive at a query ``x*`` is

    mean = k*' (K + sn2 I)^-1 y
    var  = sf2 - k*' (K + sn2 I)^-1 k* + sn2

with ``k(x, x') = sf2 * exp(-||x - x'||^2 / (2 l^2))``. The noisy kernel
matrix is factored once by Cholesky at fit time; if it is not positive
definite a ladder of diagonal jitters is tried before giving up. The fit
factors the kernel matrix in place and keeps a copy of its diagonal only,
so it holds one n x n matrix; it refuses, before building it, one larger
than the machine's physical memory (``KernelTooLarge``). Squared distances
come from ``_distance.sq_distances``, written straight into that matrix;
the fit lays the training rows out once, and every prediction reuses them.

By default inputs and targets are standardized with train-only statistics,
so the unit defaults ``sf2 = 1, l = 1, sn2 = 0.01`` are sensible; with
``standardize=False`` the model works in raw units and its prior mean is 0.
"""

from __future__ import annotations

import numpy as np

from ..errors import CholeskyFailure
from ._distance import PackedRows, sq_distances
from .base import ForecastModel, check_kernel_fits

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

    def _kernel(self, A: np.ndarray, rows: PackedRows) -> np.ndarray:
        K = sq_distances(A, rows)
        np.negative(K, out=K)
        K /= 2.0 * self.length_scale ** 2
        np.exp(K, out=K)
        K *= self.signal_var
        return K

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        from scipy.linalg import cho_factor, cho_solve

        check_kernel_fits(X.shape[0])
        rows = PackedRows(X)
        K = self._kernel(X, rows)
        n = K.shape[0]
        diag = K.diagonal().copy()
        scale = self.signal_var + self.noise_var
        for rung, jitter in enumerate(_JITTER_LADDER):
            if rung:
                # the failed factorisation overwrote the C-upper triangle;
                # K is symmetric bit for bit, so the intact C-lower one restores it
                for r in range(n - 1):
                    K[r, r + 1:] = K[r + 1:, r]
            K.flat[::n + 1] = diag + (self.noise_var + jitter * scale)
            try:
                # K.T is the same matrix in Fortran order, which LAPACK factors
                # in place, writing only its lower (K's C-upper) triangle
                factor = cho_factor(K.T, lower=True, overwrite_a=True)
                break
            except np.linalg.LinAlgError:
                continue
        else:
            raise CholeskyFailure(
                "kernel matrix not positive definite after maximum jitter "
                f"{_JITTER_LADDER[-1] * scale:g}")
        self.train_ = rows
        self.chol_ = factor
        self.alpha_ = cho_solve(factor, y)

    def _posterior(self, X: np.ndarray):
        from scipy.linalg import solve_triangular

        Kstar = self._kernel(X, self.train_)
        mean = Kstar @ self.alpha_
        V = solve_triangular(self.chol_[0], Kstar.T, lower=True)
        var = self.signal_var - np.einsum("ij,ij->j", V, V) + self.noise_var
        return mean, np.maximum(var, 0.0)

    def _predict(self, X: np.ndarray) -> np.ndarray:
        return self._kernel(X, self.train_) @ self.alpha_

    def predict_with_variance(self, x) -> tuple[float, float]:
        """Posterior mean and variance at a single query, in target units."""
        mean, var = self._posterior(self._scale(x))
        if self.standardize:
            var = var * self.y_scaler_.scale ** 2
        return float(self._unscale(mean)[0]), float(var[0])
