"""Gaussian process regression with a squared-exponential kernel.

The posterior predictive at a query ``x*`` is

    mean = k*' (K + sn2 I)^-1 y
    var  = sf2 - k*' (K + sn2 I)^-1 k* + sn2

with ``k(x, x') = sf2 * exp(-||x - x'||^2 / (2 l^2))``. The noisy kernel
matrix is factored once by Cholesky at fit time; if it is not positive
definite a ladder of diagonal jitters is tried before giving up. Every
kernel matrix comes from ``_distance.kernel_matrix``, which refuses one
larger than the machine's physical memory (``KernelTooLarge``). The fit
builds only the cells j >= i of the row-major matrix: every LAPACK call runs
on its transpose with ``lower=True`` and reads no cell below the diagonal.
The matrix is factored in place, so a fit holds one n x n matrix; a rung
that fails has overwritten the triangle, and the next rung builds it again.
The training rows are laid out once, for every prediction. No LAPACK call
scans its operands for non-finite values: ``fit`` refuses non-finite
training data, and a query with a NaN gives a NaN mean and variance, as
``predict_batch`` gives a NaN mean.

By default inputs and targets are standardized with train-only statistics,
so the unit defaults ``sf2 = 1, l = 1, sn2 = 0.01`` are sensible; with
``standardize=False`` the model works in raw units and its prior mean is 0.
"""

from __future__ import annotations

import numpy as np

from ..errors import CholeskyFailure
from ._distance import PackedRows, kernel_matrix
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

    def _transform(self, D: np.ndarray) -> np.ndarray:
        """The kernel of squared distances ``D``, computed in place."""
        np.negative(D, out=D)
        D /= 2.0 * self.length_scale ** 2
        np.exp(D, out=D)
        D *= self.signal_var
        return D

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        from scipy.linalg import cho_factor, cho_solve

        rows = PackedRows(X)
        scale = self.signal_var + self.noise_var
        for jitter in _JITTER_LADDER:
            K = kernel_matrix(X, rows, self._transform, upper=True)
            K.flat[::len(X) + 1] += self.noise_var + jitter * scale
            try:
                # K.T is the same matrix in Fortran order, which LAPACK factors
                # in place, reading and writing only its lower (K's C-upper)
                # triangle
                factor = cho_factor(K.T, lower=True, overwrite_a=True, check_finite=False)
                break
            except np.linalg.LinAlgError:
                del K  # the next rung's matrix takes its place
        else:
            raise CholeskyFailure(
                "kernel matrix not positive definite after maximum jitter "
                f"{_JITTER_LADDER[-1] * scale:g}")
        self.train_ = rows
        self.chol_ = factor
        self.alpha_ = cho_solve(factor, y, check_finite=False)

    def _posterior(self, X: np.ndarray):
        from scipy.linalg import solve_triangular

        Kstar = kernel_matrix(X, self.train_, self._transform)
        mean = Kstar @ self.alpha_
        V = solve_triangular(self.chol_[0], Kstar.T, lower=True, check_finite=False)
        var = self.signal_var - np.einsum("ij,ij->j", V, V) + self.noise_var
        return mean, np.maximum(var, 0.0)

    def _predict(self, X: np.ndarray) -> np.ndarray:
        return kernel_matrix(X, self.train_, self._transform) @ self.alpha_

    def predict_with_variance(self, x) -> tuple[float, float]:
        """Posterior mean and variance at a single query, in target units."""
        mean, var = self._posterior(self._scale(x))
        if self.standardize:
            var = var * self.y_scaler_.scale ** 2
        return float(self._unscale(mean)[0]), float(var[0])
