"""Epsilon-insensitive support vector regression with a Gaussian kernel.

The dual problem

    min  1/2 (a - a*)' K (a - a*) + eps * sum(a + a*) - y' (a - a*)
    s.t. sum(a - a*) = 0,  0 <= a_i, a*_i <= C

is solved by sequential minimal optimization over the stacked variable
vector theta = [a; a*] with signs z = [+1; -1]. Each iteration picks the
maximal violating pair (largest KKT gap between the "up" and "down" index
sets), solves the two-variable subproblem analytically, and updates the
gradient in O(n). Training stops when the KKT gap drops below ``tol``;
hitting ``max_iter`` first leaves ``converged_`` False and keeps the best
iterate found. The bias is the midpoint of the final KKT bounds.

The solver keeps the KKT score ``-z * gradient`` itself up to date: it
starts at ``[y - eps; eps + y]`` and each step subtracts the same
``step * (K[i] - K[j])`` from both halves, reading contiguous rows of K,
which is symmetric bit for bit. Membership in the up and low sets lives in
two offset vectors holding 0 or -inf (up) and 0 or +inf (low); a step
changes only its two entries, and the pair is the first argmax of
``score + off_up`` and the first argmin of ``score + off_low``. The
iterates, the iteration count, the bias and the convergence flag are
bitwise-identical to recomputing the score and both masks on every
iteration; ``tests/test_regressors.py`` keeps that loop as its oracle.

Targets (and inputs) are standardized with train-only statistics by
default, so ``epsilon`` is expressed in standard deviations of the target.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.spatial.distance import cdist

from .base import ForecastModel

_TAU = 1e-12


def dual_objective(K: np.ndarray, y: np.ndarray, epsilon: float,
                   alpha: np.ndarray, alpha_star: np.ndarray) -> float:
    """Dual objective in minimization form (lower is better)."""
    beta = alpha - alpha_star
    return float(0.5 * beta @ K @ beta + epsilon * np.sum(alpha + alpha_star) - y @ beta)


def _smo(K: np.ndarray, y: np.ndarray, C: float, epsilon: float,
         tol: float, max_iter: int):
    n = K.shape[0]
    theta = np.zeros(2 * n)
    score = np.concatenate([y - epsilon, epsilon + y])
    # at theta = 0 the up set is the alpha half and the low set the alpha* half
    off_up = np.concatenate([np.zeros(n), np.full(n, -np.inf)])
    off_low = np.concatenate([np.full(n, np.inf), np.zeros(n)])
    masked = np.empty(2 * n)
    diff = np.empty(n)
    halves = score.reshape(2, n)

    converged = False
    iterations = 0
    while iterations < max_iter:
        i = int(np.add(score, off_up, out=masked).argmax())
        j = int(np.add(score, off_low, out=masked).argmin())
        m_val, big_m = score[i], score[j]
        if m_val - big_m <= tol:
            converged = True
            break

        ki, kj = i % n, j % n
        eta = K[ki, ki] + K[kj, kj] - 2.0 * K[ki, kj]
        step = (m_val - big_m) / max(eta, _TAU)
        cap_i = C - theta[i] if i < n else theta[i]
        cap_j = theta[j] if j < n else C - theta[j]
        step = min(step, cap_i, cap_j)

        theta[i] += step if i < n else -step
        theta[j] -= step if j < n else -step
        for k in (i, j):
            below_c, above_0 = theta[k] < C, theta[k] > 0
            in_up, in_low = (below_c, above_0) if k < n else (above_0, below_c)
            off_up[k] = 0.0 if in_up else -np.inf
            off_low[k] = 0.0 if in_low else np.inf
        # K is symmetric, so the contiguous rows stand in for its columns
        np.subtract(K[ki], K[kj], out=diff)
        diff *= step
        halves -= diff
        iterations += 1

    bias = 0.5 * (np.max(score[off_up == 0.0]) + np.min(score[off_low == 0.0]))
    return theta[:n], theta[n:], bias, converged, iterations


class SvrModel(ForecastModel):

    def __init__(self, C: float = 1.0, epsilon: float = 0.1, gamma: float | None = None,
                 tol: float = 1e-3, max_iter: int | None = None, standardize: bool = True):
        if C <= 0:
            raise ValueError("C must be positive")
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if gamma is not None and gamma <= 0:
            raise ValueError("gamma must be positive")
        self.C = float(C)
        self.epsilon = float(epsilon)
        self.gamma = gamma
        self.tol = float(tol)
        self.max_iter = max_iter
        self.standardize = standardize

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        n, n_feat = X.shape
        if self.gamma is None:
            x_var = X.var()
            self.gamma_ = 1.0 / (n_feat * x_var) if x_var > 0 else 1.0 / n_feat
        else:
            self.gamma_ = float(self.gamma)
        max_iter = self.max_iter if self.max_iter is not None else 10_000 * n

        K = cdist(X, X, "sqeuclidean")
        np.multiply(K, -self.gamma_, out=K)
        np.exp(K, out=K)
        alpha, alpha_star, bias, converged, iterations = _smo(
            K, y, self.C, self.epsilon, self.tol, max_iter)

        # project onto the complementary-slackness face: min(a, a*) = 0
        # without changing the coefficient differences (predictions identical,
        # objective can only improve)
        beta = alpha - alpha_star
        self.alpha_ = np.maximum(beta, 0.0)
        self.alpha_star_ = np.maximum(-beta, 0.0)
        self.bias_ = float(bias)
        self.converged_ = converged
        self.n_iter_ = iterations
        support = beta != 0.0
        self.support_ = np.flatnonzero(support)
        self.support_vectors_ = X[support]
        self.dual_coef_ = beta[support]
        if not converged:
            warnings.warn(
                f"SVR stopped after {iterations} iterations with KKT gap above "
                f"tol={self.tol}; returning best iterate", RuntimeWarning)

    def _predict(self, X: np.ndarray) -> np.ndarray:
        if self.support_vectors_.shape[0] == 0:
            return np.full(X.shape[0], self.bias_)
        K = np.exp(-self.gamma_ * cdist(X, self.support_vectors_, "sqeuclidean"))
        return K @ self.dual_coef_ + self.bias_
