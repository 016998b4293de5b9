"""Ordinary least squares regression on lagged values.

Solved through the normal equations with a Cholesky factorization. Singular
designs (constant lag columns from flat consumption windows) get one retry
with a tiny ridge term on the non-intercept diagonal before giving up.
"""

from __future__ import annotations

import numpy as np

from ..errors import NumericOverflow, SingularDesign, Underdetermined
from .base import ForecastModel

#: Relative ridge size used when the Gram matrix is not positive definite.
JITTER_FACTOR = 1e-10


def solve_normal_equations(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Least-squares coefficients for ``A @ beta = B`` via ``A'A beta = A'B``.

    ``A`` must carry the intercept as its first column; the jitter retry
    leaves that diagonal entry untouched so a degenerate design collapses
    onto the intercept (slopes pushed to zero) instead of splitting the fit
    across redundant columns. ``B`` may hold several right-hand sides.
    Values whose products overflow are NumericOverflow, a data error.
    """
    from scipy.linalg import cho_factor, cho_solve

    with np.errstate(over="ignore", invalid="ignore"):
        gram = A.T @ A
        rhs = A.T @ B
    if not (np.isfinite(gram).all() and np.isfinite(rhs).all()):
        raise NumericOverflow("the normal equations overflow: the design's sums of "
                              "products are not finite")
    try:
        return cho_solve(cho_factor(gram), rhs)
    except np.linalg.LinAlgError:
        n_pred = A.shape[1] - 1
        if n_pred < 1:
            raise SingularDesign("intercept-only design is singular") from None
        jitter = JITTER_FACTOR * np.trace(gram) / n_pred
        bumped = gram.copy()
        bumped[1:, 1:] += jitter * np.eye(n_pred)
        try:
            return cho_solve(cho_factor(bumped), rhs)
        except np.linalg.LinAlgError:
            raise SingularDesign(
                f"design matrix singular even with ridge jitter {jitter:g}") from None


class OlsModel(ForecastModel):
    """Linear model ``y = b0 + b' x`` fitted by least squares."""

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        if X.shape[0] < X.shape[1] + 1:
            raise Underdetermined(
                f"{X.shape[0]} samples cannot determine {X.shape[1] + 1} coefficients")
        A = np.column_stack([np.ones(X.shape[0]), X])
        beta = solve_normal_equations(A, y)
        self.intercept_ = float(beta[0])
        self.coef_ = beta[1:]

    def _predict(self, X: np.ndarray) -> np.ndarray:
        return self.intercept_ + X @ self.coef_
