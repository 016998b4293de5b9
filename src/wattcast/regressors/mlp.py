"""Single-hidden-layer perceptron trained by backpropagation.

Architecture: sigmoid hidden layer, linear output unit. Training is
per-sample stochastic gradient descent with momentum on the squared error,
in the frame's row order. Weights start uniform(-0.5, 0.5) from the seed,
so a fit is reproducible from ``(seed, row order)``.

After every epoch the RMSE over the whole training set is measured; if it
rose, the epoch is rolled back and the learning rate halved, which makes
the recorded loss curve non-increasing by construction.

Training keeps every weight in one flat float64 vector laid out as
``[W_aug = [w_in | b_in] (h x (p+1)), w_out (h), b_out (1)]``; the momentum
velocity and the per-row gradient share that layout, and the standardized
inputs carry an appended ones column, so one outer product yields both
input-layer gradients and a row update is a fixed handful of in-place numpy
calls. The contract is that a fit is bitwise-identical to per-sample SGD in
row order: each weight sees the same floating-point operations in the same
order as the plain per-array loop. After ``fit`` the weights are published
as contiguous ``w_in_``, ``b_in_``, ``w_out_`` and a float ``b_out_``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import expit

from ..errors import DivergedLoss
from .base import ForecastModel


def default_hidden(n_features: int) -> int:
    """Default hidden width: half of (features + output), rounded up."""
    return math.ceil((n_features + 1) / 2)


class MlpModel(ForecastModel):

    def __init__(self, hidden: int | None = None, lr: float = 0.3,
                 momentum: float = 0.2, epochs: int = 500, seed: int = 0,
                 standardize: bool = True):
        if hidden is not None and hidden < 1:
            raise ValueError("hidden must be >= 1")
        if lr <= 0:
            raise ValueError("lr must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if epochs < 0:
            raise ValueError("epochs must be >= 0")
        self.hidden = hidden
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.epochs = int(epochs)
        self.seed = seed
        self.standardize = standardize

    # --- forward ------------------------------------------------------------

    def _predict(self, X: np.ndarray) -> np.ndarray:
        return expit(X @ self.w_in_.T + self.b_in_) @ self.w_out_ + self.b_out_

    def _rmse(self, X: np.ndarray, y: np.ndarray) -> float:
        err = self._predict(X) - y
        return float(np.sqrt(np.mean(err ** 2)))

    # --- training -----------------------------------------------------------

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        X = np.ascontiguousarray(X, dtype=float)
        n, n_feat = X.shape
        h = self.hidden if self.hidden is not None else default_hidden(n_feat)
        X_aug = np.hstack([X, np.ones((n, 1))])

        # packed layout as in the module docstring; vel and grad share it
        size = h * (n_feat + 1)
        theta = np.empty(size + h + 1)
        vel = np.zeros_like(theta)
        grad = np.empty_like(theta)
        W = theta[:size].reshape(h, n_feat + 1)
        w_in, b_in, w_out = W[:, :n_feat], W[:, n_feat], theta[size:-1]
        g_W, g_out = grad[:size].reshape(h, n_feat + 1), grad[size:-1]

        rng = np.random.default_rng(self.seed)
        w_in[:] = rng.uniform(-0.5, 0.5, size=(h, n_feat))
        b_in[:] = rng.uniform(-0.5, 0.5, size=h)
        w_out[:] = rng.uniform(-0.5, 0.5, size=h)
        theta[-1] = rng.uniform(-0.5, 0.5)
        self._publish(w_in, b_in, w_out, theta)

        z, act, delta, slope = (np.empty(h) for _ in range(4))
        delta_col = delta[:, None]
        dot, multiply, subtract = np.dot, np.multiply, np.subtract
        lr, momentum = self.lr, self.momentum
        rows = list(zip(X, X_aug, y.tolist()))
        prev_loss = self._rmse(X, y)
        curve = [prev_loss]
        for epoch in range(self.epochs):
            snapshot = theta.copy()
            for x_row, x_aug, target in rows:
                dot(w_in, x_row, out=z)
                z += b_in
                expit(z, out=act)
                err = float(dot(w_out, act)) + theta.item(-1) - target
                multiply(w_out, err, out=delta)
                delta *= act
                subtract(1.0, act, out=slope)
                delta *= slope
                step = lr * err
                multiply(act, step, out=g_out)
                grad[-1] = step
                multiply(delta_col, x_aug, out=g_W)
                g_W *= lr
                vel *= momentum
                vel -= grad
                theta += vel

            self._publish(w_in, b_in, w_out, theta)
            loss = self._rmse(X, y)
            if not np.isfinite(loss):
                raise DivergedLoss(
                    f"training loss became non-finite at epoch {epoch} (lr={lr:g})")
            if loss > prev_loss:
                # roll the epoch back and retry more cautiously
                theta[:] = snapshot
                vel[:] = 0.0
                self._publish(w_in, b_in, w_out, theta)
                lr *= 0.5
                curve.append(prev_loss)
            else:
                prev_loss = loss
                curve.append(loss)

        self.loss_curve_ = np.asarray(curve)
        self.final_lr_ = lr

    def _publish(self, w_in, b_in, w_out, theta) -> None:
        """Expose the packed weights as contiguous arrays for ``_predict``."""
        self.w_in_ = w_in.copy()
        self.b_in_ = b_in.copy()
        self.w_out_ = w_out.copy()
        self.b_out_ = float(theta[-1])
