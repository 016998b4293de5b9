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
inputs carry an appended ones column. After ``fit`` the weights are
published as contiguous ``w_in_``, ``b_in_``, ``w_out_`` and a float
``b_out_``.

An epoch runs on one of two backends with one signature: each runs the
epoch's rows (unless told only to score) and returns the training RMSE of
the weights it leaves. The epoch loop, rollback and loss curve around them
are shared:

- **C** (``_mlp_epoch.c``): one call per epoch, which also scores it. The
  first fit in a process compiles and loads it (``_native.build``), and
  predictions take its sigmoid from that load. The hidden units run as
  vector lanes: the call copies ``W_aug`` and its velocity, transposed and
  zero-padded, into (p+1) x hp blocks (hp is h rounded up to the lane
  width), adds ``W[j, :] * x[j]`` to every hidden sum for j ascending, and
  updates one input's weights across all units at once. Each hidden sum
  still adds its terms in input order, so weights and velocities are the
  same bits at any lane width as a loop over one unit at a time. Against
  the numpy loop, every weight sees the same floating-point operations in
  the same order, except that the two dot products of a row are summed in
  plain loop order rather than by BLAS, so its weights equal the numpy
  loop's to within rounding, not bitwise; its RMSE is summed in its own
  order and also matches to within rounding.
- **numpy**: a fixed handful of in-place numpy calls per row, used when no
  compiler is found or the build or load fails, then the RMSE through BLAS
  and ``expit``. It is bitwise-identical to per-sample SGD written with one
  array per weight block: each weight sees the same floating-point
  operations in the same order.
"""

from __future__ import annotations

import ctypes
import functools
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from ..errors import ConfigError, DivergedLoss
from . import _native
from .base import ForecastModel, check_memory

_KERNEL_SOURCE = Path(__file__).with_name("_mlp_epoch.c")


def default_hidden(n_features: int) -> int:
    """Default hidden width: half of (features + output), rounded up."""
    return math.ceil((n_features + 1) / 2)


def _numpy_epoch(X_aug, y, theta, vel, h, lr, momentum, train=True) -> float:
    """One epoch of per-sample SGD with momentum, updating theta and vel in
    place, then the RMSE of the weights it leaves. With ``train`` False the
    epoch is skipped and only the RMSE is computed."""
    from scipy.special import expit

    n_feat = X_aug.shape[1] - 1
    size = h * (n_feat + 1)
    W = theta[:size].reshape(h, n_feat + 1)
    w_in, b_in, w_out = W[:, :n_feat], W[:, n_feat], theta[size:-1]
    grad = np.empty_like(theta)
    g_W, g_out = grad[:size].reshape(h, n_feat + 1), grad[size:-1]
    z, act, delta, slope = (np.empty(h) for _ in range(4))
    delta_col = delta[:, None]
    dot, multiply, subtract = np.dot, np.multiply, np.subtract
    rows = zip(X_aug[:, :n_feat], X_aug, y.tolist()) if train else ()
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

    # contiguous operands, as ``_predict`` sees them after fit
    X = np.ascontiguousarray(X_aug[:, :n_feat])
    w_in, b_in, w_out = (np.ascontiguousarray(a) for a in (w_in, b_in, w_out))
    err = expit(X @ w_in.T + b_in) @ w_out + theta.item(-1) - y
    return float(np.sqrt(np.mean(err ** 2)))


@functools.cache
def _load_kernel():
    """``_mlp_epoch.c``, built and loaded once (see ``_native.build``), as
    ``epoch``, with ``_numpy_epoch``'s signature, and ``sigmoid(z)``, which
    computes ``1 / (1 + exp(-z))`` in place in the float64 array ``z`` with
    the bits of scipy's ``expit``; None when the kernel cannot be built."""
    lib = _native.build(_KERNEL_SOURCE)
    if lib is None:
        return None

    array = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    lib.mlp_work_size.restype = ctypes.c_long
    lib.mlp_work_size.argtypes = [ctypes.c_long, ctypes.c_long]
    lib.mlp_epoch.restype = ctypes.c_double
    lib.mlp_epoch.argtypes = [array, array, ctypes.c_long, ctypes.c_long, ctypes.c_long,
                              ctypes.c_int, ctypes.c_double, ctypes.c_double, array, array,
                              array]
    lib.mlp_sigmoid.restype = None
    lib.mlp_sigmoid.argtypes = [array, ctypes.c_long, array]

    def c_epoch(X_aug, y, theta, vel, h, lr, momentum, train=True) -> float:
        n, cols = X_aug.shape
        if y.shape != (n,) or theta.shape != vel.shape or theta.size != h * (cols + 1) + 1:
            raise ValueError("MLP epoch buffers do not match the packed layout")
        # the kernel sizes its own scratch: the padded weight blocks and row buffers
        work = np.empty(lib.mlp_work_size(cols - 1, h))
        return lib.mlp_epoch(X_aug, y, n, cols - 1, h, train, lr, momentum, theta, vel, work)

    def c_sigmoid(z):
        lib.mlp_sigmoid(z, z.size, z)
        return z

    return SimpleNamespace(epoch=c_epoch, sigmoid=c_sigmoid)


class MlpModel(ForecastModel):

    def __init__(self, hidden: int | None = None, lr: float = 0.3,
                 momentum: float = 0.2, epochs: int = 500, seed: int = 0,
                 standardize: bool = True):
        if hidden is not None and hidden < 1:
            raise ValueError("hidden must be >= 1")
        if not 0 < lr < math.inf:
            raise ValueError("lr must be positive and finite")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if epochs < 0:
            raise ValueError("epochs must be >= 0")
        if seed < 0:
            raise ValueError("seed must be >= 0")
        self.hidden = hidden
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.epochs = int(epochs)
        self.seed = seed
        self.standardize = standardize

    # --- forward ------------------------------------------------------------

    def _predict(self, X: np.ndarray) -> np.ndarray:
        sigmoid = getattr(_load_kernel(), "sigmoid", None)
        if sigmoid is None:
            from scipy.special import expit as sigmoid

        z = np.ascontiguousarray(X @ self.w_in_.T + self.b_in_, dtype=np.float64)
        return sigmoid(z) @ self.w_out_ + self.b_out_

    # --- training -----------------------------------------------------------

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        X = np.ascontiguousarray(X, dtype=float)
        y = np.ascontiguousarray(y, dtype=float)
        n, n_feat = X.shape
        h = self.hidden if self.hidden is not None else default_hidden(n_feat)
        # theta, its velocity, an epoch's snapshot and the kernel's padded copies
        check_memory(4 * (h * (n_feat + 2) + 1), ConfigError, f"an MLP of {h} hidden units")
        X_aug = np.hstack([X, np.ones((n, 1))])

        # packed layout as in the module docstring; vel shares it
        size = h * (n_feat + 1)
        theta = np.empty(size + h + 1)
        vel = np.zeros_like(theta)
        W = theta[:size].reshape(h, n_feat + 1)
        w_in, b_in, w_out = W[:, :n_feat], W[:, n_feat], theta[size:-1]

        rng = np.random.default_rng(self.seed)
        w_in[:] = rng.uniform(-0.5, 0.5, size=(h, n_feat))
        b_in[:] = rng.uniform(-0.5, 0.5, size=h)
        w_out[:] = rng.uniform(-0.5, 0.5, size=h)
        theta[-1] = rng.uniform(-0.5, 0.5)

        run_epoch = getattr(_load_kernel(), "epoch", _numpy_epoch)
        lr = self.lr
        prev_loss = run_epoch(X_aug, y, theta, vel, h, lr, self.momentum, train=False)
        curve = [prev_loss]
        for epoch in range(self.epochs):
            snapshot = theta.copy()
            loss = run_epoch(X_aug, y, theta, vel, h, lr, self.momentum)
            if not np.isfinite(loss):
                raise DivergedLoss(
                    f"training loss became non-finite at epoch {epoch} (lr={lr:g})")
            if loss > prev_loss:
                # roll the epoch back and retry more cautiously
                theta[:] = snapshot
                vel[:] = 0.0
                lr *= 0.5
                curve.append(prev_loss)
            else:
                prev_loss = loss
                curve.append(loss)

        # contiguous copies of the packed weights for ``_predict``
        self.w_in_, self.b_in_, self.w_out_ = w_in.copy(), b_in.copy(), w_out.copy()
        self.b_out_ = float(theta[-1])
        self.loss_curve_ = np.asarray(curve)
        self.final_lr_ = lr
