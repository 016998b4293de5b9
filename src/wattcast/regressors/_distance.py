"""Squared Euclidean distances between rows, for the GP, SVR and KNN models.

``sq_distances(A, rows)`` is the matrix of ``sum_k (A[i, k] - B[j, k])^2``
over the rows of A and the rows of B that ``rows`` holds. It equals
``scipy.spatial.distance.cdist(A, B, "sqeuclidean")`` bit for bit on one of
two backends:

- **C** (``_sqdist.c``): reads B in blocks of eight rows, stored feature by
  feature. ``PackedRows`` lays B out that way once, when a model is fitted,
  so every later query against the training rows reuses the layout. The
  kernel writes straight into the output, so a fit holds no second n x n
  matrix.
- **scipy**: ``cdist`` itself, used when no kernel can be built (see
  ``_native.build``).

``sq_distances(A, rows, upper=True)`` is that matrix's upper triangle, the
cells j >= i, with 0 in every cell below the diagonal: what a Cholesky
factorisation of the GP's own n x n kernel reads. The C kernel computes
little more than those cells and writes only them into zeroed memory, so
pages wholly below the diagonal are never touched; the scipy backend
computes the whole matrix and then zeroes the lower part.

Every model matrix, the GP and SVR kernels and KNN's distances, comes from
``kernel_matrix``. It refuses one larger than physical memory before any
distance is computed, then applies the model's in-place kernel function a
band of rows at a time, while the band is in cache.
"""

from __future__ import annotations

import ctypes
import functools
from pathlib import Path

import numpy as np

from ..errors import KernelTooLarge
from . import _native
from .base import check_memory

_KERNEL_SOURCE = Path(__file__).with_name("_sqdist.c")
_LANES = 8  # rows per block, LANES in _sqdist.c
# cells transformed at a time: a band of rows this size stays in a core's
# cache through the passes of a model's kernel function
_BAND_CELLS = 1 << 16


class PackedRows:
    """The rows of a matrix and, where the C kernel loads, their blocked layout."""

    __slots__ = ("matrix", "blocks")

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix
        self.blocks = None
        if _load_kernel() is not None:
            n, d = matrix.shape
            self.blocks = np.zeros((-(-n // _LANES), d, _LANES))
            for lane in range(_LANES):  # lane l of block b holds row b * LANES + l
                lane_rows = matrix[lane::_LANES]
                self.blocks[:len(lane_rows), :, lane] = lane_rows

    def __len__(self) -> int:
        return self.matrix.shape[0]

    def __array__(self, dtype=None, copy=None):
        """The rows, so that numpy sees a fitted model's values in this attribute."""
        return np.array(self.matrix, dtype=dtype, copy=copy)


def sq_distances(A: np.ndarray, rows: PackedRows, upper: bool = False) -> np.ndarray:
    """Squared Euclidean distance from each row of ``A`` to each of ``rows``;
    with ``upper``, only in the cells j >= i, and 0 below the diagonal."""
    kernel = _load_kernel()
    if kernel is None or rows.blocks is None:
        from scipy.spatial.distance import cdist

        D = cdist(A, rows.matrix, "sqeuclidean")
        if upper:
            for i in range(1, D.shape[0]):
                D[i, :i] = 0.0
        return D
    return kernel(np.ascontiguousarray(A, dtype=np.float64), rows, upper)


def kernel_matrix(A: np.ndarray, rows: PackedRows, kernel, upper: bool = False) -> np.ndarray:
    """``sq_distances(A, rows, upper)``, a band of rows at a time, put through ``kernel``."""
    n = len(rows)  # the training matrix itself, or a block of query rows
    shape = f"over {n}" if A is rows.matrix else f"of {len(A)} query rows by {n}"
    check_memory(len(A) * n, KernelTooLarge, f"a kernel matrix {shape} training rows")
    K = sq_distances(A, rows, upper)
    height = max(1, _BAND_CELLS // max(n, 1))
    for r0 in range(0, K.shape[0], height):
        kernel(K[r0:r0 + height, r0:] if upper else K[r0:r0 + height])
    return K


@functools.cache
def _load_kernel():
    """The C distances as ``kernel(A, rows, upper=False)``, or None when the kernel
    cannot be built (see ``_native.build``)."""
    lib = _native.build(_KERNEL_SOURCE)
    if lib is None:
        return None

    array = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    lib.sq_distances.restype = None
    lib.sq_distances.argtypes = [array, ctypes.c_long, array, ctypes.c_long, ctypes.c_long,
                                 ctypes.c_int, array]

    def c_distances(A, rows, upper=False):
        (n_a, d), n_b = A.shape, len(rows)
        if rows.blocks.shape != (-(-n_b // _LANES), d, _LANES):
            raise ValueError("A and the packed rows differ in their number of features")
        # calloc'd zeros: the kernel leaves the cells below the diagonal alone
        out = np.zeros((n_a, n_b)) if upper else np.empty((n_a, n_b))
        lib.sq_distances(A, n_a, rows.blocks, n_b, d, int(upper), out)
        return out

    return c_distances
