"""The C squared distances against scipy's cdist, bit for bit, and the GP,
SVR and KNN models with and without them."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import wattcast.regressors._distance as distance_module
from wattcast.regressors import GpModel, KnnModel, SvrModel
from wattcast.regressors._distance import PackedRows, sq_distances
from wattcast.synthetic import household_series
from wattcast.transform import lag_embed

# one whole block of rows, one short of and one past it, several blocks and
# a remainder of one row in the tile of A (131 = 32 * 4 + 3 = 16 * 8 + 3)
SIZES = (1, 2, 3, 5, 7, 8, 9, 16, 17, 63, 64, 65, 131)
SCALES = (1e-5, 1.0, 1e5)


@pytest.fixture
def kernel():
    kernel = distance_module._load_kernel()
    if kernel is None:
        pytest.skip(f"no C compiler could build {distance_module._KERNEL_SOURCE.name}")
    return kernel


def corpus(d: int):
    """Query and row matrices with d features: every size against a
    neighbour size, at each scale, with rows repeated within and across them."""
    rng = np.random.default_rng(d)
    for n_a, n_b in zip(SIZES, SIZES[1:] + SIZES[:1]):
        for scale in SCALES:
            A = rng.normal(size=(n_a, d)) * scale
            B = rng.normal(size=(n_b, d)) * scale + rng.normal() * scale
            B[n_b // 2:] = B[:n_b - n_b // 2]  # duplicate rows
            A[: min(n_a, n_b) // 2] = B[: min(n_a, n_b) // 2]  # zero distances
            yield A, B


@pytest.mark.parametrize("d", range(1, 41))
def test_equal_to_cdist_bit_for_bit(d, kernel):
    for A, B in corpus(d):
        got = kernel(A, PackedRows(B))
        assert got.tobytes() == cdist(A, B, "sqeuclidean").tobytes(), (A.shape, B.shape)
        # KNN's Euclidean distance is the square root of the same sums
        assert np.sqrt(got).tobytes() == cdist(A, B).tobytes()


def test_sq_distances_runs_the_kernel_on_packed_rows(kernel, monkeypatch):
    calls = []

    def counted(A, rows, upper=False):
        calls.append(A.shape)
        return kernel(A, rows, upper)

    monkeypatch.setattr(distance_module, "_load_kernel", lambda: counted)
    rows = PackedRows(np.arange(12.0).reshape(4, 3))
    queries = np.arange(6.0).reshape(3, 2).T  # not C-contiguous
    assert sq_distances(queries, rows).tobytes() == \
        cdist(queries, rows.matrix, "sqeuclidean").tobytes()
    assert calls == [(2, 3)]


@pytest.mark.parametrize("backend", ["c", "scipy"])
def test_upper_triangle_equals_cdist_above_and_zero_below(backend, monkeypatch):
    if backend == "c" and distance_module._load_kernel() is None:
        pytest.skip(f"no C compiler could build {distance_module._KERNEL_SOURCE.name}")
    if backend == "scipy":
        monkeypatch.setattr(distance_module, "_load_kernel", lambda: None)
    rng = np.random.default_rng(7)
    for n in [*range(1, 18), 131]:
        X = rng.normal(size=(n, 5))
        X[n // 2:] = X[:n - n // 2]  # duplicate rows: zero distances off the diagonal
        rows = PackedRows(X)
        got = sq_distances(X, rows, upper=True)
        full = cdist(X, X, "sqeuclidean")
        upper = np.triu(np.ones((n, n), dtype=bool))
        assert got[upper].tobytes() == full[upper].tobytes(), n
        assert not got[~upper].any(), n
        assert (rows.blocks is None) == (backend == "scipy")


def test_rejects_rows_of_another_width(kernel):
    with pytest.raises(ValueError):
        kernel(np.ones((2, 3)), PackedRows(np.ones((5, 4))))


def test_layout_is_skipped_without_a_kernel(monkeypatch):
    monkeypatch.setattr(distance_module, "_load_kernel", lambda: None)
    rows = PackedRows(np.ones((5, 2)))
    assert rows.blocks is None and len(rows) == 5
    assert sq_distances(np.zeros((1, 2)), rows).tobytes() == np.full((1, 5), 2.0).tobytes()


def _frames():
    series = household_series(360, 4)
    frame = lag_embed(series, 24)
    return frame, series.values


@pytest.mark.parametrize("make, fit_calls", [(GpModel, 1), (SvrModel, 1),
                                             (lambda: KnnModel(k=5), 0)],
                         ids=["gp", "svr", "knn"])
def test_models_bitwise_equal_without_the_kernel(make, fit_calls, kernel, monkeypatch):
    frame, values = _frames()
    queries = frame.X[::7] + 0.25

    def run():
        model = make().fit(frame)
        fitted = [getattr(model, name).tobytes()
                  for name in ("alpha_", "alpha_star_", "dual_coef_") if hasattr(model, name)]
        if isinstance(model, GpModel):
            fitted.append(model.chol_[0].tobytes())
        return (fitted, model.predict_batch(queries).tobytes(),
                model.predict_series(values, 12).tobytes())

    calls = []

    def counted(A, rows, upper=False):
        calls.append((A.shape[0], upper))
        return kernel(A, rows, upper)

    monkeypatch.setattr(distance_module, "_load_kernel", lambda: counted)
    compiled = run()
    # the kernel matrix of a GP or SVR fit, the batch and each of the 12 steps
    assert calls == ([(frame.n_samples, make is GpModel)] * fit_calls
                     + [(len(queries), False)] + [(1, False)] * 12)
    monkeypatch.setattr(distance_module, "_load_kernel", lambda: None)
    assert run() == compiled


def test_kernel_models_load_no_scipy_spatial(kernel):
    # a fresh interpreter, since this one has imported cdist
    probe = (
        "import json, sys\n"
        "import numpy as np\n"
        "from wattcast.regressors import GpModel, KnnModel, SvrModel\n"
        "from wattcast.transform import SupervisedFrame\n"
        "X = np.random.default_rng(0).normal(size=(40, 3))\n"
        "frame = SupervisedFrame(X, X.sum(axis=1), 3, ('a', 'b', 'c'), np.arange(3, 43))\n"
        "for model in (GpModel(), SvrModel(), KnnModel()):\n"
        "    model.fit(frame).predict_batch(X)\n"
        "print(json.dumps(sorted(sys.modules)))\n")
    src = Path(distance_module.__file__).parents[2]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = set(json.loads(done.stdout.splitlines()[-1]))
    assert "scipy.spatial" not in loaded
