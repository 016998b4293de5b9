"""Acceptance gate: end-to-end checks with explicit tolerances and budgets.

Each test prints a single PASS line (visible with ``pytest -s`` or in the
captured output); a failure is reported by pytest itself. The checks are
deliberately independent of the library internals: expected values come
from hand calculations, brute-force solvers, finite differences, or
counting arguments.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist

from test_arima import ma1_css
from test_regressors import make_frame, sgd_step_gradient_error, svr_qp_oracle

from wattcast.arima import arima_fit
from wattcast.cli import main
from wattcast.evaluation import (
    MODE_ONE_STEP,
    benchmark,
    default_specs,
    fit_forecast,
    metrics,
)
from wattcast.ingest import write_energy_csv
from wattcast.regressors import GpModel, KnnModel, OlsModel, SvrModel
from wattcast.series import TimeSeries
from wattcast.synthetic import arma_series, household_series, var_series
from wattcast.transform import decompose, difference, undifference
from wattcast.transform import Scaler, apply_scaler, fit_scaler, invert_scaler
from wattcast.var import var_fit


def _passed(name: str, elapsed: float, detail: str):
    print(f"PASS {name} ({elapsed:.2f}s): {detail}")


def test_closed_form_oracles():
    t0 = time.perf_counter()

    # OLS vs the hand-solved least-squares line through (0,1),(1,3),(2,4)
    ols = OlsModel().fit(make_frame([[0], [1], [2]], [1, 3, 4]))
    assert abs(ols.coef_[0] - 1.5) <= 1e-10
    assert abs(ols.intercept_ - 7 / 6) <= 1e-10

    # KNN: the 2 nearest of {0: 0, 1: 10, 2: 20} to 0.6 average to exactly 5
    knn = KnnModel(k=2).fit(make_frame([[0], [1], [2]], [0, 10, 20]))
    assert knn.predict([0.6]) == 5.0

    # VAR(1): a noiseless trajectory pins down its transition matrix
    A = np.array([[0.5, 0.1], [0.0, 0.3]])
    trajectory = var_series(60, coef=A, intercept=(0.2, -0.1), noise_sd=0.0,
                            seed=0, initial=[[1.0, 0.7]])
    fitted = var_fit(trajectory, 1)
    assert np.max(np.abs(fitted.coef[0] - A)) <= 1e-8

    # ARIMA: AR(1) with known coefficient, recovered from a clean run
    series = arma_series(200, ar=(0.5,), intercept=1.0, noise_sd=0.0,
                         initial=[10.0])
    model = arima_fit(series, 1, 0, 0)
    assert abs(model.ar[0] - 0.5) <= 1e-3

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _passed("closed-form oracles", elapsed,
            "OLS slope/intercept 1e-10, KNN exact, VAR(1) 1e-8, AR(1) 1e-3")


def test_brute_force_oracles():
    t0 = time.perf_counter()

    # SVR duals vs a dense projected-gradient QP solve on a 4-point problem
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 0.9, 0.1, 0.8])
    gamma = 0.5
    K = np.exp(-gamma * cdist(X, X, "sqeuclidean"))
    svr = SvrModel(C=1.0, epsilon=0.1, gamma=gamma, tol=1e-8,
                   standardize=False).fit(make_frame(X, y))
    alpha, alpha_star = svr_qp_oracle(K, y, 1.0, 0.1)
    assert np.max(np.abs(svr.alpha_ - alpha)) <= 1e-4
    assert np.max(np.abs(svr.alpha_star_ - alpha_star)) <= 1e-4

    # GP posterior mean at 0.5 vs an explicit 2x2 linear solve
    gp = GpModel(signal_var=1.0, length_scale=1.0, noise_var=0.1,
                 standardize=False).fit(make_frame([[0.0], [1.0]], [0.0, 1.0]))
    K2 = np.exp(-0.5 * np.array([[0.0, 1.0], [1.0, 0.0]]))
    k_star = np.exp(-0.5 * np.array([0.25, 0.25]))
    expected = k_star @ np.linalg.solve(K2 + 0.1 * np.eye(2), np.array([0.0, 1.0]))
    assert abs(gp.predict([0.5]) - expected) <= 1e-10

    # MA(1) conditional-sum-of-squares minimum vs a theta grid search
    series = arma_series(300, ma=(0.6,), intercept=0.5, noise_sd=1.0, seed=21)
    model = arima_fit(series, 0, 0, 1)
    grid = np.arange(-0.95, 0.9501, 0.01)
    losses = [ma1_css(series.values, float(np.mean(series.values)), th)
              for th in grid]
    best = grid[int(np.argmin(losses))]
    assert abs(model.ma[0] - best) <= 0.01

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _passed("brute-force oracles", elapsed,
            "SVR duals 1e-4 vs QP, GP mean 1e-10 vs 2x2 solve, MA(1) on 0.01 grid")


def test_mlp_gradient_check():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        X = rng.normal(size=(1, 3))
        y = rng.normal(size=1)
        worst = max(worst, sgd_step_gradient_error(X, y, hidden=4, seed=seed))

    assert worst <= 1e-4
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _passed("gradient check", elapsed,
            f"SGD step vs finite differences, max relative error {worst:.2e} "
            "over 20 seeds")


def test_transform_round_trips():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)

    # difference/undifference identity, exact on integer-valued series
    for trial in range(100):
        n = int(rng.integers(10, 40))
        values = rng.integers(-50, 51, size=n).astype(float)
        s = TimeSeries(0.0, 3600.0, values)
        for d in (0, 1, 2):
            diffed, initial = difference(s, d)
            back = undifference(diffed, initial, d)
            np.testing.assert_array_equal(back.values, values)
            assert back.start == s.start

    # scaler apply/invert identity
    for trial in range(20):
        X = rng.normal(scale=rng.uniform(0.1, 100), size=(30, 4))
        scaler = fit_scaler(X)
        back = invert_scaler(scaler, apply_scaler(scaler, X))
        assert np.max(np.abs(back - X)) <= 1e-12 * max(1.0, np.max(np.abs(X)))

    # decomposition reconstructs the series wherever trend is defined
    for trial in range(10):
        n = int(rng.integers(60, 120))
        period = int(rng.choice([6, 12, 24]))
        i = np.arange(n)
        values = (rng.uniform(5, 50) + rng.uniform(-0.2, 0.2) * i
                  + rng.uniform(0.5, 3) * np.sin(2 * np.pi * i / period)
                  + rng.normal(scale=0.3, size=n))
        s = TimeSeries(0.0, 3600.0, values)
        parts = decompose(s, period)
        recon = parts.trend + parts.seasonal + parts.residual
        defined = ~np.isnan(parts.trend)
        scale = np.maximum(1.0, np.abs(values[defined]))
        assert np.max(np.abs(recon[defined] - values[defined]) / scale) <= 1e-9

    elapsed = time.perf_counter() - t0
    _passed("transform round-trips", elapsed,
            "difference d in {0,1,2} exact x100, scaler 1e-12, decompose 1e-9")


def test_metric_laws():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5150)
    for trial in range(1000):
        n = int(rng.integers(2, 40))
        actual = rng.normal(scale=rng.uniform(0.5, 200), size=n)
        predicted = actual + rng.normal(scale=rng.uniform(0.01, 50), size=n)
        train = rng.normal(scale=rng.uniform(0.5, 200), size=int(rng.integers(2, 40)))

        m = metrics(actual, predicted, train)
        assert m.rmse + 1e-12 >= m.mae >= 0.0

        baseline = metrics(actual, np.full(n, train.mean()), train)
        assert abs(baseline.rae - 1.0) <= 1e-12

        factor = float(rng.uniform(1e-3, 1e3))
        scaled = metrics(factor * actual, factor * predicted, factor * train)
        assert abs(scaled.rae - m.rae) <= 1e-12 * max(1.0, m.rae)

        perfect = metrics(actual, actual, train)
        assert perfect.rmse == 0.0 and perfect.mae == 0.0 and perfect.rae == 0.0

    elapsed = time.perf_counter() - t0
    _passed("metric laws", elapsed,
            "RMSE>=MAE, train-mean RAE=1, rescale-invariant RAE, zero at perfect "
            "(1000 vectors)")


def _fitted_arrays(fitted) -> dict:
    """Every fitted value of a model by name: each field of an ARIMA or VAR
    fit, or each trailing-underscore attribute of a regressor, with scalers
    split into mean and scale and tuples into their items."""
    if dataclasses.is_dataclass(fitted):
        values = {f.name: getattr(fitted, f.name) for f in dataclasses.fields(fitted)}
    else:
        values = {name: v for name, v in vars(fitted).items() if name.endswith("_")}
    arrays = {}
    for name, value in values.items():
        if isinstance(value, Scaler):
            arrays[name + ".mean"], arrays[name + ".scale"] = value.mean, value.scale
        elif isinstance(value, tuple):
            arrays.update((f"{name}[{i}]", item) for i, item in enumerate(value))
        else:
            arrays[name] = value
    return {name: np.asarray(v) for name, v in arrays.items()}


def test_no_leakage():
    t0 = time.perf_counter()
    base = household_series(400, seed=3)
    n_train = int(0.8 * len(base))  # positions >= 320 are test-only

    mutated_values = base.values.copy()
    mutated_values[n_train + 3] += 1.5e6
    mutated_values[-1] *= -2.0
    mutated = TimeSeries(base.start, base.interval, mutated_values)

    compared = 0
    for spec in default_specs(seed=0, arima_order=(2, 0, 1)):
        before, after = (
            _fitted_arrays(fit_forecast(spec, s, n_train, len(base) - n_train,
                                        p=6, mode=MODE_ONE_STEP).model)
            for s in (base, mutated))
        assert before.keys() == after.keys(), spec.name
        for name, a in before.items():
            b = after[name]
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), (spec.name, name)
            compared += 1

    elapsed = time.perf_counter() - t0
    _passed("no leakage", elapsed,
            f"test-suffix mutation leaves all {compared} fitted values of the "
            "7 models bitwise equal")


def test_benchmark_protocol():
    t0 = time.perf_counter()
    dataset = household_series(2000, seed=0)
    report = benchmark(default_specs(seed=0, arima_order=(2, 0, 1)),
                       [("household", dataset)], [0.6, 0.7, 0.8], p=24)
    elapsed = time.perf_counter() - t0

    assert len(report.records) == 21
    assert all(record.ok for record in report.records), [
        (r.model, r.error) for r in report.records if not r.ok]
    worst = max(record.rae for record in report.records)
    assert worst < 1.0, [(r.model, r.rae) for r in report.records if r.rae >= 1.0]
    assert elapsed < 60.0
    # Refactors must keep reports byte-identical, so the report's hash is
    # pinned. It is the same with one or two BLAS threads and with the numpy
    # fallbacks of the C kernels.
    assert hashlib.sha256(report.to_text().encode()).hexdigest()[:16] == "0c3fe56a240654c8"

    _passed("benchmark protocol", elapsed,
            f"21/21 records, every model beats the mean baseline "
            f"(worst RAE {worst:.3f})")


_WEATHER_SWEEP = """\
import hashlib
from wattcast import benchmark, default_specs, merge
from wattcast.synthetic import household_series, weather_table
data = [("hw", merge(household_series(300, 4), weather_table(300, 4)))]
report = benchmark(default_specs(0), data, [0.7, 0.8], p=6, intervals=[None, 7200.0, 5400.0])
print(hashlib.sha256(report.to_text().encode()).hexdigest()[:16])
print(hashlib.sha256(report.to_json().encode()).hexdigest()[:16])
"""


def _one_blas_thread_stdout(code: str) -> list:
    """The words ``code`` prints in a fresh interpreter limited to one BLAS
    thread, for outputs whose last bits depend on the thread count."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_weather_sweep_is_pinned():
    # The JSON report keeps full precision, so its hash holds for one BLAS
    # thread only: the sweep runs in a fresh interpreter limited to one.
    t0 = time.perf_counter()
    assert _one_blas_thread_stdout(_WEATHER_SWEEP) == ["79f849c54485ac42", "23fcc2835d66af8f"]
    _passed("weather sweep", time.perf_counter() - t0,
            "7 models x 2 splits x 3 intervals on merged weather, text and JSON pinned")


_CLI_ARIMA_FORECAST = """\
import hashlib, os, sys, tempfile
from wattcast.cli import main
from wattcast.ingest import write_energy_csv
from wattcast.synthetic import household_series
with tempfile.TemporaryDirectory() as tmp:
    data, out = os.path.join(tmp, "energy.csv"), os.path.join(tmp, "fc.csv")
    write_energy_csv(data, household_series(2000, seed=1))
    assert main(["forecast", "--model", "arima", "--input", data, "--out", out]) == 0
    with open(out, "rb") as fh:
        print(hashlib.sha256(fh.read()).hexdigest()[:16])
"""


def test_cli_arima_forecast_is_pinned():
    # The CLI's default ARIMA(24, 0, 0) forecast at full precision: a change
    # of estimator shows here as a changed hash, on purpose.
    t0 = time.perf_counter()
    assert _one_blas_thread_stdout(_CLI_ARIMA_FORECAST) == ["a6b41f88fbc6284f"]
    _passed("CLI arima forecast", time.perf_counter() - t0,
            "24-step ARIMA(24,0,0) forecast CSV pinned")


def test_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    data = tmp_path / "energy.csv"
    write_energy_csv(data, household_series(240, seed=4))

    first, second = {}, {}
    for run in (first, second):
        tag = "a" if run is first else "b"
        fc = tmp_path / f"fc_{tag}.csv"
        plot = tmp_path / f"fc_{tag}.svg"
        assert main(["forecast", "--model", "mlp", "--p", "6",
                     "--mlp-epochs", "100", "--horizon", "12", "--seed", "11",
                     "--input", str(data), "--out", str(fc),
                     "--plot", str(plot)]) == 0
        report = tmp_path / f"report_{tag}.txt"
        out_json = tmp_path / f"report_{tag}.json"
        assert main(["benchmark", "--input", str(data),
                     "--models", "ols,svr,arima", "--p", "6", "--seed", "11",
                     "--splits", "0.7,0.8", "--report", str(report),
                     "--json", str(out_json)]) == 0
        run["forecast"] = fc.read_bytes()
        run["plot"] = plot.read_bytes()
        run["report"] = report.read_bytes()
        run["json"] = out_json.read_bytes()

    assert first == second
    json.loads(second["json"].decode())  # reports stay machine-readable
    elapsed = time.perf_counter() - t0
    _passed("determinism", elapsed,
            "repeat CLI runs yield byte-identical forecast, plot, and reports")
