"""What a fresh process loads: ``import wattcast`` brings numpy but no scipy
and no process machinery, and a command loads only the scipy submodules its
model calls.

Each case runs in a new interpreter, because this test process has already
imported scipy. No timings are asserted, only module sets.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wattcast.regressors.mlp as mlp_module
from wattcast.ingest import write_energy_csv
from wattcast.synthetic import arma_series

SRC = Path(__file__).resolve().parents[1] / "src"

# run the given statements, then print the loaded modules as JSON
_PROBE = """\
import json, sys
{body}
print(json.dumps(sorted(sys.modules)))
"""


def loaded_modules(body: str, **environ) -> set:
    env = dict(os.environ, **environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = "1"
    done = subprocess.run([sys.executable, "-c", _PROBE.format(body=body)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def loaded_scipy(body: str, **environ) -> set:
    return {m for m in loaded_modules(body, **environ) if m.split(".")[0] == "scipy"}


def run_cli(argv) -> str:
    return f"from wattcast.cli import main\nassert main({argv!r}) == 0"


@pytest.fixture
def hourly_csv(tmp_path):
    path = tmp_path / "energy.csv"
    write_energy_csv(path, arma_series(120, ar=(0.6,), intercept=2.0, seed=3))
    return path


@pytest.mark.parametrize("module", ["wattcast", "wattcast.cli"])
def test_import_loads_no_scipy(module):
    assert loaded_scipy(f"import {module}") == set()


@pytest.mark.parametrize("module", ["wattcast", "wattcast.cli"])
def test_import_loads_no_process_machinery(module):
    # the process pool and the compiler run load them where they are used
    loaded = loaded_modules(f"import {module}")
    assert not loaded & {"subprocess", "multiprocessing", "concurrent.futures"}


def test_resample_loads_no_scipy(hourly_csv, tmp_path):
    argv = ["resample", "--input", str(hourly_csv), "--interval", "1d",
            "--out", str(tmp_path / "daily.csv")]
    assert loaded_scipy(run_cli(argv)) == set()
    assert (tmp_path / "daily.csv").read_text().startswith("timestamp,value\n")


def test_decompose_with_plot_loads_no_scipy(hourly_csv, tmp_path):
    argv = ["decompose", "--input", str(hourly_csv), "--period", "24",
            "--out", str(tmp_path / "parts.csv"), "--plot", str(tmp_path / "parts.svg")]
    assert loaded_scipy(run_cli(argv)) == set()
    assert (tmp_path / "parts.svg").read_text().startswith("<svg")


def test_ols_forecast_loads_linalg_only(hourly_csv, tmp_path):
    argv = ["forecast", "--model", "ols", "--p", "4", "--horizon", "6",
            "--input", str(hourly_csv), "--out", str(tmp_path / "fc.csv")]
    modules = loaded_scipy(run_cli(argv))
    assert "scipy.linalg" in modules
    assert not modules & {"scipy.signal", "scipy.stats", "scipy.optimize"}


def test_mlp_forecast_loads_no_scipy(hourly_csv, tmp_path):
    # both backends train and predict with the package's own exp: the numpy
    # loop where PATH holds no C compiler, then the compiled kernel
    argv = ["forecast", "--model", "mlp", "--p", "4", "--horizon", "6", "--mlp-epochs", "5",
            "--input", str(hourly_csv), "--out", str(tmp_path / "fc.csv")]
    no_compiler = tmp_path / "bin"
    no_compiler.mkdir()
    numpy_loop = ("import wattcast.regressors.mlp as mlp\n"
                  "assert mlp._load_kernel() is None\n" + run_cli(argv))
    assert loaded_scipy(numpy_loop, PATH=str(no_compiler)) == set()
    if mlp_module._load_kernel() is None:
        pytest.skip(f"no C compiler could build {mlp_module._KERNEL_SOURCE.name}")
    assert loaded_scipy(run_cli(argv)) == set()


def test_ar_only_arima_forecast_loads_no_optimizer(hourly_csv, tmp_path):
    # without MA terms the fit is least squares and the residuals need no filter
    argv = ["forecast", "--model", "arima", "--p", "4", "--q", "0", "--horizon", "6",
            "--input", str(hourly_csv), "--out", str(tmp_path / "fc.csv")]
    modules = loaded_scipy(run_cli(argv))
    assert not modules & {"scipy.optimize", "scipy.signal", "scipy.stats"}


def test_ma_arima_forecast_loads_optimizer_and_filter(hourly_csv, tmp_path):
    # MA terms still take the Nelder-Mead search and the lfilter recursion
    argv = ["forecast", "--model", "arima", "--p", "4", "--q", "1", "--horizon", "6",
            "--input", str(hourly_csv), "--out", str(tmp_path / "fc.csv")]
    assert {"scipy.optimize", "scipy.signal"} <= loaded_scipy(run_cli(argv))
