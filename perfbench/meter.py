"""Workload ``meter``: the CLI over a generated meter export, in process.

The export is three years of 15-minute household readings (105,120 slots)
in a dialect the CLI has to infer: ``;``-separated, a text column first,
epoch-second timestamps, and no row at all for outage slots. Readings are
whole numbers, so every sum the checks recompute is exact.

The outage layout does not depend on the seed: it sets which daily values
are missing, and with them the operations that fail today. ``arima_fit``,
``arima_one_step`` and ``var_fit`` raise ``MissingCells`` on any missing
slot, so the daily ARIMA forecast and every arima/var benchmark cell fail
in every pass. They are counted as failed operations.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
import time
import xml.parsers.expat
from pathlib import Path

import numpy as np
from scipy.signal import lfilter

from wattcast import cli

from common import Pass

START = 1_609_459_200  # 2021-01-01T00:00:00Z
STEP = 900
PER_DAY = 96
DAYS = 3 * 365
SLOTS = DAYS * PER_DAY
P = 24
HORIZON = 24
SPLITS = ("0.6", "0.7", "0.8")
BENCH_MODELS = ("ols", "knn", "arima", "var")
SVG_ROOT = "http://www.w3.org/2000/svg svg"
# (first slot, length) of each outage; none touches the first or the last day
OUTAGES = tuple((PER_DAY * (20 + 67 * j) + (37 * j) % 90 + 3, 1 + j % 4)
                for j in range(16))
# operations that fail with MissingCells until missing slots are handled
GAP_FAULT = {"forecast-arima"} | {f"benchmark:{m}@{s}" for m in ("arima", "var")
                                  for s in SPLITS}


def readings(seed: int) -> np.ndarray:
    """Whole-number readings for every slot: daily, weekly and yearly cycles
    plus AR(1) noise."""
    rng = np.random.default_rng(seed)
    i = np.arange(SLOTS)
    daily = 35_000 * np.sin(2 * np.pi * (i - 28) / PER_DAY)
    weekly = 10_000 * np.sin(2 * np.pi * i / (7 * PER_DAY))
    yearly = 15_000 * np.cos(2 * np.pi * i / (365 * PER_DAY))
    noise = lfilter([1.0], [1.0, -0.8], 6_000 * rng.standard_normal(SLOTS))
    return np.maximum(np.round(100_000 + daily + weekly + yearly + noise), 1_000.0)


def dropped_mask() -> np.ndarray:
    mask = np.zeros(SLOTS, dtype=bool)
    for first, length in OUTAGES:
        mask[first: first + length] = True
    return mask


def _stamps(first: int, count: int, step: int) -> list:
    seconds = first + step * np.arange(count)
    text = np.datetime_as_string(seconds.astype("datetime64[s]"), unit="s")
    return [f"{t}Z" for t in text]


def _read_series(path: Path):
    """(timestamps, values) of a canonical ``timestamp,value`` CSV."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if lines[0] != "timestamp,value":
        raise ValueError(f"{path.name}: header {lines[0]!r}")
    cells = [line.split(",") for line in lines[1:]]
    return [c[0] for c in cells], np.array([float(c[1]) for c in cells])


def _same(got: np.ndarray, expected: np.ndarray) -> bool:
    return got.shape == expected.shape and bool(
        np.array_equal(np.isnan(got), np.isnan(expected))
        and np.array_equal(got[~np.isnan(got)], expected[~np.isnan(expected)]))


def _ols_recursion(grid: np.ndarray) -> np.ndarray:
    """The 24-step recursive forecast of a lstsq lag-24 model with intercept."""
    windows = np.lib.stride_tricks.sliding_window_view(grid, P)[:-1]
    targets = grid[P:]
    keep = ~(np.isnan(windows).any(axis=1) | np.isnan(targets))
    design = np.column_stack([np.ones(keep.sum()), windows[keep]])
    beta, *_ = np.linalg.lstsq(design, targets[keep], rcond=None)
    window = list(grid[-P:])
    out = []
    for _ in range(HORIZON):
        out.append(beta[0] + np.dot(beta[1:], window[-P:]))
        window.append(out[-1])
    return np.array(out)


def _svg_root(path: Path) -> str:
    """Root element of an XML file, parsed in full by a streaming parser."""
    root = []
    parser = xml.parsers.expat.ParserCreate(namespace_separator=" ")
    parser.StartElementHandler = lambda name, attrs: root.append(name) if not root else None
    with open(path, "rb") as fh:
        parser.ParseFile(fh)
    return root[0] if root else ""


class Workload:
    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.values = readings(seed)
        self.dropped = dropped_mask()
        self.export = workdir / "meter_export.csv"
        stamps = START + STEP * np.arange(SLOTS)
        site = f"HH-{seed % 10_000:04d}"
        with open(self.export, "w", encoding="utf-8") as fh:
            fh.write("site;unix_time;energy\n")
            for t, v in zip(stamps[~self.dropped].tolist(),
                            self.values[~self.dropped].tolist()):
                fh.write(f"{site};{t};{int(v)}\n")

    def _paths(self, index: int) -> dict:
        out = self.workdir / f"pass{index}"
        return {"hourly": out / "hourly.csv", "daily": out / "daily.csv",
                "decomp": out / "decomp.csv", "decomp_svg": out / "decomp.svg",
                "forecast": out / "forecast_ols.csv",
                "forecast_svg": out / "forecast_ols.svg",
                "forecast_arima": out / "forecast_arima.csv",
                "report": out / "report.txt"}

    def run_pass(self, index: int, tracer=None) -> Pass:
        paths = self._paths(index)
        out_dir = paths["report"].parent
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        f = {k: str(v) for k, v in paths.items()}
        export = str(self.export)
        commands = [
            ("resample-1h", ["resample", "--input", export, "--interval", "1h",
                             "--out", f["hourly"]]),
            ("resample-1d", ["resample", "--input", export, "--interval", "1d",
                             "--out", f["daily"]]),
            ("decompose", ["decompose", "--input", export, "--period", str(PER_DAY),
                           "--out", f["decomp"], "--plot", f["decomp_svg"]]),
            ("forecast-ols", ["forecast", "--input", export, "--model", "ols",
                              "--out", f["forecast"], "--plot", f["forecast_svg"]]),
            ("forecast-arima", ["forecast", "--input", f["daily"], "--model", "arima",
                                "--out", f["forecast_arima"]]),
            ("benchmark", ["benchmark", "--input", f["daily"], "--models",
                           ",".join(BENCH_MODELS), "--report", f["report"]]),
        ]
        wall = 0.0
        failures = {}
        for op, argv in commands:
            stderr = io.StringIO()
            span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
            with contextlib.redirect_stderr(stderr):
                t0 = time.perf_counter()
                with span:
                    code = cli.main(argv)
                wall += time.perf_counter() - t0
            failures[op] = None if code == 0 else f"exit {code}: {stderr.getvalue().strip()}"
        failures.update(self._cells(paths["report"], failures.pop("benchmark")))
        fingerprint = {name: hashlib.sha256(path.read_bytes()).hexdigest()
                       for name, path in paths.items() if path.exists()}
        if index > 0:
            shutil.rmtree(out_dir)
        return Pass(wall, failures, fingerprint, paths)

    @staticmethod
    def _cells(report: Path, command_error) -> dict:
        """One operation per benchmark cell, with the cell's failure text."""
        if not report.exists():
            return {"benchmark": command_error or "no report written"}
        cells = {}
        for line in report.read_text(encoding="utf-8").splitlines():
            row = line.split("\t")
            if line.startswith("#") or len(row) != 11 or row[0] == "model":
                continue
            cells[f"benchmark:{row[0]}@{row[2]}"] = None if row[10] == "ok" else row[10]
        return cells

    def check(self, passes) -> list:
        problems = []
        for i, done in enumerate(passes):
            for op, error in done.failures.items():
                if error is not None and not (op in GAP_FAULT and "MissingCells" in error):
                    problems.append((i, op, f"unexpected failure: {error}"))
            for name, digest in done.fingerprint.items():
                if passes[0].fingerprint.get(name) != digest:
                    problems.append((i, name, "output differs from the first pass"))
            if done.fingerprint.keys() != passes[0].fingerprint.keys():
                problems.append((i, "outputs", "different output files than the first pass"))
        return problems + [(0, op, msg) for op, msg in self._check_outputs(passes[0])]

    def _check_outputs(self, done: Pass) -> list:
        paths = done.data
        grid = np.where(self.dropped, np.nan, self.values)
        problems = []

        for op, key, k in (("resample-1h", "hourly", 4), ("resample-1d", "daily", PER_DAY)):
            stamps, got = _read_series(paths[key])
            expected = grid.reshape(-1, k).sum(axis=1)
            if stamps != _stamps(START, SLOTS // k, STEP * k) or not _same(got, expected):
                problems.append((op, f"{key} file is not the reshape-sum of the readings"))

        lines = paths["decomp"].read_text(encoding="utf-8").splitlines()
        rows = [line.split(",") for line in lines[1:]]
        table = np.array([[float(c) for c in row[1:]] for row in rows])
        value, trend, seasonal, residual = table.T
        if lines[0] != "timestamp,value,trend,seasonal,residual" \
                or [r[0] for r in rows] != _stamps(START, SLOTS, STEP):
            problems.append(("decompose", "decomposition rows are not the 15-minute grid"))
        elif not np.array_equal(np.isnan(value), self.dropped):
            problems.append(("decompose", "NaN slots are not exactly the dropped rows"))
        elif not _same(value, grid):
            problems.append(("decompose", "values read back differ from the readings"))
        has_trend = ~np.isnan(trend)
        rebuilt = trend + seasonal + residual
        if not np.allclose(rebuilt[has_trend], value[has_trend], rtol=1e-12, atol=0.0,
                           equal_nan=True):
            problems.append(("decompose", "value != trend + seasonal + residual"))

        stamps, got = _read_series(paths["forecast"])
        expected = _ols_recursion(grid)
        if stamps != _stamps(START + SLOTS * STEP, HORIZON, STEP) \
                or not np.allclose(got, expected, rtol=1e-9, atol=0.0):
            problems.append(("forecast-ols", f"forecast {got[:3]}... differs from a "
                                             f"lstsq recursion {expected[:3]}..."))

        for op, key in (("decompose", "decomp_svg"), ("forecast-ols", "forecast_svg")):
            try:
                root = _svg_root(paths[key])
            except xml.parsers.expat.ExpatError as exc:
                root = f"unparsable ({exc})"
            if root != SVG_ROOT:
                problems.append((op, f"{paths[key].name} root is {root!r}"))

        if done.failures["forecast-arima"] is None:
            _, got = _read_series(paths["forecast_arima"])
            if got.size != HORIZON or not np.isfinite(got).all():
                problems.append(("forecast-arima", "forecast is not 24 finite values"))
        cells = [op for op in done.failures if op.startswith("benchmark:")]
        expected_cells = {f"benchmark:{m}@{s}" for m in BENCH_MODELS for s in SPLITS}
        if set(cells) != expected_cells:
            problems.append(("benchmark", f"report cells {sorted(cells)}"))
        for line in paths["report"].read_text(encoding="utf-8").splitlines():
            row = line.split("\t")
            if len(row) == 11 and row[10] == "ok" and not float(row[7]) >= float(row[8]):
                problems.append((f"benchmark:{row[0]}@{row[2]}", "RMSE < MAE"))
        return problems
