"""Chronological forecast evaluation and the cross-dataset benchmark sweep.

The protocol: split each series chronologically (train = prefix), fit on
the train prefix only — scalers and model parameters never see the test
suffix — then score predictions on the test span with RMSE, MAE, and RAE.
RAE divides the summed absolute error by the error of the naive train-mean
predictor, which makes it unit-free and comparable across datasets; models
are ranked per dataset by RAE and overall by mean rank.

Two prediction modes are supported: ``one_step_true_history`` conditions
every test prediction on actually observed values, ``recursive`` feeds
predictions back to cover the whole test span.

Every dataset is evaluated as one table: a MultiSeries whose target column
is "energy" (or its first column), with any other columns as covariates. A
TimeSeries is a one-column table named "energy".
"""

from __future__ import annotations

import functools
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Callable, NamedTuple

import numpy as np

from .arima import arima_fit, arima_forecast, arima_one_step
from .errors import (
    ConfigError,
    InsufficientTest,
    LengthMismatch,
    TooShort,
    WattcastError,
)
from .regressors import GpModel, KnnModel, MlpModel, OlsModel, SvrModel
from .series import MultiSeries, TimeSeries, resample
from .transform import SupervisedFrame, lag_embed
from .var import var_fit, var_forecast, var_one_step

# Not called here, but kept bound: perfbench/tracing.py wraps this name in
# this module by attribute lookup.
from .transform import decompose  # noqa: F401

KINDS = ("lag", "arima", "var")
# prediction modes of evaluate and fit_forecast
MODE_ONE_STEP = "one_step_true_history"
MODE_RECURSIVE = "recursive"


# --- metrics ----------------------------------------------------------------

class Metrics(NamedTuple):
    rmse: float
    mae: float
    rae: float


def metrics(actual, predicted, train_targets) -> Metrics:
    """RMSE, MAE, and RAE of a forecast against the realized values.

    RAE uses the train-mean predictor as its baseline:
    ``sum|a - p| / sum|a - mean(train_targets)|``. A zero baseline
    (constant actuals equal to the train mean) makes RAE undefined and is
    reported as NaN rather than raising.
    """
    actual = np.asarray(actual, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    train_targets = np.asarray(train_targets, dtype=float)
    if actual.size != predicted.size:
        raise LengthMismatch(f"{actual.size} actuals vs {predicted.size} predictions")
    if actual.size < 1 or train_targets.size < 1:
        raise LengthMismatch("metrics need at least one observation on each side")
    err = actual - predicted
    rmse = float(np.sqrt(np.mean(err ** 2)))
    mae = float(np.mean(np.abs(err)))
    baseline = float(np.sum(np.abs(actual - train_targets.mean())))
    rae = float(np.sum(np.abs(err)) / baseline) if baseline > 0.0 else float("nan")
    return Metrics(rmse, mae, rae)


# --- sweep vocabulary -------------------------------------------------------

@dataclass(frozen=True)
class SplitSpec:
    """Chronological split: the train prefix holds floor(fraction * n) rows.

    The product is taken exactly on the fraction as written (its shortest
    repr), so 0.29 of 100 rows is 29, not the 28 that binary floating point
    gives.
    """

    train_fraction: float

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(f"train fraction must be in (0, 1), got {self.train_fraction}")

    def train_length(self, n: int) -> int:
        n_train = math.floor(Fraction(repr(float(self.train_fraction))) * n)
        if n_train < 1 or n_train >= n:
            raise InsufficientTest(
                f"fraction {self.train_fraction} of {n} rows leaves no usable split")
        return n_train


@dataclass(frozen=True)
class ModelSpec:
    """One entry of a benchmark: a named model family.

    ``make`` builds a fresh lag-embedding regressor (kind "lag"); ARIMA
    entries carry their (p, d, q) ``order``; VAR entries use the sweep's
    lag order.
    """

    name: str
    kind: str
    make: Callable | None = None
    order: tuple = (1, 0, 0)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown model kind {self.kind!r}")
        if self.kind == "lag" and self.make is None:
            raise ConfigError(f"model {self.name!r} needs a factory")


class Family(NamedTuple):
    """A compared model family: its kind and, for kind "lag", the regressor
    class with (constructor keyword, hyperparameter key) pairs."""

    kind: str
    model: type | None = None
    params: tuple = ()


# The seven compared families, in report order. Hyperparameter keys are the
# CLI's option names; ARIMA takes its (p, d, q) from "arima_order".
FAMILIES = {
    "ols": Family("lag", OlsModel),
    "gp": Family("lag", GpModel, (("signal_var", "gp_signal_var"),
                                  ("length_scale", "gp_length_scale"),
                                  ("noise_var", "gp_noise_var"))),
    "mlp": Family("lag", MlpModel, (("hidden", "mlp_hidden"), ("lr", "mlp_lr"),
                                    ("momentum", "mlp_momentum"),
                                    ("epochs", "mlp_epochs"), ("seed", "seed"))),
    "svr": Family("lag", SvrModel, (("C", "svr_c"), ("epsilon", "svr_epsilon"),
                                    ("gamma", "svr_gamma"))),
    "knn": Family("lag", KnnModel, (("k", "knn_k"),)),
    "arima": Family("arima"),
    "var": Family("var"),
}
MODELS = tuple(FAMILIES)


def spec_for(name: str, seed: int = 0, arima_order: tuple = (2, 0, 1), *,
             hyper=None) -> ModelSpec:
    """Look up a single model family by CLI name.

    ``hyper`` maps hyperparameter keys to values and wins over ``seed`` and
    ``arima_order``; keys it lacks keep the constructor's defaults.
    """
    if name not in FAMILIES:
        raise ConfigError(f"unknown model {name!r} (choose from {', '.join(MODELS)})")
    family = FAMILIES[name]
    hyper = {"seed": seed, "arima_order": arima_order, **(hyper or {})}
    if family.kind == "arima":
        return ModelSpec(name, family.kind, order=tuple(hyper["arima_order"]))
    if family.kind == "lag":
        return ModelSpec(name, family.kind, functools.partial(
            family.model, **{arg: hyper[key] for arg, key in family.params if key in hyper}))
    return ModelSpec(name, family.kind)


def default_specs(seed: int = 0, arima_order: tuple = (2, 0, 1)) -> list:
    """The seven compared model families with their default settings."""
    return [spec_for(name, seed, arima_order) for name in MODELS]


# --- records and report -----------------------------------------------------

_ROW_FIELDS = ("model", "dataset", "train_fraction", "interval", "horizon",
               "mode", "n_test", "rmse", "mae", "rae", "status")


@dataclass
class EvalRecord:
    model: str
    dataset: str
    train_fraction: float
    interval: float
    horizon: int
    mode: str
    n_test: int
    rmse: float = float("nan")
    mae: float = float("nan")
    rae: float = float("nan")
    error: str | None = None
    fit_seconds: float = 0.0
    predict_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_row(self) -> str:
        status = "ok" if self.ok else "failed: " + " ".join(self.error.split())
        cells = (self.model, self.dataset, _fmt(self.train_fraction),
                 _fmt(self.interval), str(self.horizon), self.mode,
                 str(self.n_test), _fmt(self.rmse), _fmt(self.mae),
                 _fmt(self.rae), status)
        return "\t".join(cells)

    def to_dict(self) -> dict:
        # wall times are deliberately excluded: serialized reports must be
        # byte-identical across runs with the same seed
        return {
            "model": self.model,
            "dataset": self.dataset,
            "train_fraction": self.train_fraction,
            "interval": _json_safe(self.interval),
            "horizon": self.horizon,
            "mode": self.mode,
            "n_test": self.n_test,
            "rmse": _json_safe(self.rmse),
            "mae": _json_safe(self.mae),
            "rae": _json_safe(self.rae),
            "error": self.error,
        }


def _fmt(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "NaN"
    return f"{x:.12g}"


def _json_safe(x: float):
    return None if isinstance(x, float) and math.isnan(x) else x


@dataclass
class EvaluationReport:
    records: list
    rankings: dict = field(default_factory=dict)
    overall: list = field(default_factory=list)
    config: dict = field(default_factory=dict)

    @property
    def failed(self) -> list:
        return [r for r in self.records if not r.ok]

    def to_text(self) -> str:
        lines = ["# wattcast benchmark report"]
        for key in sorted(self.config):
            lines.append(f"# config {key}={self.config[key]}")
        lines.append("\t".join(_ROW_FIELDS))
        lines.extend(record.to_row() for record in self.records)
        for dataset_key in sorted(self.rankings):
            lines.append(f"# ranking dataset={dataset_key}")
            for rank, (model, rae) in enumerate(self.rankings[dataset_key], start=1):
                lines.append(f"{rank}\t{model}\t{_fmt(rae)}")
        if self.overall:
            lines.append("# overall ranking (mean rank across datasets)")
            for rank, (model, mean_rank) in enumerate(self.overall, start=1):
                lines.append(f"{rank}\t{model}\t{_fmt(mean_rank)}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "config": self.config,
            "records": [r.to_dict() for r in self.records],
            "rankings": {
                key: [{"rank": i + 1, "model": model, "rae": _json_safe(rae)}
                      for i, (model, rae) in enumerate(entries)]
                for key, entries in self.rankings.items()
            },
            "overall": [{"rank": i + 1, "model": model, "mean_rank": _json_safe(value)}
                        for i, (model, value) in enumerate(self.overall)],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# --- single-cell evaluation -------------------------------------------------

def _table(dataset):
    """(target name, MultiSeries) of a dataset; a TimeSeries is one "energy" column."""
    if isinstance(dataset, TimeSeries):
        return "energy", MultiSeries(dataset.start, dataset.interval, ("energy",),
                                     dataset.values[:, None])
    if isinstance(dataset, MultiSeries):
        return ("energy" if "energy" in dataset.names else dataset.names[0]), dataset
    raise ConfigError(f"cannot evaluate a {type(dataset).__name__}")


class Forecast(NamedTuple):
    positions: np.ndarray
    predictions: np.ndarray
    fit_seconds: float
    predict_seconds: float
    model: object


def fit_forecast(spec: ModelSpec, dataset, n_train: int, m: int, *, p: int,
                 mode: str) -> Forecast:
    """Fit ``spec`` on the first ``n_train`` points and predict up to ``m`` after them.

    ``positions`` are the original indices the predictions belong to. In
    recursive mode they are ``n_train .. n_train + m - 1``; in one-step mode a
    lag model predicts only the positions with a complete lag window.
    """
    target, table = _table(dataset)
    tvals = table.column(target)
    positions = np.arange(n_train, n_train + m)
    if spec.kind == "arima":
        full = TimeSeries(table.start, table.interval, tvals)
        train = TimeSeries(table.start, table.interval, tvals[:n_train])
        t0 = time.perf_counter()
        model = arima_fit(train, *spec.order)
        t1 = time.perf_counter()
        if mode == MODE_ONE_STEP:
            preds = arima_one_step(model, full)[n_train: n_train + m]
        else:
            preds = arima_forecast(model, train, m)
    elif spec.kind == "var":
        col = table.names.index(target)
        t0 = time.perf_counter()
        model = var_fit(MultiSeries(table.start, table.interval, table.names,
                                    table.values[:n_train]), p)
        t1 = time.perf_counter()
        if mode == MODE_ONE_STEP:
            preds = var_one_step(model, table)[n_train: n_train + m, col]
        else:
            preds = var_forecast(model, table.values[:n_train], m)[:, col]
    else:
        frame = lag_embed(table, p, target)
        train_mask = frame.target_positions < n_train
        if not train_mask.any():
            raise TooShort("no complete training windows")
        # a forecast from the whole series trains on every window: skip the copy
        train_frame = frame if train_mask.all() else SupervisedFrame(
            frame.X[train_mask], frame.y[train_mask], p, frame.feature_names,
            frame.target_positions[train_mask])
        t0 = time.perf_counter()
        model = spec.make().fit(train_frame)
        t1 = time.perf_counter()
        if mode == MODE_ONE_STEP:
            test_mask = ~train_mask & (frame.target_positions < n_train + m)
            if not test_mask.any():
                raise InsufficientTest("no complete test windows")
            preds = model.predict_batch(frame.X[test_mask])
            positions = frame.target_positions[test_mask]
        else:
            exog = None
            if frame.n_exog:
                exog_cols = [j for j, name in enumerate(table.names) if name != target]
                exog = table.values[n_train: n_train + m, exog_cols]
            preds = model.predict_series(tvals[:n_train], m, exog=exog)
    return Forecast(positions, preds, t1 - t0, time.perf_counter() - t1, model)


def evaluate(spec: ModelSpec, dataset, split, *, p: int = 24, horizon: int | None = None,
             mode: str = MODE_ONE_STEP, dataset_name: str = "dataset") -> EvalRecord:
    """Fit on the chronological train prefix and score the test span."""
    if not isinstance(split, SplitSpec):
        split = SplitSpec(float(split))
    if mode not in (MODE_ONE_STEP, MODE_RECURSIVE):
        raise ConfigError(f"unknown mode {mode!r}")
    target, table = _table(dataset)
    tvals = table.column(target)
    n = tvals.size
    n_train = split.train_length(n)
    m = n - n_train
    m_eval = m if horizon is None else min(horizon, m)
    if m_eval < 1:
        raise InsufficientTest("horizon leaves no test observations")

    fc = fit_forecast(spec, table, n_train, m_eval, p=p, mode=mode)
    actual = tvals[fc.positions]
    keep = ~np.isnan(actual)
    if not keep.any():
        raise InsufficientTest("all test observations are missing")
    train_targets = tvals[:n_train]
    train_targets = train_targets[~np.isnan(train_targets)]
    result = metrics(actual[keep], fc.predictions[keep], train_targets)
    assert result.rmse >= result.mae - 1e-12

    return EvalRecord(spec.name, dataset_name, split.train_fraction, table.interval,
                      m_eval, mode, int(keep.sum()), result.rmse, result.mae,
                      result.rae, None, fc.fit_seconds, fc.predict_seconds)


# --- benchmark sweep --------------------------------------------------------

def _run_cell(cell):
    """Evaluate one cell; any fault, or a variant whose table could not be
    built (its table slot holds the error), becomes a failed record."""
    (spec, dataset_key, table, split, p, horizon, mode) = cell
    try:
        if isinstance(table, WattcastError):
            raise table
        return evaluate(spec, table, split, p=p, horizon=horizon, mode=mode,
                        dataset_name=dataset_key)
    except Exception as exc:  # any model fault fails its own cell, not the sweep
        interval, m_eval = float("nan"), 0
        if not isinstance(table, WattcastError):
            n = len(table)
            interval = table.interval
            try:
                m = n - split.train_length(n)
            except WattcastError:
                m = 0
            m_eval = max(m if horizon is None else min(horizon, m), 0)
        return EvalRecord(spec.name, dataset_key, split.train_fraction, interval,
                          m_eval, mode, 0, error=f"{type(exc).__name__}: {exc}")


def _interval_label(seconds: float) -> str:
    if seconds % 86400 == 0:
        return f"{int(seconds // 86400)}d"
    if seconds % 3600 == 0:
        return f"{int(seconds // 3600)}h"
    if seconds % 60 == 0:
        return f"{int(seconds // 60)}m"
    return f"{seconds:g}s"


def _resample_dataset(table: MultiSeries, target_interval: float) -> MultiSeries:
    """Resample a table to ``target_interval``, averaging every column."""
    columns = [resample(table.series(name), target_interval, mode="mean")
               for name in table.names]
    return MultiSeries(columns[0].start, columns[0].interval, table.names,
                       np.column_stack([c.values for c in columns]))


def benchmark(specs, datasets, splits, *, p: int = 24, horizon: int | None = None,
              mode: str = MODE_ONE_STEP, intervals=None, jobs: int = 1,
              config_extra: dict | None = None) -> EvaluationReport:
    """Full Cartesian sweep over models, datasets, splits, and intervals.

    ``datasets`` is a list of (name, series) pairs. A failing cell is
    recorded with its error instead of aborting the sweep. Cells are
    independent; with ``jobs > 1`` they run in a process pool, and the
    report is assembled in cell order either way.
    """
    if not specs or not datasets or not splits:
        raise ConfigError("benchmark needs at least one model, dataset, and split")
    splits = [s if isinstance(s, SplitSpec) else SplitSpec(float(s)) for s in splits]
    intervals = list(intervals) if intervals else [None]

    # each variant's table is built once; an error that stops it fills the slot
    variants = []
    for (name, dataset), target_interval in product(datasets, intervals):
        native = (target_interval is None
                  or target_interval == getattr(dataset, "interval", None))
        key = name if native else f"{name}[{_interval_label(target_interval)}]"
        try:
            table = _table(dataset)[1]
            if not native:
                table = _resample_dataset(table, target_interval)
        except WattcastError as exc:
            table = exc
        variants.append((key, table))

    cells = [(spec, key, data, split, p, horizon, mode)
             for (key, data), split, spec in product(variants, splits, specs)]

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_run_cell, cells))
    else:
        records = [_run_cell(c) for c in cells]

    report = EvaluationReport(records)
    report.config = {
        "p": p,
        "horizon": horizon,
        "mode": mode,
        "splits": [s.train_fraction for s in splits],
        "intervals": [i for i in intervals],
        "models": [s.name for s in specs],
        "datasets": [name for name, _ in datasets],
        "jobs": jobs,
    }
    if config_extra:
        report.config.update(config_extra)
    _rank(report, [s.name for s in specs])
    return report


def _rank(report: EvaluationReport, model_order: list) -> None:
    """Per-dataset RAE ranking and overall mean-rank ranking, stable ties."""
    index = {name: i for i, name in enumerate(model_order)}
    by_dataset: dict[str, dict[str, list]] = {}
    for record in report.records:
        by_dataset.setdefault(record.dataset, {})
    for record in report.records:
        if record.ok and not math.isnan(record.rae):
            by_dataset[record.dataset].setdefault(record.model, []).append(record.rae)

    ranks: dict[str, list] = {}
    positions: dict[str, list] = {name: [] for name in model_order}
    for dataset_key, per_model in by_dataset.items():
        scored = []
        for name in model_order:
            values = per_model.get(name)
            mean_rae = float(np.mean(values)) if values else float("nan")
            scored.append((name, mean_rae))
        scored.sort(key=lambda item: (math.isnan(item[1]),
                                      item[1] if not math.isnan(item[1]) else 0.0,
                                      index[item[0]]))
        ranks[dataset_key] = scored
        for position, (name, _) in enumerate(scored, start=1):
            positions[name].append(position)

    overall = [(name, float(np.mean(pos)) if pos else float("nan"))
               for name, pos in positions.items()]
    overall.sort(key=lambda item: (math.isnan(item[1]),
                                   item[1] if not math.isnan(item[1]) else 0.0,
                                   index[item[0]]))
    report.rankings = ranks
    report.overall = overall
