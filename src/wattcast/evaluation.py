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
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Callable, NamedTuple

import numpy as np

from .arima import arima_fit, arima_forecast, arima_one_step, check_order
from .errors import (
    ConfigError,
    InsufficientTest,
    LengthMismatch,
    NonFinitePrediction,
    NumericOverflow,
    TooShort,
    WattcastError,
)
from .regressors import GpModel, KnnModel, MlpModel, OlsModel, SvrModel
from .series import MultiSeries, TimeSeries, resample
from .transform import lag_embed
from .var import var_fit, var_forecast, var_one_step

# Not called here, but kept bound: perfbench/tracing.py wraps this name in
# this module by attribute lookup.
from .transform import decompose  # noqa: F401

KINDS = ("lag", "arima", "var")
# prediction modes of evaluate and fit_forecast
MODE_ONE_STEP = "one_step_true_history"
MODE_RECURSIVE = "recursive"
# (p, d, q) of the arima entry in benchmark suites
ARIMA_ORDER = (2, 0, 1)


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
    reported as NaN rather than raising. Errors or a baseline that overflow
    float64 raise ``NumericOverflow``.
    """
    actual = np.asarray(actual, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    train_targets = np.asarray(train_targets, dtype=float)
    if actual.size != predicted.size:
        raise LengthMismatch(f"{actual.size} actuals vs {predicted.size} predictions")
    if actual.size < 1 or train_targets.size < 1:
        raise LengthMismatch("metrics need at least one observation on each side")
    with np.errstate(over="ignore", invalid="ignore"):
        err = actual - predicted
        rmse = float(np.sqrt(np.mean(err ** 2)))
        mae = float(np.mean(np.abs(err)))
        baseline = float(np.sum(np.abs(actual - train_targets.mean())))
    if not (math.isfinite(rmse) and math.isfinite(mae) and math.isfinite(baseline)):
        raise NumericOverflow(f"forecast errors overflow float64 (rmse {rmse:g}, "
                              f"mae {mae:g}, baseline {baseline:g})")
    rae = float(np.sum(np.abs(err)) / baseline) if baseline > 0.0 else float("nan")
    return Metrics(rmse, mae, rae)


def check_finite(predicted, actual=None) -> None:
    """Raise NonFinitePrediction when a prediction is not finite where its
    actual is finite, or anywhere when no ``actual`` is given."""
    bad = ~np.isfinite(predicted)
    if actual is not None:
        bad &= np.isfinite(actual)
    if bad.any():
        raise NonFinitePrediction(f"{int(bad.sum())} of {bad.size} predictions are not finite")


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
    entries carry their (p, d, q) ``order``, refused here if ``arima_fit``
    would refuse it; VAR entries use the sweep's lag order.
    """

    name: str
    kind: str
    make: Callable | None = None
    order: tuple = ARIMA_ORDER

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown model kind {self.kind!r}")
        if self.kind == "lag" and self.make is None:
            raise ConfigError(f"model {self.name!r} needs a factory")
        if self.kind == "arima":
            check_order(*self.order)


class Family(NamedTuple):
    """A compared model family: its kind and, for kind "lag", the regressor class
    with a (constructor keyword, key, type, help phrase) per hyperparameter."""

    kind: str
    model: type | None = None
    params: tuple = ()


# The seven compared families, in report order. Each hyperparameter key is a
# CLI flag, bar "seed" which every command has; the phrase of a None default
# says how it is derived. ARIMA takes its (p, d, q) from "arima_order".
FAMILIES = {
    "ols": Family("lag", OlsModel),
    "gp": Family("lag", GpModel, (
        ("signal_var", "gp_signal_var", float, "RBF signal variance"),
        ("length_scale", "gp_length_scale", float, "RBF length scale"),
        ("noise_var", "gp_noise_var", float, "observation noise variance"))),
    "mlp": Family("lag", MlpModel, (
        ("hidden", "mlp_hidden", int, "hidden units (default: ceil((n_features + 1) / 2))"),
        ("lr", "mlp_lr", float, "learning rate"),
        ("momentum", "mlp_momentum", float, "momentum factor"),
        ("epochs", "mlp_epochs", int, "training epochs"), ("seed", "seed"))),
    "svr": Family("lag", SvrModel, (
        ("C", "svr_c", float, "box constraint"),
        ("epsilon", "svr_epsilon", float, "insensitive-tube half width"),
        ("gamma", "svr_gamma", float, "RBF gamma (default: 1 / (n_features * var(X)))"))),
    "knn": Family("lag", KnnModel, (("k", "knn_k", int, "neighbour count"),)),
    "arima": Family("arima"),
    "var": Family("var"),
}
MODELS = tuple(FAMILIES)


def spec_for(name: str, seed: int = 0, arima_order: tuple = ARIMA_ORDER, *,
             hyper=None) -> ModelSpec:
    """Look up a single model family by CLI name.

    ``hyper`` maps hyperparameter keys to values and wins over ``seed`` and
    ``arima_order``; keys it lacks keep the constructor's defaults. A value
    the constructor rejects raises ``ConfigError`` here, before any cell runs.
    """
    if name not in FAMILIES:
        raise ConfigError(f"unknown model {name!r} (choose from {', '.join(MODELS)})")
    family = FAMILIES[name]
    hyper = {"seed": seed, "arima_order": arima_order, **(hyper or {})}
    if family.kind == "arima":
        return ModelSpec(name, family.kind, order=tuple(hyper["arima_order"]))
    if family.kind == "lag":
        make = functools.partial(
            family.model, **{arg: hyper[key] for arg, key, *_ in family.params if key in hyper})
        try:
            make()
        except ValueError as exc:
            raise ConfigError(f"model {name!r}: {exc}") from None
        return ModelSpec(name, family.kind, make)
    return ModelSpec(name, family.kind)


def default_specs(seed: int = 0, arima_order: tuple = ARIMA_ORDER) -> list:
    """The seven compared model families with their default settings."""
    return [spec_for(name, seed, arima_order) for name in MODELS]


# --- records and report -----------------------------------------------------

# The report's columns. All but "status" are record fields; where the text
# report has the status, the JSON report has the error text.
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
        cells = [getattr(self, name) for name in _ROW_FIELDS[:-1]]
        status = "ok" if self.ok else "failed: " + " ".join(self.error.split())
        return "\t".join([c if isinstance(c, str) else _fmt(c) for c in cells] + [status])

    def to_dict(self) -> dict:
        # wall times are deliberately excluded: serialized reports must be
        # byte-identical across runs with the same seed
        return {**{name: _json_safe(getattr(self, name)) for name in _ROW_FIELDS[:-1]},
                "error": self.error}


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

    Every fit sees only the train prefix, so no test value can reach it.
    ``positions`` are the original indices the predictions belong to. In
    recursive mode they are ``n_train .. n_train + m - 1``; in one-step mode a
    lag model predicts only the positions with a complete lag window.
    """
    target, table = _table(dataset)
    head = MultiSeries(table.start, table.interval, table.names, table.values[:n_train])
    positions = np.arange(n_train, n_train + m)
    if spec.kind == "arima":
        t0 = time.perf_counter()
        model = arima_fit(head.series(target), *spec.order)
        t1 = time.perf_counter()
        if mode == MODE_ONE_STEP:
            preds = arima_one_step(model, table.series(target))[n_train: n_train + m]
        else:
            preds = arima_forecast(model, head.series(target), m)
    elif spec.kind == "var":
        col = table.names.index(target)
        t0 = time.perf_counter()
        model = var_fit(head, p)
        t1 = time.perf_counter()
        if mode == MODE_ONE_STEP:
            preds = var_one_step(model, table)[n_train: n_train + m, col]
        else:
            preds = var_forecast(model, head, m)[:, col]
    else:
        train = lag_embed(head, p, target)
        if not train.n_samples:
            raise TooShort("no complete training windows")
        t0 = time.perf_counter()
        model = spec.make().fit(train)
        t1 = time.perf_counter()
        if mode == MODE_ONE_STEP:
            frame = lag_embed(table, p, target)
            test = (frame.target_positions >= n_train) & (frame.target_positions < n_train + m)
            if not test.any():
                raise InsufficientTest("no complete test windows")
            preds = model.predict_batch(frame.X[test])
            positions = frame.target_positions[test]
        else:
            exog = None
            if train.n_exog:
                exog_cols = [j for j, name in enumerate(table.names) if name != target]
                exog = table.values[n_train: n_train + m, exog_cols]
            preds = model.predict_series(head.column(target), m, exog=exog)
    return Forecast(positions, preds, t1 - t0, time.perf_counter() - t1, model)


def _span(n: int, split: SplitSpec, horizon: int | None) -> tuple:
    """(n_train, m_eval): the train prefix of ``n`` rows and the scored test steps."""
    n_train = split.train_length(n)
    m = n - n_train
    return n_train, m if horizon is None else min(horizon, m)


def evaluate(spec: ModelSpec, dataset, split, *, p: int = 24, horizon: int | None = None,
             mode: str = MODE_ONE_STEP, dataset_name: str = "dataset") -> EvalRecord:
    """Fit on the chronological train prefix and score the test span."""
    if not isinstance(split, SplitSpec):
        split = SplitSpec(float(split))
    if mode not in (MODE_ONE_STEP, MODE_RECURSIVE):
        raise ConfigError(f"unknown mode {mode!r}")
    target, table = _table(dataset)
    tvals = table.column(target)
    n_train, m_eval = _span(tvals.size, split, horizon)
    if m_eval < 1:
        raise InsufficientTest("horizon leaves no test observations")

    fc = fit_forecast(spec, table, n_train, m_eval, p=p, mode=mode)
    actual = tvals[fc.positions]
    keep = ~np.isnan(actual)
    if not keep.any():
        raise InsufficientTest("all test observations are missing")
    train_targets = tvals[:n_train]
    train_targets = train_targets[~np.isnan(train_targets)]
    check_finite(fc.predictions[keep], actual[keep])
    result = metrics(actual[keep], fc.predictions[keep], train_targets)

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
            interval = table.interval
            try:
                m_eval = max(_span(len(table), split, horizon)[1], 0)
            except WattcastError:
                pass
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
    names = [s.name for s in specs]
    for what, listed in (("model", names), ("dataset", [name for name, _ in datasets])):
        for name in listed:
            if listed.count(name) > 1:
                raise ConfigError(f"{what} {name!r} is listed more than once; "
                                  f"records and rankings are keyed by {what} name")
    splits = [s if isinstance(s, SplitSpec) else SplitSpec(float(s)) for s in splits]
    intervals = list(intervals) if intervals else [None]

    # each variant's table is built once; an error that stops it fills the slot
    variants, owners = [], {}
    for (name, dataset), target_interval in product(datasets, intervals):
        native = (target_interval is None
                  or target_interval == getattr(dataset, "interval", None))
        key = name if native else f"{name}[{_interval_label(target_interval)}]"
        if key in owners:  # native and the dataset's own interval, or 2h and 120m
            if owners[key] == name:
                continue
            raise ConfigError(f"datasets {owners[key]!r} and {name!r} both give the "
                              f"key {key!r}; records and rankings are keyed by it")
        owners[key] = name
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
        from concurrent.futures import ProcessPoolExecutor

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
        "models": names,
        "datasets": [name for name, _ in datasets],
        "jobs": jobs,
    }
    if config_extra:
        report.config.update(config_extra)
    _rank(report, names)
    return report


def _rank_key(entry) -> tuple:
    """Ascending by value, NaN last; ``sorted`` keeps ties in model order."""
    value = entry[1]
    return (math.isnan(value), 0.0 if math.isnan(value) else value)


def _rank(report: EvaluationReport, model_order: list) -> None:
    """Per-dataset RAE ranking and overall mean-rank ranking, stable ties."""
    by_dataset: dict[str, dict[str, list]] = {}
    for record in report.records:
        per_model = by_dataset.setdefault(record.dataset, {})
        if record.ok and not math.isnan(record.rae):
            per_model.setdefault(record.model, []).append(record.rae)

    ranks: dict[str, list] = {}
    positions: dict[str, list] = {name: [] for name in model_order}
    for dataset_key, per_model in by_dataset.items():
        ranks[dataset_key] = sorted(
            ((name, float(np.mean(per_model[name])) if name in per_model else float("nan"))
             for name in model_order), key=_rank_key)
        for position, (name, _) in enumerate(ranks[dataset_key], start=1):
            positions[name].append(position)

    report.rankings = ranks
    report.overall = sorted(((name, float(np.mean(pos))) for name, pos in positions.items()),
                            key=_rank_key)
