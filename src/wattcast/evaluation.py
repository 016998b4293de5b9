"""Chronological forecast evaluation and the cross-dataset benchmark sweep.

The protocol: split each series chronologically (train = prefix), fit on
the train prefix only — scalers, decomposition patterns, and model
parameters never see the test suffix — then score predictions on the test
span with RMSE, MAE, and RAE. RAE divides the summed absolute error by the
error of the naive train-mean predictor, which makes it unit-free and
comparable across datasets; models are ranked per dataset by RAE and
overall by mean rank.

Two prediction modes are supported: ``one_step_true_history`` conditions
every test prediction on actually observed values, ``recursive`` feeds
predictions back to cover the whole test span.
"""

from __future__ import annotations

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
    MissingCells,
    TooShort,
    WattcastError,
)
from .regressors import (
    MODE_ONE_STEP,
    MODE_RECURSIVE,
    GpModel,
    KnnModel,
    MeanModel,
    MlpModel,
    OlsModel,
    SvrModel,
)
from .series import MultiSeries, TimeSeries, resample
from .transform import SupervisedFrame, decompose, lag_embed
from .var import var_fit, var_forecast, var_one_step

PREPROCESS_CHOICES = ("none", "difference", "deseasonalize")
KINDS = ("lag", "arima", "var")


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
    """One entry of a benchmark: a model family plus its preprocessing.

    ``make`` builds a fresh lag-embedding regressor (kind "lag"); ARIMA
    entries carry their (p, d, q) ``order``; VAR entries use the sweep's
    lag order unless ``lag_order`` overrides it.
    """

    name: str
    kind: str
    make: Callable | None = None
    order: tuple = (1, 0, 0)
    lag_order: int | None = None
    preprocess: str = "none"
    period: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown model kind {self.kind!r}")
        if self.kind == "lag" and self.make is None:
            raise ConfigError(f"model {self.name!r} needs a factory")
        if self.preprocess not in PREPROCESS_CHOICES:
            raise ConfigError(f"unknown preprocessing {self.preprocess!r}")
        if self.kind != "lag" and self.preprocess != "none":
            raise ConfigError(f"{self.kind} models handle their own transforms; "
                              "preprocess must be 'none'")
        if self.preprocess == "deseasonalize" and (self.period is None or self.period < 2):
            raise ConfigError("deseasonalize needs a period >= 2")


def default_specs(seed: int = 0, arima_order: tuple = (2, 0, 1)) -> list:
    """The seven compared model families with their default settings."""
    import functools
    return [
        ModelSpec("ols", "lag", OlsModel),
        ModelSpec("gp", "lag", GpModel),
        ModelSpec("mlp", "lag", functools.partial(MlpModel, seed=seed)),
        ModelSpec("svr", "lag", SvrModel),
        ModelSpec("knn", "lag", KnnModel),
        ModelSpec("arima", "arima", order=arima_order),
        ModelSpec("var", "var"),
    ]


def spec_for(name: str, seed: int = 0, arima_order: tuple = (2, 0, 1), **overrides):
    """Look up a single model family by CLI name."""
    import functools
    factories = {
        "ols": OlsModel,
        "gp": GpModel,
        "mlp": functools.partial(MlpModel, seed=seed),
        "svr": SvrModel,
        "knn": KnnModel,
        "mean": MeanModel,
    }
    if name in factories:
        return ModelSpec(name, "lag", factories[name], **overrides)
    if name == "arima":
        return ModelSpec(name, "arima", order=arima_order, **overrides)
    if name == "var":
        return ModelSpec(name, "var", **overrides)
    raise ConfigError(f"unknown model {name!r}")


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
    fitted: object = None

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
            "interval": self.interval,
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

def _target_layout(dataset):
    """(target name, target values, full matrix or None, names) of a dataset."""
    if isinstance(dataset, TimeSeries):
        return None, dataset.values, None, None
    if isinstance(dataset, MultiSeries):
        name = "energy" if "energy" in dataset.names else dataset.names[0]
        return name, dataset.column(name), dataset.values, dataset.names
    raise ConfigError(f"cannot evaluate a {type(dataset).__name__}")


def _preprocessed(dataset, spec: ModelSpec, n_train: int):
    """Train-only preprocessing. Returns (Z, offset, pattern).

    Z is the series the model actually sees; ``offset`` maps Z indices to
    original positions (Z index j is original position j + offset);
    ``pattern`` is the train-fitted seasonal pattern when deseasonalizing.
    """
    target, tvals, matrix, names = _target_layout(dataset)
    if spec.preprocess == "none":
        return dataset, 0, None
    if spec.preprocess == "difference":
        diffed = np.diff(tvals)
        if matrix is None:
            z = TimeSeries(dataset.start + dataset.interval, dataset.interval, diffed)
        else:
            cols = np.column_stack(
                [diffed] + [matrix[1:, j] for j, nm in enumerate(names) if nm != target])
            kept = (target,) + tuple(nm for nm in names if nm != target)
            z = MultiSeries(dataset.start + dataset.interval, dataset.interval, kept, cols)
        return z, 1, None
    # deseasonalize: pattern fitted on the train prefix only
    train_ts = TimeSeries(dataset.start, dataset.interval, tvals[:n_train])
    pattern = decompose(train_ts, spec.period).seasonal_pattern
    adjusted = tvals - pattern[np.arange(tvals.size) % spec.period]
    if matrix is None:
        z = TimeSeries(dataset.start, dataset.interval, adjusted)
    else:
        cols = np.column_stack(
            [adjusted] + [matrix[:, j] for j, nm in enumerate(names) if nm != target])
        kept = (target,) + tuple(nm for nm in names if nm != target)
        z = MultiSeries(dataset.start, dataset.interval, kept, cols)
    return z, 0, pattern


def _evaluate_lag(spec, dataset, n_train, m_eval, p, mode, keep_model):
    target, tvals, _, _ = _target_layout(dataset)
    z, offset, pattern = _preprocessed(dataset, spec, n_train)
    z_target = z.values if isinstance(z, TimeSeries) else z.column(target)

    frame = lag_embed(z, p, target if target is not None else "energy")
    train_mask = frame.target_positions + offset < n_train
    if not train_mask.any():
        raise TooShort("no complete training windows after preprocessing")
    train_frame = SupervisedFrame(frame.X[train_mask], frame.y[train_mask], p,
                                  frame.feature_names,
                                  frame.target_positions[train_mask])

    t0 = time.perf_counter()
    model = spec.make().fit(train_frame)
    fit_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    if mode == MODE_ONE_STEP:
        test_mask = ((frame.target_positions + offset >= n_train)
                     & (frame.target_positions + offset < n_train + m_eval))
        if not test_mask.any():
            raise InsufficientTest("no complete test windows")
        raw = model.predict_batch(frame.X[test_mask])
        positions = frame.target_positions[test_mask] + offset
        if spec.preprocess == "difference":
            preds = tvals[positions - 1] + raw
        elif spec.preprocess == "deseasonalize":
            preds = raw + pattern[positions % spec.period]
        else:
            preds = raw
    else:
        history = z_target[: n_train - offset]
        exog = None
        if frame.n_exog:
            start_z = n_train - offset
            exog_cols = [z.names.index(n) for n in z.names if n != target]
            exog = z.values[start_z: start_z + m_eval, exog_cols]
        raw = model.predict_series(history, m_eval, mode=MODE_RECURSIVE, exog=exog)
        positions = np.arange(n_train, n_train + m_eval)
        if spec.preprocess == "difference":
            preds = tvals[n_train - 1] + np.cumsum(raw)
        elif spec.preprocess == "deseasonalize":
            preds = raw + pattern[positions % spec.period]
        else:
            preds = raw
    predict_seconds = time.perf_counter() - t0
    return positions, preds, fit_seconds, predict_seconds, model


def _evaluate_arima(spec, dataset, n_train, m_eval, mode, keep_model):
    _, tvals, _, _ = _target_layout(dataset)
    full = TimeSeries(0.0, 1.0, tvals) if not isinstance(dataset, TimeSeries) else dataset
    train = TimeSeries(full.start, full.interval, tvals[:n_train])

    t0 = time.perf_counter()
    model = arima_fit(train, *spec.order)
    fit_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    if mode == MODE_ONE_STEP:
        preds = arima_one_step(model, full)[n_train: n_train + m_eval]
        positions = np.arange(n_train, n_train + m_eval)
    else:
        preds = arima_forecast(model, train, m_eval)
        positions = np.arange(n_train, n_train + m_eval)
    predict_seconds = time.perf_counter() - t0
    return positions, preds, fit_seconds, predict_seconds, model


def _evaluate_var(spec, dataset, n_train, m_eval, p, mode, keep_model):
    target, tvals, matrix, names = _target_layout(dataset)
    if matrix is None:
        matrix = tvals[:, None]
        names = ("value",)
        target = "value"
    col = names.index(target)
    order = spec.lag_order if spec.lag_order is not None else p
    train_matrix = MultiSeries(0.0, 1.0, names, matrix[:n_train])

    t0 = time.perf_counter()
    model = var_fit(train_matrix, order)
    fit_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    if mode == MODE_ONE_STEP:
        preds = var_one_step(model, matrix)[n_train: n_train + m_eval, col]
    else:
        preds = var_forecast(model, matrix[:n_train], m_eval)[:, col]
    predict_seconds = time.perf_counter() - t0
    positions = np.arange(n_train, n_train + m_eval)
    return positions, preds, fit_seconds, predict_seconds, model


def evaluate(spec: ModelSpec, dataset, split, *, p: int = 24, horizon: int | None = None,
             mode: str = MODE_ONE_STEP, dataset_name: str = "dataset",
             keep_model: bool = False) -> EvalRecord:
    """Fit on the chronological train prefix and score the test span."""
    if not isinstance(split, SplitSpec):
        split = SplitSpec(float(split))
    if mode not in (MODE_ONE_STEP, MODE_RECURSIVE):
        raise ConfigError(f"unknown mode {mode!r}")
    _, tvals, _, _ = _target_layout(dataset)
    n = tvals.size
    n_train = split.train_length(n)
    m = n - n_train
    m_eval = m if horizon is None else min(horizon, m)
    if m_eval < 1:
        raise InsufficientTest("horizon leaves no test observations")

    if spec.kind == "lag":
        positions, preds, fit_s, pred_s, model = _evaluate_lag(
            spec, dataset, n_train, m_eval, p, mode, keep_model)
    elif spec.kind == "arima":
        positions, preds, fit_s, pred_s, model = _evaluate_arima(
            spec, dataset, n_train, m_eval, mode, keep_model)
    else:
        positions, preds, fit_s, pred_s, model = _evaluate_var(
            spec, dataset, n_train, m_eval, p, mode, keep_model)

    actual = tvals[positions]
    keep = ~np.isnan(actual)
    if not keep.any():
        raise InsufficientTest("all test observations are missing")
    train_targets = tvals[:n_train]
    train_targets = train_targets[~np.isnan(train_targets)]
    result = metrics(actual[keep], preds[keep], train_targets)
    assert result.rmse >= result.mae - 1e-12

    interval = dataset.interval if hasattr(dataset, "interval") else float("nan")
    return EvalRecord(spec.name, dataset_name, split.train_fraction, interval,
                      m_eval, mode, int(keep.sum()), result.rmse, result.mae,
                      result.rae, None, fit_s, pred_s,
                      model if keep_model else None)


# --- benchmark sweep --------------------------------------------------------

def _run_cell(cell):
    (spec, dataset_key, dataset, split, p, horizon, mode) = cell
    try:
        return evaluate(spec, dataset, split, p=p, horizon=horizon, mode=mode,
                        dataset_name=dataset_key)
    except Exception as exc:  # any model fault fails its own cell, not the sweep
        _, tvals, _, _ = _target_layout(dataset)
        interval = dataset.interval if hasattr(dataset, "interval") else float("nan")
        n = tvals.size
        try:
            n_train = split.train_length(n)
            m = n - n_train
        except WattcastError:
            m = 0
        m_eval = m if horizon is None else min(horizon, m)
        return EvalRecord(spec.name, dataset_key, split.train_fraction, interval,
                          max(m_eval, 0), mode, 0,
                          error=f"{type(exc).__name__}: {exc}")


def _interval_label(seconds: float) -> str:
    if seconds % 86400 == 0:
        return f"{int(seconds // 86400)}d"
    if seconds % 3600 == 0:
        return f"{int(seconds // 3600)}h"
    if seconds % 60 == 0:
        return f"{int(seconds // 60)}m"
    return f"{seconds:g}s"


def _resample_dataset(dataset, target_interval: float, mode: str):
    """Resample a dataset; the target column uses ``mode``, covariates average."""
    if isinstance(dataset, TimeSeries):
        return resample(dataset, target_interval, mode=mode)
    target, _, _, names = _target_layout(dataset)
    columns = [resample(dataset.series(name), target_interval,
                        mode=mode if name == target else "mean")
               for name in names]
    return MultiSeries(columns[0].start, columns[0].interval, names,
                       np.column_stack([c.values for c in columns]))


def benchmark(specs, datasets, splits, *, p: int = 24, horizon: int | None = None,
              mode: str = MODE_ONE_STEP, intervals=None, resample_mode: str = "mean",
              jobs: int = 1, config_extra: dict | None = None) -> EvaluationReport:
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

    variants = []
    for name, dataset in datasets:
        for target_interval in intervals:
            if target_interval is None or target_interval == dataset.interval:
                variants.append((name, dataset))
            else:
                label = f"{name}[{_interval_label(target_interval)}]"
                try:
                    variants.append((label, _resample_dataset(dataset, target_interval,
                                                              resample_mode)))
                except WattcastError as exc:
                    variants.append((label, exc))

    cells = []
    for (key, data), split, spec in product(variants, splits, specs):
        cells.append((spec, key, data, split, p, horizon, mode))

    def run(cell):
        spec, key, data, split, *_ = cell
        if isinstance(data, WattcastError):
            return EvalRecord(spec.name, key, split.train_fraction, float("nan"),
                              0, mode, 0, error=f"{type(data).__name__}: {data}")
        return _run_cell(cell)

    if jobs > 1:
        clean = [c for c in cells if not isinstance(c[2], WattcastError)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = iter(list(pool.map(_run_cell, clean)))
        records = [run(c) if isinstance(c[2], WattcastError) else next(results)
                   for c in cells]
    else:
        records = [run(c) for c in cells]

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
