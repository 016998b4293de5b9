"""Spans and counters recorded from outside the program.

The benchmark never edits ``src/``. It wraps the public functions and model
methods that each layer exposes, for the duration of one traced pass, and
restores the originals afterwards. Spans are reduced as they close, so
memory stays constant however many calls a pass makes. A span's self time
is its duration minus the durations of its direct children, and is credited
to its layer (the part of the key before the first dot). A key's time counts
only its outermost calls: a ``predict_batch`` made from inside
``predict_series`` of the same model belongs to that outer call.
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict
from contextlib import contextmanager

# Model class -> layer (the module under ``wattcast/regressors``).
MODEL_LAYERS = {
    "OlsModel": "linear",
    "KnnModel": "neighbors",
    "GpModel": "gaussian_process",
    "SvrModel": "svr",
    "MlpModel": "mlp",
}

# (module, attribute) -> span key. Several modules import the same function
# under its own name, so each importing namespace is patched.
FUNCTION_SPANS = (
    ("wattcast.evaluation", "benchmark", "evaluation.benchmark"),
    ("wattcast.cli", "benchmark", "evaluation.benchmark"),
    ("wattcast.evaluation", "lag_embed", "transform.lag_embed"),
    ("wattcast.cli", "lag_embed", "transform.lag_embed"),
    ("wattcast.evaluation", "decompose", "transform.decompose"),
    ("wattcast.cli", "decompose", "transform.decompose"),
    ("wattcast.evaluation", "resample", "series.resample"),
    ("wattcast.cli", "resample", "series.resample"),
    ("wattcast.evaluation", "arima_fit", "arima.fit"),
    ("wattcast.cli", "arima_fit", "arima.fit"),
    ("wattcast.evaluation", "arima_one_step", "arima.predict"),
    ("wattcast.evaluation", "arima_forecast", "arima.predict"),
    ("wattcast.cli", "arima_forecast", "arima.predict"),
    ("wattcast.evaluation", "var_fit", "var.fit"),
    ("wattcast.cli", "var_fit", "var.fit"),
    ("wattcast.evaluation", "var_one_step", "var.predict"),
    ("wattcast.evaluation", "var_forecast", "var.predict"),
    ("wattcast.cli", "var_forecast", "var.predict"),
    ("wattcast.cli", "infer_schema", "ingest.infer"),
    ("wattcast.cli", "read_energy_csv", "ingest.read"),
    ("wattcast.cli", "write_energy_csv", "ingest.write"),
    ("wattcast.cli", "forecast_chart", "svgplot.chart"),
    ("wattcast.cli", "decomposition_chart", "svgplot.chart"),
)


class Tracer:
    """In-memory span recorder. ``profile()`` reduces the spans to totals."""

    def __init__(self):
        self._stack = []  # open spans: [start, time spent in child spans]
        self._open_keys = defaultdict(int)
        self.total = defaultdict(float)  # key -> outermost duration
        self.self_time = defaultdict(float)  # layer -> self time
        self.counts = defaultdict(float)

    @contextmanager
    def span(self, key: str, detail: str | None = None):
        """Time a call. ``detail`` also totals the outermost calls under a
        finer name, such as ``svr.predict_series`` within ``svr.predict``."""
        outer = self._open_keys[key] == 0
        self._open_keys[key] += 1
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._open_keys[key] -= 1
            duration = end - frame[0]
            self.self_time[key.split(".", 1)[0]] += duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration
            if outer:
                for name in (key, detail) if detail else (key,):
                    self.total[name] += duration

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def profile(self) -> dict:
        return {"total": dict(self.total), "self": dict(self.self_time),
                "counts": dict(self.counts)}


def merge_profiles(profiles) -> dict:
    """Sum several profiles (one per child process) into one."""
    merged = {"total": defaultdict(float), "self": defaultdict(float),
              "counts": defaultdict(float)}
    for prof in profiles:
        for part, values in prof.items():
            for key, value in values.items():
                merged[part][key] += value
    return {part: dict(values) for part, values in merged.items()}


def _traced(tracer, key, fn, after=None, detail=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(key, detail):
            result = fn(*args, **kwargs)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result
    return wrapper


def _count_rows(key):
    def after(tracer, args, kwargs, result):
        series = result if key == "ingest.read" else args[1]
        tracer.count(key + ".rows", len(series))
    return after


def _count_bytes(tracer, args, kwargs, result):
    tracer.count("svgplot.bytes", len(result.encode()))


def _count_cells(tracer, args, kwargs, report):
    tracer.count("evaluation.cells", len(report.records))
    tracer.count("evaluation.cells_failed", len(report.failed))


def _after_fit(layer):
    def after(tracer, args, kwargs, model):
        frame = args[1]
        if layer == "mlp":
            tracer.count("mlp.epochs", model.epochs)
            tracer.count("mlp.row_updates", model.epochs * frame.n_samples)
            # every rollback halves the learning rate once
            tracer.count("mlp.rollbacks", round(math.log2(model.lr / model.final_lr_)))
        elif layer == "svr":
            tracer.count("svr.smo_iters", model.n_iter_)
            tracer.count("svr.support_vectors", model.support_.size)
    return after


def _after_series(layer):
    def after(tracer, args, kwargs, result):
        tracer.count(layer + ".steps", len(result))
    return after


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every traced boundary of the ``wattcast`` package, then restore."""
    import importlib

    import wattcast.arima
    from wattcast import regressors

    restore = []

    def patch(owner, name, replacement):
        had_own = name in vars(owner)
        restore.append((owner, name, vars(owner).get(name), had_own))
        setattr(owner, name, replacement)

    afters = {"ingest.read": _count_rows("ingest.read"),
              "ingest.write": _count_rows("ingest.write"),
              "svgplot.chart": _count_bytes,
              "evaluation.benchmark": _count_cells}
    try:
        for module_name, attr, key in FUNCTION_SPANS:
            module = importlib.import_module(module_name)
            patch(module, attr, _traced(tracer, key, getattr(module, attr), afters.get(key)))

        css = wattcast.arima.css_residuals

        @functools.wraps(css)
        def counted_css(*args, **kwargs):
            tracer.count("arima.css_calls")
            return css(*args, **kwargs)
        patch(wattcast.arima, "css_residuals", counted_css)

        for class_name, layer in MODEL_LAYERS.items():
            cls = getattr(regressors, class_name)
            patch(cls, "fit", _traced(tracer, layer + ".fit", cls.fit, _after_fit(layer)))
            patch(cls, "predict_batch",
                  _traced(tracer, layer + ".predict", cls.predict_batch))
            patch(cls, "predict_series",
                  _traced(tracer, layer + ".predict", cls.predict_series,
                          _after_series(layer), layer + ".predict_series"))
        yield tracer
    finally:
        for owner, name, original, had_own in reversed(restore):
            if had_own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
