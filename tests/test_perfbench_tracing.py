"""The benchmark's tracer wraps package names by attribute lookup; check that
every name it wraps still exists, so a rename or deletion in ``src/`` cannot
silently break a traced benchmark run. The tracer is loaded by path and only
read (its spans are installed on the package classes for one small fit and
restored afterwards).
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from test_regressors import make_frame

from wattcast import regressors
from wattcast.evaluation import MODE_ONE_STEP, MODE_RECURSIVE, fit_forecast, spec_for
from wattcast.regressors import MlpModel, SvrModel
from wattcast.regressors.base import ForecastModel
from wattcast.synthetic import household_series

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(tracing):
    for module_name, attr, _ in tracing.FUNCTION_SPANS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), \
            f"{module_name}.{attr}"
    for class_name in tracing.MODEL_LAYERS:
        cls = getattr(regressors, class_name)
        for method in ("fit", "predict_batch", "predict_series"):
            assert callable(getattr(cls, method, None)), f"{class_name}.{method}"


def test_fit_counters_read_published_attributes(tracing):
    rng = np.random.default_rng(3)
    frame = make_frame(rng.normal(size=(20, 3)), rng.normal(size=20))
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        MlpModel(epochs=2).fit(frame)
        SvrModel().fit(frame)
    counts = tracer.profile()["counts"]
    assert counts["mlp.row_updates"] == 2 * 20
    assert counts["svr.smo_iters"] > 0 and counts["svr.support_vectors"] > 0
    assert MlpModel.fit is ForecastModel.fit  # the wrappers are removed again


# fit_forecast calls the names the tracer wraps in wattcast.evaluation, so
# every kind's fit and prediction is timed
@pytest.mark.parametrize("mode", [MODE_ONE_STEP, MODE_RECURSIVE])
@pytest.mark.parametrize("name, spans", [
    ("arima", ("arima.fit", "arima.predict")),
    ("var", ("var.fit", "var.predict")),
    ("ols", ("transform.lag_embed", "linear.fit", "linear.predict")),
])
def test_fit_forecast_records_every_kinds_spans(tracing, name, spans, mode):
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        fit_forecast(spec_for(name), household_series(120, seed=1), 96, 24, p=4, mode=mode)
    total = tracer.profile()["total"]
    for key in spans:
        assert total.get(key, 0.0) > 0.0, key
