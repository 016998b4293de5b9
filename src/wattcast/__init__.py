"""wattcast: time-series forecasting toolkit and benchmark harness for
household electricity consumption.

The package provides uniform series containers with resampling and weather
merging, the classic preprocessing transforms (lag embedding, differencing,
seasonal decomposition), seven natively implemented forecast models (OLS,
KNN, Gaussian process, epsilon-SVR, MLP, ARIMA, VAR), and a chronological
train/test evaluation harness with RMSE/MAE/RAE metrics and cross-dataset
ranking.

Importing the package loads numpy but no scipy: each scipy import sits in
the function that calls it, so a command loads only the scipy submodules of
the models it runs, and a module-level scipy import is a start-up regression.
"""

from .arima import ArimaModel, arima_fit, arima_forecast, arima_one_step
from .evaluation import (
    MODE_ONE_STEP,
    MODE_RECURSIVE,
    EvalRecord,
    EvaluationReport,
    Metrics,
    ModelSpec,
    SplitSpec,
    benchmark,
    default_specs,
    evaluate,
    metrics,
    spec_for,
)
from .ingest import (
    DatasetSchema,
    infer_schema,
    read_energy_csv,
    read_weather,
    write_energy_csv,
)
from .regressors import (
    ForecastModel,
    GpModel,
    KnnModel,
    MlpModel,
    OlsModel,
    SvrModel,
)
from .series import MultiSeries, TimeSeries, WeatherRecord, merge, resample
from .transform import (
    Decomposition,
    Scaler,
    SupervisedFrame,
    apply_scaler,
    decompose,
    difference,
    fit_scaler,
    invert_scaler,
    lag_embed,
    undifference,
)
from .var import VarModel, select_var_order, var_fit, var_forecast, var_one_step

__version__ = "0.1.0"

__all__ = [
    "TimeSeries",
    "MultiSeries",
    "WeatherRecord",
    "resample",
    "merge",
    "SupervisedFrame",
    "lag_embed",
    "difference",
    "undifference",
    "Decomposition",
    "decompose",
    "Scaler",
    "fit_scaler",
    "apply_scaler",
    "invert_scaler",
    "ForecastModel",
    "MODE_ONE_STEP",
    "MODE_RECURSIVE",
    "OlsModel",
    "KnnModel",
    "GpModel",
    "SvrModel",
    "MlpModel",
    "ArimaModel",
    "arima_fit",
    "arima_forecast",
    "arima_one_step",
    "VarModel",
    "var_fit",
    "var_forecast",
    "var_one_step",
    "select_var_order",
    "DatasetSchema",
    "infer_schema",
    "read_energy_csv",
    "read_weather",
    "write_energy_csv",
    "Metrics",
    "metrics",
    "SplitSpec",
    "ModelSpec",
    "spec_for",
    "default_specs",
    "evaluate",
    "benchmark",
    "EvalRecord",
    "EvaluationReport",
    "__version__",
]
