from .base import ForecastModel
from .baseline import MeanModel
from .gaussian_process import GpModel
from .linear import OlsModel, solve_normal_equations
from .mlp import MlpModel, default_hidden
from .neighbors import KnnModel
from .svr import SvrModel, dual_objective

__all__ = [
    "ForecastModel",
    "GpModel",
    "KnnModel",
    "MeanModel",
    "MlpModel",
    "OlsModel",
    "SvrModel",
    "default_hidden",
    "dual_objective",
    "solve_normal_equations",
]
