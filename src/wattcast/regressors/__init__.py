from .base import ForecastModel
from .gaussian_process import GpModel
from .linear import OlsModel, solve_normal_equations
from .mlp import MlpModel, default_hidden
from .neighbors import KnnModel
from .svr import SvrModel

__all__ = [
    "ForecastModel",
    "GpModel",
    "KnnModel",
    "MlpModel",
    "OlsModel",
    "SvrModel",
    "default_hidden",
    "solve_normal_equations",
]
