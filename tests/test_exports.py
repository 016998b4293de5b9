"""The public surface: every exported name resolves."""

import pytest

import wattcast
import wattcast.regressors


@pytest.mark.parametrize("module", [wattcast, wattcast.regressors],
                         ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"
    assert len(set(module.__all__)) == len(module.__all__)


def test_regressors_export_models_and_shared_helpers_only():
    # test-only helpers (the SVR dual objective) live in the tests
    assert sorted(wattcast.regressors.__all__) == [
        "ForecastModel", "GpModel", "KnnModel", "MlpModel", "OlsModel",
        "SvrModel", "default_hidden", "solve_normal_equations"]
