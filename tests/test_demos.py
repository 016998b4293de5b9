"""Run the walk-throughs in ``demos/`` in-process, so API drift breaks a test.

Each must leave nothing in the temporary directory. Demo 05 repeats the
acceptance sweep (``tests/test_acceptance.py``) and is left out for its
running time; it keeps its output directory for the reader to open.
"""

import runpy
import tempfile
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_ingest_and_resample", "02_preprocessing",
                                  "03_regressor_tour", "04_classical_models"])
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out.strip()
    assert not any(tmp_path.iterdir())  # temporary files are removed
