"""Run the walk-throughs in ``demos/`` in-process, so API drift breaks a test.

Demos 01-04 must leave nothing in the temporary directory. Demo 05 runs the
benchmark protocol and keeps its output directory for the reader to open,
so its test checks what that directory holds.
"""

import runpy
import tempfile
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def run_demo(name, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out.strip()


@pytest.mark.parametrize("name", ["01_ingest_and_resample", "02_preprocessing",
                                  "03_regressor_tour", "04_classical_models"])
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    run_demo(name, tmp_path, monkeypatch, capsys)
    assert not any(tmp_path.iterdir())  # temporary files are removed


def test_benchmark_demo_writes_its_reports(tmp_path, monkeypatch, capsys):
    run_demo("05_benchmark_protocol", tmp_path, monkeypatch, capsys)
    (workdir,) = tmp_path.iterdir()
    assert workdir.name.startswith("wattcast-demo-")
    assert sorted(p.name for p in workdir.iterdir()) == ["forecast.svg", "report.json",
                                                        "report.txt"]
    assert (workdir / "report.txt").read_text().startswith("# wattcast benchmark report")
    assert (workdir / "forecast.svg").read_text().startswith("<svg")
