"""Property test for the command line: on small energy CSVs with odd values
(constant, near 1e302 or ±1e308, tiny, negative, missing), gaps, repeated
stamps and bodies of blank rows, every command and model ends ``main`` with
a documented exit code, lets no exception escape, raises no numpy
``RuntimeWarning`` (whose text would reach stderr), writes only finite
forecasts, and reports every ``ok`` benchmark cell with a finite RMSE and
MAE. ``main`` runs in process; its output goes to files under a temporary
directory, its diagnostics to a buffer. On meter-shaped exports
(``;``-separated, a text column first, epoch stamps, missing rows) every
drawn call gives the same exit code, diagnostics and output bytes with the
compiled CSV pass and without it. Drawn ``--timestamp-column`` and
``--value-column`` names (header names, indices, digits ``int`` does or does
not read, unknown names) and config files (``key = value`` lines and
undecodable bytes, given by ``--config`` or ``WATTCAST_CONFIG``) also end
``main`` with a documented exit code.
"""

import contextlib
import csv
import io
import os
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import wattcast.ingest as ingest  # noqa: E402
from wattcast.cli import main  # noqa: E402
from wattcast.evaluation import MODE_ONE_STEP, MODE_RECURSIVE, MODELS  # noqa: E402

EXIT_CODES = (0, 2, 3, 4, 5)
START = 1_600_000_000
HOUR = 3600
# reading scales: ordinary, where squares overflow, at the top of the float
# range (where sums overflow), near the bottom
SCALES = (1.0, 1e302, 1e308, -1e308, 1e-300, -50.0)


@st.composite
def energy_files(draw):
    """The text of an hourly ``timestamp,value`` CSV of 1 to 200 rows."""
    n = draw(st.integers(1, 200))
    if draw(st.integers(0, 9)) == 9:  # a header and blank rows only
        return "timestamp,value\n" + "\n , \n" * draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from(SCALES))
    shape = draw(st.sampled_from(["constant", "noise", "cycle"]))
    if shape == "constant":
        values = np.full(n, scale)
    elif shape == "noise":
        values = scale * (1 + 0.1 * rng.standard_normal(n))
    else:
        values = scale * (1 + 0.5 * np.sin(2 * np.pi * np.arange(n) / 24))
    cells = [repr(float(v)) for v in values]
    for k in draw(st.sets(st.integers(0, n - 1), max_size=n // 10 + 1)):
        cells[k] = "NaN"
    dropped = draw(st.sets(st.integers(1, max(1, n - 2)), max_size=n // 5))
    rows = [(h, cell) for h, cell in enumerate(cells) if h not in dropped]
    if len(rows) > 1 and draw(st.integers(0, 4)) == 4:
        k = draw(st.integers(1, len(rows) - 1))
        rows[k] = (rows[k - 1][0], rows[k][1])  # a repeated stamp
    return "timestamp,value\n" + "".join(f"{START + HOUR * h},{cell}\n" for h, cell in rows)


@st.composite
def meter_exports(draw):
    """The text of a meter export: ``site;unix_time;energy``, 15-minute or
    hourly epoch stamps, whole or ``repr`` readings, missing rows, LF or
    CRLF; now and then a cell the compiled pass declines."""
    n = draw(st.integers(1, 200))
    step = draw(st.sampled_from([900, HOUR]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from(SCALES))
    with np.errstate(over="ignore"):  # written as "inf", which the reader refuses
        values = scale * (1 + 0.5 * np.sin(2 * np.pi * np.arange(n) / 24)
                          + 0.1 * rng.standard_normal(n))
    whole = draw(st.booleans()) and scale == 1.0
    cells = [str(int(1000 * v)) if whole else repr(float(v)) for v in values]
    if draw(st.integers(0, 4)) == 4:
        cells[draw(st.integers(0, n - 1))] = draw(st.sampled_from(["NaN", " 5", "1e400", ""]))
    dropped = draw(st.sets(st.integers(1, max(1, n - 2)), max_size=n // 5))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return "site;unix_time;energy" + ending + "".join(
        f"HH-0001;{START + step * i};{cell}{ending}"
        for i, cell in enumerate(cells) if i not in dropped)


@st.composite
def invocations(draw):
    """(argv without ``--input`` and the output flag, the output flag)."""
    command = draw(st.sampled_from(["forecast", "benchmark", "resample", "decompose"]))
    epochs = ["--mlp-epochs", str(draw(st.integers(1, 5)))]
    if command == "forecast":
        model = draw(st.sampled_from(MODELS))
        argv = [command, "--model", model, "--p", str(draw(st.integers(1, 4))),
                "--horizon", str(draw(st.integers(1, 3))), *epochs]
        if model == "arima":
            argv += ["--d", str(draw(st.integers(0, 1))), "--q", str(draw(st.integers(0, 1)))]
        return argv, "--out"
    if command == "benchmark":
        models = draw(st.lists(st.sampled_from(MODELS), min_size=1, max_size=2, unique=True))
        mode = draw(st.sampled_from([MODE_ONE_STEP, MODE_RECURSIVE]))
        return [command, "--models", ",".join(models), "--p", str(draw(st.integers(1, 4))),
                "--arima-p", "1", "--splits", draw(st.sampled_from(["0.7", "0.5,0.8"])),
                "--mode", mode, *epochs], "--report"
    if command == "resample":
        return [command, "--interval", draw(st.sampled_from(["1h", "2h", "3h", "daily"])),
                "--agg", draw(st.sampled_from(["sum", "mean"]))], "--out"
    return [command, "--period", str(draw(st.integers(1, 24)))], "--out"


# column names: the header's, indices in and past the columns, digits that
# ``int`` reads ("١", an Arabic-Indic 1) or does not ("²", "--1"), unknown names
COLUMN_NAMES = ["timestamp", "value", "0", "1", "2", "-1", "--1", "\u0661", "\u00b2", "ts", ""]
# config lines: valid entries, a comment, a blank line, an unknown key, a
# malformed line, and undecodable bytes
CONFIG_LINES = [b"seed = 3\n", b"utc_offset = 1.5\n", b"no_header = no\n", b"# note\n", b"\n",
                b"timestamp_column = \xc2\xb2\n", b"bogus = 1\n", b"just words\n", b"\xff\n",
                b"seed = 3 \xe9\n", b"delimiter = ;\xc3"]


@st.composite
def schema_and_config(draw):
    """(column flags, config file bytes or None, whether the environment
    names the file): the flags name both columns, or neither."""
    columns = []
    if draw(st.booleans()):
        names = draw(st.lists(st.sampled_from(COLUMN_NAMES), min_size=2, max_size=2))
        columns = [f"--timestamp-column={names[0]}", f"--value-column={names[1]}"]
    config = None
    if draw(st.booleans()):
        config = b"".join(draw(st.lists(st.sampled_from(CONFIG_LINES), max_size=3)))
    return columns, config, draw(st.booleans())


def _main(argv):
    """Exit code and diagnostics of one call of ``main``, failing the test
    when an exception escapes it or it raises a ``RuntimeWarning``."""
    diagnostics = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            with contextlib.redirect_stderr(diagnostics):
                code = main(argv)
        except Exception as exc:  # noqa: BLE001 - any escape is the failure
            pytest.fail(f"{argv}: {type(exc).__name__} escaped main: {exc}")
    runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not runtime, (argv, runtime)
    return code, diagnostics.getvalue()


@settings(derandomize=True, deadline=None, max_examples=150)
@given(text=energy_files(), invocation=invocations())
def test_documented_exit_code_and_finite_forecast(text, invocation):
    argv, out_flag = invocation
    with tempfile.TemporaryDirectory() as tmp:
        source, out = Path(tmp) / "energy.csv", Path(tmp) / "out"
        source.write_text(text, encoding="utf-8")
        code, diagnostics = _main([*argv, "--input", str(source), out_flag, str(out)])
        assert code in EXIT_CODES, (argv, code, diagnostics)
        if argv[0] == "forecast" and code == 0:
            with open(out, newline="", encoding="utf-8") as fh:
                values = [float(row["value"]) for row in csv.DictReader(fh)]
            assert values and np.isfinite(values).all(), (argv, values)
        if argv[0] == "benchmark" and out.exists():
            rows = [line.split("\t") for line in out.read_text(encoding="utf-8").splitlines()
                    if not line.startswith("#")]
            header, *cells = [row for row in rows if len(row) == 11]
            for cell in cells:
                if cell[header.index("status")] == "ok":
                    scores = [float(cell[header.index(name)]) for name in ("rmse", "mae")]
                    assert np.isfinite(scores).all(), (argv, cell)


def _run(argv, source, out):
    """Exit code, diagnostics and output bytes of one call of ``main``."""
    code, diagnostics = _main([*argv, "--input", str(source), out[0], str(out[1])])
    written = out[1].read_bytes() if out[1].exists() else None
    out[1].unlink(missing_ok=True)
    return code, diagnostics, written


@settings(derandomize=True, deadline=None, max_examples=20)
@given(text=meter_exports(), invocation=invocations())
def test_meter_export_same_with_and_without_the_compiled_pass(text, invocation):
    argv, out_flag = invocation
    with tempfile.TemporaryDirectory() as tmp:
        source, out = Path(tmp) / "energy.csv", (out_flag, Path(tmp) / "out")
        source.write_bytes(text.encode())
        compiled = _run(argv, source, out)
        with mock.patch.object(ingest, "_load_kernel", lambda: None):
            assert _run(argv, source, out) == compiled
    assert compiled[0] in EXIT_CODES, (argv, compiled)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(text=energy_files(), drawn=schema_and_config(),
       command=st.sampled_from([["resample", "--interval", "2h"],
                                ["decompose", "--period", "24"]]))
def test_column_names_and_config_bytes_end_in_a_documented_exit(text, drawn, command):
    columns, config, from_env = drawn
    with tempfile.TemporaryDirectory() as tmp:
        source, cfg = Path(tmp) / "energy.csv", Path(tmp) / "run.cfg"
        source.write_text(text, encoding="utf-8")
        argv = [*command, *columns, "--input", str(source), "--out", str(Path(tmp) / "out")]
        env = {}
        if config is not None:
            cfg.write_bytes(config)
            if from_env:
                env["WATTCAST_CONFIG"] = str(cfg)
            else:
                argv += ["--config", str(cfg)]
        with mock.patch.dict(os.environ, env):
            code, diagnostics = _main(argv)
    assert code in EXIT_CODES, (argv, config, code, diagnostics)
