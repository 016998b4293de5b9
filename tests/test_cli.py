"""End-to-end tests for the command-line interface."""

import argparse
import csv
import inspect
import io
import json
from datetime import datetime, timezone
from types import SimpleNamespace

import numpy as np
import pytest

from wattcast.arima import arima_fit, arima_forecast
import wattcast.cli as cli
from wattcast.cli import _add_common, _add_hyper, build_parser, main, parse_interval
import wattcast.regressors.base as regressor_base
from wattcast.errors import ConfigError
from wattcast.evaluation import FAMILIES
from wattcast.ingest import _format_timestamp, read_energy_csv, write_columns, write_energy_csv
from wattcast.regressors import GpModel, KnnModel, MlpModel, OlsModel, SvrModel
from wattcast.series import TimeSeries
from wattcast.synthetic import arma_series
from wattcast.transform import decompose, lag_embed
from wattcast.var import var_fit, var_forecast

HOUR = 3600.0


def _reference_decompose_csv(s, parts):
    """The per-row text ``decompose`` wrote before the column writer: the oracle."""
    def cell(x):
        return "NaN" if np.isnan(x) else repr(float(x))

    lines = ["timestamp,value,trend,seasonal,residual"]
    for i in range(len(s)):
        stamp = _format_timestamp(s.start + i * s.interval)
        lines.append(",".join([stamp, cell(s.values[i]), cell(parts.trend[i]),
                               cell(parts.seasonal[i]), cell(parts.residual[i])]))
    return "\n".join(lines) + "\n"


@pytest.fixture
def hourly_csv(tmp_path):
    path = tmp_path / "energy.csv"
    write_energy_csv(path, arma_series(200, ar=(0.6,), intercept=2.0,
                                       noise_sd=0.5, seed=1))
    return path


@pytest.fixture
def huge_csv(tmp_path):
    """30 hourly readings near 1e302: their squares overflow float64."""
    path = tmp_path / "huge.csv"
    write_energy_csv(path, TimeSeries(0.0, HOUR, (1 + 0.01 * (7 * np.arange(30) % 13)) * 1e302))
    return path


@pytest.fixture
def quarter_csv(tmp_path):
    values = np.arange(96.0)  # one day at 15 minutes
    path = tmp_path / "meter.csv"
    write_energy_csv(path, TimeSeries(0.0, 900.0, values))
    return path


class TestParseInterval:
    def test_units(self):
        assert parse_interval("15m") == 900.0
        assert parse_interval("1h") == HOUR
        assert parse_interval("3h") == 3 * HOUR
        assert parse_interval("1d") == 86400.0
        assert parse_interval("daily") == 86400.0

    def test_rejects_garbage(self):
        for bad in ("50x", "h", "1.5h", "0m", "", "monthly"):
            with pytest.raises(ConfigError):
                parse_interval(bad)


class TestForecast:
    def test_steps_past_year_9999_are_refused_before_fitting(self, tmp_path, monkeypatch,
                                                             capsys):
        path = tmp_path / "late.csv"
        last = datetime(9999, 12, 31, 21, tzinfo=timezone.utc).timestamp()
        write_energy_csv(path, TimeSeries(last - 47 * 3600.0, 3600.0, np.arange(48.0)))

        def never(*args, **kwargs):
            raise AssertionError("a model was fitted")

        monkeypatch.setattr(cli, "fit_forecast", never)
        out = tmp_path / "fc.csv"
        code = main(["forecast", "--model", "ols", "--p", "3", "--horizon", "24",
                     "--input", str(path), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "wattcast: configuration error: a 24-step forecast passes year 9999; "
            "2 steps fit after the input's last timestamp\n")
        assert not out.exists()
        monkeypatch.undo()
        assert main(["forecast", "--model", "ols", "--p", "3", "--horizon", "2",
                     "--input", str(path), "--out", str(out)]) == 0
        assert read_energy_csv(out).timestamps[-1] == last + 2 * 3600.0

    def test_arima_golden_against_library(self, hourly_csv, tmp_path):
        out = tmp_path / "fc.csv"
        code = main(["forecast", "--model", "arima", "--p", "1", "--d", "1",
                     "--q", "0", "--horizon", "24",
                     "--input", str(hourly_csv), "--out", str(out)])
        assert code == 0
        produced = read_energy_csv(out)
        assert len(produced) == 24

        history = read_energy_csv(hourly_csv)
        expected = arima_forecast(arima_fit(history, 1, 1, 0), history, 24)
        np.testing.assert_array_equal(produced.values, expected)
        # timestamps continue the input grid
        assert produced.start == history.start + len(history) * history.interval
        assert produced.interval == history.interval

    def test_zero_horizon_is_config_error(self, hourly_csv):
        assert main(["forecast", "--horizon", "0",
                     "--input", str(hourly_csv)]) == 2

    @pytest.mark.parametrize("flags, message", [
        (["--model", "ols", "--p", "0"], "lag order must be >= 1, got 0"),
        (["--model", "mlp", "--seed", "-1"], "model 'mlp': seed must be >= 0"),
        (["--model", "gp", "--gp-length-scale", "1e308"],
         "model 'gp': signal_var and length_scale must be positive and finite"),
        (["--model", "mlp", "--p", "3", "--mlp-hidden", str(10 ** 18)],
         "an MLP of 1000000000000000000 hidden units needs 149011611938.5 GiB; "),
    ])
    def test_invalid_value_is_config_error_before_any_output(self, hourly_csv, tmp_path,
                                                              capsys, flags, message):
        out = tmp_path / "fc.csv"
        assert main(["forecast", *flags, "--input", str(hourly_csv), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"wattcast: configuration error: {message}")
        assert not out.exists()

    def test_missing_input_is_config_error(self):
        assert main(["forecast", "--model", "ols"]) == 2

    def test_nonexistent_file_is_data_error(self, tmp_path):
        assert main(["forecast", "--input", str(tmp_path / "nope.csv")]) == 3

    def test_every_model_family_runs(self, hourly_csv, tmp_path):
        # every hyperparameter flag at a non-default value; each family's
        # forecast must equal a direct library fit with the same values
        flags = ["--p", "4", "--d", "1", "--q", "1", "--seed", "7",
                 "--knn-k", "5", "--gp-signal-var", "2.0",
                 "--gp-length-scale", "3.0", "--gp-noise-var", "0.1",
                 "--svr-c", "3.0", "--svr-epsilon", "0.05", "--svr-gamma", "0.2",
                 "--mlp-hidden", "3", "--mlp-lr", "0.1", "--mlp-momentum", "0.5",
                 "--mlp-epochs", "30"]
        history = read_energy_csv(hourly_csv)
        frame = lag_embed(history, 4)
        regressors = {
            "ols": OlsModel(),
            "knn": KnnModel(k=5),
            "gp": GpModel(signal_var=2.0, length_scale=3.0, noise_var=0.1),
            "svr": SvrModel(C=3.0, epsilon=0.05, gamma=0.2),
            "mlp": MlpModel(hidden=3, lr=0.1, momentum=0.5, epochs=30, seed=7),
        }
        expected = {name: model.fit(frame).predict_series(history.values, 6)
                    for name, model in regressors.items()}
        expected["arima"] = arima_forecast(arima_fit(history, 4, 1, 1), history, 6)
        expected["var"] = var_forecast(var_fit(history, 4), history, 6)[:, 0]
        for model, values in expected.items():
            out = tmp_path / f"{model}.csv"
            code = main(["forecast", "--model", model, *flags, "--horizon", "6",
                         "--input", str(hourly_csv), "--out", str(out)])
            assert code == 0, model
            produced = read_energy_csv(out)
            assert len(produced) == 6
            np.testing.assert_array_equal(produced.values, values, err_msg=model)

    def test_repeat_run_is_byte_identical(self, hourly_csv, tmp_path):
        outs, plots = [], []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.csv"
            plot = tmp_path / f"{tag}.svg"
            code = main(["forecast", "--model", "mlp", "--p", "4",
                         "--mlp-epochs", "50", "--horizon", "8", "--seed", "7",
                         "--input", str(hourly_csv),
                         "--out", str(out), "--plot", str(plot)])
            assert code == 0
            outs.append(out.read_bytes())
            plots.append(plot.read_bytes())
        assert outs[0] == outs[1]
        assert plots[0] == plots[1]

    def test_plot_is_svg(self, hourly_csv, tmp_path):
        plot = tmp_path / "fc.svg"
        main(["forecast", "--model", "ols", "--p", "3", "--horizon", "6",
              "--input", str(hourly_csv), "--plot", str(plot),
              "--out", str(tmp_path / "fc.csv")])
        assert plot.read_text().startswith("<svg")

    def test_defaults_to_stdout(self, hourly_csv, capsys):
        code = main(["forecast", "--model", "ols", "--p", "3", "--horizon", "2",
                     "--input", str(hourly_csv)])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("timestamp,value\n")
        assert len(captured.out.strip().splitlines()) == 3

    @pytest.mark.parametrize("model", ["gp", "mlp", "svr"])
    def test_overflowing_standardization_is_data_error_exit_3(self, huge_csv, tmp_path,
                                                              capsys, recwarn, model):
        out = tmp_path / "fc.csv"
        for horizon in ("1", "2"):
            code = main(["forecast", "--model", model, "--p", "3", "--horizon", horizon,
                         "--input", str(huge_csv), "--out", str(out)])
            assert code == 3
            # no numpy RuntimeWarning reaches stderr before the error
            assert capsys.readouterr().err == (
                "wattcast: data error: NumericOverflow: the mean or standard deviation "
                "of the values to standardize overflows float64\n")
            assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
            assert not out.exists()

    def test_non_finite_forecast_is_model_error_exit_4(self, hourly_csv, tmp_path, capsys,
                                                        monkeypatch):
        monkeypatch.setattr(OlsModel, "_predict", lambda self, X: np.full(len(X), np.nan))
        out = tmp_path / "fc.csv"
        for horizon in ("1", "2"):  # the first prediction is not fed back
            code = main(["forecast", "--model", "ols", "--p", "3", "--horizon", horizon,
                         "--input", str(hourly_csv), "--out", str(out)])
            assert code == 4
            assert capsys.readouterr().err.endswith(
                "wattcast: model error: NonFinitePrediction: prediction at step 0 is not finite\n")
            assert not out.exists()

    @pytest.mark.parametrize("model", ["ols", "var", "arima"])
    def test_overflowing_normal_equations_are_data_error_exit_3(self, huge_csv, tmp_path,
                                                                capsys, recwarn, model):
        out = tmp_path / "fc.csv"
        for horizon in ("1", "2"):
            code = main(["forecast", "--model", model, "--p", "3", "--horizon", horizon,
                         "--input", str(huge_csv), "--out", str(out)])
            assert code == 3
            # no numpy RuntimeWarning reaches stderr before the error
            assert capsys.readouterr().err == (
                "wattcast: data error: NumericOverflow: the normal equations overflow: "
                "the design's sums of products are not finite\n")
            assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
            assert not out.exists()

    def test_out_of_memory_is_model_error_exit_4(self, hourly_csv, monkeypatch, capsys):
        def exhausted(self, X, y):
            raise MemoryError("kernel matrix too large")

        monkeypatch.setattr(GpModel, "_fit", exhausted)
        code = main(["forecast", "--model", "gp", "--p", "3", "--horizon", "2",
                     "--input", str(hourly_csv)])
        assert code == 4
        assert capsys.readouterr().err == (
            "wattcast: model error: MemoryError: kernel matrix too large\n")

    def test_kernel_larger_than_memory_exit_4(self, hourly_csv, monkeypatch, capsys):
        monkeypatch.setattr(regressor_base, "physical_memory", lambda: 1 << 16)
        code = main(["forecast", "--model", "gp", "--p", "3", "--horizon", "2",
                     "--input", str(hourly_csv)])
        assert code == 4
        assert capsys.readouterr().err.startswith(
            "wattcast: model error: KernelTooLarge: a kernel matrix over 197 training rows")

    def test_kernel_larger_than_memory_fails_its_cells(self, hourly_csv, monkeypatch,
                                                       tmp_path):
        monkeypatch.setattr(regressor_base, "physical_memory", lambda: 1 << 16)
        out_json = tmp_path / "report.json"
        code = main(["benchmark", "--input", str(hourly_csv), "--models", "gp,svr,ols",
                     "--p", "3", "--splits", "0.8", "--report", str(tmp_path / "r.txt"),
                     "--json", str(out_json)])
        assert code == 0
        errors = {r["model"]: r["error"] for r in json.loads(out_json.read_text())["records"]}
        assert errors["ols"] is None
        assert errors["gp"].startswith("KernelTooLarge: ")
        assert errors["svr"].startswith("KernelTooLarge: ")

    def test_sparse_grid_larger_than_memory_exit_3(self, tmp_path, capsys):
        # 21 rows a second apart, bar the last, which lies 10^11 s after the first
        path = tmp_path / "sparse.csv"
        seconds = list(range(20)) + [10 ** 11]
        path.write_text("t,v\n" + "".join(f"{1_599_998_400 + s},1.5\n" for s in seconds))
        code = main(["resample", "--input", str(path), "--timestamp-column", "t",
                     "--value-column", "v", "--timestamp-format", "epoch",
                     "--interval", "1d", "--out", str(tmp_path / "daily.csv")])
        assert code == 3
        assert capsys.readouterr().err.startswith(
            "wattcast: data error: GridTooLarge: 2020-09-13T12:00:00Z to 5189-07-29T21:46:40Z "
            "at 1s is a grid of 100000000001 slots")
        assert not (tmp_path / "daily.csv").exists()

    def test_duplicate_timestamps_exit_3(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("t,v\n"
                        "1970-01-01T00:00:00Z,1.0\n"
                        "1970-01-01T01:00:00Z,2.0\n"
                        "1970-01-01T01:00:00Z,3.0\n")
        assert main(["forecast", "--input", str(path), "--timestamp-column", "t",
                     "--value-column", "v"]) == 3

    # a quoted cell sends the file past the columnar reader to csv.reader
    @pytest.mark.parametrize("value", ["1", '"1"'], ids=["columnar", "csv_reader"])
    def test_duplicate_stamp_past_year_9999_is_a_parse_error(self, tmp_path, capsys, value):
        # 10^14 s after the epoch is in the year 3170843, which no CSV can hold
        path = tmp_path / "far.csv"
        path.write_text(f"t,v\n{10 ** 14},{value}\n{10 ** 14 + 3600},2\n{10 ** 14 + 3600},3\n")
        assert main(["forecast", "--input", str(path), "--timestamp-column", "t",
                     "--value-column", "v", "--timestamp-format", "epoch"]) == 3
        assert capsys.readouterr().err == (
            "wattcast: data error: ParseError: line 2: bad timestamp '100000000000000' "
            "(outside years 1 to 9999)\n")


class TestSchemaFlags:
    COLUMNS = ["--timestamp-column", "timestamp", "--value-column", "value"]

    @pytest.mark.parametrize("columns", [[], COLUMNS], ids=["inferred", "explicit"])
    def test_empty_delimiter_exit_2(self, hourly_csv, columns):
        assert main(["resample", "--input", str(hourly_csv), "--interval", "2h",
                     "--delimiter", "", *columns]) == 2

    @pytest.mark.parametrize("delimiter", [";;", '"', "\n"])
    @pytest.mark.parametrize("columns", [[], COLUMNS], ids=["inferred", "explicit"])
    def test_unsplittable_delimiter_exit_2(self, hourly_csv, columns, delimiter, capsys):
        assert main(["resample", "--input", str(hourly_csv), "--interval", "2h",
                     "--delimiter", delimiter, *columns]) == 2
        assert "configuration error: schema delimiter must be one character" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("columns", [[], COLUMNS], ids=["inferred", "explicit"])
    def test_empty_timestamp_format_exit_2(self, hourly_csv, columns):
        assert main(["resample", "--input", str(hourly_csv), "--interval", "2h",
                     "--timestamp-format", "", *columns]) == 2

    @pytest.mark.parametrize("offset", ["30", "nan", "-24"])
    def test_utc_offset_outside_a_day_exit_2(self, hourly_csv, offset, capsys):
        assert main(["resample", "--input", str(hourly_csv), "--interval", "2h",
                     "--utc-offset", offset]) == 2
        assert "configuration error: UTC offset" in capsys.readouterr().err

    @pytest.mark.parametrize("columns", [[], ["--timestamp-column", "t", "--value-column", "v"]],
                             ids=["inferred", "explicit"])
    def test_delimiter_outside_the_sniffed_set(self, tmp_path, columns):
        # inference splits on --delimiter instead of sniffing , ; tab |
        path = tmp_path / "section.csv"
        path.write_text("t§v\n" + "".join(f"1970-01-01T0{h}:00:00Z§{h}\n" for h in range(4)),
                        encoding="utf-8")
        out = tmp_path / "out.csv"
        assert main(["resample", "--input", str(path), "--interval", "2h",
                     "--delimiter", "§", *columns, "--out", str(out)]) == 0
        assert read_energy_csv(out).values.tolist() == [1.0, 5.0]

    def test_one_column_flag_alone_exit_2(self, hourly_csv):
        assert main(["resample", "--input", str(hourly_csv), "--interval", "2h",
                     "--timestamp-column", "timestamp"]) == 2

    @pytest.mark.parametrize("columns", [["--timestamp-column", "0", "--value-column", "1"],
                                         []], ids=["explicit", "inferred"])
    def test_flags_override_either_schema(self, tmp_path, columns):
        path = tmp_path / "headerless.csv"
        path.write_text("1970-01-01T02:00:00;1\n1970-01-01T03:00:00;2\n"
                        "1970-01-01T04:00:00;3\n1970-01-01T05:00:00;4\n")
        out = tmp_path / "out.csv"
        code = main(["resample", "--input", str(path), "--interval", "2h",
                     "--delimiter", ";", "--no-header", "--utc-offset", "2",
                     "--timestamp-format", "iso", *columns, "--out", str(out)])
        assert code == 0
        produced = read_energy_csv(out)
        assert produced.start == 0.0
        assert produced.values.tolist() == [3.0, 7.0]


class TestBenchmark:
    def records(self, text):
        lines = [l for l in text.splitlines() if l and not l.startswith("#")]
        return [l for l in lines[1:] if l.split("\t")[0].isidentifier()]

    def test_five_models_three_splits_fifteen_records(self, hourly_csv, tmp_path):
        report = tmp_path / "report.txt"
        code = main(["benchmark", "--input", str(hourly_csv),
                     "--models", "ols,knn,gp,arima,var", "--p", "4",
                     "--splits", "0.6,0.7,0.8", "--report", str(report)])
        assert code == 0
        assert len(self.records(report.read_text())) == 15

    def test_empty_model_list_exit_2(self, hourly_csv):
        assert main(["benchmark", "--input", str(hourly_csv),
                     "--models", ""]) == 2

    @pytest.mark.parametrize("flags", [["--models", "ols,mlp", "--mlp-momentum", "1.5"],
                                       ["--models", "mlp", "--mlp-hidden", "0"]],
                             ids=["momentum", "hidden"])
    def test_invalid_hyperparameter_exit_2(self, hourly_csv, tmp_path, flags):
        report = tmp_path / "report.txt"
        assert main(["benchmark", "--input", str(hourly_csv), *flags,
                     "--report", str(report)]) == 2
        assert not report.exists()

    @pytest.mark.parametrize("flag", ["--p=-1", "--horizon=0", "--jobs=0"])
    def test_option_below_one_exit_2_before_any_cell(self, hourly_csv, tmp_path,
                                                     capsys, flag):
        report = tmp_path / "report.txt"
        assert main(["benchmark", "--input", str(hourly_csv), "--models", "ols",
                     flag, "--report", str(report)]) == 2
        name = flag[2:flag.index("=")]
        assert f"{name} must be >= 1" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("flags", [["--arima-p", "-1", "--models", "arima,ols"],
                                       ["--arima-p", "0", "--arima-q", "0", "--models", "arima"]],
                             ids=["negative", "zero"])
    def test_bad_arima_order_exit_2_before_any_cell(self, hourly_csv, tmp_path, flags):
        report = tmp_path / "report.txt"
        assert main(["benchmark", "--input", str(hourly_csv), *flags,
                     "--report", str(report)]) == 2
        assert not report.exists()

    def test_repeated_model_exit_2_before_any_cell(self, hourly_csv, tmp_path, capsys):
        report = tmp_path / "report.txt"
        assert main(["benchmark", "--input", str(hourly_csv), "--models", "ols,ols,knn",
                     "--report", str(report)]) == 2
        assert "model 'ols' is listed more than once" in capsys.readouterr().err
        assert not report.exists()

    def test_repeated_dataset_exit_2_before_any_cell(self, tmp_path, capsys):
        for folder, seed in (("a", 1), ("b", 2)):
            (tmp_path / folder).mkdir()
            write_energy_csv(tmp_path / folder / "x.csv",
                             arma_series(120, ar=(0.5,), noise_sd=0.4, seed=seed))
        report = tmp_path / "report.txt"
        assert main(["benchmark", "--input", str(tmp_path / "a" / "x.csv"),
                     "--input", str(tmp_path / "b" / "x.csv"), "--models", "ols,knn",
                     "--splits", "0.7", "--p", "6", "--report", str(report)]) == 2
        assert "dataset 'x' is listed more than once" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("intervals", ["native,1h", "2h,120m"])
    def test_intervals_with_one_key_run_once(self, hourly_csv, tmp_path, intervals):
        report = tmp_path / "report.txt"
        assert main(["benchmark", "--input", str(hourly_csv), "--models", "ols",
                     "--splits", "0.8", "--p", "3", "--intervals", intervals,
                     "--report", str(report)]) == 0
        rows = [line for line in report.read_text().splitlines()
                if line.startswith("ols\t")]
        assert len(rows) == 1

    def test_short_dataset_flags_only_the_failing_model(self, tmp_path):
        path = tmp_path / "short.csv"
        write_energy_csv(path, arma_series(60, ar=(0.5,), noise_sd=0.3, seed=3))
        report = tmp_path / "report.txt"
        out_json = tmp_path / "report.json"
        code = main(["benchmark", "--input", str(path), "--models", "knn,var",
                     "--p", "24", "--splits", "0.8", "--report", str(report),
                     "--json", str(out_json)])
        assert code == 0  # failed cells are recorded, not fatal
        payload = json.loads(out_json.read_text())
        by_model = {r["model"]: r for r in payload["records"]}
        assert by_model["knn"]["error"] is None
        assert "TooShort" in by_model["var"]["error"]

    def test_overflowing_cells_fail(self, huge_csv, tmp_path, recwarn):
        out_json = tmp_path / "report.json"
        code = main(["benchmark", "--input", str(huge_csv), "--models", "gp,knn",
                     "--p", "3", "--splits", "0.7", "--report", str(tmp_path / "r.txt"),
                     "--json", str(out_json)])
        assert code == 5
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        errors = {r["model"]: r["error"] for r in json.loads(out_json.read_text())["records"]}
        assert errors == {
            "gp": "NumericOverflow: the mean or standard deviation of the values to "
                  "standardize overflows float64",
            # knn predicts finite values, but the squares of its errors overflow
            "knn": "NumericOverflow: forecast errors overflow float64 (rmse inf, "
                   "mae 2.14815e+300, baseline 2.8381e+301)"}

    def test_models_failing_every_cell_have_no_overall_rank(self, huge_csv, tmp_path):
        report = tmp_path / "r.txt"
        code = main(["benchmark", "--input", str(huge_csv), "--models", "knn,ols",
                     "--p", "3", "--splits", "0.7", "--report", str(report)])
        assert code == 5
        overall = report.read_text().split("# overall ranking (mean rank across datasets)\n")
        assert overall[1] == "1\tknn\tNaN\n2\tols\tNaN\n"

    def test_non_finite_predictions_fail_their_cell(self, hourly_csv, tmp_path, monkeypatch):
        monkeypatch.setattr(GpModel, "_predict", lambda self, X: np.full(len(X), np.nan))
        out_json = tmp_path / "report.json"
        code = main(["benchmark", "--input", str(hourly_csv), "--models", "gp,knn",
                     "--p", "3", "--splits", "0.7", "--report", str(tmp_path / "r.txt"),
                     "--json", str(out_json)])
        assert code == 0
        errors = {r["model"]: r["error"] for r in json.loads(out_json.read_text())["records"]}
        assert errors == {"gp": "NonFinitePrediction: 60 of 60 predictions are not finite",
                          "knn": None}

    def test_all_cells_failed_exit_5(self, tmp_path):
        path = tmp_path / "short.csv"
        write_energy_csv(path, arma_series(60, ar=(0.5,), noise_sd=0.3, seed=3))
        code = main(["benchmark", "--input", str(path), "--models", "var",
                     "--p", "24", "--splits", "0.8",
                     "--report", str(path.with_suffix(".txt"))])
        assert code == 5

    def test_repeat_run_is_byte_identical(self, hourly_csv, tmp_path):
        blobs = []
        for tag in ("a", "b"):
            report = tmp_path / f"{tag}.txt"
            out_json = tmp_path / f"{tag}.json"
            code = main(["benchmark", "--input", str(hourly_csv),
                         "--models", "ols,mlp", "--p", "4",
                         "--mlp-epochs", "40", "--splits", "0.7,0.8",
                         "--seed", "5", "--report", str(report),
                         "--json", str(out_json)])
            assert code == 0
            blobs.append((report.read_bytes(), out_json.read_bytes()))
        assert blobs[0] == blobs[1]

    def test_jobs_flag_matches_serial(self, hourly_csv, tmp_path):
        texts, payloads = [], []
        for jobs in ("1", "2"):
            report, out_json = tmp_path / f"j{jobs}.txt", tmp_path / f"j{jobs}.json"
            code = main(["benchmark", "--input", str(hourly_csv),
                         "--models", "ols,knn", "--p", "3", "--splits", "0.8",
                         "--jobs", jobs, "--report", str(report), "--json", str(out_json)])
            assert code == 0
            text = report.read_text()
            texts.append(text.replace("jobs=2", "jobs=1"))
            payload = json.loads(out_json.read_text())
            assert payload["config"].pop("jobs") == int(jobs)
            payloads.append(payload)
        assert texts[0] == texts[1]
        assert payloads[0] == payloads[1]

    def test_intervals_flag_resamples(self, quarter_csv, tmp_path):
        report = tmp_path / "report.txt"
        code = main(["benchmark", "--input", str(quarter_csv),
                     "--models", "ols", "--p", "3", "--splits", "0.7",
                     "--intervals", "native,1h", "--report", str(report)])
        assert code == 0
        text = report.read_text()
        assert "meter[1h]" in text

    def test_report_embeds_resolved_config(self, hourly_csv, tmp_path):
        report = tmp_path / "report.txt"
        main(["benchmark", "--input", str(hourly_csv), "--models", "ols",
              "--p", "3", "--splits", "0.8", "--seed", "9",
              "--report", str(report)])
        text = report.read_text()
        assert "# config p=3" in text
        assert "# config seed=9" in text


class TestConfigFile:
    def test_file_supplies_flags(self, hourly_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("models = ols,knn\n"
                       "splits = 0.8\n"
                       "p = 3  # lag order\n"
                       "\n")
        report = tmp_path / "report.txt"
        code = main(["benchmark", "--input", str(hourly_csv),
                     "--config", str(cfg), "--report", str(report)])
        assert code == 0
        text = report.read_text()
        assert "# config p=3" in text
        models = {line.split("\t")[0] for line in text.splitlines()
                  if line.split("\t")[0] in ("ols", "knn", "gp")}
        assert models == {"ols", "knn"}

    def test_explicit_flag_beats_file(self, hourly_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("models = ols,knn\nsplits = 0.8\np = 3\n")
        report = tmp_path / "report.txt"
        main(["benchmark", "--input", str(hourly_csv), "--config", str(cfg),
              "--models", "ols", "--report", str(report)])
        lines = report.read_text().splitlines()
        assert not any(line.startswith("knn\t") for line in lines)

    @pytest.mark.parametrize("command, entry", [
        (["resample", "--interval", "1h"], "agg = median"),
        (["benchmark", "--models", "ols"], "mode = bogus"),
        (["forecast"], "model = nope"),
    ])
    def test_value_outside_the_flags_choices_rejected(self, hourly_csv, tmp_path, capsys,
                                                      command, entry):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(entry + "\n")
        out = tmp_path / "out"
        assert main([*command, "--input", str(hourly_csv), "--config", str(cfg),
                     "--report" if command[0] == "benchmark" else "--out", str(out)]) == 2
        key, value = entry.split(" = ")
        assert capsys.readouterr().err.startswith(
            f"wattcast: configuration error: config key {key!r}: {value!r} is not one of ")
        assert not out.exists()

    def test_unknown_key_rejected(self, hourly_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("modell = ols\n")
        assert main(["benchmark", "--input", str(hourly_csv),
                     "--config", str(cfg)]) == 2

    def test_malformed_line_rejected(self, hourly_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n")
        assert main(["benchmark", "--input", str(hourly_csv),
                     "--config", str(cfg)]) == 2

    def test_env_var_provides_default_path(self, hourly_csv, tmp_path,
                                           monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = ols\np = 3\nhorizon = 2\n")
        monkeypatch.setenv("WATTCAST_CONFIG", str(cfg))
        out = tmp_path / "fc.csv"
        code = main(["forecast", "--input", str(hourly_csv), "--out", str(out)])
        assert code == 0
        assert len(read_energy_csv(out)) == 2


    @pytest.mark.parametrize("word, code", [("yes", 3), ("no", 0), ("maybe", 2)])
    def test_boolean_entry(self, hourly_csv, tmp_path, capsys, word, code):
        # yes reads the header row "timestamp,value" as data, so the inferred
        # column name is not found
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"no_header = {word}\n")
        assert main(["resample", "--input", str(hourly_csv), "--interval", "1d",
                     "--config", str(cfg), "--out", str(tmp_path / "daily.csv")]) == code
        err = capsys.readouterr().err
        if word == "yes":
            assert "timestamp column 'timestamp' not found" in err
        if word == "maybe":
            assert "config key 'no_header': boolean expected, got 'maybe'" in err

    def test_list_entry_gives_every_input(self, tmp_path):
        for name, seed in (("a", 1), ("b", 2)):
            write_energy_csv(tmp_path / f"{name}.csv",
                             arma_series(120, ar=(0.6,), intercept=2.0, seed=seed))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input = {tmp_path / 'a.csv'}, {tmp_path / 'b.csv'}\n"
                       "models = ols\nsplits = 0.8\np = 3\n")
        report = tmp_path / "report.txt"
        assert main(["benchmark", "--config", str(cfg), "--report", str(report)]) == 0
        text = report.read_text()
        assert "# config datasets=['a', 'b']" in text
        assert "\nols\ta\t" in text and "\nols\tb\t" in text


class TestResample:
    def test_hourly_aggregation_quarters_length(self, quarter_csv, tmp_path):
        out = tmp_path / "hourly.csv"
        code = main(["resample", "--input", str(quarter_csv),
                     "--interval", "1h", "--out", str(out)])
        assert code == 0
        s = read_energy_csv(out)
        assert len(s) == 24
        assert s.interval == HOUR
        assert s.values[0] == 0.0 + 1.0 + 2.0 + 3.0  # default sum aggregate

    def test_mean_aggregate(self, quarter_csv, tmp_path):
        out = tmp_path / "hourly.csv"
        main(["resample", "--input", str(quarter_csv), "--interval", "1h",
              "--agg", "mean", "--out", str(out)])
        assert read_energy_csv(out).values[0] == 1.5

    def test_non_multiple_interval_exit_3(self, quarter_csv):
        assert main(["resample", "--input", str(quarter_csv),
                     "--interval", "50m"]) == 3

    @pytest.mark.parametrize("agg", ["sum", "mean"])
    def test_overflowing_window_is_data_error_exit_3(self, tmp_path, capsys, recwarn, agg):
        path = tmp_path / "top.csv"
        write_energy_csv(path, TimeSeries(0.0, HOUR, np.full(6, 1e308)))
        out = tmp_path / "out.csv"
        assert main(["resample", "--input", str(path), "--interval", "2h", "--agg", agg,
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"wattcast: data error: NumericOverflow: the {agg} of values 0 to 1 "
            "overflows float64\n")
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()

    def test_overflowing_interval_variant_fails_its_cells(self, tmp_path, recwarn):
        path = tmp_path / "top.csv"
        write_energy_csv(path, TimeSeries(0.0, HOUR, (1 + 0.25 * (np.arange(48) % 3)) * 1e308))
        out_json = tmp_path / "report.json"
        assert main(["benchmark", "--input", str(path), "--models", "knn",
                     "--intervals", "native,2h", "--p", "3", "--splits", "0.7",
                     "--report", str(tmp_path / "r.txt"), "--json", str(out_json)]) == 5
        errors = {r["dataset"]: r["error"] for r in json.loads(out_json.read_text())["records"]}
        assert errors == {
            "top": "NonFinitePrediction: 15 of 15 predictions are not finite",
            "top[2h]": "NumericOverflow: the mean of values 0 to 1 overflows float64"}
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_bad_interval_grammar_exit_2(self, quarter_csv):
        assert main(["resample", "--input", str(quarter_csv),
                     "--interval", "fortnight"]) == 2

    def test_daily_alias(self, quarter_csv, tmp_path):
        out = tmp_path / "daily.csv"
        code = main(["resample", "--input", str(quarter_csv),
                     "--interval", "daily", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2  # header + the single daily aggregate
        assert lines[1] == f"1970-01-01T00:00:00Z,{sum(range(96))!r}.0"


    @pytest.mark.parametrize("cell", ["inf", "-inf", "1e400"])
    def test_non_finite_value_is_a_data_error(self, tmp_path, capsys, cell):
        path = tmp_path / "meter.csv"
        path.write_text("timestamp,value\n1970-01-01T00:00:00Z,1\n"
                        f"1970-01-01T01:00:00Z,{cell}\n1970-01-01T02:00:00Z,3\n")
        assert main(["resample", "--input", str(path), "--interval", "2h"]) == 3
        assert (f"data error: ParseError: line 3: bad numeric value {cell!r}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("value", ["1", '"1"'], ids=["columnar", "csv_reader"])
    def test_stamp_past_year_9999_is_a_parse_error(self, tmp_path, capsys, value):
        path = tmp_path / "far.csv"
        path.write_text(f"t,v\n{10 ** 14 - 3600},{value}\n{10 ** 14},2\n{10 ** 14 + 3600},3\n")
        assert main(["resample", "--input", str(path), "--timestamp-column", "t",
                     "--value-column", "v", "--timestamp-format", "epoch",
                     "--interval", "2h", "--out", str(tmp_path / "out.csv")]) == 3
        assert capsys.readouterr().err == (
            "wattcast: data error: ParseError: line 2: bad timestamp '99999999996400' "
            "(outside years 1 to 9999)\n")
        assert not (tmp_path / "out.csv").exists()

    def test_nan_epoch_timestamp_is_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "meter.csv"
        path.write_text("t,v\n1000000000,1\nnan,2\n1000003600,3\n1000007200,4\n")
        assert main(["resample", "--input", str(path), "--timestamp-column", "t",
                     "--value-column", "v", "--timestamp-format", "epoch",
                     "--interval", "2h"]) == 3
        assert ("data error: ParseError: line 3: bad timestamp 'nan' (not finite)"
                in capsys.readouterr().err)


def _csv_lines(*lines):
    return b"".join(line + b"\n" for line in lines)


ROWS = [f"{_format_timestamp(HOUR * k)},{(7 * k) % 5}.5".encode() for k in range(48)]
HEADER = b"timestamp,value"
# (file bytes, the ParseError text the CLI reports)
ODD_FILES = {
    "not_utf8_in_the_header": (_csv_lines(HEADER + b" \xb0C", *ROWS),
                               "line 1: not UTF-8: byte 0xb0 (invalid start byte)"),
    "not_utf8_in_the_body": (_csv_lines(HEADER, *ROWS[:20], b"1970-01-01T20:00:00Z,K\xf6ln",
                                        *ROWS[21:]),
                             "line 22: not UTF-8: byte 0xf6 (invalid start byte)"),
    "quoted_field_longer_than_the_csv_limit": (
        _csv_lines(HEADER, *ROWS, b'1970-01-03T00:00:00Z,"' + b" " * csv.field_size_limit()
                   + b'1"'),
        "line 50: field larger than field limit (131072)"),
}
# a command that reads its input with each schema, writing to an --out file
READING_COMMANDS = {
    "resample": ["resample", "--interval", "2h"],
    "forecast_ols": ["forecast", "--model", "ols", "--p", "3", "--horizon", "2"],
}
SCHEMAS = {"inferred": [], "explicit": TestSchemaFlags.COLUMNS}


class TestOddInputFiles:
    @pytest.mark.parametrize("schema", sorted(SCHEMAS))
    @pytest.mark.parametrize("command", sorted(READING_COMMANDS))
    @pytest.mark.parametrize("blank", [b"\n", b"\r\n\n", b" , \n"])
    def test_blank_first_lines_change_no_output(self, tmp_path, command, schema, blank):
        outputs = []
        for name, data in (("plain", _csv_lines(HEADER, *ROWS)),
                           ("padded", blank + _csv_lines(HEADER, *ROWS))):
            path, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.out.csv"
            path.write_bytes(data)
            assert main([*READING_COMMANDS[command], *SCHEMAS[schema], "--input", str(path),
                         "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("schema", sorted(SCHEMAS))
    @pytest.mark.parametrize("command", sorted(READING_COMMANDS))
    @pytest.mark.parametrize("case", sorted(ODD_FILES))
    def test_odd_file_is_a_parse_error_at_its_line(self, tmp_path, capsys, case, command,
                                                    schema):
        data, message = ODD_FILES[case]
        path, out = tmp_path / "odd.csv", tmp_path / "out.csv"
        path.write_bytes(data)
        code = main([*READING_COMMANDS[command], *SCHEMAS[schema], "--input", str(path),
                     "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == f"wattcast: data error: ParseError: {message}\n"
        assert not out.exists()


@pytest.mark.usefixtures("writer")
class TestDecompose:
    def test_constant_series_has_zero_seasonal(self, tmp_path):
        path = tmp_path / "const.csv"
        write_energy_csv(path, TimeSeries(0.0, HOUR, np.full(72, 5.0)))
        out = tmp_path / "parts.csv"
        code = main(["decompose", "--input", str(path), "--period", "24",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "timestamp,value,trend,seasonal,residual"
        seasonal = [line.split(",")[3] for line in lines[1:]]
        assert set(seasonal) == {"0.0"}

    def test_components_reconstruct_value(self, tmp_path):
        path = tmp_path / "wave.csv"
        i = np.arange(96.0)
        write_energy_csv(path, TimeSeries(0.0, HOUR,
                                          10 + 0.1 * i + np.sin(2 * np.pi * i / 24)))
        out = tmp_path / "parts.csv"
        main(["decompose", "--input", str(path), "--period", "24",
              "--out", str(out)])
        for line in out.read_text().splitlines()[1:]:
            _, value, trend, seasonal, residual = line.split(",")
            if trend != "NaN":
                total = float(trend) + float(seasonal) + float(residual)
                assert total == pytest.approx(float(value), abs=1e-9)

    def test_plot_written(self, tmp_path):
        path = tmp_path / "wave.csv"
        i = np.arange(96.0)
        write_energy_csv(path, TimeSeries(0.0, HOUR, np.sin(2 * np.pi * i / 24)))
        plot = tmp_path / "parts.svg"
        code = main(["decompose", "--input", str(path), "--period", "24",
                     "--out", str(tmp_path / "parts.csv"), "--plot", str(plot)])
        assert code == 0
        assert plot.read_text().startswith("<svg")

    def test_csv_matches_reference_loop(self, tmp_path, capsys):
        path = tmp_path / "gappy.csv"
        i = np.arange(150.0)
        values = np.where(i % 37 == 5, np.nan, 10 + 0.1 * i + np.sin(2 * np.pi * i / 24))
        write_energy_csv(path, TimeSeries(-7200.0, 1800.0, values))
        out = tmp_path / "parts.csv"
        assert main(["decompose", "--input", str(path), "--period", "24",
                     "--out", str(out)]) == 0
        s = read_energy_csv(path)
        expected = _reference_decompose_csv(s, decompose(s, 24))
        assert out.read_bytes() == expected.encode()
        assert main(["decompose", "--input", str(path), "--period", "24"]) == 0
        assert capsys.readouterr().out == expected

    def test_column_writer_matches_reference_on_edge_values(self):
        s = TimeSeries(-0.0000015, 0.5, np.array([-0.0, 1e16, np.nan, 1e-5, 2.0]))
        parts = SimpleNamespace(trend=np.array([np.inf, -np.inf, 0.1, np.nan, -0.0]),
                                seasonal=np.array([1e-300, np.nan, np.nan, 3.0, 1 / 3]),
                                residual=np.array([np.nan, -1e16, 5e-324, 0.0, -2.5]))
        got = io.StringIO()
        write_columns(got, s.timestamps, {"value": s.values, "trend": parts.trend,
                                          "seasonal": parts.seasonal,
                                          "residual": parts.residual})
        assert got.getvalue() == _reference_decompose_csv(s, parts)

    def test_too_short_exit_3(self, tmp_path):
        path = tmp_path / "tiny.csv"
        write_energy_csv(path, TimeSeries(0.0, HOUR, np.arange(10.0)))
        assert main(["decompose", "--input", str(path), "--period", "24"]) == 3

    def test_bad_period_exit_2(self, tmp_path, capsys):
        path = tmp_path / "tiny.csv"
        write_energy_csv(path, TimeSeries(0.0, HOUR, np.arange(80.0)))
        assert main(["decompose", "--input", str(path), "--period", "1"]) == 2
        assert capsys.readouterr().err == (
            "wattcast: configuration error: period must be >= 2, got 1\n")


class TestHelp:
    def test_subcommand_help_documents_defaults(self, capsys):
        assert main(["forecast", "--help"]) == 0
        text = capsys.readouterr().out
        assert "(default: 24)" in text  # lag order
        assert "(default: 0.3)" in text  # mlp learning rate

    def test_hyperparameter_flags_are_the_registry_keys(self):
        # a key on one side only would be dropped by spec_for or by argparse
        parser = argparse.ArgumentParser()
        _add_hyper(parser)
        _add_common(parser)
        flags = set(vars(parser.parse_args([]))) - {"config"}
        assert flags == {key for family in FAMILIES.values() for _, key, *_ in family.params}

    @pytest.mark.parametrize("command", ["forecast", "benchmark"])
    def test_hyperparameter_help_quotes_the_constructor_default(self, command):
        derived = {"svr_gamma": "(default: 1 / (n_features * var(X)))",
                   "mlp_hidden": "(default: ceil((n_features + 1) / 2))"}
        helps = {action.dest: action.help for action in build_parser()[1][command]}
        none_defaults = set()
        for family in FAMILIES.values():
            for arg, key, *_ in family.params:
                if key == "seed":
                    continue
                default = inspect.signature(family.model).parameters[arg].default
                if default is None:
                    none_defaults.add(key)
                assert helps[key].endswith(derived.get(key, f"(default: {default})")), key
        assert none_defaults == set(derived)

    def test_integer_flag_refuses_a_fraction(self, hourly_csv, capsys):
        assert main(["forecast", "--input", str(hourly_csv), "--model", "knn",
                     "--knn-k", "2.5"]) == 2
        assert "invalid int value: '2.5'" in capsys.readouterr().err

    def test_svr_gamma_reaches_the_model_as_a_float(self, hourly_csv, tmp_path, monkeypatch):
        made, real = [], cli.fit_forecast

        def spy(spec, *args, **kwargs):
            made.append(spec.make())
            return real(spec, *args, **kwargs)

        monkeypatch.setattr(cli, "fit_forecast", spy)
        assert main(["forecast", "--input", str(hourly_csv), "--model", "svr", "--p", "4",
                     "--svr-gamma", "0.5", "--out", str(tmp_path / "out.csv")]) == 0
        (model,) = made
        assert isinstance(model, SvrModel)
        assert type(model.gamma) is float and model.gamma == 0.5

    def test_unknown_command_exit_2(self, capsys):
        assert main(["transmogrify"]) == 2
