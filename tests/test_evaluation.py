"""Tests for the evaluation protocol and benchmark sweep."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from test_acceptance import _fitted_arrays
from test_regressors import MeanModel

from wattcast.errors import (
    ConfigError,
    InsufficientTest,
    LengthMismatch,
    NonFinitePrediction,
    NumericOverflow,
    TooShort,
)
from wattcast.evaluation import (
    ARIMA_ORDER,
    MODE_ONE_STEP,
    MODE_RECURSIVE,
    MODELS,
    EvalRecord,
    EvaluationReport,
    ModelSpec,
    SplitSpec,
    benchmark,
    check_finite,
    default_specs,
    evaluate,
    fit_forecast,
    metrics,
    spec_for,
)
from wattcast.regressors import OlsModel
from wattcast.series import MultiSeries, TimeSeries, merge
from wattcast.synthetic import arma_series, household_series, weather_table
from wattcast.transform import SupervisedFrame, lag_embed

HOUR = 3600.0


class BrokenModel(OlsModel):
    """A model whose fit fails with an error outside the wattcast hierarchy."""

    def fit(self, frame):
        raise RuntimeError("solver exploded")


class HalfNanModel(MeanModel):
    """Predicts NaN for every other row, and an infinity for the second."""

    def _predict(self, X):
        predictions = super()._predict(X)
        predictions[::2] = np.nan
        predictions[1] = np.inf
        return predictions


def hourly(values):
    return TimeSeries(0.0, HOUR, np.asarray(values, dtype=float))


class TestMetrics:
    def test_hand_example(self):
        m = metrics([3.0, 1.0], [0.0, 0.0], [1.0, -1.0])
        assert m.rmse == pytest.approx(math.sqrt(5.0), abs=1e-15)
        assert m.mae == pytest.approx(2.0, abs=1e-15)
        assert m.rae == pytest.approx(1.0, abs=1e-15)

    def test_perfect_forecast_is_zero(self):
        m = metrics([4.0, 5.0], [4.0, 5.0], [1.0, 2.0])
        assert m.rmse == 0.0 and m.mae == 0.0 and m.rae == 0.0

    def test_train_mean_predictor_scores_exactly_one(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            train = rng.normal(size=30)
            actual = rng.normal(size=10)
            pred = np.full(10, train.mean())
            if np.sum(np.abs(actual - train.mean())) == 0.0:
                continue
            assert metrics(actual, pred, train).rae == 1.0

    def test_rmse_at_least_mae(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a, p = rng.normal(size=(2, 20))
            m = metrics(a, p, rng.normal(size=15))
            assert m.rmse >= m.mae

    def test_rescaling_leaves_rae_unchanged(self):
        rng = np.random.default_rng(3)
        a, p, tr = rng.normal(size=20), rng.normal(size=20), rng.normal(size=25)
        assert metrics(a, p, tr).rae == pytest.approx(
            metrics(1000 * a, 1000 * p, 1000 * tr).rae, abs=1e-12)

    def test_zero_baseline_marks_rae_nan(self):
        m = metrics([5.0, 5.0], [4.0, 6.0], [5.0, 5.0])
        assert math.isnan(m.rae)
        assert m.mae == 1.0  # other metrics still defined

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            metrics([1.0, 2.0], [1.0], [0.0])

    @pytest.mark.parametrize("actual, predicted, train", [
        ([1e200, 0.0], [0.0, 0.0], [0.0]),  # squared errors overflow
        ([1e308, -1e308], [-1e308, 1e308], [0.0]),  # errors overflow
        ([1.0, 2.0], [1.0, 2.0], [1e308, 1e308]),  # the train mean overflows
    ], ids=["squares", "errors", "baseline"])
    def test_overflow_raises(self, actual, predicted, train, recwarn):
        with pytest.raises(NumericOverflow, match="^forecast errors overflow float64"):
            metrics(actual, predicted, train)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("predicted, actual, message", [
        ([1.0, np.nan, np.inf, -np.inf], None, "3 of 4 predictions are not finite"),
        ([np.nan, 1.0], [2.0, 2.0], "1 of 2 predictions are not finite"),
        ([np.nan, np.inf, 1.0], [np.nan, np.inf, 1.0], None),
        ([1.0, 2.0], None, None),
    ], ids=["no_actuals", "finite_actual", "actual_not_finite", "all_finite"])
    def test_check_finite(self, predicted, actual, message):
        if message is None:
            check_finite(np.array(predicted), None if actual is None else np.array(actual))
        else:
            with pytest.raises(NonFinitePrediction, match=f"^{message}$"):
                check_finite(np.array(predicted),
                             None if actual is None else np.array(actual))


class TestSplitSpec:
    def test_train_length_is_floor(self):
        assert SplitSpec(0.8).train_length(10) == 8
        assert SplitSpec(0.7).train_length(10) == 7
        assert SplitSpec(0.75).train_length(10) == 7

    def test_train_length_is_exact_in_decimal(self):
        # 0.29 * 100 is 28.999999999999996 in binary floating point
        assert SplitSpec(0.29).train_length(100) == 29
        for k in range(10, 91):
            fraction = k / 100
            for n in (7, 100, 240, 1095, 2000, 9999):
                expected = Fraction(k, 100) * n
                if 1 <= expected < n:
                    assert SplitSpec(fraction).train_length(n) == math.floor(expected)

    def test_degenerate_fraction_rejected(self):
        with pytest.raises(ConfigError):
            SplitSpec(1.2)
        with pytest.raises(ConfigError):
            SplitSpec(0.0)

    def test_empty_side_raises(self):
        with pytest.raises(InsufficientTest):
            SplitSpec(0.05).train_length(10)


class TestModelSpec:
    def test_lag_needs_factory(self):
        with pytest.raises(ConfigError):
            ModelSpec("ols", "lag")

    def test_default_suite_has_seven_members(self):
        names = [s.name for s in default_specs()]
        assert names == ["ols", "gp", "mlp", "svr", "knn", "arima", "var"]

    def test_arima_default_order_is_the_suite_order(self):
        assert ModelSpec("arima", "arima").order == ARIMA_ORDER == spec_for("arima").order

    @pytest.mark.parametrize("order", [(-1, 0, 1), (1, -1, 0), (0, 0, -1), (0, 0, 0)])
    def test_arima_order_that_arima_fit_refuses(self, order):
        with pytest.raises(ConfigError):
            ModelSpec("arima", "arima", order=order)
        with pytest.raises(ConfigError):
            spec_for("arima", arima_order=order)

    def test_spec_for_unknown_name(self):
        with pytest.raises(ConfigError):
            spec_for("prophet")

    def test_negative_mlp_seed_refused_before_any_fit(self):
        with pytest.raises(ConfigError, match="^model 'mlp': seed must be >= 0$"):
            spec_for("mlp", seed=-1)
        spec_for("ols", seed=-1)  # a family without a seed ignores it


class TestEvaluate:
    def test_split_arithmetic_and_record_fields(self):
        # 10 points, 0.8 split -> train 8, test 2, both predictable with p=2
        s = hourly(np.arange(10.0))
        rec = evaluate(spec_for("ols"), s, 0.8, p=2, dataset_name="ramp")
        assert rec.ok
        assert rec.n_test == 2
        assert rec.horizon == 2
        assert rec.dataset == "ramp"
        assert rec.mode == MODE_ONE_STEP
        assert rec.interval == HOUR
        # a linear ramp is an exact OLS fit
        assert rec.rmse == pytest.approx(0.0, abs=1e-8)

    def test_horizon_clamps_to_test_span(self):
        s = hourly(np.arange(10.0))
        rec = evaluate(spec_for("ols"), s, 0.8, p=2, horizon=5)
        assert rec.horizon == 2
        rec = evaluate(spec_for("ols"), s, 0.8, p=2, horizon=1)
        assert rec.n_test == 1

    def test_recursive_mode_covers_whole_span(self):
        s = arma_series(120, ar=(0.6,), noise_sd=0.3, seed=5)
        rec = evaluate(spec_for("ols"), s, 0.75, p=3, mode=MODE_RECURSIVE)
        assert rec.n_test == 120 - 90
        assert np.isfinite(rec.rmse)

    def test_arima_and_var_kinds(self):
        s = arma_series(150, ar=(0.5,), intercept=1.0, noise_sd=0.2, seed=9)
        rec_a = evaluate(spec_for("arima", arima_order=(1, 0, 0)), s, 0.8)
        rec_v = evaluate(spec_for("var"), s, 0.8, p=1)
        assert rec_a.ok and rec_v.ok
        # both reduce to near-identical AR(1) one-step predictors
        assert rec_a.rmse == pytest.approx(rec_v.rmse, rel=0.05)
        assert rec_a.rae < 1.0 and rec_v.rae < 1.0

    def test_exogenous_columns_are_used_in_both_modes(self):
        rng = np.random.default_rng(4)
        n = 160
        temp = np.sin(2 * np.pi * np.arange(n) / 24)
        energy = 5.0 + 2.0 * temp + 0.05 * rng.normal(size=n)
        ms = MultiSeries(0.0, HOUR, ("energy", "temperature"),
                         np.column_stack([energy, temp]))
        for mode in (MODE_ONE_STEP, MODE_RECURSIVE):
            rec = evaluate(spec_for("ols"), ms, 0.8, p=2, mode=mode)
            assert rec.ok and rec.rae < 0.5

    @pytest.mark.parametrize("mode", [MODE_ONE_STEP, MODE_RECURSIVE])
    def test_series_equals_its_one_column_table(self, mode):
        # a TimeSeries is evaluated as the one-column table "energy"
        s = household_series(150, seed=6)
        table = MultiSeries(s.start, s.interval, ("energy",), s.values[:, None])
        for name in MODELS:
            spec = spec_for(name, hyper={"mlp_epochs": 20})
            as_series = evaluate(spec, s, 0.8, p=4, mode=mode)
            as_table = evaluate(spec, table, 0.8, p=4, mode=mode)
            assert as_series.ok, as_series.error
            assert as_series.to_row() == as_table.to_row()

    def test_run_twice_is_bit_identical(self):
        s = household_series(260, seed=2)
        for name in ("mlp", "svr", "gp"):
            a = evaluate(spec_for(name, seed=3), s, 0.8, p=6)
            b = evaluate(spec_for(name, seed=3), s, 0.8, p=6)
            assert (a.rmse, a.mae, a.rae) == (b.rmse, b.mae, b.rae)

    def test_mean_family_rae_close_to_one(self):
        # the mean predictor averages embedded train targets, which differs
        # from the full train prefix only by the first p rows
        s = arma_series(300, ar=(0.3,), noise_sd=1.0, seed=12)
        rec = evaluate(ModelSpec("mean", "lag", MeanModel), s, 0.8, p=2)
        assert rec.rae == pytest.approx(1.0, abs=0.05)

    def test_non_finite_prediction_is_a_model_error(self):
        # 30 rows, 24 in the train prefix: 6 scored, 3 NaN and 1 infinite
        with pytest.raises(NonFinitePrediction, match="^4 of 6 predictions are not finite$"):
            evaluate(ModelSpec("half_nan", "lag", HalfNanModel), hourly(np.arange(30.0)), 0.8,
                     p=2)

    @pytest.mark.parametrize("mode, horizon, missing_from, message", [
        (MODE_ONE_STEP, None, 22, "no complete test windows"),
        (MODE_ONE_STEP, 0, 30, "horizon leaves no test observations"),
        (MODE_RECURSIVE, None, 24, "all test observations are missing"),
    ], ids=["no_test_window", "zero_horizon", "test_span_all_missing"])
    def test_insufficient_test_span(self, mode, horizon, missing_from, message):
        # 30 rows, 24 in the train prefix; NaN from row ``missing_from`` on
        values = np.arange(30.0)
        values[missing_from:] = np.nan
        with pytest.raises(InsufficientTest, match=f"^{message}$"):
            evaluate(spec_for("ols"), hourly(values), 0.8, p=2, horizon=horizon, mode=mode)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            evaluate(spec_for("ols"), hourly(np.arange(30.0)), 0.8, mode="oracle")


class TestTrainPrefix:
    """``fit_forecast`` fits on the train prefix alone. The oracle is the model
    fitted on the full table's lag frame with every window whose target lies
    in the test span masked out."""

    P, N_TRAIN, M = 4, 90, 25
    LAG_MODELS = ("ols", "gp", "mlp", "svr", "knn")

    def table(self):
        energy = household_series(130, seed=5).values.copy()
        temperature = np.sin(2 * np.pi * np.arange(130) / 24)
        energy[[10, 11, 50, 95, 96]] = np.nan  # gaps in the train and test spans
        temperature[[30, 80]] = np.nan
        return MultiSeries(0.0, HOUR, ("energy", "temperature"),
                           np.column_stack([energy, temperature]))

    @pytest.mark.parametrize("mode", [MODE_ONE_STEP, MODE_RECURSIVE])
    @pytest.mark.parametrize("name", LAG_MODELS)
    def test_equals_fit_on_masked_full_frame(self, name, mode):
        table = self.table()
        spec = spec_for(name, hyper={"mlp_epochs": 20})
        frame = lag_embed(table, self.P, "energy")
        train = frame.target_positions < self.N_TRAIN
        oracle = spec.make().fit(SupervisedFrame(
            frame.X[train], frame.y[train], self.P, frame.feature_names,
            frame.target_positions[train]))

        fc = fit_forecast(spec, table, self.N_TRAIN, self.M, p=self.P, mode=mode)
        got, expected = _fitted_arrays(fc.model), _fitted_arrays(oracle)
        assert got.keys() == expected.keys()
        for key, value in expected.items():
            assert got[key].tobytes() == value.tobytes(), key

        if mode == MODE_ONE_STEP:
            test = ~train & (frame.target_positions < self.N_TRAIN + self.M)
            np.testing.assert_array_equal(fc.positions, frame.target_positions[test])
            expected_preds = oracle.predict_batch(frame.X[test])
        else:
            np.testing.assert_array_equal(
                fc.positions, np.arange(self.N_TRAIN, self.N_TRAIN + self.M))
            span = slice(self.N_TRAIN, self.N_TRAIN + self.M)
            expected_preds = oracle.predict_series(
                table.column("energy")[:self.N_TRAIN], self.M,
                exog=table.values[span, 1:])
        assert fc.predictions.tobytes() == expected_preds.tobytes()

    @pytest.mark.parametrize("mode", [MODE_ONE_STEP, MODE_RECURSIVE])
    def test_prefix_no_longer_than_p(self, mode):
        with pytest.raises(TooShort, match=r"^series of length 4 cannot be embedded with p=4$"):
            fit_forecast(spec_for("ols"), self.table(), 4, 10, p=4, mode=mode)

    @pytest.mark.parametrize("mode", [MODE_ONE_STEP, MODE_RECURSIVE])
    def test_prefix_without_a_complete_window(self, mode):
        values = np.arange(40.0)
        values[2:12:3] = np.nan  # no 4-wide window in the first 12 rows is complete
        with pytest.raises(TooShort, match=r"^no complete training windows$"):
            fit_forecast(spec_for("ols"), hourly(values), 12, 10, p=4, mode=mode)


class TestBenchmark:
    def make_datasets(self):
        return [("a", arma_series(90, ar=(0.5,), noise_sd=0.4, seed=1)),
                ("b", arma_series(90, ar=(-0.4,), noise_sd=0.4, seed=2))]

    def test_cartesian_cell_count_and_order(self):
        specs = [spec_for("ols"), spec_for("knn")]
        report = benchmark(specs, self.make_datasets(), [0.7, 0.8], p=3)
        assert len(report.records) == 2 * 2 * 2
        # dataset-major, then split, then model
        head = [(r.dataset, r.train_fraction, r.model) for r in report.records[:4]]
        assert head == [("a", 0.7, "ols"), ("a", 0.7, "knn"),
                        ("a", 0.8, "ols"), ("a", 0.8, "knn")]

    def test_failed_cell_is_recorded_not_raised(self):
        # VAR with the sweep's p=24 cannot fit 48 train rows; KNN can
        data = [("short", arma_series(60, ar=(0.5,), noise_sd=0.3, seed=3))]
        report = benchmark([spec_for("knn"), spec_for("var")], data, [0.8], p=24)
        by_model = {r.model: r for r in report.records}
        assert by_model["knn"].ok
        assert not by_model["var"].ok
        assert "TooShort" in by_model["var"].error
        assert len(report.failed) == 1

    def test_rankings_prefer_lower_rae(self):
        # OLS nails a noiseless ramp; KNN cannot extrapolate it
        data = [("ramp", hourly(np.arange(80.0)))]
        report = benchmark([spec_for("knn"), spec_for("ols")], data, [0.8], p=3)
        ranked = [model for model, _ in report.rankings["ramp"]]
        assert ranked == ["ols", "knn"]
        assert [model for model, _ in report.overall] == ["ols", "knn"]
        raes = dict(report.rankings["ramp"])
        assert raes["ols"] < raes["knn"]

    def test_duplicate_models_tie_in_registration_order(self):
        data = [("a", arma_series(90, ar=(0.5,), noise_sd=0.4, seed=1))]
        twins = [ModelSpec("first", "lag", OlsModel),
                 ModelSpec("second", "lag", OlsModel)]
        report = benchmark(twins, data, [0.7, 0.8], p=3)
        assert [model for model, _ in report.overall] == ["first", "second"]

    def test_repeated_model_name_refused_before_any_cell(self):
        made = []

        def make():
            made.append(1)
            return OlsModel()

        specs = [ModelSpec("ols", "lag", make), spec_for("knn"), ModelSpec("ols", "lag", make)]
        with pytest.raises(ConfigError, match=r"^model 'ols' is listed more than once"):
            benchmark(specs, self.make_datasets(), [0.8], p=3)
        assert made == []

    def test_repeated_dataset_name_refused_before_any_cell(self):
        made = []

        def make():
            made.append(1)
            return OlsModel()

        (_, first), (_, second) = self.make_datasets()
        with pytest.raises(ConfigError, match=r"^dataset 'x' is listed more than once; "
                                              r"records and rankings are keyed by dataset"):
            benchmark([ModelSpec("ols", "lag", make)], [("x", first), ("x", second)],
                      [0.8], p=3)
        assert made == []

    def test_datasets_with_one_variant_key_are_refused(self):
        (_, first), (_, second) = self.make_datasets()
        with pytest.raises(ConfigError, match=r"^datasets 'x\[2h\]' and 'x' both give "
                                              r"the key 'x\[2h\]'"):
            benchmark([spec_for("ols")], [("x[2h]", first), ("x", second)], [0.8], p=3,
                      intervals=[None, 2 * HOUR])

    @pytest.mark.parametrize("intervals", [[None, HOUR], [HOUR, None], [2 * HOUR, 120 * 60.0]],
                             ids=["native_1h", "1h_native", "2h_120m"])
    def test_intervals_with_one_key_run_one_variant(self, intervals):
        data = [("a", arma_series(240, ar=(0.5,), noise_sd=0.3, seed=8))]
        report = benchmark([spec_for("ols"), spec_for("knn")], data, [0.7, 0.8], p=3,
                           intervals=intervals)
        once = benchmark([spec_for("ols"), spec_for("knn")], data, [0.7, 0.8], p=3,
                         intervals=intervals[:1])
        assert report.to_text() == once.to_text().replace(
            f"intervals={intervals[:1]}", f"intervals={intervals}")
        assert len(report.records) == 4 and all(r.ok for r in report.records)

    def test_failed_models_rank_last(self):
        data = [("short", arma_series(60, ar=(0.5,), noise_sd=0.3, seed=3))]
        report = benchmark([spec_for("var"), spec_for("knn")], data, [0.8], p=24)
        assert [model for model, _ in report.rankings["short"]] == ["knn", "var"]
        assert math.isnan(dict(report.rankings["short"])["var"])
        assert report.overall[0] == ("knn", 1.0)
        assert report.overall[1][0] == "var" and math.isnan(report.overall[1][1])

    def test_interval_sweep_adds_resampled_variants(self):
        data = [("a", arma_series(240, ar=(0.5,), noise_sd=0.3, seed=8))]
        report = benchmark([spec_for("ols")], data, [0.8], p=3,
                           intervals=[None, 2 * HOUR])
        keys = {r.dataset for r in report.records}
        assert keys == {"a", "a[2h]"}
        assert all(r.ok for r in report.records)
        two_hourly = [r for r in report.records if r.dataset == "a[2h]"]
        assert two_hourly[0].interval == 2 * HOUR

    def test_interval_sweep_resamples_every_column(self):
        data = [("hw", merge(household_series(200, 4), weather_table(200, 4)))]
        report = benchmark([spec_for("ols"), spec_for("var")], data, [0.8], p=3,
                           intervals=[None, 2 * HOUR])
        assert {r.dataset for r in report.records} == {"hw", "hw[2h]"}
        assert all(r.ok for r in report.records), [r.error for r in report.failed]
        assert all(r.interval == 2 * HOUR for r in report.records
                   if r.dataset == "hw[2h]")

    @pytest.mark.parametrize("intervals", [[None], [2 * HOUR]], ids=["native", "2h"])
    def test_unknown_dataset_type_fails_only_its_variant(self, intervals):
        class NotASeries:
            interval = HOUR

        data = [("odd", NotASeries()),
                ("a", arma_series(120, ar=(0.5,), noise_sd=0.3, seed=8))]
        report = benchmark([spec_for("ols")], data, [0.8], p=3, intervals=intervals)
        odd, native = report.records
        assert not odd.ok and odd.error.startswith("ConfigError: ")
        assert native.ok

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_impossible_resample_recorded_as_failure(self, jobs):
        data = [("a", arma_series(100, ar=(0.5,), noise_sd=0.3, seed=8))]
        report = benchmark([spec_for("ols"), spec_for("knn")], data, [0.8], p=3,
                           intervals=[None, 1.5 * HOUR], jobs=jobs)
        assert len(report.records) == 4
        native, failed = report.records[:2], report.records[2:]
        assert all(r.ok for r in native)
        for record in failed:
            assert record.dataset == "a[90m]"
            assert not record.ok
            assert record.error.startswith("NotAMultiple: ")
            assert math.isnan(record.interval)
            assert record.horizon == 0 and record.n_test == 0

    def test_parallel_matches_serial(self):
        specs = [spec_for("ols"), spec_for("knn")]
        serial = benchmark(specs, self.make_datasets(), [0.8], p=3, jobs=1)
        parallel = benchmark(specs, self.make_datasets(), [0.8], p=3, jobs=2)
        assert [r.to_dict() for r in serial.records] == \
               [r.to_dict() for r in parallel.records]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unexpected_exception_fails_only_its_cell(self, jobs):
        specs = [spec_for("ols"), ModelSpec("broken", "lag", BrokenModel),
                 spec_for("knn")]
        report = benchmark(specs, self.make_datasets(), [0.8], p=3, jobs=jobs)
        assert len(report.records) == 6
        for record in report.records:
            if record.model == "broken":
                assert not record.ok
                assert record.error == "RuntimeError: solver exploded"
                assert record.horizon == 18 and record.n_test == 0
            else:
                assert record.ok and np.isfinite(record.rae)
        assert len(report.failed) == 2

    def test_weather_covariates_reach_every_family(self):
        # the paper's second experiment: the same models with and without weather
        energy = household_series(300, 4)
        data = [("hh", energy), ("hh+weather", merge(energy, weather_table(300, 4)))]
        specs = [spec_for(name, hyper={"mlp_epochs": 50}) for name in MODELS]
        report = benchmark(specs, data, [0.8], p=6)
        assert len(report.records) == 2 * len(MODELS)
        assert all(r.ok for r in report.records), [
            (r.dataset, r.model, r.error) for r in report.failed]
        rae = {(r.dataset, r.model): r.rae for r in report.records}
        # univariate VAR(p) is the OLS lag regression; weather sets them apart
        assert rae["hh", "var"] == pytest.approx(rae["hh", "ols"], rel=1e-9)
        assert rae["hh+weather", "var"] != pytest.approx(rae["hh+weather", "ols"], rel=1e-6)

    def test_empty_sweep_rejected(self):
        with pytest.raises(ConfigError):
            benchmark([], self.make_datasets(), [0.8])


class TestReportSerialization:
    def make_report(self):
        data = [("a", arma_series(90, ar=(0.5,), noise_sd=0.4, seed=1))]
        return benchmark([spec_for("ols"), spec_for("knn")], data, [0.7, 0.8], p=3)

    def test_text_has_one_row_per_record(self):
        report = self.make_report()
        text = report.to_text()
        rows = [line for line in text.splitlines()
                if line and not line.startswith("#") and "\t" in line]
        header, *body = [r for r in rows if not r[0].isdigit()] + \
                        [r for r in rows if r[0].isdigit()]
        assert header.split("\t")[0] == "model"
        record_rows = [r for r in rows if r.split("\t")[0] in ("ols", "knn")]
        assert len(record_rows) == len(report.records)
        assert all(len(r.split("\t")) == 11 for r in record_rows)

    def test_json_round_trips_and_hides_wall_times(self):
        report = self.make_report()
        payload = json.loads(report.to_json())
        assert len(payload["records"]) == 4
        assert "fit_seconds" not in report.to_json()
        assert set(payload["records"][0]) == {
            "model", "dataset", "train_fraction", "interval", "horizon",
            "mode", "n_test", "rmse", "mae", "rae", "error"}
        assert payload["overall"][0]["rank"] == 1

    def test_serialization_is_deterministic(self):
        a, b = self.make_report(), self.make_report()
        assert a.to_text() == b.to_text()
        assert a.to_json() == b.to_json()

    def test_failed_resample_variant_is_strict_json(self):
        data = [("a", arma_series(100, ar=(0.5,), noise_sd=0.3, seed=8))]
        report = benchmark([spec_for("ols")], data, [0.8], p=3,
                           intervals=[None, 1.5 * HOUR])

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        payload = json.loads(report.to_json(), parse_constant=refuse)
        assert payload["records"][1]["interval"] is None
        assert "\ta[90m]\t0.8\tNaN\t" in report.to_text()

    def test_ok_record_row_and_dict(self):
        record = EvalRecord("ols", "household", 0.7, HOUR, 600, MODE_ONE_STEP, 598,
                            0.123456789012345, 0.1, 0.98765432109876,
                            fit_seconds=1.5, predict_seconds=0.25)
        assert record.to_row() == ("ols\thousehold\t0.7\t3600\t600\tone_step_true_history"
                                   "\t598\t0.123456789012\t0.1\t0.987654321099\tok")
        assert record.to_dict() == {
            "model": "ols", "dataset": "household", "train_fraction": 0.7,
            "interval": HOUR, "horizon": 600, "mode": MODE_ONE_STEP, "n_test": 598,
            "rmse": 0.123456789012345, "mae": 0.1, "rae": 0.98765432109876,
            "error": None}

    def test_failed_record_row_and_dict(self):
        nan = float("nan")
        record = EvalRecord("arima", "a[90m]", 0.8, nan, 0, MODE_RECURSIVE, 0,
                            error="NotAMultiple: 5400 s is not\n  a multiple of 3600 s")
        assert record.to_row() == ("arima\ta[90m]\t0.8\tNaN\t0\trecursive\t0\tNaN\tNaN"
                                   "\tNaN\tfailed: NotAMultiple: 5400 s is not a multiple "
                                   "of 3600 s")
        assert record.to_dict() == {
            "model": "arima", "dataset": "a[90m]", "train_fraction": 0.8,
            "interval": None, "horizon": 0, "mode": MODE_RECURSIVE, "n_test": 0,
            "rmse": None, "mae": None, "rae": None,
            "error": "NotAMultiple: 5400 s is not\n  a multiple of 3600 s"}

    def test_nan_serializes_as_null_in_json(self):
        record = EvalRecord("m", "d", 0.8, HOUR, 1, MODE_ONE_STEP, 1,
                            rae=float("nan"))
        report = EvaluationReport([record])
        payload = json.loads(report.to_json())
        assert payload["records"][0]["rae"] is None
        assert "NaN" in record.to_row()
