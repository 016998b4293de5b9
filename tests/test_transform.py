import numpy as np
import pytest

from wattcast.errors import ArityMismatch, TooShort
from wattcast.series import MultiSeries, TimeSeries
from wattcast.transform import (
    apply_scaler,
    decompose,
    difference,
    fit_scaler,
    invert_scaler,
    lag_design,
    lag_embed,
    undifference,
)


def ts(values, start=0.0, interval=3600.0):
    return TimeSeries(start, interval, values)


class TestLagEmbed:
    def test_enumerated_example(self):
        frame = lag_embed(ts([1, 2, 3, 4, 5]), p=2)
        assert np.array_equal(frame.X, [[1, 2], [2, 3], [3, 4]])
        assert np.array_equal(frame.y, [3, 4, 5])
        assert np.array_equal(frame.target_positions, [2, 3, 4])

    def test_single_sample_boundary(self):
        frame = lag_embed(ts([1, 2, 3, 4]), p=3)
        assert frame.n_samples == 1
        assert np.array_equal(frame.X, [[1, 2, 3]])
        assert np.array_equal(frame.y, [4])

    def test_constant_series(self):
        frame = lag_embed(ts([7.0] * 6), p=2)
        assert np.all(frame.X == 7.0)
        assert np.all(frame.y == 7.0)

    def test_too_short(self):
        with pytest.raises(TooShort):
            lag_embed(ts([1, 2]), p=2)

    def test_overlap_consistency(self):
        rng = np.random.default_rng(0)
        frame = lag_embed(ts(rng.normal(size=30)), p=4)
        # most recent lag of row i equals the previous row's target
        assert np.array_equal(frame.X[1:, -1], frame.y[:-1])

    def test_missing_windows_skipped(self):
        vals = [1.0, 2.0, np.nan, 4.0, 5.0, 6.0, 7.0]
        frame = lag_embed(ts(vals), p=2)
        # windows touching index 2 are gone
        assert np.array_equal(frame.target_positions, [5, 6])
        assert np.array_equal(frame.X, [[4, 5], [5, 6]])
        assert np.array_equal(frame.y, [6, 7])

    def test_exogenous_at_target_timestamp(self):
        m = MultiSeries(0.0, 3600.0, ("energy", "temperature"),
                        np.column_stack([[1.0, 2, 3, 4], [10.0, 11, 12, 13]]))
        frame = lag_embed(m, p=2, target_column="energy")
        assert frame.feature_names == ("lag_2", "lag_1", "temperature")
        assert np.array_equal(frame.X, [[1, 2, 12], [2, 3, 13]])
        assert np.array_equal(frame.y, [3, 4])
        assert frame.n_exog == 1


class TestLagDesign:
    def test_enumerated_example(self):
        # rows explain rows 2..4 of a two-column matrix: 1, then lag 1, then lag 2
        values = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0], [4.0, 40.0], [5.0, 50.0]])
        assert np.array_equal(lag_design(values, 2), [[1, 2, 20, 1, 10],
                                                      [1, 3, 30, 2, 20],
                                                      [1, 4, 40, 3, 30]])

    def test_zero_lags_is_the_intercept(self):
        assert np.array_equal(lag_design(np.arange(4.0)[:, None], 0), np.ones((4, 1)))


class TestDifference:
    def test_hand_example(self):
        diff, initial = difference(ts([5, 7, 4]), d=1)
        assert np.array_equal(diff.values, [2, -3])
        assert np.array_equal(initial, [5])
        assert diff.start == 3600.0

    def test_identity_at_zero(self):
        s = ts([3.0, 1.0, 4.0])
        diff, initial = difference(s, d=0)
        assert np.array_equal(diff.values, s.values)
        assert initial.size == 0

    def test_linear_ramp_becomes_constant(self):
        diff, _ = difference(ts([0, 2, 4, 6]), d=1)
        assert np.array_equal(diff.values, [2, 2, 2])

    def test_undifference_hand_example(self):
        restored = undifference(ts([2, -3], start=3600.0), [5], d=1)
        assert np.array_equal(restored.values, [5, 7, 4])
        assert restored.start == 0.0

    def test_round_trip_exact_for_integers(self):
        rng = np.random.default_rng(1)
        for d in (0, 1, 2):
            vals = rng.integers(-50, 50, size=40).astype(float)
            s = ts(vals)
            diff, initial = difference(s, d)
            back = undifference(diff, initial, d)
            assert np.array_equal(back.values, s.values)
            assert back.start == s.start

    def test_round_trip_close_for_floats(self):
        rng = np.random.default_rng(2)
        for d in (1, 2):
            s = ts(rng.normal(size=60) * 1e3)
            diff, initial = difference(s, d)
            back = undifference(diff, initial, d)
            assert np.allclose(back.values, s.values, rtol=1e-12, atol=1e-9)

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            undifference(ts([1.0, 2.0]), [5.0], d=2)

    def test_too_short(self):
        with pytest.raises(TooShort):
            difference(ts([1.0]), d=1)


class TestDecompose:
    def test_pure_periodic_residual_zero(self):
        s = ts([1.0, -1.0] * 10)
        dec = decompose(s, period=2)
        defined = ~np.isnan(dec.trend)
        assert np.allclose(dec.residual[defined], 0.0, atol=1e-12)

    def test_constant_series(self):
        s = ts([4.0] * 12)
        dec = decompose(s, period=3)
        defined = ~np.isnan(dec.trend)
        assert np.allclose(dec.trend[defined], 4.0)
        assert np.allclose(dec.seasonal, 0.0, atol=1e-12)
        assert np.allclose(dec.residual[defined], 0.0, atol=1e-12)

    def test_ramp_plus_seasonal_recovery(self):
        # trend 1..6 plus alternating 0,1 seasonal; 2x2 moving average
        # computed by hand gives detrended -0.5/+0.5 pattern
        s = ts(np.array([1, 2, 3, 4, 5, 6]) + np.array([0, 1, 0, 1, 0, 1]))
        dec = decompose(s, period=2)
        assert np.allclose(dec.seasonal_pattern, [-0.5, 0.5])

    def test_trend_undefined_at_edges(self):
        dec = decompose(ts(np.arange(20.0)), period=4)
        assert np.isnan(dec.trend[:2]).all()
        assert np.isnan(dec.trend[-2:]).all()
        assert not np.isnan(dec.trend[2:-2]).any()

    def test_reconstruction_where_defined(self):
        rng = np.random.default_rng(3)
        vals = rng.normal(size=100) * 50 + 10
        s = ts(vals)
        dec = decompose(s, period=7)
        defined = ~np.isnan(dec.trend)
        recon = dec.trend + dec.seasonal + dec.residual
        scale = np.abs(vals[defined])
        assert np.all(np.abs(recon[defined] - vals[defined]) <= 1e-9 * np.maximum(scale, 1.0))

    def test_seasonal_repeats_exactly(self):
        rng = np.random.default_rng(4)
        s = ts(rng.normal(size=50))
        dec = decompose(s, period=6)
        assert np.array_equal(dec.seasonal[:-6], dec.seasonal[6:])

    def test_seasonal_sums_to_zero(self):
        rng = np.random.default_rng(5)
        s = ts(rng.normal(size=64) * 1e3)
        dec = decompose(s, period=8)
        assert abs(dec.seasonal_pattern.sum()) <= 1e-9 * 8 * 1e3

    def test_too_short(self):
        with pytest.raises(TooShort):
            decompose(ts(np.arange(7.0)), period=4)

    def test_odd_period(self):
        s = ts(np.array([0.0, 3.0, 0.0] * 5))
        dec = decompose(s, period=3)
        defined = ~np.isnan(dec.trend)
        assert np.allclose(dec.trend[defined], 1.0)
        assert np.allclose(dec.seasonal_pattern, [-1.0, 2.0, -1.0])


class TestScaler:
    def test_hand_example(self):
        scaler = fit_scaler(np.array([[0.0], [2.0]]))
        assert np.array_equal(scaler.mean, [1.0])
        assert np.array_equal(scaler.scale, [1.0])
        scaled = apply_scaler(scaler, np.array([[0.0], [2.0]]))
        assert np.array_equal(scaled, [[-1.0], [1.0]])

    def test_constant_column_floored(self):
        X = np.full((5, 1), 3.0)
        scaler = fit_scaler(X)
        assert np.allclose(apply_scaler(scaler, X), 0.0)

    def test_apply_invert_identity(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(20, 4)) * np.array([1.0, 1e3, 1e-3, 50.0])
        scaler = fit_scaler(X)
        back = invert_scaler(scaler, apply_scaler(scaler, X))
        assert np.allclose(back, X, rtol=1e-12, atol=1e-12)

    def test_one_dimensional_targets(self):
        y = np.array([1.0, 2.0, 3.0])
        scaler = fit_scaler(y)
        back = invert_scaler(scaler, apply_scaler(scaler, y))
        assert np.allclose(back, y, rtol=1e-12)
