import numpy as np
import pytest

from wattcast.errors import NotAMultiple, UnsortedWeather
from wattcast.series import MultiSeries, TimeSeries, WeatherRecord, merge, resample


def ts(values, start=0.0, interval=900.0):
    return TimeSeries(start, interval, values)


class TestTimeSeries:
    def test_implicit_timestamps(self):
        s = ts([1.0, 2.0, 3.0], start=100.0, interval=60.0)
        assert np.array_equal(s.timestamps, [100.0, 160.0, 220.0])

    def test_values_are_readonly(self):
        s = ts([1.0, 2.0])
        with pytest.raises(ValueError):
            s.values[0] = 9.0

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            TimeSeries(0.0, 0.0, [1.0])

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            ts([1.0, np.inf])

    def test_nan_is_allowed_as_missing(self):
        s = ts([1.0, np.nan, 3.0])
        assert np.array_equal(s.missing, [False, True, False])

    def test_slice_shifts_start(self):
        s = ts([0.0, 1.0, 2.0, 3.0], start=0.0, interval=10.0)
        sub = s.slice(2)
        assert sub.start == 20.0
        assert np.array_equal(sub.values, [2.0, 3.0])


class TestResample:
    def test_fifteen_minute_hourly_sum(self):
        # one hour window: 100+200+300+400
        out = resample(ts([100, 200, 300, 400]), 3600, mode="sum")
        assert np.array_equal(out.values, [1000.0])
        assert out.interval == 3600
        assert out.start == 0.0

    def test_identity_when_interval_unchanged(self):
        s = ts([5.0, 6.0, 7.0])
        out = resample(s, 900, mode="sum")
        assert np.array_equal(out.values, s.values)
        assert out.interval == s.interval

    def test_fifteen_minute_hourly_mean(self):
        out = resample(ts([1, 1, 1, 1, 2, 2, 2, 2]), 3600, mode="mean")
        assert np.array_equal(out.values, [1.0, 2.0])

    def test_trailing_partial_window_dropped(self):
        out = resample(ts([1, 1, 1, 1, 9, 9]), 3600, mode="sum")
        assert np.array_equal(out.values, [4.0])

    def test_missing_value_poisons_window(self):
        out = resample(ts([1, np.nan, 1, 1, 2, 2, 2, 2]), 3600, mode="sum")
        assert np.isnan(out.values[0])
        assert out.values[1] == 8.0

    def test_not_a_multiple(self):
        with pytest.raises(NotAMultiple):
            resample(ts([1, 2, 3]), 50 * 60)

    def test_empty_passes_through(self):
        out = resample(ts([]), 3600)
        assert len(out) == 0
        assert out.interval == 3600

    def test_aggregation_associativity(self):
        rng = np.random.default_rng(7)
        s = ts(rng.normal(size=48))
        via_hour = resample(resample(s, 3600, "sum"), 10800, "sum")
        direct = resample(s, 10800, "sum")
        assert np.allclose(via_hour.values, direct.values, rtol=1e-12)

    def test_sum_conserves_total(self):
        rng = np.random.default_rng(8)
        s = ts(rng.uniform(0, 100, size=27))
        out = resample(s, 2700, "sum")  # k=3, 9 windows, no remainder lost here
        assert np.isclose(out.values.sum(), s.values[:27].sum(), rtol=1e-12)


class TestMerge:
    def test_locf_within_max_fill(self):
        energy = TimeSeries(0.0, 3600.0, [10.0, 11.0, 12.0])
        weather = [WeatherRecord(0.0, temperature=5.0),
                   WeatherRecord(7200.0, temperature=7.0)]
        out = merge(energy, weather, max_fill=1)
        assert np.array_equal(out.column("temperature"), [5.0, 5.0, 7.0])

    def test_energy_column_verbatim(self):
        energy = TimeSeries(0.0, 3600.0, [10.0, np.nan, 12.0])
        out = merge(energy, [WeatherRecord(0.0, temperature=1.0)], max_fill=99)
        got = out.column("energy")
        assert got[0] == 10.0 and np.isnan(got[1]) and got[2] == 12.0

    def test_empty_weather_all_missing(self):
        energy = TimeSeries(0.0, 3600.0, [1.0, 2.0])
        out = merge(energy, [], max_fill=2)
        assert np.isnan(out.column("temperature")).all()
        assert np.isnan(out.column("humidity")).all()

    def test_exact_alignment(self):
        energy = TimeSeries(0.0, 3600.0, [1.0, 2.0])
        weather = [WeatherRecord(0.0, temperature=3.0, humidity=40.0),
                   WeatherRecord(3600.0, temperature=4.0, humidity=41.0)]
        out = merge(energy, weather, max_fill=0)
        assert np.array_equal(out.column("temperature"), [3.0, 4.0])
        assert np.array_equal(out.column("humidity"), [40.0, 41.0])

    def test_too_old_record_left_missing(self):
        energy = TimeSeries(10 * 3600.0, 3600.0, [1.0])
        out = merge(energy, [WeatherRecord(0.0, temperature=5.0)], max_fill=2)
        assert np.isnan(out.column("temperature")[0])

    def test_unsorted_weather_rejected(self):
        energy = TimeSeries(0.0, 3600.0, [1.0])
        weather = [WeatherRecord(100.0), WeatherRecord(50.0)]
        with pytest.raises(UnsortedWeather):
            merge(energy, weather)

    def test_extra_fields_become_columns(self):
        energy = TimeSeries(0.0, 3600.0, [1.0])
        weather = [WeatherRecord(0.0, temperature=5.0, extra={"wind": 3.0})]
        out = merge(energy, weather, max_fill=1)
        assert "wind" in out.names
        assert out.column("wind")[0] == 3.0


class TestMultiSeries:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            MultiSeries(0.0, 60.0, ("a", "a"), [[1.0, 2.0]])

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            MultiSeries(0.0, 60.0, ("a", ""), [[1.0, 2.0]])

    def test_column_lookup(self):
        m = MultiSeries(0.0, 60.0, ("x", "y"), [[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(m.column("y"), [2.0, 4.0])
        sub = m.series("x")
        assert np.array_equal(sub.values, [1.0, 3.0])
