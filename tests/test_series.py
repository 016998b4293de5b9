import numpy as np
import pytest

from wattcast.errors import LengthMismatch, NotAMultiple, NumericOverflow, UnsortedWeather
from wattcast.series import MultiSeries, TimeSeries, merge, resample


def ts(values, start=0.0, interval=900.0):
    return TimeSeries(start, interval, values)


def _reference_merge(energy, weather, max_fill=2):
    """The per-row loop that merged weather records before the as-of lookup,
    reading the same columns: the oracle. A missing cell is NaN here where a
    record held None."""
    ts = np.asarray(weather["timestamp"], dtype=np.float64)
    if np.any(np.diff(ts) < 0):
        pos = int(np.argmax(np.diff(ts) < 0)) + 1
        raise UnsortedWeather(
            f"weather timestamps decrease at record {pos} "
            f"({ts[pos]} after {ts[pos - 1]})")

    extra_names = sorted(set(weather) - {"timestamp", "temperature", "humidity"})
    weather_names = ["temperature", "humidity"] + extra_names
    n = len(energy)
    out = np.full((n, 1 + len(weather_names)), np.nan)
    out[:, 0] = energy.values

    horizon = max_fill * energy.interval
    j = -1  # index of latest record with timestamp <= current energy time
    for i, t in enumerate(energy.timestamps):
        while j + 1 < ts.size and ts[j + 1] <= t:
            j += 1
        if j >= 0 and t - ts[j] <= horizon:
            for c, name in enumerate(weather_names):
                if name in weather:
                    out[i, 1 + c] = weather[name][j]
    return MultiSeries(energy.start, energy.interval,
                       ("energy", *weather_names), out)


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

    @pytest.mark.parametrize("mode", ["sum", "mean"])
    def test_overflowing_window_raises(self, mode, recwarn):
        with pytest.raises(NumericOverflow, match=f"^the {mode} of values 4 to 7 overflows"):
            resample(ts([1, 2, 3, 4, 1e308, 1e308, 1e308, 1e308]), 3600, mode=mode)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

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
        weather = {"timestamp": [0.0, 7200.0], "temperature": [5.0, 7.0]}
        out = merge(energy, weather, max_fill=1)
        assert np.array_equal(out.column("temperature"), [5.0, 5.0, 7.0])

    def test_energy_column_verbatim(self):
        energy = TimeSeries(0.0, 3600.0, [10.0, np.nan, 12.0])
        out = merge(energy, {"timestamp": [0.0], "temperature": [1.0]}, max_fill=99)
        got = out.column("energy")
        assert got[0] == 10.0 and np.isnan(got[1]) and got[2] == 12.0

    def test_empty_weather_all_missing(self):
        energy = TimeSeries(0.0, 3600.0, [1.0, 2.0])
        empty = {"timestamp": [], "temperature": [], "humidity": [], "wind": []}
        out = merge(energy, empty, max_fill=2)
        assert out.names == ("energy", "temperature", "humidity", "wind")
        assert np.isnan(out.values[:, 1:]).all()

    def test_exact_alignment(self):
        energy = TimeSeries(0.0, 3600.0, [1.0, 2.0])
        weather = {"timestamp": [0.0, 3600.0], "temperature": [3.0, 4.0],
                   "humidity": [40.0, 41.0]}
        out = merge(energy, weather, max_fill=0)
        assert np.array_equal(out.column("temperature"), [3.0, 4.0])
        assert np.array_equal(out.column("humidity"), [40.0, 41.0])

    def test_too_old_record_left_missing(self):
        energy = TimeSeries(10 * 3600.0, 3600.0, [1.0])
        out = merge(energy, {"timestamp": [0.0], "temperature": [5.0]}, max_fill=2)
        assert np.isnan(out.column("temperature")[0])

    def test_unsorted_weather_rejected(self):
        energy = TimeSeries(0.0, 3600.0, [1.0])
        weather = {"timestamp": [100.0, 50.0]}
        with pytest.raises(UnsortedWeather,
                           match=r"decrease at record 1 \(50.0 after 100.0\)"):
            merge(energy, weather)

    def test_extra_fields_become_columns(self):
        energy = TimeSeries(0.0, 3600.0, [1.0])
        weather = {"timestamp": [0.0], "temperature": [5.0], "wind": [3.0], "cloud": [1.0]}
        out = merge(energy, weather, max_fill=1)
        assert out.names == ("energy", "temperature", "humidity", "cloud", "wind")
        assert out.column("wind")[0] == 3.0

    @pytest.mark.parametrize("stamp", [np.nan, np.inf])
    def test_non_finite_timestamp_rejected(self, stamp):
        energy = TimeSeries(0.0, 3600.0, [1.0])
        with pytest.raises(ValueError, match="finite"):
            merge(energy, {"timestamp": [0.0, stamp], "temperature": [1.0, 2.0]})

    def test_column_length_must_match_timestamps(self):
        energy = TimeSeries(0.0, 3600.0, [1.0])
        with pytest.raises(LengthMismatch):
            merge(energy, {"timestamp": [0.0, 1.0], "temperature": [1.0]})

    def test_hourly_weather_on_quarter_hours_matches_reference_loop(self):
        rng = np.random.default_rng(3)
        energy = TimeSeries(0.0, 900.0, rng.uniform(0, 1, 4 * 24 * 60))
        stamps = np.sort(rng.choice(np.arange(24 * 61) * 3600.0, 24 * 50, replace=False))
        weather = {"timestamp": stamps,
                   "temperature": np.where(rng.random(stamps.size) < 0.1, np.nan,
                                           rng.normal(10, 5, stamps.size)),
                   "humidity": rng.uniform(20, 90, stamps.size)}
        for max_fill in (0, 2, 8):
            got = merge(energy, weather, max_fill)
            expected = _reference_merge(energy, weather, max_fill)
            assert got.names == expected.names
            assert got.values.tobytes() == expected.values.tobytes()


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
