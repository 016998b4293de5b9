"""Property tests for the series transforms: resampling conserves the sums of
complete windows, lag embedding aligns each row with its target,
undifference inverts difference, and the weather merge equals its per-row
oracle."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from test_series import _reference_merge  # noqa: E402
from wattcast.series import TimeSeries, merge, resample  # noqa: E402
from wattcast.transform import difference, lag_embed, undifference  # noqa: E402

# whole readings of magnitude at most 2**20: every sum and difference of them is exact
READINGS = st.integers(-(2 ** 20), 2 ** 20).map(float)


@st.composite
def gappy_series(draw, max_size=60):
    """A 15-minute series of whole readings with some NaN slots."""
    values = draw(st.lists(READINGS | st.just(np.nan), min_size=1, max_size=max_size))
    start = float(draw(st.integers(0, 2_000_000_000)))
    return TimeSeries(start, 900.0, np.array(values))


@settings(deadline=None)
@given(gappy_series(), st.integers(1, 8))
def test_resample_conserves_sums_of_complete_windows(s, k):
    out = resample(s, 900.0 * k)
    n_windows = len(s) // k
    windows = s.values[:n_windows * k].reshape(n_windows, k)
    complete = ~np.isnan(windows).any(axis=1)
    assert (out.start, out.interval, len(out)) == (s.start, 900.0 * k, n_windows)
    assert np.array_equal(np.isnan(out.values), ~complete)
    assert out.values[complete].tolist() == windows[complete].sum(axis=1).tolist()
    assert np.nansum(out.values) == windows[complete].sum()


@settings(deadline=None)
@given(gappy_series(), st.integers(1, 6))
def test_lag_embed_rows_align_with_their_targets(s, p):
    assume(len(s) > p)
    frame = lag_embed(s, p)
    v = s.values
    complete = [t for t in range(p, len(s)) if not np.isnan(v[t - p:t + 1]).any()]
    assert frame.target_positions.tolist() == complete
    for row, t in enumerate(complete):
        assert frame.X[row].tolist() == v[t - p:t].tolist()  # oldest lag first
        assert frame.y[row] == v[t]
    assert frame.feature_names == tuple(f"lag_{p - j}" for j in range(p))


@settings(deadline=None)
@given(st.lists(READINGS, min_size=1, max_size=40), st.integers(0, 3),
       st.integers(0, 2_000_000_000))
def test_undifference_inverts_difference(values, d, start):
    s = TimeSeries(float(start), 3600.0, np.array(values))
    assume(len(s) > d)
    diffed, initial = difference(s, d)
    assert (diffed.start, len(diffed)) == (s.start + d * 3600.0, len(s) - d)
    back = undifference(diffed, initial, d)
    assert (back.start, back.interval) == (s.start, s.interval)
    assert back.values.tobytes() == s.values.tobytes()


@st.composite
def weather_tables(draw, interval):
    """Sorted observation times on a half-interval grid, ties included, and
    columns with missing cells; temperature or humidity may be absent."""
    slots = draw(st.lists(st.integers(-6, 60), max_size=30))
    stamps = np.sort(np.array(slots, dtype=np.float64)) * (interval / 2)
    cells = st.floats(-50, 50, allow_nan=False) | st.just(np.nan)
    names = draw(st.sets(st.sampled_from(["temperature", "humidity", "wind", "cloud"])))
    return {"timestamp": stamps,
            **{name: np.array(draw(st.lists(cells, min_size=stamps.size,
                                            max_size=stamps.size)), dtype=np.float64)
               for name in sorted(names)}}


@settings(deadline=None)
@given(st.data(), st.sampled_from([900.0, 3600.0, 1.5]), st.integers(-4, 4),
       st.integers(0, 3))
def test_merge_equals_the_per_row_loop(data, interval, start, max_fill):
    values = data.draw(st.lists(READINGS | st.just(np.nan), max_size=30))
    energy = TimeSeries(start * interval, interval, np.array(values, dtype=np.float64))
    weather = data.draw(weather_tables(interval))
    got = merge(energy, weather, max_fill)
    expected = _reference_merge(energy, weather, max_fill)
    assert got.names == expected.names
    assert (got.start, got.interval) == (expected.start, expected.interval)
    assert got.values.tobytes() == expected.values.tobytes()
