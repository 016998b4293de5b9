"""Property tests for the series transforms: resampling conserves the sums of
complete windows, lag embedding aligns each row with its target, and
undifference inverts difference."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from wattcast.series import TimeSeries, resample  # noqa: E402
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
