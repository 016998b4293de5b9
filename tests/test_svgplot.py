"""Tests for the dependency-free SVG chart output."""

import hashlib
import xml.etree.ElementTree as ET
import xml.parsers.expat

import numpy as np
import pytest

from wattcast.series import TimeSeries
from wattcast.svgplot import (
    ACTUAL_COLOR,
    PREDICTED_COLOR,
    _f,
    _finite_runs,
    _Panel,
    decomposition_chart,
    forecast_chart,
)
from wattcast.transform import Decomposition, decompose

HOUR = 3600.0


def _reference_series(panel, out, times, values, color):
    """``_Panel.series`` as it was, one element per point: the oracle."""
    values = np.asarray(values, dtype=float)
    for begin, end in _finite_runs(values):
        points = " ".join(f"{_f(panel.x(times[i]))},{_f(panel.y(values[i]))}"
                          for i in range(begin, end))
        if end - begin > 1:
            out.append(f'<polyline points="{points}" fill="none" '
                       f'stroke="{color}" stroke-width="1.5"/>')
        for i in range(begin, end):
            out.append(f'<circle cx="{_f(panel.x(times[i]))}" '
                       f'cy="{_f(panel.y(values[i]))}" r="2" fill="{color}"/>')


def sample_pair():
    history = TimeSeries(0.0, HOUR, np.array([5.0, 6.0, np.nan, 8.0, 9.0]))
    forecast = TimeSeries(5 * HOUR, HOUR, np.array([9.5, 10.0, 10.5]))
    return history, forecast


class TestForecastChart:
    def test_is_wellformed_xml(self):
        svg = forecast_chart(*sample_pair())
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")

    def test_both_series_present_with_figure_colors(self):
        svg = forecast_chart(*sample_pair())
        assert ACTUAL_COLOR in svg and PREDICTED_COLOR in svg
        assert ">actual<" in svg and ">predicted<" in svg  # legend labels

    def test_every_point_embedded(self):
        history, forecast = sample_pair()
        svg = forecast_chart(history, forecast)
        finite = np.count_nonzero(~np.isnan(history.values)) + len(forecast)
        assert svg.count("<circle") == finite

    def test_missing_value_breaks_the_line(self):
        history, forecast = sample_pair()
        svg = forecast_chart(history, forecast)
        # the NaN splits the 5-point history into 2+2; forecast adds one more
        assert svg.count("<polyline") == 3

    def test_deterministic_output(self):
        a = forecast_chart(*sample_pair())
        b = forecast_chart(*sample_pair())
        assert a == b

    def test_time_axis_labels_are_utc(self):
        svg = forecast_chart(*sample_pair())
        assert "01-01" in svg  # epoch start renders as 1970-01-01 labels


class TestDecompositionChart:
    def make(self):
        i = np.arange(48.0)
        s = TimeSeries(0.0, HOUR, 10.0 + 0.1 * i + np.sin(2 * np.pi * i / 24))
        return s, decompose(s, 24)

    def test_four_labelled_panels(self):
        s, dec = self.make()
        svg = decomposition_chart(s, dec)
        for label in ("observed", "trend", "seasonal", "residual"):
            assert f">{label}<" in svg
        ET.fromstring(svg)  # well-formed

    def test_nan_trend_edges_are_skipped_not_drawn(self):
        s, dec = self.make()
        svg = decomposition_chart(s, dec)
        total_points = svg.count("<circle")
        finite = sum(int(np.count_nonzero(np.isfinite(v)))
                     for v in (s.values, dec.trend, dec.seasonal, dec.residual))
        assert total_points == finite

    def test_deterministic_output(self):
        s, dec = self.make()
        assert decomposition_chart(s, dec) == decomposition_chart(s, dec)


NAN = np.nan
SERIES_CASES = {
    "nan_runs_at_start_middle_end": [NAN, NAN, 1.0, 2.5, NAN, 3.0, 4.0, NAN, NAN, 4.0,
                                     5.0, -6.125, NAN],
    "single_point_runs": [1.0, NAN, 2.0, NAN, NAN, 3.0],
    "one_point": [7.0],
    "all_missing": [NAN, NAN, NAN],
    "fractional_values": np.linspace(-3.333, 7.777, 57).tolist(),
    "constant": [5.0, 5.0, 5.0],
}


class TestSeriesMatchesReferenceLoop:
    @pytest.mark.parametrize("case", sorted(SERIES_CASES))
    @pytest.mark.parametrize("start", [1609459200.25, -86400.75])
    def test_same_text(self, case, start):
        values = np.array(SERIES_CASES[case])
        times = start + 900.5 * np.arange(values.size)
        finite = values[np.isfinite(values)]
        lo, hi = (finite.min(), finite.max()) if finite.size else (0.0, 1.0)
        panel = _Panel(70, 34.5, 870, 391.25, float(times[0]), float(times[-1]), lo, hi)
        got, expected = [], []
        panel.series(got, times, values, ACTUAL_COLOR)
        _reference_series(panel, expected, times, values, ACTUAL_COLOR)
        assert "\n".join(got) == "\n".join(expected)

    def test_whole_charts_unchanged(self, monkeypatch):
        i = np.arange(200.0)
        values = np.where(i % 41 == 3, np.nan, 10 + 0.1 * i + np.sin(2 * np.pi * i / 24))
        s = TimeSeries(1609459200.5, 900.0, values)
        dec = decompose(s, 24)
        tail = TimeSeries(s.start + 200 * 900.0, 900.0, np.array([1.0, NAN, 2.0, 3.0]))
        charts = decomposition_chart(s, dec), forecast_chart(s, tail)
        monkeypatch.setattr(_Panel, "series", _reference_series)
        assert (decomposition_chart(s, dec), forecast_chart(s, tail)) == charts


def _character_data(svg: str) -> str:
    texts = []
    parser = xml.parsers.expat.ParserCreate()
    parser.buffer_text = True
    parser.CharacterDataHandler = texts.append
    parser.Parse(svg, True)
    return "\n".join(texts)


class TestTextEscaping:
    TITLE = "A & B <kWh>"

    def test_forecast_title_is_escaped(self):
        svg = forecast_chart(*sample_pair(), title=self.TITLE)
        assert self.TITLE in _character_data(svg)

    def test_decomposition_title_is_escaped(self):
        s = TimeSeries(0.0, HOUR, np.sin(2 * np.pi * np.arange(48.0) / 24))
        svg = decomposition_chart(s, decompose(s, 24), title=self.TITLE)
        assert self.TITLE in _character_data(svg)


def _polylines(svg: str) -> list:
    """The point lists of every ``<polyline>``, as coordinate strings."""
    return [chunk.split('"', 1)[0].split(" ")
            for chunk in svg.split('<polyline points="')[1:]]


class TestDecimation:
    N = 60_000

    def long_series(self, n=N):
        rng = np.random.default_rng(4)
        i = np.arange(n, dtype=float)
        values = 100 + 30 * np.sin(2 * np.pi * i / 96) + rng.normal(0, 5, n).round()
        return 1609459200.0 + 900.0 * i, values

    def panel(self, times, values):
        return _Panel(70, 34, 870, 400, float(times[0]), float(times[-1]),
                      float(np.nanmin(values)), float(np.nanmax(values)))

    def test_keeps_each_columns_first_last_min_and_max(self):
        times, values = self.long_series()
        panel = self.panel(times, values)
        out = []
        panel.series(out, times, values, ACTUAL_COLOR)
        xs, ys = panel.x(times), panel.y(values)
        columns = {}
        for i, column in enumerate(np.floor(xs - panel.x0).tolist()):
            columns.setdefault(column, []).append(i)
        kept = set()
        for members in columns.values():
            kept.update([members[0], members[-1],
                         min(members, key=lambda i: (ys[i], i)),
                         max(members, key=lambda i: (ys[i], -i))])
        expected = [f"{_f(xs[i])},{_f(ys[i])}" for i in sorted(kept)]
        assert len(columns) <= 871 and len(out) == 1
        assert _polylines(out[0]) == [expected]

    def test_no_markers_in_a_decimated_chart(self):
        times, values = self.long_series()
        values[self.N // 3] = np.nan
        s = TimeSeries(float(times[0]), 900.0, values)
        svg = decomposition_chart(s, decompose(s, 96))
        assert svg.count("<circle") == 0
        ET.fromstring(svg)

    def test_one_missing_point_still_breaks_the_line(self):
        times, values = self.long_series()
        values[self.N // 2] = np.nan
        out = []
        self.panel(times, values).series(out, times, values, ACTUAL_COLOR)
        lines = _polylines("\n".join(out))
        assert len(lines) == 2
        gap = float(lines[1][0].split(",")[0]) - float(lines[0][-1].split(",")[0])
        assert 0 < gap < 1  # narrower than a pixel column

    def test_size_follows_width_not_length(self):
        sizes = []
        for n in (self.N, 4 * self.N):
            times, values = self.long_series(n)
            out = []
            self.panel(times, values).series(out, times, values, ACTUAL_COLOR)
            sizes.append(len(out[0]))
        # at most four points of 14 characters in each of 871 columns
        assert max(sizes) < 4 * 871 * 14 + 100


@pytest.mark.parametrize("value", [2.0 ** 53, 1e17, 1e308, -1e308])
def test_huge_constant_series_draws(value, recwarn):
    # ±1 around such a constant is lost in rounding, and so is a tick step
    s = TimeSeries(0.0, HOUR, np.full(48, value))
    forecast = TimeSeries(48 * HOUR, HOUR, np.full(2, value))
    for svg in forecast_chart(s, forecast), decomposition_chart(s, decompose(s, 4)):
        ET.fromstring(svg)
        assert "nan" not in svg
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("top", [1e308, np.finfo(float).max])
def test_range_past_the_float_top_draws(top, recwarn):
    # top - (-top) overflows float64, so the scale is taken in quarters
    s = TimeSeries(0.0, HOUR, np.array([-top, top, 0.0]))
    forecast = TimeSeries(3 * HOUR, HOUR, np.array([top, -top]))
    svg = forecast_chart(s, forecast)
    ET.fromstring(svg)
    assert "nan" not in svg and "inf" not in svg
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def _wavy(n):
    """Whole-arithmetic test values: a ramp per day minus a scrambled saw."""
    i = np.arange(n, dtype=float)
    return 100.0 + (i % 96) * 0.25 - ((i * 7919) % 31) * 0.5


def _long_decomposition(n):
    observed = _wavy(n)
    observed[n // 3: n // 3 + 50] = NAN
    observed[n // 2] = NAN
    trend = 100.0 + (np.arange(n) % 500) * 0.01
    trend[:48] = trend[-48:] = NAN
    seasonal = np.tile((np.arange(96) % 7) - 3.0, n // 96 + 1)[:n]
    residual = observed - trend - seasonal
    return TimeSeries(1609459200.0, 900.0, observed), Decomposition(trend, seasonal, residual, 96)


def _pinned_charts():
    """(name, svg) of every pinned chart. Inputs are built without
    transcendental functions or BLAS, so their bits do not depend on the
    platform; decompositions are given, not computed."""
    history = TimeSeries(0.0, HOUR, np.array([5.0, 6.0, NAN, 8.0, 9.0]))
    forecast = TimeSeries(5 * HOUR, HOUR, np.array([9.5, 10.0, 10.5]))
    yield "forecast_nan_runs", forecast_chart(history, forecast)
    yield "forecast_one_point_escaped_title", forecast_chart(
        history, TimeSeries(5 * HOUR, HOUR, np.array([7.25])), title="A & B <kWh>")
    yield "forecast_all_nan", forecast_chart(
        TimeSeries(-86400.75, 900.5, np.array([NAN, 2.0, 3.5, NAN, -1.0])),
        TimeSeries(-86400.75 + 5 * 900.5, 900.5, np.full(4, NAN)))
    yield "forecast_constant", forecast_chart(
        TimeSeries(0.0, HOUR, np.full(6, 4.0)), TimeSeries(6 * HOUR, HOUR, np.full(2, 4.0)))
    n = 70_000
    values = _wavy(n)
    values[1000:1400] = NAN
    values[n - 1] = NAN
    yield "forecast_decimated", forecast_chart(
        TimeSeries(1609459200.0, 900.0, values),
        TimeSeries(1609459200.0 + n * 900.0, 900.0, _wavy(24)), title="meter")
    i = np.arange(48.0)
    s = TimeSeries(0.0, HOUR, 10.0 + 0.125 * i + (i % 24) * 0.5)
    trend = np.where((i < 12) | (i >= 36), NAN, 10.0 + 0.125 * i)
    seasonal = (i % 24) * 0.5 - 5.75
    dec = Decomposition(trend, seasonal, s.values - trend - seasonal, 24)
    yield "decomposition_small", decomposition_chart(s, dec)
    yield "decomposition_escaped_title", decomposition_chart(s, dec, title="A & B <kWh>")
    yield "decomposition_all_nan_residual", decomposition_chart(
        s, Decomposition(trend, seasonal, np.full(48, NAN), 24))
    s, dec = _long_decomposition(105_120)
    yield "decomposition_decimated", decomposition_chart(s, dec, title="meter <2021>")
    s, dec = _long_decomposition(60_000)
    yield "decomposition_decimated_60k", decomposition_chart(s, dec)
    s = TimeSeries(1609459200.25, 1800.0, np.array([1.0, 1.0, 1.0, 1.0]))
    yield "decomposition_constant", decomposition_chart(
        s, Decomposition(np.array([NAN, 1.0, 1.0, NAN]), np.zeros(4), np.zeros(4), 2))


# sha256 of each chart's UTF-8 bytes, as the two charts' separate layout
# code wrote them before both went through one layout routine
PINNED_SHA256 = {
    "forecast_nan_runs":
        "89e8edf4e9d9f15d514b65283f4c88a4416fefb43b8976dd1a2842ee5824f176",
    "forecast_one_point_escaped_title":
        "fc56d81bc1539ad45b4f574ba8669b0470dec468c971ed8d214cef45d1f468d2",
    "forecast_all_nan":
        "f7d369cad9cc5c02f8708f02d746c25cb0b68efcd1a8ebc50045498a86648ca2",
    "forecast_constant":
        "3aeafd6cacea68d4edcec5d28321557e60137514b394c8d0bcf0f68c611c4ad6",
    "forecast_decimated":
        "b6a78643d243c1378191324326cbcabbcd37919e296069f846e75761e50c39e7",
    "decomposition_small":
        "eb25fe675ec46157f3721e072f64c7c911694679ac276cc050664047b851dded",
    "decomposition_escaped_title":
        "c4fb4bc1e009f6fb8defee7f405f5a3d410612e1e6e34c63f6f15c6d7ba269e2",
    "decomposition_all_nan_residual":
        "4ef96cd0040e906b6b4a6b24f02924c72e001c2f75c96b3b89f5a50f69c218aa",
    "decomposition_decimated":
        "73805da3350f030f3881bb713509d3cf06dfe6301611c601eedd9b77f86c5c39",
    "decomposition_decimated_60k":
        "7ed6bb6ce01f9237e39fdc8f77c1d6a78cbe1135fb829c24d2408d0252153549",
    "decomposition_constant":
        "d205e4ada788b89c5b0400dc10aa88558663aa05d9e7928350f7046c7bef9c40",
}


def test_chart_bytes_are_pinned():
    got = {name: hashlib.sha256(svg.encode("utf-8")).hexdigest()
           for name, svg in _pinned_charts()}
    assert got == PINNED_SHA256
