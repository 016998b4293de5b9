"""Self-contained SVG line charts, written without a plotting dependency.

Each unbroken run of a series is a polyline. While no pixel column holds
more than one of its points, the run embeds every point and a marker per
point. A denser run keeps only the first, last, lowest and highest point of
each pixel column (M4 aggregation: Jugel et al., PVLDB 7(10), 2014), which
draws the same pixels, and no markers; a chart's size is then bounded by its
width, not by the series length. The files stand alone and render anywhere.
Both charts come from one layout routine, ``_chart``: panels stacked on a
shared time axis in a document a fixed ``WIDTH`` of 960 px wide. All
coordinates are emitted with fixed precision, which makes the files
byte-identical across runs of the same data — plots participate in the same
determinism guarantee as CSV and report outputs.
"""

from __future__ import annotations

import html
import math
from datetime import datetime, timezone

import numpy as np

from .series import TimeSeries

PREDICTED_COLOR = "#1f77b4"  # blue
ACTUAL_COLOR = "#d62728"  # red
COMPONENT_COLOR = "#444444"
WIDTH = 960  # px, of every chart

_FONT = 'font-family="Helvetica,Arial,sans-serif"'


def _f(x: float) -> str:
    return f"{x:.2f}"


def _ticks(lo: float, hi: float, target: int = 5):
    """Round tick positions on a 1-2-5 ladder covering [lo, hi]."""
    if not math.isfinite(lo) or not math.isfinite(hi) or hi <= lo:
        return [lo]
    raw = (hi - lo) / max(target - 1, 1)
    magnitude = 10.0 ** math.floor(math.log10(raw))
    step = next(m * magnitude for m in (1.0, 2.0, 5.0, 10.0) if raw <= m * magnitude)
    first = math.ceil(lo / step) * step
    out = []
    value = first
    while value <= hi + 1e-9 * step:
        out.append(0.0 if abs(value) < 1e-12 * step else value)
        value, last = value + step, value
        if value == last:  # the step is lost in rounding a huge value
            break
    return out or [lo]


def _time_label(seconds: float, span: float) -> str:
    stamp = datetime.fromtimestamp(seconds, tz=timezone.utc)
    if span >= 3 * 86400:
        return stamp.strftime("%Y-%m-%d")
    return stamp.strftime("%m-%d %H:%M")


def _finite_runs(values: np.ndarray):
    """Index ranges of consecutive finite values; NaN breaks the line."""
    finite = np.isfinite(values)
    edges = np.flatnonzero(np.diff(finite.astype(int)))
    bounds = [0, *(edges + 1), values.size]
    for begin, end in zip(bounds[:-1], bounds[1:]):
        if finite[begin]:
            yield begin, end


class _Panel:
    """One plotting area with its own y scale; x is shared epoch seconds."""

    def __init__(self, x0, y0, width, height, t_lo, t_hi, v_lo, v_hi):
        if v_hi <= v_lo:
            v_lo, v_hi = v_lo - 1.0, v_hi + 1.0
        if v_hi <= v_lo:  # a constant so large that 1 is lost in rounding
            half = abs(v_lo) * 2.0 ** -20
            v_lo, v_hi = v_lo - half, v_hi + half
        # the padded range in units of 1, or of 1/4 where its span would pass
        # float64's top (exact for normal floats); v_lo and v_hi are in units
        for unit in (1.0, 0.25):
            lo, hi = v_lo * unit, v_hi * unit
            pad = 0.05 * (hi - lo)
            if math.isfinite((hi + pad) - (lo - pad)):
                break
        self.x0, self.y0, self.width, self.height = x0, y0, width, height
        self.t_lo, self.t_hi = t_lo, max(t_hi, t_lo + 1.0)
        self.unit, self.v_lo, self.v_hi = unit, lo - pad, hi + pad

    def x(self, t: float) -> float:
        return self.x0 + (t - self.t_lo) / (self.t_hi - self.t_lo) * self.width

    def y(self, v: float) -> float:
        return (self.y0 + self.height
                - (v * self.unit - self.v_lo) / (self.v_hi - self.v_lo) * self.height)

    def frame(self, out: list):
        out.append(f'<rect x="{_f(self.x0)}" y="{_f(self.y0)}" '
                   f'width="{_f(self.width)}" height="{_f(self.height)}" '
                   'fill="white" stroke="#999999" stroke-width="1"/>')

    def y_axis(self, out: list):
        for tick in _ticks(self.v_lo, self.v_hi):
            tick /= self.unit
            if not math.isfinite(tick):  # in the pad past float64's top
                continue
            y = self.y(tick)
            out.append(f'<line x1="{_f(self.x0)}" y1="{_f(y)}" '
                       f'x2="{_f(self.x0 + self.width)}" y2="{_f(y)}" '
                       'stroke="#dddddd" stroke-width="1"/>')
            out.append(f'<text x="{_f(self.x0 - 6)}" y="{_f(y + 3)}" {_FONT} '
                       f'font-size="10" text-anchor="end">{tick:.6g}</text>')

    def x_axis(self, out: list):
        span = self.t_hi - self.t_lo
        for tick in _ticks(self.t_lo, self.t_hi, target=5):
            x = self.x(tick)
            out.append(f'<line x1="{_f(x)}" y1="{_f(self.y0 + self.height)}" '
                       f'x2="{_f(x)}" y2="{_f(self.y0 + self.height + 4)}" '
                       'stroke="#999999" stroke-width="1"/>')
            out.append(f'<text x="{_f(x)}" y="{_f(self.y0 + self.height + 16)}" '
                       f'{_FONT} font-size="10" text-anchor="middle">'
                       f'{_time_label(tick, span)}</text>')

    def series(self, out: list, times, values, color: str):
        """A polyline per finite run, and point markers while no pixel column
        holds more than one point of the run. A denser run is drawn from the
        first, last, lowest and highest point of each pixel column (M4), which
        draws the same pixels, and without markers. ``x`` and ``y`` run on
        whole arrays, so each coordinate is the double a per-point call gives,
        and ``'%.2f'`` formats it as ``_f`` does. One string holds a run's
        markers, one per line."""
        values = np.asarray(values, dtype=float)
        xs = self.x(np.asarray(times, dtype=float))
        ys = self.y(values)
        circle = f'<circle cx="%.2f" cy="%.2f" r="2" fill="{color}"/>'
        for begin, end in _finite_runs(values):
            run_xs, run_ys = xs[begin:end], ys[begin:end]
            keep = _m4(np.floor(run_xs - self.x0), run_ys)
            if keep is not None:
                run_xs, run_ys = run_xs[keep], run_ys[keep]
            count = run_xs.size
            xy = tuple(np.column_stack([run_xs, run_ys]).ravel().tolist())
            if count > 1:
                points = " ".join(["%.2f,%.2f"] * count) % xy
                out.append(f'<polyline points="{points}" fill="none" '
                           f'stroke="{color}" stroke-width="1.5"/>')
            if keep is None:
                out.append("\n".join([circle] * count) % xy)


def _m4(columns: np.ndarray, ys: np.ndarray):
    """Indices, in time order, of the first, last, lowest and highest point of
    each pixel column of a run; None when no column holds more than one point.
    ``columns`` does not decrease, as a run is in time order."""
    new = np.diff(columns) != 0
    if new.all():
        return None
    group = np.concatenate([[0], np.cumsum(new)])
    starts = np.concatenate([[0], np.flatnonzero(new) + 1])
    keep = np.zeros(columns.size, dtype=bool)
    keep[starts] = True
    keep[np.append(starts[1:] - 1, columns.size - 1)] = True
    for extreme in (np.minimum, np.maximum):
        # the first point of each column at its extreme
        hit = np.flatnonzero(ys == extreme.reduceat(ys, starts)[group])
        keep[hit[np.unique(group[hit], return_index=True)[1]]] = True
    return np.flatnonzero(keep)


def _chart(height: int, bottom: int, title: str, panels, legend=()) -> str:
    """A ``WIDTH`` x ``height`` document: ``panels``, each a (label or None,
    [(times, values, color), ...]), stacked on one shared time axis that the
    last one draws, each scaled to the finite values of its own series and
    ``bottom`` px left below them; then the title and the ``legend``'s
    (label, color) entries."""
    top, gap = 34, 14
    panel_height = (height - top - bottom - (len(panels) - 1) * gap) / len(panels)
    stamps = [times for _, lines in panels for times, _, _ in lines if len(times)]
    t_lo = min(float(times[0]) for times in stamps)
    t_hi = max(float(times[-1]) for times in stamps)
    body: list = []
    for i, (label, lines) in enumerate(panels):
        ranges = [(float(f.min()), float(f.max()))
                  for f in (values[np.isfinite(values)] for _, values, _ in lines) if f.size]
        v_lo = min((lo for lo, _ in ranges), default=0.0)
        v_hi = max((hi for _, hi in ranges), default=1.0)
        y0 = top + i * (panel_height + gap)
        panel = _Panel(70, y0, WIDTH - 90, panel_height, t_lo, t_hi, v_lo, v_hi)
        panel.frame(body)
        panel.y_axis(body)
        if i == len(panels) - 1:
            panel.x_axis(body)
        for times, values, color in lines:
            panel.series(body, times, values, color)
        if label is not None:
            body.append(f'<text x="{_f(74)}" y="{_f(y0 + 12)}" {_FONT} '
                        f'font-size="11" fill="#333333">{label}</text>')
    body.append(f'<text x="{_f(WIDTH / 2)}" y="20" {_FONT} font-size="14" '
                f'text-anchor="middle">{html.escape(title, quote=False)}</text>')
    for i, (label, color) in enumerate(legend):
        row = 42 + 16 * i
        body.append(f'<rect x="{_f(WIDTH - 150)}" y="{_f(row)}" width="18" height="4" '
                    f'fill="{color}"/>')
        body.append(f'<text x="{_f(WIDTH - 126)}" y="{_f(row + 6)}" {_FONT} '
                    f'font-size="11">{html.escape(label, quote=False)}</text>')
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{height}" viewBox="0 0 {WIDTH} {height}">')
    background = f'<rect x="0" y="0" width="{WIDTH}" height="{height}" fill="white"/>'
    return "\n".join([head, background, *body, "</svg>\n"])


def forecast_chart(actual: TimeSeries, predicted: TimeSeries, *,
                   title: str = "forecast") -> str:
    """Observed history in red and forecast values in blue, with a legend."""
    lines = [(actual.timestamps, actual.values, ACTUAL_COLOR),
             (predicted.timestamps, predicted.values, PREDICTED_COLOR)]
    return _chart(480, 54, title, [(None, lines)],
                  [("actual", ACTUAL_COLOR), ("predicted", PREDICTED_COLOR)])


def decomposition_chart(observed: TimeSeries, decomposition, *,
                        title: str = "decomposition") -> str:
    """Four stacked panels on a shared time axis: observed, trend, seasonal,
    residual."""
    times = observed.timestamps
    rows = [("observed", observed.values, ACTUAL_COLOR),
            ("trend", decomposition.trend, PREDICTED_COLOR),
            ("seasonal", decomposition.seasonal, COMPONENT_COLOR),
            ("residual", decomposition.residual, COMPONENT_COLOR)]
    return _chart(720, 40, title, [(label, [(times, values, color)])
                                   for label, values, color in rows])
