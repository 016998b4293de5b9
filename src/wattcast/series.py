"""Canonical time-series containers and alignment operations.

A series is a uniformly spaced sequence of observations: a start timestamp
(UTC seconds), a constant interval (seconds), and a value array. Timestamps
are implicit (``t_i = start + i * interval``); missing observations are kept
in place as NaN so spacing stays uniform. Energy values are in milliwatts.

All containers are frozen and their arrays are made read-only, so instances
can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch, NotAMultiple, NumericOverflow, UnsortedWeather


def _as_readonly_values(values, columns=None) -> np.ndarray:
    """A read-only float64 copy of ``values``: one-dimensional, or of
    ``columns`` columns if that is given."""
    arr = np.asarray(values, dtype=np.float64)
    if columns is None and arr.ndim != 1:
        raise ValueError(f"values must be one-dimensional, got shape {arr.shape}")
    if columns is not None and (arr.ndim != 2 or arr.shape[1] != columns):
        raise ValueError(f"values must have shape (n, {columns}), got {arr.shape}")
    if np.isinf(arr).any():
        raise ValueError("non-missing values must be finite (inf not allowed)")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly spaced observations of a single variable.

    Attributes:
        start: timestamp of the first observation (UTC seconds)
        interval: spacing between observations (seconds, > 0)
        values: observation array; NaN marks a missing observation
    """

    start: float
    interval: float
    values: np.ndarray

    def __post_init__(self):
        if self.interval <= 0:
            raise ValueError(f"interval must be > 0, got {self.interval}")
        object.__setattr__(self, "values", _as_readonly_values(self.values))

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def timestamps(self) -> np.ndarray:
        return self.start + self.interval * np.arange(len(self))

    @property
    def missing(self) -> np.ndarray:
        """Boolean mask over observations, True where missing."""
        return np.isnan(self.values)

    def slice(self, begin: int, end: int | None = None) -> "TimeSeries":
        """Sub-series over index range [begin, end); start is shifted accordingly."""
        idx = range(len(self))[begin:end]
        offset = idx.start if len(idx) else begin
        return TimeSeries(self.start + offset * self.interval, self.interval,
                          self.values[begin:end])

    def with_values(self, values) -> "TimeSeries":
        return TimeSeries(self.start, self.interval, values)


@dataclass(frozen=True)
class MultiSeries:
    """Several time-aligned variables sharing one implicit timestamp index.

    ``values`` has shape (n_rows, n_columns); ``names`` labels the columns
    (unique, non-empty). NaN marks a missing cell.
    """

    start: float
    interval: float
    names: tuple
    values: np.ndarray

    def __post_init__(self):
        if self.interval <= 0:
            raise ValueError(f"interval must be > 0, got {self.interval}")
        names = tuple(self.names)
        if len(names) == 0:
            raise ValueError("MultiSeries needs at least one column")
        if any(not n for n in names):
            raise ValueError("column names must be non-empty")
        if len(set(names)) != len(names):
            raise ValueError(f"column names must be unique, got {names}")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "values", _as_readonly_values(self.values, len(names)))

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def timestamps(self) -> np.ndarray:
        return self.start + self.interval * np.arange(len(self))

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.names.index(name)]

    def series(self, name: str) -> TimeSeries:
        """Extract one column as a TimeSeries."""
        return TimeSeries(self.start, self.interval, self.column(name))


def resample(s: TimeSeries, target_interval: float, mode: str = "sum") -> TimeSeries:
    """Aggregate to a coarser interval that is an integer multiple of the source.

    Each output value aggregates the k = target/source values of its window
    with ``mode`` ("sum" for accumulating quantities such as energy, "mean"
    for state quantities such as temperature). A window containing any missing
    value yields a missing output, and a trailing partial window is dropped so
    the output stays exactly uniform. An aggregate that overflows float64
    raises ``NumericOverflow``.
    """
    if mode not in ("sum", "mean"):
        raise ValueError(f"mode must be 'sum' or 'mean', got {mode!r}")
    if target_interval <= 0 or target_interval % s.interval != 0:
        raise NotAMultiple(
            f"target interval {target_interval} is not a positive integer "
            f"multiple of the source interval {s.interval}")
    k = int(round(target_interval / s.interval))
    if k == 1:
        return s
    n_windows = len(s) // k
    if n_windows == 0:
        return TimeSeries(s.start, target_interval, np.empty(0))
    windows = s.values[: n_windows * k].reshape(n_windows, k)
    with np.errstate(over="ignore"):
        agg = windows.sum(axis=1) if mode == "sum" else windows.mean(axis=1)
    if np.isinf(agg).any():
        first = k * int(np.argmax(np.isinf(agg)))
        raise NumericOverflow(f"the {mode} of values {first} to {first + k - 1} "
                              "overflows float64")
    # NaN propagates through sum/mean, which is exactly the missing-window policy
    return TimeSeries(s.start, target_interval, agg)


def merge(energy: TimeSeries, weather: dict, max_fill: int = 2) -> MultiSeries:
    """Attach a ``read_weather`` table to an energy series, carrying each
    observation forward: an energy row takes the latest observation at or
    before its timestamp, no older than ``max_fill`` energy intervals, and
    has missing weather cells without one. The energy column is copied
    verbatim; then come temperature, humidity (all missing if absent) and
    the other columns sorted."""
    ts = np.asarray(weather["timestamp"], dtype=np.float64)
    columns = {name: np.asarray(values, dtype=np.float64)
               for name, values in weather.items() if name != "timestamp"}
    if any(values.shape != ts.shape for values in columns.values()):
        raise LengthMismatch("each weather column needs one value per timestamp")
    if not np.isfinite(ts).all():
        raise ValueError("weather timestamps must be finite")
    if np.any(np.diff(ts) < 0):
        pos = int(np.argmax(np.diff(ts) < 0)) + 1
        raise UnsortedWeather(
            f"weather timestamps decrease at record {pos} "
            f"({ts[pos]} after {ts[pos - 1]})")

    names = ["temperature", "humidity", *sorted(set(columns) - {"temperature", "humidity"})]
    out = np.full((len(energy), 1 + len(names)), np.nan)
    out[:, 0] = energy.values
    if ts.size:
        t = energy.timestamps
        latest = np.searchsorted(ts, t, side="right") - 1
        rows = np.flatnonzero((latest >= 0) & (t - ts[latest] <= max_fill * energy.interval))
        for c, name in enumerate(names, start=1):
            if name in columns:
                out[rows, c] = columns[name][latest[rows]]
    return MultiSeries(energy.start, energy.interval, ("energy", *names), out)
