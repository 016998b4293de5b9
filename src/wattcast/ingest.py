"""File-based dataset readers and the canonical time-series CSV writer.

Energy meter exports come in a handful of near-identical CSV dialects:
a timestamp column (ISO-8601 or epoch seconds) plus a consumption column,
sometimes with extra columns, sometimes without a header. ``infer_schema``
detects the common cases and refuses to guess when the file is ambiguous;
``DatasetSchema`` describes any layout explicitly.

Readers never invent values: rows are sorted, duplicate timestamps are an
error, and gaps in an otherwise uniform series become explicit NaN rows at
the inferred modal interval. Interpolation is left to the caller.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import numpy as np

from .errors import (
    CannotInfer,
    ConfigError,
    DuplicateTimestamp,
    NonUniformInterval,
    ParseError,
)
from .series import TimeSeries, WeatherRecord

# epoch-second timestamps live in [1973, ~5138]; meter readings in milliwatts
# stay well below this band, so the two never collide during inference
_EPOCH_MIN = 1e8
_EPOCH_MAX = 1e11

_MISSING_TOKENS = ("", "nan", "na", "null", "none")


@dataclass(frozen=True)
class DatasetSchema:
    """Explicit description of a CSV layout.

    ``timestamp_format`` is "auto" (ISO-8601, then epoch seconds), "iso",
    "epoch", or a strptime pattern. Naive timestamps are interpreted at
    ``utc_offset_hours``. Columns are referenced by header name, or by
    zero-based index (as a string) for headerless files.
    """

    timestamp_column: str
    value_column: str
    timestamp_format: str = "auto"
    delimiter: str = ","
    has_header: bool = True
    utc_offset_hours: float = 0.0

    def __post_init__(self):
        if not self.timestamp_column or not self.value_column:
            raise ConfigError("schema column names must be non-empty")
        if not self.delimiter:
            raise ConfigError("schema delimiter must be non-empty")
        if not self.timestamp_format:
            raise ConfigError("schema timestamp format must be non-empty")


def parse_timestamp(text: str, fmt: str = "auto", utc_offset_hours: float = 0.0) -> float:
    """Parse one timestamp cell to UTC epoch seconds.

    Raises ValueError when the cell does not match the format.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty timestamp")
    tz = timezone(timedelta(hours=utc_offset_hours))

    if fmt == "epoch":
        return float(text)
    if "%" in fmt:
        stamp = datetime.strptime(text, fmt)
        if stamp.tzinfo is None:
            stamp = stamp.replace(tzinfo=tz)
        return stamp.timestamp()

    # "auto" and "iso": ISO-8601 with optional trailing Z
    try:
        stamp = datetime.fromisoformat(text.replace("Z", "+00:00"))
        if stamp.tzinfo is None:
            stamp = stamp.replace(tzinfo=tz)
        return stamp.timestamp()
    except ValueError:
        if fmt == "iso":
            raise
    # auto fallback: epoch seconds, restricted to a plausible range
    seconds = float(text)
    if not _EPOCH_MIN <= seconds <= _EPOCH_MAX:
        raise ValueError(f"{text!r} is neither ISO-8601 nor plausible epoch seconds")
    return seconds


def _parse_value(text: str, line: int) -> float:
    if text.strip().lower() in _MISSING_TOKENS:
        return float("nan")
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"bad numeric value {text!r}", line=line) from None


def _read_rows(path, delimiter: str):
    with open(path, newline="", encoding="utf-8-sig") as fh:
        return [row for row in csv.reader(fh, delimiter=delimiter)]


def _column_index(name, header, n_columns: int, what: str) -> int:
    if header is not None and name in header:
        return header.index(name)
    text = str(name)
    if text.lstrip("-").isdigit() and 0 <= int(text) < n_columns:
        return int(text)
    where = f"header {header}" if header is not None else f"{n_columns} columns"
    raise ParseError(f"{what} column {name!r} not found in {where}", line=1)


def read_energy_csv(path, schema: DatasetSchema | None = None) -> TimeSeries:
    """Read an energy CSV into a uniformly spaced series.

    Rows are sorted by timestamp; duplicates are rejected. The sampling
    interval is the modal gap between consecutive rows, and it must account
    for at least 90% of the gaps (each gap an integer multiple); missing
    rows on that grid become NaN, off-grid stragglers are dropped.
    """
    if schema is None:
        schema = infer_schema(path)
    rows = _read_rows(path, schema.delimiter)
    header = rows[0] if schema.has_header and rows else None
    body_start = 2 if schema.has_header else 1
    body = rows[1:] if schema.has_header else rows
    if not body:
        raise ParseError("no data rows", line=body_start - 1 or 1)

    n_columns = len(rows[0])
    ts_col = _column_index(schema.timestamp_column, header, n_columns, "timestamp")
    val_col = _column_index(schema.value_column, header, n_columns, "value")

    stamps, values = [], []
    for offset, row in enumerate(body):
        line = body_start + offset
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) <= max(ts_col, val_col):
            raise ParseError(f"expected at least {max(ts_col, val_col) + 1} "
                             f"columns, got {len(row)}", line=line)
        try:
            stamps.append(parse_timestamp(row[ts_col], schema.timestamp_format,
                                          schema.utc_offset_hours))
        except ValueError as exc:
            raise ParseError(f"bad timestamp {row[ts_col]!r} ({exc})",
                             line=line) from None
        values.append(_parse_value(row[val_col], line))

    if not stamps:
        raise ParseError("no data rows", line=body_start)
    order = np.argsort(np.asarray(stamps), kind="stable")
    stamps = np.asarray(stamps, dtype=np.float64)[order]
    values = np.asarray(values, dtype=np.float64)[order]

    dup = np.flatnonzero(np.diff(stamps) == 0)
    if dup.size:
        raise DuplicateTimestamp(
            f"timestamp {_format_timestamp(stamps[dup[0] + 1])} appears twice")
    if stamps.size == 1:
        raise NonUniformInterval("cannot infer a sampling interval from one row")

    gaps = np.diff(stamps)
    modal = Counter(gaps.tolist()).most_common(1)[0][0]
    multiples = gaps / modal
    on_grid = np.abs(multiples - np.round(multiples)) < 1e-6
    coverage = on_grid.mean()
    if coverage < 0.9:
        raise NonUniformInterval(
            f"modal interval {modal:g}s covers only {coverage:.0%} of gaps")

    steps = (stamps - stamps[0]) / modal
    grid = np.abs(steps - np.round(steps)) < 1e-6
    length = int(round(steps[grid][-1])) + 1
    out = np.full(length, np.nan)
    out[np.round(steps[grid]).astype(int)] = values[grid]
    return TimeSeries(float(stamps[0]), float(modal), out)


def read_weather(path, schema: DatasetSchema | None = None) -> list:
    """Read weather observations from CSV or an API JSON export.

    Files ending in ``.json`` use the export shape ``{"list": [{"dt": ...,
    "main": {"temp": ..., "humidity": ...}}]}``. CSV files need a header;
    the temperature/humidity columns are matched by name and any other
    numeric columns land in ``extra``. Records come back sorted by time;
    an empty field leaves that field missing rather than dropping the row.
    """
    if str(path).endswith(".json"):
        return _read_weather_json(path)

    delimiter = schema.delimiter if schema else ","
    fmt = schema.timestamp_format if schema else "auto"
    offset_hours = schema.utc_offset_hours if schema else 0.0
    rows = _read_rows(path, delimiter)
    if len(rows) < 2:
        raise ParseError("weather CSV needs a header and at least one row", line=1)
    header = [cell.strip().lower() for cell in rows[0]]
    ts_name = schema.timestamp_column if schema else None
    if ts_name is not None and ts_name in rows[0]:
        ts_col = rows[0].index(ts_name)
    else:
        candidates = [i for i, name in enumerate(header)
                      if name in ("timestamp", "datetime", "time", "dt", "date")]
        ts_col = candidates[0] if candidates else 0

    records = []
    for offset, row in enumerate(rows[1:]):
        line = offset + 2
        if not row or all(not cell.strip() for cell in row):
            continue
        try:
            stamp = parse_timestamp(row[ts_col], fmt, offset_hours)
        except ValueError as exc:
            raise ParseError(f"bad timestamp {row[ts_col]!r} ({exc})",
                             line=line) from None
        fields = {}
        for j, name in enumerate(header):
            if j == ts_col or j >= len(row):
                continue
            if row[j].strip().lower() in _MISSING_TOKENS:
                continue
            try:
                fields[name] = float(row[j])
            except ValueError:
                raise ParseError(f"bad numeric value {row[j]!r} in column "
                                 f"{name!r}", line=line) from None
        records.append(WeatherRecord(
            stamp,
            temperature=fields.pop("temperature", fields.pop("temp", None)),
            humidity=fields.pop("humidity", None),
            extra=fields))
    records.sort(key=lambda r: r.timestamp)
    return records


def _read_weather_json(path) -> list:
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}", line=exc.lineno) from None
    entries = payload.get("list", payload) if isinstance(payload, dict) else payload
    if not isinstance(entries, list):
        raise ParseError("expected a list of observations", line=1)
    records = []
    for i, entry in enumerate(entries):
        try:
            main = entry.get("main", {})
            records.append(WeatherRecord(
                float(entry["dt"]),
                temperature=None if main.get("temp") is None else float(main["temp"]),
                humidity=None if main.get("humidity") is None else float(main["humidity"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"observation {i}: {exc}", line=1) from None
    records.sort(key=lambda r: r.timestamp)
    return records


def infer_schema(path) -> DatasetSchema:
    """Best-effort layout detection; refuses to guess on ambiguity.

    The timestamp column is the first whose cells all parse as datetimes
    (ISO-8601, or integers in a plausible epoch range); the value column is
    the only remaining fully numeric column. Anything else — no candidates,
    or several — raises CannotInfer listing what was considered.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        sample = fh.read(1 << 16)
    if not sample.strip():
        raise CannotInfer("file is empty")

    try:
        delimiter = csv.Sniffer().sniff(sample, delimiters=",;\t|").delimiter
    except csv.Error:
        first = sample.splitlines()[0]
        counts = {d: first.count(d) for d in ",;\t|"}
        delimiter = max(counts, key=counts.get)
        if counts[delimiter] == 0:
            raise CannotInfer("could not detect a delimiter; "
                              "expected one of ',' ';' tab '|'") from None

    rows = [row for row in csv.reader(sample.splitlines(), delimiter=delimiter)
            if row and any(cell.strip() for cell in row)][:50]
    if not rows:
        raise CannotInfer("no rows to inspect")

    def is_ts(cell):
        try:
            parse_timestamp(cell)
            return True
        except ValueError:
            return False

    def is_num(cell):
        try:
            float(cell)
            return True
        except ValueError:
            return False

    first_is_data = all(is_ts(c) or is_num(c) for c in rows[0] if c.strip())
    has_header = not first_is_data
    header = [c.strip() for c in rows[0]] if has_header else None
    body = rows[1:] if has_header else rows
    if not body:
        raise CannotInfer("header only, no data rows")

    n_columns = len(rows[0])
    names = header if header is not None else [str(j) for j in range(n_columns)]
    ts_like, numeric = [], []
    for j in range(n_columns):
        cells = [row[j] for row in body if j < len(row)
                 and row[j].strip().lower() not in _MISSING_TOKENS]
        if not cells:
            continue
        if all(is_ts(c) for c in cells):
            ts_like.append(j)
        if all(is_num(c) for c in cells):
            numeric.append(j)

    if not ts_like:
        raise CannotInfer(f"no timestamp column among {names}")
    ts_col = ts_like[0]
    value_candidates = [j for j in numeric if j != ts_col]
    if not value_candidates:
        raise CannotInfer(f"no numeric value column among {names}")
    if len(value_candidates) > 1:
        listed = ", ".join(names[j] for j in value_candidates)
        raise CannotInfer(f"ambiguous value column; candidates: {listed}")

    return DatasetSchema(timestamp_column=names[ts_col],
                         value_column=names[value_candidates[0]],
                         delimiter=delimiter, has_header=has_header)


def _format_timestamp(seconds: float) -> str:
    stamp = datetime.fromtimestamp(seconds, tz=timezone.utc)
    return stamp.strftime("%Y-%m-%dT%H:%M:%SZ")


def write_energy_csv(destination, s: TimeSeries) -> None:
    """Write the canonical CSV form: ``timestamp,value``, ISO-8601 UTC, NaN
    literal for missing. ``read_energy_csv`` round-trips it exactly.

    Timestamps are written at whole-second resolution.
    """
    own = not hasattr(destination, "write")
    fh = open(destination, "w", newline="", encoding="utf-8") if own else destination
    try:
        fh.write("timestamp,value\n")
        for i, value in enumerate(s.values):
            stamp = _format_timestamp(s.start + i * s.interval)
            text = "NaN" if math.isnan(value) else repr(float(value))
            fh.write(f"{stamp},{text}\n")
    finally:
        if own:
            fh.close()
