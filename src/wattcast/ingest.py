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
import re
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from itertools import zip_longest

import numpy as np

from .errors import (
    CannotInfer,
    ConfigError,
    DuplicateTimestamp,
    NonUniformInterval,
    ParseError,
)
from .series import TimeSeries

# epoch-second timestamps live in [1973, ~5138]; meter readings in milliwatts
# stay well below this band, so the two never collide during inference
_EPOCH_MIN = 1e8
_EPOCH_MAX = 1e11
# a column of 9- and 10-digit epoch seconds, one cell a line: every such cell
# lies in [_EPOCH_MIN, _EPOCH_MAX), and ``datetime.fromisoformat`` takes no
# digit string of those lengths (it does take some of 8, 11 and 13)
_EPOCH_COLUMN = re.compile(r"[1-9][0-9]{8,9}(?:\n[1-9][0-9]{8,9})*")

_MISSING_TOKENS = ("", "nan", "na", "null", "none")

# 1000-01-01 and 10000-01-01 UTC in epoch seconds: the years numpy's
# datetime strings share with strftime's
_YEAR_1000 = -30_610_224_000.0
_YEAR_10000 = 253_402_300_800.0
# rows of CSV text formatted and written at a time
_CHUNK_ROWS = 4096


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
        try:
            timezone(timedelta(hours=self.utc_offset_hours))
        except (ValueError, OverflowError):
            raise ConfigError("UTC offset must be finite and strictly between -24 "
                              f"and 24 hours, got {self.utc_offset_hours!r}") from None


def _timestamp_parser(fmt: str, utc_offset_hours: float):
    """The one-cell parser of ``parse_timestamp`` for ``fmt`` and the offset,
    with the timezone built once for every cell it parses."""
    tz = timezone(timedelta(hours=utc_offset_hours))

    def parse(text: str) -> float:
        text = text.strip()
        if not text:
            raise ValueError("empty timestamp")
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

    return parse


def parse_timestamp(text: str, fmt: str = "auto", utc_offset_hours: float = 0.0) -> float:
    """Parse one timestamp cell to UTC epoch seconds.

    Raises ValueError when the cell does not match the format.
    """
    return _timestamp_parser(fmt, utc_offset_hours)(text)


def _parse_value(text: str) -> float:
    """A value cell: a float, or NaN for a missing token."""
    try:
        return float(text)
    except ValueError:
        # float() already reads the "nan" token; the other tokens are not numbers
        if text.strip().lower() in _MISSING_TOKENS:
            return math.nan
        raise


def _parse_column(parse, cells):
    """``parse`` of each cell up to the first ValueError. Returns the parsed
    values and that error, or None; the failing cell is ``cells[len(values)]``."""
    out = []
    append = out.append
    try:
        for cell in cells:
            append(parse(cell))
    except ValueError as exc:
        return out, exc
    return out, None


def _parse_timestamps(cells, fmt: str, utc_offset_hours: float):
    """``_parse_column`` of the ``fmt`` cell parser over ``cells``. An
    ``epoch`` column, or an ``auto`` column of plain 9- and 10-digit epoch
    seconds, is read in one ``float`` pass; if that pass fails, the cell loop
    finds the first bad cell and its error."""
    if fmt == "epoch" or (fmt == "auto" and _EPOCH_COLUMN.fullmatch("\n".join(cells))):
        try:
            return list(map(float, cells)), None
        except ValueError:
            pass
    return _parse_column(_timestamp_parser(fmt, utc_offset_hours), cells)


def _checked(values, error, nan_ok: bool):
    """``_parse_column``'s values as a float64 array, and (row, reason) of
    the first cell that parses to an infinity, or to NaN unless ``nan_ok``,
    or else stopped the parse; or None."""
    values = np.asarray(values, dtype=np.float64)
    bad = np.isinf(values) if nan_ok else ~np.isfinite(values)
    if bad.any():
        return values, (int(bad.argmax()), "not finite")
    return values, None if error is None else (values.size, error)


def _nonblank_rows(body):
    """``body`` without its blank rows, and the ascending indices of those."""
    if all(map(str.strip, map("".join, body))):
        return body, []
    blank = [i for i, row in enumerate(body) if not "".join(row).strip()]
    return [row for row in body if "".join(row).strip()], blank


def _raise_first(problems, blank, body_start: int) -> None:
    """Raise the first of ``problems``, (non-blank row, rank in the row, message),
    at its file line, counting the ``blank`` rows of a body that starts on ``body_start``."""
    if not problems:
        return
    row, _, message = min(problems)
    for skipped in blank:  # ascending
        if skipped <= row:
            row += 1
    raise ParseError(message, line=body_start + row)


def _modal_gap(gaps: np.ndarray) -> float:
    """The most common gap; among equally common gaps, the one seen first."""
    distinct, first, counts = np.unique(gaps, return_index=True,
                                        return_counts=True, equal_nan=False)
    tied = np.flatnonzero(counts == counts.max())
    return float(distinct[tied[np.argmin(first[tied])]])


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
    width = max(ts_col, val_col) + 1

    body, blank = _nonblank_rows(body)
    short = len(body)
    if min(map(len, body), default=width) < width:
        short = next(k for k, row in enumerate(body) if len(row) < width)
    stamp_cells = [row[ts_col] for row in body[:short]]
    value_cells = [row[val_col] for row in body[:short]]
    problems = []
    if short < len(body):
        problems.append((short, 0, f"expected at least {width} columns, "
                                   f"got {len(body[short])}"))
    del rows, body

    # the first bad row is reported, its width checked first, then its timestamp
    stamps, bad = _checked(*_parse_timestamps(stamp_cells, schema.timestamp_format,
                                              schema.utc_offset_hours), nan_ok=False)
    if bad is not None:
        problems.append((bad[0], 1, f"bad timestamp {stamp_cells[bad[0]]!r} ({bad[1]})"))
    values, bad = _checked(*_parse_column(_parse_value, value_cells), nan_ok=True)
    if bad is not None:
        problems.append((bad[0], 2, f"bad numeric value {value_cells[bad[0]]!r}"))
    _raise_first(problems, blank, body_start)

    if not stamps.size:
        raise ParseError("no data rows", line=body_start)
    order = np.argsort(stamps, kind="stable")
    stamps, values = stamps[order], values[order]

    dup = np.flatnonzero(np.diff(stamps) == 0)
    if dup.size:
        raise DuplicateTimestamp(
            f"timestamp {_format_timestamp(stamps[dup[0] + 1])} appears twice")
    if stamps.size == 1:
        raise NonUniformInterval("cannot infer a sampling interval from one row")

    gaps = np.diff(stamps)
    modal = _modal_gap(gaps)
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


def read_weather(path, schema: DatasetSchema | None = None) -> dict:
    """Read weather observations from CSV or an API JSON export as a table:
    float64 arrays by name, sorted stably by ``timestamp``, NaN where missing.

    Files ending in ``.json`` use the export shape ``{"list": [{"dt": ...,
    "main": {"temp": ..., "humidity": ...}}]}``. CSV files need a header;
    ``temperature`` (else ``temp``) and ``humidity`` are matched by name, and
    any other column with an observed value is kept under its lowercased name.
    """
    if str(path).endswith(".json"):
        table = _read_weather_json(path)
    else:
        table = _read_weather_csv(path, schema)
    order = np.argsort(table["timestamp"], kind="stable")
    return {name: values[order] for name, values in table.items()}


def _read_weather_csv(path, schema) -> dict:
    rows = _read_rows(path, schema.delimiter if schema else ",")
    if len(rows) < 2:
        raise ParseError("weather CSV needs a header and at least one row", line=1)
    header = [cell.strip().lower() for cell in rows[0]]
    if schema and schema.timestamp_column in rows[0]:
        ts_col = rows[0].index(schema.timestamp_column)
    else:
        ts_col = next((i for i, name in enumerate(header)
                       if name in ("timestamp", "datetime", "time", "dt", "date")), 0)
    body, blank = _nonblank_rows(rows[1:])
    # a short row's absent cells are empty, so missing
    cells = [column[1:] for column in zip_longest(header or [""], *body, fillvalue="")]

    # the first bad row is reported; in a row, the timestamp, then the cells in order
    fmt = schema.timestamp_format if schema else "auto"
    offset = schema.utc_offset_hours if schema else 0.0
    stamps, bad = _checked(*_parse_timestamps(cells[ts_col], fmt, offset), nan_ok=False)
    problems = [] if bad is None else [
        (bad[0], 0, f"bad timestamp {cells[ts_col][bad[0]]!r} ({bad[1]})")]
    table = {}
    for j, name in enumerate(header):
        if j == ts_col:
            continue
        values, bad = _checked(*_parse_column(_parse_value, cells[j]), nan_ok=True)
        if bad is not None:
            problems.append((bad[0], 1 + j, f"bad numeric value {cells[j][bad[0]]!r} "
                                            f"in column {name!r}"))
        elif name in table:  # a repeated name: the later observed cell wins
            table[name] = np.where(np.isnan(values), table[name], values)
        else:
            table[name] = values
    _raise_first(problems, blank, 2)

    missing = np.full(stamps.size, np.nan)
    temperature = table.pop("temperature", missing)
    temperature = np.where(np.isnan(temperature), table.pop("temp", missing), temperature)
    humidity = table.pop("humidity", missing)
    extra = {name: values for name, values in sorted(table.items())
             if not np.isnan(values).all()}
    if "timestamp" in extra:
        raise ParseError("only the time column may be named 'timestamp'", line=1)
    return {"timestamp": stamps, "temperature": temperature, "humidity": humidity, **extra}


def _read_weather_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}", line=exc.lineno) from None
    entries = payload.get("list", payload) if isinstance(payload, dict) else payload
    if not isinstance(entries, list):
        raise ParseError("expected a list of observations", line=1)
    rows = []
    for i, entry in enumerate(entries):
        try:
            main = entry.get("main", {}) if isinstance(entry, dict) else None
            if not isinstance(main, dict):
                raise TypeError("expected an object whose 'main' is an object")
            rows.append([float(entry["dt"])] + [
                math.nan if main.get(key) is None else float(main[key])
                for key in ("temp", "humidity")])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"observation {i}: {exc}", line=1) from None
    table = np.asarray(rows, dtype=np.float64).reshape(-1, 3)
    bad = ~np.isfinite(table[:, 0]) | np.isinf(table[:, 1:]).any(axis=1)
    if bad.any():
        raise ParseError(f"observation {int(bad.argmax())}: a number is not finite", line=1)
    return dict(zip(("timestamp", "temperature", "humidity"), table.T))


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


def _format_timestamps(seconds) -> list:
    """``[_format_timestamp(x) for x in seconds]``, computed on the array."""
    seconds = np.asarray(seconds, dtype=np.float64)
    # fromtimestamp rounds to the microsecond, half to even, and %S drops the
    # microseconds: this is the second it shows, also before 1970
    fraction, whole = np.modf(seconds)
    micros = np.rint(fraction * 1e6)
    whole = whole + (micros >= 1e6) - (micros < 0)
    # numpy zero-pads years below 1000, which strftime need not do, and
    # fromtimestamp raises outside years 1-9999: those stamps (and NaN) take
    # the scalar path, which formats or raises as it always did
    outside = ~((whole >= _YEAR_1000) & (whole < _YEAR_10000))
    whole[outside] = 0.0
    text = np.datetime_as_string(whole.astype("datetime64[s]"), unit="s",
                                 timezone="UTC").tolist()
    for k in np.flatnonzero(outside).tolist():
        text[k] = _format_timestamp(float(seconds[k]))
    return text


def _format_values(values: np.ndarray) -> list:
    """``repr`` of each value, and ``NaN`` for NaN."""
    text = list(map(repr, values.tolist()))
    for k in np.flatnonzero(np.isnan(values)).tolist():
        text[k] = "NaN"
    return text


def write_columns(destination, timestamps, columns: dict) -> None:
    """Write a canonical CSV table: ``timestamp`` in ISO-8601 UTC at
    whole-second resolution, then one column per ``columns`` entry (name ->
    values) at full float precision, with NaN written as ``NaN``.

    ``destination`` is a path or an open text handle. Rows are formatted and
    written a bounded chunk at a time.
    """
    timestamps = np.asarray(timestamps, dtype=np.float64)
    arrays = [np.asarray(values, dtype=np.float64) for values in columns.values()]
    own = not hasattr(destination, "write")
    fh = open(destination, "w", newline="", encoding="utf-8") if own else destination
    try:
        fh.write(",".join(["timestamp", *columns]) + "\n")
        for begin in range(0, timestamps.size, _CHUNK_ROWS):
            chunk = slice(begin, begin + _CHUNK_ROWS)
            cells = [_format_timestamps(timestamps[chunk]),
                     *(_format_values(a[chunk]) for a in arrays)]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
    finally:
        if own:
            fh.close()


def write_energy_csv(destination, s: TimeSeries) -> None:
    """Write the canonical CSV form: ``timestamp,value``, ISO-8601 UTC, NaN
    literal for missing. ``read_energy_csv`` round-trips it exactly.

    Timestamps are written at whole-second resolution.
    """
    write_columns(destination, s.timestamps, {"value": s.values})
