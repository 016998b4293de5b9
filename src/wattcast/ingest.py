"""File-based dataset readers and the canonical time-series CSV writer.

Energy meter exports come in a handful of near-identical CSV dialects:
a timestamp column (ISO-8601 or epoch seconds) plus a consumption column,
sometimes with extra columns, sometimes without a header. ``infer_schema``
detects the common cases and refuses to guess when the file is ambiguous;
``DatasetSchema`` describes any layout explicitly. ``infer_schema`` and the
CSV readers split a file's UTF-8 text into records in one place, which drops
blank records before it takes the header; an undecodable byte, a record
``csv`` refuses and a reader's first bad row are ParseErrors at their line.

The energy reader first offers a file's bytes to one compiled pass
(``_csv_columns.c``): an unquoted, uniform ASCII file of epoch stamps and
plain finite numbers, read under the "auto" or "epoch" stamp format, is
parsed straight to float64 there, bit for bit as ``float`` parses it. The
pass raises nothing: it declines every other file, and with no C compiler
it never runs. A declined file is decoded from the same bytes and read by
the general path, which gives every error its text and line. The same
kernel writes CSV tables: ``write_columns`` hands it each chunk, and formats
in Python only a chunk it declines, or every chunk without a compiler.

Readers never invent values: rows are sorted, duplicate timestamps are an
error, and gaps in an otherwise uniform series become explicit NaN rows at
the inferred modal interval. Interpolation is left to the caller.
"""

from __future__ import annotations

import codecs
import csv
import ctypes
import functools
import io
import json
import math
import re
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from itertools import islice, repeat, zip_longest
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .errors import (
    CannotInfer,
    ConfigError,
    DuplicateTimestamp,
    GridTooLarge,
    NonUniformInterval,
    ParseError,
)
from .regressors import _native
from .regressors.base import check_memory
from .series import TimeSeries

# epoch-second timestamps live in [1973, ~5138]; meter readings in milliwatts
# stay well below this band, so the two never collide during inference
_EPOCH_MIN = 1e8
_EPOCH_MAX = 1e11
# a column of 9- and 10-digit epoch seconds, one cell a line: every such cell
# lies in [_EPOCH_MIN, _EPOCH_MAX), and ``datetime.fromisoformat`` takes no
# digit string of those lengths (it does take some of 8, 11 and 13)
_EPOCH_COLUMN = re.compile(r"[1-9][0-9]{8,9}(?:\n[1-9][0-9]{8,9})*")

_KERNEL_SOURCE = Path(__file__).with_name("_csv_columns.c")

_MISSING_TOKENS = ("", "nan", "na", "null", "none")

# 0001-01-01 and 10000-01-01 UTC in epoch seconds: the CSV writer formats
# the years 1 to 9999
_YEAR_1 = -62_135_596_800.0
_YEAR_10000 = 253_402_300_800.0
# rows of CSV text formatted and written at a time
_CHUNK_ROWS = 4096


def _check_delimiter(delimiter: str) -> None:
    if len(delimiter) != 1 or delimiter in '"\r\n':
        raise ConfigError("schema delimiter must be one character other than a "
                          f"quote or a line break, got {delimiter!r}")


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
        _check_delimiter(self.delimiter)
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


def _float_stamps(cells, fmt: str) -> bool:
    """Whether ``float`` reads ``cells`` as the ``fmt`` cell parser does."""
    return fmt == "epoch" or (fmt == "auto"
                              and _EPOCH_COLUMN.fullmatch("\n".join(cells)) is not None)


def _parse_cells(cells, parser, fast: bool, nan_ok: bool):
    """``cells`` as a float64 array, and (row, reason) of the first bad cell
    or None: a cell that parses to an infinity, or to NaN unless ``nan_ok``
    ("not finite"), or that the cell parser ``parser()`` refuses (its
    ValueError; the array ends before it). With ``fast``, one ``float`` pass
    is tried first, and the parser is built only when it fails."""
    error = None
    try:
        values = list(map(float, cells)) if fast else None
    except ValueError:
        values = None
    if values is None:
        values, parse = [], parser()
        append = values.append
        try:
            for cell in cells:
                append(parse(cell))
        except ValueError as exc:
            error = exc
    values = np.asarray(values, dtype=np.float64)
    bad = np.isinf(values) if nan_ok else ~np.isfinite(values)
    if bad.any():
        return values, (int(bad.argmax()), "not finite")
    return values, None if error is None else (values.size, error)


def _parse_rows(lines, stamp_cells, fmt: str, offset: float, value_columns,
                first=None, bounded: bool = False):
    """The stamp column, parsed under ``fmt`` at ``offset`` hours, and each
    (cells, label) column of ``value_columns`` as float64 arrays. Raises
    ParseError at ``lines[row]`` for the first bad row: in a row, ``first``
    (a (row, message) pair), then the stamp (with ``bounded``, also one the
    writer cannot format), then the values in column order, each message
    ending in its column's ``label``."""
    problems = [] if first is None else [first]
    stamps, bad = _parse_cells(stamp_cells, lambda: _timestamp_parser(fmt, offset),
                               _float_stamps(stamp_cells, fmt), nan_ok=False)
    if bounded:
        outside = np.flatnonzero((stamps < _YEAR_1) | (stamps >= _YEAR_10000))
        if outside.size and (bad is None or outside[0] < bad[0]):
            bad = int(outside[0]), "outside years 1 to 9999"
    if bad is not None:
        problems.append((bad[0], f"bad timestamp {stamp_cells[bad[0]]!r} ({bad[1]})"))
    columns = []
    for cells, label in value_columns:
        values, bad = _parse_cells(cells, lambda: _parse_value, True, nan_ok=True)
        if bad is not None:
            problems.append((bad[0], f"bad numeric value {cells[bad[0]]!r}{label}"))
        columns.append(values)
    if problems:  # ``min`` keeps the first of equal rows
        row, message = min(problems, key=lambda problem: problem[0])
        raise ParseError(message, line=lines[row])
    return stamps, columns


def _modal_gap(gaps: np.ndarray) -> float:
    """The most common gap; among equally common gaps, the one seen first."""
    distinct, first, counts = np.unique(gaps, return_index=True,
                                        return_counts=True, equal_nan=False)
    tied = np.flatnonzero(counts == counts.max())
    return float(distinct[tied[np.argmin(first[tied])]])


def _uniform_columns(text: str, delimiter: str, skip: int):
    """The first record of ``text`` and the columns of the records after the
    first ``skip``, when ``csv.reader`` would read the text as plain
    splitting does; else None.

    That holds when the text has no quote, NUL or lone carriage return, and
    every line is non-empty, has the first line's number of cells, is no
    longer than ``csv.field_size_limit()`` and has a cell that is not blank
    (a blank record is dropped, and only the ``csv.reader`` path drops it).
    The columns are sliced by stride from one split of the text, with no
    list per row.
    """
    if '"' in text or "\0" in text:
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if "\r" in text:
            return None
    # no empty line, bar the one the last line's terminator leaves
    if not text or text[0] == "\n" or "\n\n" in text:
        return None
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    width, n_records = lines[0].count(delimiter) + 1, len(lines)
    if (set(map(str.count, lines, repeat(delimiter))) != {width - 1}
            or max(map(len, lines)) > csv.field_size_limit()):
        return None
    del lines
    cells = text.replace("\n", delimiter).split(delimiter)
    del cells[n_records * width:]  # the last line's terminator
    columns = [cells[j::width] for j in range(skip * width, (skip + 1) * width)]
    # the first record, then each row with a blank first cell: none may be blank
    if not "".join(cells[:width]).strip() or (not all(map(str.strip, columns[0])) and any(
            not "".join(row).strip() for row in zip(*columns) if not row[0].strip())):
        return None
    return cells[:width], columns


def _read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _decode(data: bytes) -> str:
    """``data`` as UTF-8 text, a leading byte-order mark dropped, as a
    text-mode read decodes it. An undecodable byte is a ParseError at its
    line (LF, CRLF and a lone CR each end one)."""
    try:
        return codecs.getincrementaldecoder("utf-8-sig")().decode(data, final=True)
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8: byte {exc.object[exc.start]:#04x} ({exc.reason})",
                         line=len((exc.object[:exc.start] + b".").splitlines())) from None


def _read_text(path, size: int = -1) -> str:
    """The text of ``path`` as ``_decode`` gives it; with ``size``, at most
    its first ``size`` characters."""
    if size < 0:
        return _decode(_read_bytes(path))
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            return fh.read(size)
    except UnicodeDecodeError:  # a part read names the position in its block: read it all
        return _read_text(path)


def _split_table(text: str, delimiter: str, skip: int, empty):
    """Split ``text`` into CSV records, dropping blank ones (every cell
    blank). Returns the first record; the columns of the records after the
    first ``skip``, a short record's absent cells None; and the line each of
    those records starts on. There is a column for each cell of the first
    record, and more where a later record is longer.

    Text ``_uniform_columns`` splits has record k on line k + 1. Other text
    goes through ``csv.reader``, whose records span several lines where a
    quoted cell holds a line break; a record it refuses is a ParseError at
    its first line. When no record follows the first ``skip``, raises
    ``empty(line)``: the first record's line, or 1 when there is none.
    """
    split = _uniform_columns(text, delimiter, skip)
    if split is not None:
        first, columns = split
        starts = range(1, 1 + skip + len(columns[0]))
    else:
        records = csv.reader(io.StringIO(text, newline=""), delimiter=delimiter)
        rows, starts, end = [], [], 0
        try:
            for row in records:
                if "".join(row).strip():
                    rows.append(row)
                    starts.append(end + 1)
                end = records.line_num
        except csv.Error as exc:
            raise ParseError(str(exc), line=end + 1) from None
        first = rows[0] if rows else None
        columns = [column[skip:] for column in zip_longest(*rows)]
    if len(starts) <= skip:
        raise empty(starts[0] if starts else 1)
    return first, columns, starts[skip:]


def _column_index(name, header, n_columns: int, what: str) -> int:
    if header is not None and name in header:
        return header.index(name)
    text = str(name)
    if text.lstrip("-").isdigit() and 0 <= int(text) < n_columns:
        return int(text)
    where = f"header {header}" if header is not None else f"{n_columns} columns"
    raise ParseError(f"{what} column {name!r} not found in {where}", line=1)


@functools.cache
def _load_kernel():
    """The compiled CSV kernel (``_csv_columns.c``) as a namespace of two
    calls, or None when it cannot be built (see ``regressors._native.build``):

    - ``columns(data, begin, delimiter, skip, ts_col, val_col, epoch)``: the
      stamps and values of a clean energy file, or None where the pass
      declines it;
    - ``write(stamps, columns)``: the CSV text of one chunk of equal 1-D
      float64 columns, or None where a stamp is NaN or outside years 1-9999.
    """
    lib = _native.build(_KERNEL_SOURCE)
    if lib is None:
        return None

    array = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    lib.csv_columns.restype = ctypes.c_long
    lib.csv_columns.argtypes = [ctypes.c_char_p, ctypes.c_long, ctypes.c_long, ctypes.c_int,
                                ctypes.c_long, ctypes.c_long, ctypes.c_long, ctypes.c_int,
                                ctypes.c_long, ctypes.c_double, ctypes.c_double, array, array,
                                ctypes.c_long]
    lib.csv_write.restype = ctypes.c_long
    lib.csv_write.argtypes = [array, ctypes.POINTER(ctypes.c_void_p), ctypes.c_long,
                              ctypes.c_long, ctypes.c_double, ctypes.c_double,
                              np.ctypeslib.ndpointer(np.uint8, flags="C_CONTIGUOUS")]

    def c_columns(data, begin, delimiter, skip, ts_col, val_col, epoch):
        capacity = data.count(b"\n") + 1
        stamps, values = np.empty(capacity), np.empty(capacity)
        rows = lib.csv_columns(data, begin, len(data), ord(delimiter), skip, ts_col, val_col,
                               epoch, csv.field_size_limit(), _YEAR_1, _YEAR_10000, stamps,
                               values, capacity)
        return None if rows < 0 else (stamps[:rows], values[:rows])

    def c_write(stamps, columns):
        stamps = np.ascontiguousarray(stamps)
        columns = [np.ascontiguousarray(values) for values in columns]
        pointers = (ctypes.c_void_p * len(columns))(*[values.ctypes.data for values in columns])
        # a row: a 20-byte stamp, a comma and at most 24 bytes per value, LF
        out = np.empty(stamps.size * (21 + 25 * len(columns)), dtype=np.uint8)
        size = lib.csv_write(stamps, pointers, len(columns), stamps.size, _YEAR_1, _YEAR_10000,
                             out)
        return None if size < 0 else str(out.data[:size], "ascii")

    return SimpleNamespace(columns=c_columns, write=c_write)


def _kernel_rows(data: bytes, schema: DatasetSchema):
    """``_read_energy_rows``' stamps and values of the file ``data``, from
    one compiled pass over its bytes; None where the pass declines the file
    (see ``_csv_columns.c``), or does not apply: a stamp format other than
    "auto" and "epoch", a delimiter beyond ASCII, no compiler, or a first
    line that is blank, not ASCII, or lacks a named column."""
    if schema.timestamp_format not in ("auto", "epoch") or not schema.delimiter.isascii():
        return None
    kernel = _load_kernel()
    if kernel is None:
        return None
    begin = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    end = data.find(b"\n", begin)
    try:
        first = data[begin:None if end < 0 else end].decode("ascii").rstrip("\r")
    except UnicodeDecodeError:
        return None
    cells = first.split(schema.delimiter)
    header = cells if schema.has_header else None
    try:
        ts_col = _column_index(schema.timestamp_column, header, len(cells), "timestamp")
        val_col = _column_index(schema.value_column, header, len(cells), "value")
    except ParseError:
        return None
    if not "".join(cells).strip():
        return None
    return kernel.columns(data, begin, schema.delimiter, int(schema.has_header), ts_col,
                          val_col, schema.timestamp_format == "epoch")


def _read_energy_rows(path, schema: DatasetSchema):
    """The parsed timestamp and value cells of the body's non-blank rows, in
    file order. The file is read once; ``_kernel_rows`` parses a clean file,
    and any other goes through ``_split_table``. Raises ParseError at the
    file line of the first bad row, or ``no data rows`` where
    ``_split_table`` finds none."""
    data = _read_bytes(path)
    parsed = _kernel_rows(data, schema)
    if parsed is not None:
        return parsed
    text = _decode(data)
    del data  # the bytes are freed before the split
    first, columns, lines = _split_table(text, schema.delimiter, int(schema.has_header),
                                         lambda line: ParseError("no data rows", line=line))
    header = first if schema.has_header else None
    ts_col = _column_index(schema.timestamp_column, header, len(first), "timestamp")
    val_col = _column_index(schema.value_column, header, len(first), "value")
    stamp_cells, value_cells = columns[ts_col], columns[val_col]
    short, width = None, max(ts_col, val_col) + 1
    if None in columns[width - 1]:  # a record too short for both cells
        row = columns[width - 1].index(None)
        got = [column[row] for column in columns].index(None)
        short = row, f"expected at least {width} columns, got {got}"
        stamp_cells, value_cells = stamp_cells[:row], value_cells[:row]
    del columns  # the cells of the other columns are freed before the parse
    stamps, (values,) = _parse_rows(lines, stamp_cells, schema.timestamp_format,
                                    schema.utc_offset_hours, [(value_cells, "")],
                                    first=short, bounded=True)
    return stamps, values


def read_energy_csv(path, schema: DatasetSchema | None = None) -> TimeSeries:
    """Read an energy CSV into a uniformly spaced series.

    Rows are sorted by timestamp; duplicates are rejected. The sampling
    interval is the modal gap between consecutive rows, and it must account
    for at least 90% of the gaps (each gap an integer multiple); missing
    rows on that grid become NaN, off-grid stragglers are dropped.
    """
    if schema is None:
        schema = infer_schema(path)
    stamps, values = _read_energy_rows(path, schema)
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
    check_memory(length, GridTooLarge,
                 f"{_format_timestamp(stamps[0])} to {_format_timestamp(stamps[grid][-1])} "
                 f"at {modal:g}s is a grid of {length} slots that")
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
    No observation is a ParseError at the CSV header's line, else at line 1.
    """
    if str(path).endswith(".json"):
        table = _read_weather_json(path)
    else:
        table = _read_weather_csv(path, schema)
    order = np.argsort(table["timestamp"], kind="stable")
    return {name: values[order] for name, values in table.items()}


def _read_weather_csv(path, schema) -> dict:
    delimiter = schema.delimiter if schema else ","
    first, columns, lines = _split_table(_read_text(path), delimiter, 1, lambda line: ParseError(
        "weather CSV needs a header and at least one row", line=line))
    header = [cell.strip().lower() for cell in first]
    if schema and schema.timestamp_column in first:
        ts_col = first.index(schema.timestamp_column)
    else:
        ts_col = next((i for i, name in enumerate(header)
                       if name in ("timestamp", "datetime", "time", "dt", "date")), 0)
    # a short row's absent cells are empty, so missing
    cells = [[cell or "" for cell in column] for column in columns]

    value_cols = [j for j in range(len(header)) if j != ts_col]
    stamps, columns = _parse_rows(
        lines, cells[ts_col], schema.timestamp_format if schema else "auto",
        schema.utc_offset_hours if schema else 0.0,
        [(cells[j], f" in column {header[j]!r}") for j in value_cols])
    table = {}
    for j, values in zip(value_cols, columns):  # a repeated name: the later observed cell wins
        table[header[j]] = np.where(np.isnan(values), table.get(header[j], values), values)

    missing = np.full(stamps.size, np.nan)
    temperature = table.pop("temperature", missing)
    temperature = np.where(np.isnan(temperature), table.pop("temp", missing), temperature)
    humidity = table.pop("humidity", missing)
    extra = {name: values for name, values in sorted(table.items())
             if not np.isnan(values).all()}
    reserved = sorted(extra.keys() & {"energy", "timestamp"})
    if reserved:
        raise ParseError(f"weather column name {reserved[0]!r} is reserved", line=1)
    return {"timestamp": stamps, "temperature": temperature, "humidity": humidity, **extra}


def _read_weather_json(path) -> dict:
    try:
        payload = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", line=exc.lineno) from None
    entries = payload.get("list", payload) if isinstance(payload, dict) else payload
    if not isinstance(entries, list):
        raise ParseError("expected a list of observations", line=1)
    if not entries:
        raise ParseError("no observations", line=1)
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
    table = np.asarray(rows, dtype=np.float64)
    bad = ~np.isfinite(table[:, 0]) | np.isinf(table[:, 1:]).any(axis=1)
    if bad.any():
        raise ParseError(f"observation {int(bad.argmax())}: a number is not finite", line=1)
    return dict(zip(("timestamp", "temperature", "humidity"), table.T))


def infer_schema(path, delimiter: str | None = None) -> DatasetSchema:
    """Best-effort layout detection; refuses to guess on ambiguity.

    The first 64 Ki characters, to their last whole line, are split into
    records as ``read_energy_csv`` splits them, on ``delimiter`` if given,
    else on the one of ``,`` ``;`` tab ``|`` sniffed from their first 50
    non-blank lines (the sniffer reads all it is given), and the first 50
    non-blank records are inspected: none, or a header alone, is CannotInfer
    ("no data rows"). The timestamp column is the first whose cells all
    parse as datetimes (ISO-8601, or integers in a plausible epoch range);
    the value column is the only other fully numeric column. Any other
    outcome raises CannotInfer, listing what was considered.
    """
    sample = _read_text(path, (1 << 16) + 1)
    if len(sample) > 1 << 16:  # the sample may end inside a line: keep the whole ones
        sample = sample[:max(sample.rfind("\n", 0, -1), sample.rfind("\r", 0, -1)) + 1]

    if delimiter is not None:
        _check_delimiter(delimiter)
    else:
        head = "".join(islice((line for line in io.StringIO(sample, newline="")
                               if line.strip()), 50))
        try:
            delimiter = csv.Sniffer().sniff(head, delimiters=",;\t|").delimiter
        except csv.Error:
            line = io.StringIO(sample, newline="").readline()  # ends as csv's lines do
            counts = {d: line.count(d) for d in ",;\t|"}
            delimiter = max(counts, key=counts.get)
            if head and counts[delimiter] == 0:  # a blank sample: the split refuses it
                raise CannotInfer("could not detect a delimiter; "
                                  "expected one of ',' ';' tab '|'") from None

    first, columns, _ = _split_table(sample, delimiter, 0, lambda _: CannotInfer("no data rows"))
    parse_ts = _timestamp_parser("auto", 0.0)

    def parses(parse, cells):  # an infinity counts: ``float`` reads it
        try:
            list(map(parse, cells))
        except ValueError:
            return False
        return True

    has_header = not all(parses(parse_ts, [c]) or parses(float, [c])
                         for c in first if c.strip())
    # the first 50 records, the header included
    body = [column[has_header:50] for column in columns[:len(first)]]
    if not body[0]:
        raise CannotInfer("header only, no data rows")

    names = [c.strip() for c in first] if has_header else [str(j) for j in range(len(first))]
    ts_like, numeric = [], []
    for j, column in enumerate(body):
        cells = [c for c in column if c and c.strip().lower() not in _MISSING_TOKENS]
        if not cells:
            continue
        if parses(parse_ts, cells):
            ts_like.append(j)
        if parses(float, cells):
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


def writable_stamps(first: float, interval: float) -> int:
    """How many stamps ``first + k * interval`` the CSV writer can format."""
    return max(0, math.ceil((_YEAR_10000 - first) / interval))


def _format_timestamp(seconds: float) -> str:
    stamp = datetime.fromtimestamp(seconds, tz=timezone.utc)
    # the year zero-padded to four digits, as ``fromisoformat`` reads it
    return f"{stamp.year:04d}{stamp:-%m-%dT%H:%M:%SZ}"


def _format_timestamps(seconds) -> list:
    """``[_format_timestamp(x) for x in seconds]``, computed on the array."""
    seconds = np.asarray(seconds, dtype=np.float64)
    # fromtimestamp rounds to the microsecond, half to even, and %S drops the
    # microseconds: this is the second it shows, also before 1970
    fraction, whole = np.modf(seconds)
    micros = np.rint(fraction * 1e6)
    whole = whole + (micros >= 1e6) - (micros < 0)
    # fromtimestamp raises outside years 1-9999: those stamps (and NaN) take
    # the scalar path, which raises as it always did
    outside = ~((whole >= _YEAR_1) & (whole < _YEAR_10000))
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
    written a bounded chunk at a time. Where every column is 1-D and as long
    as ``timestamps``, the compiled pass (``_csv_columns.c``) formats a
    chunk: the text of ``_format_timestamps`` and ``repr``, byte for byte.
    It declines a chunk holding a NaN stamp or one outside years 1-9999, and
    that chunk, every chunk of another table, and every chunk with no C
    compiler are formatted in Python, which raises for such a stamp.
    """
    timestamps = np.asarray(timestamps, dtype=np.float64)
    arrays = [np.asarray(values, dtype=np.float64) for values in columns.values()]
    table = timestamps.ndim == 1 and all(a.shape == timestamps.shape for a in arrays)
    own = not hasattr(destination, "write")
    fh = open(destination, "w", newline="", encoding="utf-8") if own else destination
    try:
        fh.write(",".join(["timestamp", *columns]) + "\n")
        kernel = _load_kernel() if table and timestamps.size else None
        for begin in range(0, timestamps.size, _CHUNK_ROWS):
            chunk = slice(begin, begin + _CHUNK_ROWS)
            text = None if kernel is None else kernel.write(timestamps[chunk],
                                                            [a[chunk] for a in arrays])
            if text is None:
                cells = [_format_timestamps(timestamps[chunk]),
                         *(_format_values(a[chunk]) for a in arrays)]
                text = "\n".join(map(",".join, zip(*cells))) + "\n"
            fh.write(text)
    finally:
        if own:
            fh.close()


def write_energy_csv(destination, s: TimeSeries) -> None:
    """Write the canonical CSV form: ``timestamp,value``, ISO-8601 UTC, NaN
    literal for missing. ``read_energy_csv`` round-trips it exactly.

    Timestamps are written at whole-second resolution.
    """
    write_columns(destination, s.timestamps, {"value": s.values})
