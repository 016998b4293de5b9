"""Tests for CSV/JSON ingestion, schema inference, and the canonical writer."""

import codecs
import csv
import io
import json
import math
import re
import shutil
import sys
from collections import Counter
from datetime import datetime, timedelta, timezone
from types import SimpleNamespace

import numpy as np
import pytest

import wattcast.ingest as ingest
import wattcast.regressors.base as regressors_base
from wattcast.errors import (
    CannotInfer,
    ConfigError,
    DataError,
    DuplicateTimestamp,
    GridTooLarge,
    NonUniformInterval,
    ParseError,
)
from wattcast.ingest import (
    DatasetSchema,
    _column_index,
    _format_timestamp,
    _format_timestamps,
    _timestamp_parser,
    infer_schema,
    parse_timestamp,
    read_energy_csv,
    read_weather,
    write_columns,
    write_energy_csv,
)
from wattcast.cli import main
from wattcast.series import TimeSeries, resample

HOUR = 3600.0
MISSING_TOKENS = ["", "nan", "NaN", "na", "NA", "null", "NULL", "none", "None", " none "]


# --- the per-row readers and writer that the column code replaced -----------
# Kept as reference oracles: the column code must give the same
# series, tables, bytes and errors. A cell that parses to a non-finite
# number (a NaN timestamp, an infinite value) is a parse error in both.

def _reference_parse_timestamp(text, fmt="auto", utc_offset_hours=0.0):
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

    try:
        stamp = datetime.fromisoformat(text.replace("Z", "+00:00"))
        if stamp.tzinfo is None:
            stamp = stamp.replace(tzinfo=tz)
        return stamp.timestamp()
    except ValueError:
        if fmt == "iso":
            raise
    seconds = float(text)
    if not 1e8 <= seconds <= 1e11:
        raise ValueError(f"{text!r} is neither ISO-8601 nor plausible epoch seconds")
    return seconds


def _reference_parse_value(text, line):
    if text.strip().lower() in ("", "nan", "na", "null", "none"):
        return float("nan")
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"bad numeric value {text!r}", line=line) from None


def _reference_line(text):
    """The line that follows ``text``: one more than the line breaks
    ``csv.reader`` counts in it (LF, CRLF and a lone CR)."""
    return sum(1 for _ in io.StringIO(text + ".", newline=""))


def _reference_records(path, delimiter):
    """The CSV records of ``path`` from its first non-blank one on, and the
    file line each one starts on: a quoted cell may hold newlines, so the two
    counts can differ. An undecodable byte, or a record ``csv.reader``
    refuses, is a ParseError at the line it starts on."""
    data = path.read_bytes()
    bom = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    try:
        text = data[bom:].decode("utf-8")
    except UnicodeDecodeError as exc:
        bad = bom + exc.start
        raise ParseError(f"not UTF-8: byte {data[bad]:#04x} ({exc.reason})",
                         line=_reference_line(data[bom:bad].decode("utf-8"))) from None
    rows, starts = [], []
    reader = csv.reader(io.StringIO(text, newline=""), delimiter=delimiter)
    while True:
        start = reader.line_num + 1
        try:
            row = next(reader)
        except StopIteration:
            break
        except csv.Error as exc:
            raise ParseError(str(exc), line=start) from None
        if rows or any(cell.strip() for cell in row):
            rows.append(row)
            starts.append(start)
    return rows, starts


def _reference_read_energy_csv(path, schema):
    rows, starts = _reference_records(path, schema.delimiter)
    header = rows[0] if schema.has_header and rows else None
    body_start = 2 if schema.has_header else 1
    body = rows[1:] if schema.has_header else rows
    if not any(cell.strip() for row in body for cell in row):
        raise ParseError("no data rows", line=starts[0] if starts else 1)

    n_columns = len(rows[0])
    ts_col = _column_index(schema.timestamp_column, header, n_columns, "timestamp")
    val_col = _column_index(schema.value_column, header, n_columns, "value")

    stamps, values = [], []
    for offset, row in enumerate(body):
        line = starts[body_start - 1 + offset]
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) <= max(ts_col, val_col):
            raise ParseError(f"expected at least {max(ts_col, val_col) + 1} "
                             f"columns, got {len(row)}", line=line)
        try:
            stamps.append(_reference_parse_timestamp(
                row[ts_col], schema.timestamp_format, schema.utc_offset_hours))
        except ValueError as exc:
            raise ParseError(f"bad timestamp {row[ts_col]!r} ({exc})",
                             line=line) from None
        if not math.isfinite(stamps[-1]):
            raise ParseError(f"bad timestamp {row[ts_col]!r} (not finite)", line=line)
        values.append(_reference_parse_value(row[val_col], line))
        if math.isinf(values[-1]):
            raise ParseError(f"bad numeric value {row[val_col]!r}", line=line)

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


def _reference_read_weather(path, schema=None):
    """The per-row weather reader, whose records are laid out as the
    columns ``read_weather`` returns. Expects well-formed JSON."""
    records = []
    if str(path).endswith(".json"):
        payload = json.loads(path.read_text())
        entries = payload.get("list", payload) if isinstance(payload, dict) else payload
        for entry in entries:
            main = entry.get("main", {})
            records.append((float(entry["dt"]), {"temperature": main.get("temp"),
                                                 "humidity": main.get("humidity")}))
    else:
        rows, starts = _reference_records(path, schema.delimiter if schema else ",")
        if not any(cell.strip() for row in rows[1:] for cell in row):
            raise ParseError("weather CSV needs a header and at least one row",
                             line=starts[0] if starts else 1)
        header = [cell.strip().lower() for cell in rows[0]]
        ts_name = schema.timestamp_column if schema else None
        if ts_name is not None and ts_name in rows[0]:
            ts_col = rows[0].index(ts_name)
        else:
            candidates = [i for i, name in enumerate(header)
                          if name in ("timestamp", "datetime", "time", "dt", "date")]
            ts_col = candidates[0] if candidates else 0
        for offset, row in enumerate(rows[1:]):
            line = starts[offset + 1]
            if not row or all(not cell.strip() for cell in row):
                continue
            try:
                stamp = _reference_parse_timestamp(
                    row[ts_col], schema.timestamp_format if schema else "auto",
                    schema.utc_offset_hours if schema else 0.0)
            except ValueError as exc:
                raise ParseError(f"bad timestamp {row[ts_col]!r} ({exc})",
                                 line=line) from None
            fields = {}
            for j, name in enumerate(header):
                if j == ts_col or j >= len(row):
                    continue
                if row[j].strip().lower() in ("", "nan", "na", "null", "none"):
                    continue
                try:
                    fields[name] = float(row[j])
                except ValueError:
                    raise ParseError(f"bad numeric value {row[j]!r} in column "
                                     f"{name!r}", line=line) from None
            fields["temperature"] = fields.pop("temperature", fields.pop("temp", None))
            records.append((stamp, fields))
    records.sort(key=lambda record: record[0])
    extra = {name for _, fields in records for name, value in fields.items()
             if value is not None} - {"temperature", "humidity"}
    for name in ("energy", "timestamp"):
        if name in extra:
            raise ParseError(f"weather column name {name!r} is reserved", line=1)
    table = {"timestamp": np.array([stamp for stamp, _ in records], dtype=np.float64)}
    for name in ["temperature", "humidity", *sorted(extra)]:
        table[name] = np.array([np.nan if fields.get(name) is None else fields[name]
                                for _, fields in records], dtype=np.float64)
    return table


def _reference_write_energy_csv(fh, s):
    fh.write("timestamp,value\n")
    for i, value in enumerate(s.values):
        stamp = _format_timestamp(s.start + i * s.interval)
        text = "NaN" if math.isnan(value) else repr(float(value))
        fh.write(f"{stamp},{text}\n")


def _outcome(fn, *args):
    """What a call returns, or the type and text of what it raises."""
    try:
        result = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the oracle compares any failure
        return type(exc), str(exc)
    if isinstance(result, TimeSeries):
        return result.start, result.interval, result.values.tobytes()
    if isinstance(result, float):
        return np.float64(result).tobytes()  # NaN equals NaN, 0.0 differs from -0.0
    if isinstance(result, dict):
        return [(name, values.dtype, values.tobytes()) for name, values in result.items()]
    return result


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


# the energy reader's three ways through a file: the compiled column pass,
# the columnar split, and csv.reader
BACKENDS = ["kernel", "columnar", "csv_reader"]


def use_backend(monkeypatch, backend):
    """Read energy CSVs through ``backend`` alone, and return the list of what
    each run of the compiled pass gave: True where it parsed the file, False
    where it declined it. The pass declines a file, and the columnar split
    refuses one, that the next way then reads."""
    served = []
    if backend == "kernel":
        kernel = ingest._load_kernel()
        if kernel is None:
            pytest.skip(f"no C compiler could build {ingest._KERNEL_SOURCE.name}")

        def spy(*args):
            result = kernel.columns(*args)
            served.append(result is not None)
            return result

        monkeypatch.setattr(ingest, "_load_kernel",
                            lambda: SimpleNamespace(columns=spy, write=kernel.write))
    else:
        monkeypatch.setattr(ingest, "_load_kernel", lambda: None)
        if backend == "csv_reader":
            monkeypatch.setattr(ingest, "_uniform_columns", lambda *args: None)
    return served


class TestParseTimestamp:
    def test_iso_with_and_without_zone(self):
        assert parse_timestamp("1970-01-01T01:00:00Z") == HOUR
        assert parse_timestamp("1970-01-01T01:00:00+00:00") == HOUR
        assert parse_timestamp("1970-01-01 01:00:00") == HOUR  # naive -> UTC

    def test_offset_applies_to_naive_only(self):
        assert parse_timestamp("1970-01-01T02:00:00", utc_offset_hours=2.0) == 0.0
        assert parse_timestamp("1970-01-01T02:00:00Z", utc_offset_hours=2.0) == 2 * HOUR

    def test_epoch_and_strptime_formats(self):
        assert parse_timestamp("7200", fmt="epoch") == 7200.0
        assert parse_timestamp("02/01/1970 00:00", fmt="%d/%m/%Y %H:%M") == 86400.0

    def test_auto_accepts_plausible_epoch_only(self):
        assert parse_timestamp("1300000000") == 1.3e9
        with pytest.raises(ValueError):
            parse_timestamp("42")  # could be a reading, never a timestamp
        with pytest.raises(ValueError):
            parse_timestamp("not a time")


class TestReadEnergyCsv:
    def test_three_hourly_rows(self, tmp_path):
        path = write(tmp_path, "a.csv",
                     "Datetime,MW\n"
                     "1970-01-01T00:00:00Z,1.0\n"
                     "1970-01-01T01:00:00Z,2.0\n"
                     "1970-01-01T02:00:00Z,3.0\n")
        s = read_energy_csv(path)
        assert len(s) == 3
        assert s.interval == HOUR
        assert s.start == 0.0
        np.testing.assert_array_equal(s.values, [1.0, 2.0, 3.0])

    def test_rows_out_of_order_match_sorted_input(self, tmp_path):
        rows = ["1970-01-01T02:00:00Z,3.0", "1970-01-01T00:00:00Z,1.0",
                "1970-01-01T01:00:00Z,2.0"]
        shuffled = write(tmp_path, "a.csv", "t,v\n" + "\n".join(rows) + "\n")
        ordered = write(tmp_path, "b.csv", "t,v\n" + "\n".join(sorted(rows)) + "\n")
        a, b = read_energy_csv(shuffled), read_energy_csv(ordered)
        assert a.start == b.start and a.interval == b.interval
        np.testing.assert_array_equal(a.values, b.values)

    def test_one_missing_hour_in_ten_becomes_nan(self, tmp_path):
        lines = [f"1970-01-01T{h:02d}:00:00Z,{float(h)}" for h in range(10) if h != 4]
        path = write(tmp_path, "a.csv", "t,v\n" + "\n".join(lines) + "\n")
        s = read_energy_csv(path)
        assert len(s) == 10
        assert math.isnan(s.values[4])
        assert np.count_nonzero(~np.isnan(s.values)) == 9

    def test_duplicate_timestamp_rejected(self, tmp_path):
        path = write(tmp_path, "a.csv",
                     "t,v\n"
                     "1970-01-01T00:00:00Z,1.0\n"
                     "1970-01-01T01:00:00Z,2.0\n"
                     "1970-01-01T01:00:00Z,2.5\n")
        with pytest.raises(DuplicateTimestamp):
            read_energy_csv(path)

    def test_bad_timestamp_names_line(self, tmp_path):
        path = write(tmp_path, "a.csv",
                     "t,v\n1970-01-01T00:00:00Z,1.0\nyesterday,2.0\n")
        with pytest.raises(ParseError, match="line 3"):
            read_energy_csv(path, DatasetSchema("t", "v"))

    def test_bad_value_names_line(self, tmp_path):
        path = write(tmp_path, "a.csv",
                     "t,v\n1970-01-01T00:00:00Z,oops\n")
        with pytest.raises(ParseError, match="line 2"):
            read_energy_csv(path, DatasetSchema("t", "v"))

    def test_empty_value_cell_is_missing(self, tmp_path):
        path = write(tmp_path, "a.csv",
                     "t,v\n"
                     "1970-01-01T00:00:00Z,1.0\n"
                     "1970-01-01T01:00:00Z,\n"
                     "1970-01-01T02:00:00Z,3.0\n")
        s = read_energy_csv(path)
        assert math.isnan(s.values[1])

    def test_irregular_spacing_rejected(self, tmp_path):
        stamps = [0, 3600, 8600, 15600, 26600]
        lines = [f"{t + 1_000_000_000},1.0" for t in stamps]
        path = write(tmp_path, "a.csv", "t,v\n" + "\n".join(lines) + "\n")
        with pytest.raises(NonUniformInterval):
            read_energy_csv(path, DatasetSchema("t", "v", timestamp_format="epoch"))

    def test_single_row_has_no_interval(self, tmp_path):
        path = write(tmp_path, "a.csv", "t,v\n1970-01-01T00:00:00Z,1.0\n")
        with pytest.raises(NonUniformInterval):
            read_energy_csv(path)

    def test_explicit_schema_semicolon_headerless(self, tmp_path):
        path = write(tmp_path, "a.csv",
                     "3600000000;5.0\n3600003600;6.0\n3600007200;7.0\n")
        schema = DatasetSchema("0", "1", timestamp_format="epoch",
                               delimiter=";", has_header=False)
        s = read_energy_csv(path, schema)
        assert s.start == 3.6e9 and s.interval == HOUR
        np.testing.assert_array_equal(s.values, [5.0, 6.0, 7.0])

    def test_schema_timezone_shifts_naive_stamps(self, tmp_path):
        path = write(tmp_path, "a.csv",
                     "t,v\n1970-01-01T02:00:00,1.0\n1970-01-01T03:00:00,2.0\n")
        utc = read_energy_csv(path, DatasetSchema("t", "v"))
        local = read_energy_csv(path, DatasetSchema("t", "v", utc_offset_hours=2.0))
        assert utc.start == 2 * HOUR
        assert local.start == 0.0

    def test_missing_column_reported(self, tmp_path):
        path = write(tmp_path, "a.csv", "t,v\n1970-01-01T00:00:00Z,1.0\n")
        with pytest.raises(ParseError, match="power"):
            read_energy_csv(path, DatasetSchema("t", "power"))

    def test_header_only_file(self, tmp_path):
        path = write(tmp_path, "a.csv", "t,v\n")
        with pytest.raises(ParseError):
            read_energy_csv(path, DatasetSchema("t", "v"))


def sparse_hourly(tmp_path, last_hour):
    """20 hourly epoch rows from 2020-09-13T12:00:00Z, then one more
    ``last_hour`` hours after the first: a file of 21 rows whose every gap
    is a whole number of hours."""
    start = 1_599_998_400
    hours = list(range(20)) + [last_hour]
    text = "t,v\n" + "".join(f"{start + 3600 * h},{h % 7}.5\n" for h in hours)
    return write(tmp_path, "sparse.csv", text), DatasetSchema("t", "v", "epoch")


class TestGridGuard:
    def test_grid_past_physical_memory_is_refused_before_allocation(self, tmp_path):
        # 20 rows a second apart, then one 10^11 s after the first: the reader
        # refuses stamps past the year 9999, where an hourly grid is still small
        text = "t,v\n" + "".join(f"{1_599_998_400 + s},1\n" for s in [*range(20), 10 ** 11])
        with pytest.raises(GridTooLarge) as caught:
            read_energy_csv(write(tmp_path, "sparse.csv", text), DatasetSchema("t", "v", "epoch"))
        message = str(caught.value)
        assert message.startswith("2020-09-13T12:00:00Z to 5189-07-29T21:46:40Z "
                                  "at 1s is a grid of 100000000001 slots that needs "
                                  "745.1 GiB; this machine has ")
        assert isinstance(caught.value, DataError)

    def test_limit_is_eight_bytes_a_slot(self, tmp_path, monkeypatch):
        path, schema = sparse_hourly(tmp_path, 29)  # 30 slots, 240 bytes
        monkeypatch.setattr(regressors_base, "physical_memory", lambda: 240)
        assert len(read_energy_csv(path, schema)) == 30
        monkeypatch.setattr(regressors_base, "physical_memory", lambda: 239)
        with pytest.raises(GridTooLarge, match=r"^2020-09-13T12:00:00Z to "
                                               r"2020-09-14T17:00:00Z at 3600s is a grid "
                                               r"of 30 slots that needs 0\.0 GiB"):
            read_energy_csv(path, schema)

    def test_unknown_memory_reads_the_grid(self, tmp_path, monkeypatch):
        path, schema = sparse_hourly(tmp_path, 29)
        monkeypatch.setattr(regressors_base, "physical_memory", lambda: None)
        assert np.count_nonzero(np.isnan(read_energy_csv(path, schema).values)) == 9


# the first second of year 1 and the last of year 9999 UTC, as epoch seconds
@pytest.mark.parametrize("first, bad_line", [(-62_135_596_800, None), (-62_135_596_801, 2),
                                             (253_402_300_797, None), (253_402_300_798, 4)])
@pytest.mark.parametrize("value", ["1", '"1"'], ids=["columnar", "csv_reader"])
def test_stamps_the_writer_cannot_format_are_parse_errors(tmp_path, first, bad_line, value):
    text = "t,v\n" + "".join(f"{first + s},{value}\n" for s in range(3))
    path, schema = write(tmp_path, "edge.csv", text), DatasetSchema("t", "v", "epoch")
    if bad_line is None:
        write_energy_csv(io.StringIO(), read_energy_csv(path, schema))
    else:
        with pytest.raises(ParseError, match=rf"^line {bad_line}: bad timestamp "
                                             r"'-?\d+' \(outside years 1 to 9999\)$"):
            read_energy_csv(path, schema)


class TestInferSchema:
    def test_kaggle_style_header(self, tmp_path):
        path = write(tmp_path, "a.csv",
                     "Datetime,PJME_MW\n"
                     "2002-12-31 01:00:00,26498.0\n"
                     "2002-12-31 02:00:00,25147.0\n"
                     "2002-12-31 03:00:00,24574.0\n"
                     "2002-12-31 04:00:00,24393.0\n"
                     "2002-12-31 05:00:00,24860.0\n")
        schema = infer_schema(path)
        assert schema.timestamp_column == "Datetime"
        assert schema.value_column == "PJME_MW"
        assert schema.delimiter == ","
        assert schema.has_header
        s = read_energy_csv(path, schema)
        assert s.interval == HOUR and len(s) == 5

    def test_all_text_file(self, tmp_path):
        path = write(tmp_path, "a.csv", "name,color\nalice,red\nbob,blue\n")
        with pytest.raises(CannotInfer):
            infer_schema(path)

    def test_two_numeric_columns_lists_candidates(self, tmp_path):
        path = write(tmp_path, "a.csv",
                     "Datetime,solar,demand\n"
                     "2015-01-01T00:00:00Z,1.0,2.0\n"
                     "2015-01-01T01:00:00Z,1.5,2.5\n")
        with pytest.raises(CannotInfer, match="solar.*demand"):
            infer_schema(path)

    def test_headerless_epoch_file(self, tmp_path):
        path = write(tmp_path, "a.csv",
                     "1300000000,5.0\n1300003600,6.0\n1300007200,7.0\n")
        schema = infer_schema(path)
        assert not schema.has_header
        assert schema.timestamp_column == "0"
        assert schema.value_column == "1"
        s = read_energy_csv(path, schema)
        assert s.interval == HOUR

    def test_semicolon_delimiter_detected(self, tmp_path):
        path = write(tmp_path, "a.csv",
                     "time;load\n1970-01-02T00:00:00Z;4.0\n1970-01-02T01:00:00Z;5.0\n")
        schema = infer_schema(path)
        assert schema.delimiter == ";"
        assert schema.value_column == "load"

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "a.csv", "")
        with pytest.raises(CannotInfer):
            infer_schema(path)

    @pytest.mark.parametrize("text", ["", "\n\n", " , \n", "\t\n\r\n"])
    @pytest.mark.parametrize("delimiter", [None, ","])
    def test_blank_file_has_no_data_rows(self, tmp_path, text, delimiter):
        path = write(tmp_path, "a.csv", text)
        with pytest.raises(CannotInfer, match="^no data rows$"):
            infer_schema(path, delimiter)

    def test_given_delimiter_replaces_the_sniff(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("time§load\n1970-01-02T00:00:00Z§4.0\n1970-01-02T01:00:00Z§5.0\n",
                        encoding="utf-8")
        with pytest.raises(CannotInfer, match="could not detect a delimiter"):
            infer_schema(path)
        schema = infer_schema(path, delimiter="§")
        assert (schema.timestamp_column, schema.value_column) == ("time", "load")
        assert schema.delimiter == "§" and schema.has_header
        assert read_energy_csv(path, schema).values.tolist() == [4.0, 5.0]

    def test_form_feed_in_a_text_cell_is_not_a_line_break(self, tmp_path):
        notes = ["ok"] * 60
        notes[10] = "page\x0cbreak"  # str.splitlines would end a line here
        path = write(tmp_path, "a.csv", "timestamp,value,note\n" + "".join(
            f"1970-01-{1 + h // 24:02d}T{h % 24:02d}:00:00Z,{h}.5,{notes[h]}\n"
            for h in range(60)))
        schema = infer_schema(path)
        assert (schema.timestamp_column, schema.value_column) == ("timestamp", "value")
        assert len(read_energy_csv(path, schema)) == 60

    def test_row_cut_by_the_sample_end_is_dropped(self, tmp_path):
        # rows of 1,772 characters: the 64 KiB sample ends inside row 37's epoch
        # stamp, whose first 8 digits, 16001296, are no plausible epoch
        path = write(tmp_path, "a.csv", "notes,value,timestamp\n" + "".join(
            f"{'x' * 1754},{k}.5,{1_600_000_000 + 3600 * k}\n" for k in range(60)))
        schema = infer_schema(path)
        assert (schema.timestamp_column, schema.value_column) == ("timestamp", "value")
        assert len(read_energy_csv(path, schema)) == 60

    @pytest.mark.parametrize("delimiter", ["", ";;", '"', "\n"])
    def test_given_delimiter_is_checked_first(self, tmp_path, delimiter):
        path = write(tmp_path, "a.csv", "time,load\n1970-01-02T00:00:00Z,4.0\n")
        with pytest.raises(ConfigError, match="schema delimiter must be one character"):
            infer_schema(path, delimiter=delimiter)

    @pytest.mark.parametrize("text", ["time,load\n1970-01-02T00:00:00Z,4.0\n"
                                      "1970-01-02T01:00:00Z,5.0\n",
                                      "1300000000;5.0\n1300003600;6.0\n"],
                             ids=["header", "headerless"])
    @pytest.mark.parametrize("blank", ["\n", "\r\n", " \t\n\n", "{0}\n", " {0} \n\n"])
    def test_blank_first_lines_infer_as_the_file_without_them(self, tmp_path, text, blank):
        blank = blank.format("," if "," in text else ";")  # a record of blank cells
        plain, padded = write(tmp_path, "a.csv", text), write(tmp_path, "b.csv", blank + text)
        schema = infer_schema(plain)
        assert infer_schema(padded) == schema
        assert _outcome(read_energy_csv, padded, schema) == _outcome(read_energy_csv, plain,
                                                                     schema)

    @pytest.mark.parametrize("line", [1, 2, 450])
    def test_undecodable_byte_is_a_parse_error_at_its_line(self, tmp_path, line):
        # rows of 117 characters in 217 bytes: a text-mode read of the sample
        # decodes two blocks, and line 450 lies in the second
        rows = [f"{1_600_000_000 + 3600 * k},{k}.5,{'é' * 100}".encode() for k in range(600)]
        rows.insert(0, b"timestamp,value,note")
        rows[line - 1] = b"\xff" + rows[line - 1]
        path = tmp_path / "a.csv"
        path.write_bytes(b"\n".join(rows) + b"\n")
        with pytest.raises(ParseError, match=rf"^line {line}: not UTF-8: byte 0xff \("):
            infer_schema(path)

    @pytest.mark.parametrize("row, inferred", [(49, False), (50, True)])
    def test_the_first_50_records_are_inspected(self, tmp_path, row, inferred):
        # the header is the first record: data row 50 is the 51st
        cells = ["?" if k == row else f"{k}.5" for k in range(1, 61)]
        path = write(tmp_path, "a.csv", "timestamp,value\n" + "".join(
            f"{1_600_000_000 + 3600 * k},{cell}\n" for k, cell in enumerate(cells)))
        if inferred:
            assert infer_schema(path) == DatasetSchema("timestamp", "value")
        else:
            with pytest.raises(CannotInfer, match="no numeric value column"):
                infer_schema(path)

    def test_undecodable_byte_past_the_sample_fails_the_read_only(self, tmp_path):
        rows = b"".join(b"%d,%d.5\n" % (1_600_000_000 + 3600 * k, k) for k in range(6000))
        path = tmp_path / "a.csv"
        path.write_bytes(b"timestamp,value\n" + rows + b"1700000000,\xff\n")
        schema = infer_schema(path)
        assert schema == DatasetSchema("timestamp", "value")
        with pytest.raises(ParseError, match="^line 6002: not UTF-8: byte 0xff"):
            read_energy_csv(path, schema)

    def test_sample_is_read_in_characters(self, tmp_path):
        # two-byte characters: the 65,536th byte falls inside one
        path = write(tmp_path, "a.csv", "timestamp,value,note\n" + "".join(
            f"{1_600_000_000 + 3600 * k},{k}.5,{'é' * 300}\n" for k in range(200)))
        assert infer_schema(path) == DatasetSchema("timestamp", "value")


ISO = "1970-01-01T0{}:00:00Z"
# (file name, text, schema) of weather files that the reader and its oracle read alike
WEATHER_CASES = {
    "iso_unsorted_with_ties": ("w.csv", "timestamp,temperature,humidity\n"
                               + "".join(f"{ISO.format(h)},{t},{u}\n" for h, t, u in
                                         [(3, 1, 2), (1, 3, 4), (3, 5, 6), (2, 7, 8)]), None),
    "epoch_schema": ("w.csv", "When;Temp;Hum\n7200;1.5;40\n3600;2.5;\n",
                     DatasetSchema("When", "Temp", "epoch", ";")),
    "epoch_auto": ("w.csv", "dt,temp\n1609462800,1\n1609459200,2\n", None),
    "blank_rows": ("w.csv", f"time,temperature\n\n{ISO.format(1)},1\n , \n\n"
                            f"{ISO.format(2)},2\n\n", None),
    "empty_and_short_cells": ("w.csv", "date,temperature,humidity,wind\n"
                                       f"{ISO.format(1)},1,,3\n{ISO.format(2)},2\n"
                                       f"{ISO.format(3)}\n{ISO.format(4)},,NA,null\n", None),
    "all_empty_extra_column": ("w.csv", "timestamp,temperature,pressure,wind\n"
                                        f"{ISO.format(1)},1,,4\n{ISO.format(2)},2, nan ,\n",
                               None),
    "temp_without_temperature": ("w.csv", f"timestamp,temp\n{ISO.format(1)},5\n"
                                          f"{ISO.format(2)},\n", None),
    "temp_fills_temperature": ("w.csv", "timestamp,temperature,temp\n"
                                        f"{ISO.format(1)},1,9\n{ISO.format(2)},,8\n"
                                        f"{ISO.format(3)},3,\n{ISO.format(4)},,\n", None),
    "repeated_names": ("w.csv", "timestamp,wind,Wind\n"
                                f"{ISO.format(1)},1,2\n{ISO.format(2)},3,\n", None),
    "no_named_time_column": ("w.csv", f"when,Temperature\n{ISO.format(1)},1\n", None),
    "time_column_not_first": ("w.csv", f"temperature,Date,humidity\n1,{ISO.format(1)},2\n",
                              None),
    "long_rows_and_offset": ("w.csv", "timestamp,humidity\n"
                                      "1970-01-01T06:00:00,50,99\n1970-01-01T05:00:00,60\n",
                             DatasetSchema("timestamp", "humidity", utc_offset_hours=5.0)),
    "only_blank_rows": ("w.csv", "timestamp,temperature\n\n , \n", None),
    "header_only": ("w.csv", "timestamp,temperature\n", None),
    "quoted_header_then_a_blank_row": ("w.csv", 'timestamp,"temperature"\n,\n', None),
    "bad_value_after_blank_rows": ("w.csv", f"timestamp,temperature,humidity\n\n"
                                            f"{ISO.format(1)},1,2\n\n{ISO.format(2)},3,wet\n",
                                   None),
    "bad_timestamp_before_bad_value": ("w.csv", "timestamp,temperature\n"
                                                f"{ISO.format(1)},cold\nnoon,warm\n"
                                                "yesterday,hot\n", None),
    "quoted_newlines_and_blank_rows": ("w.csv", 'timestamp,"temp\nerature"\n\n'
                                                f'{ISO.format(1)},"1\n\n"\n\n'
                                                f"noon,2\n", None),
    "column_named_energy": ("w.csv", f"timestamp,temperature,energy\n{ISO.format(1)},1,2\n",
                            None),
    "columns_named_energy_and_timestamp": ("w.csv", "date,Timestamp,Energy\n"
                                                    f"{ISO.format(1)},1,2\n", None),
    "all_empty_column_named_energy": ("w.csv", "timestamp,temperature,Energy\n"
                                               f"{ISO.format(1)},1,\n", None),
    # uniform files the column split serves, and their csv.reader look-alikes
    "bad_value_on_last_line": ("w.csv", "timestamp,temperature,humidity\n"
                                        f"{ISO.format(1)},1,2\n{ISO.format(2)},3,wet\n", None),
    "row_of_bare_delimiters": ("w.csv", "timestamp,temperature,humidity\n"
                                        f"{ISO.format(1)},1,2\n,,\n{ISO.format(2)},3,4\n", None),
    "short_row": ("w.csv", "timestamp,temperature,humidity\n"
                           f"{ISO.format(1)},1,2\n{ISO.format(2)},3\n{ISO.format(3)},5,6\n",
                  None),
    # the order within one bad row: the stamp, then the value columns in order
    "bad_cells_around_the_time_column": ("w.csv", "temperature,timestamp,humidity\n"
                                                  f"1,{ISO.format(1)},2\ncold,noon,wet\n",
                                         None),
    "two_bad_value_columns": ("w.csv", "timestamp,temperature,humidity\n"
                                       f"{ISO.format(1)},1,2\n{ISO.format(2)},cold,wet\n",
                              None),
    # no year bound: an epoch stamp past the year 9999 reads
    "epoch_past_year_9999": ("w.csv", "dt,temp\n253402300800,1\n3600,2\n",
                             DatasetSchema("dt", "temp", "epoch")),
    "json_list": ("w.json", json.dumps([{"dt": 7200, "main": {"temp": 1.5, "humidity": 40}},
                                        {"dt": 3600, "main": {"temp": 2}}]), None),
    "json_export": ("w.json", json.dumps({"list": [{"dt": 3600, "main": {"humidity": 50}},
                                                   {"dt": 3600, "main": {"temp": 3}}]}), None),
    "json_missing_main": ("w.json", json.dumps([{"dt": 3600}, {"dt": 0, "main": {}}]), None),
}
WEATHER_NAMES = {
    "all_empty_extra_column": ["timestamp", "temperature", "humidity", "wind"],
    "temp_without_temperature": ["timestamp", "temperature", "humidity"],
    "repeated_names": ["timestamp", "temperature", "humidity", "wind"],
    "empty_and_short_cells": ["timestamp", "temperature", "humidity", "wind"],
}
WEATHER_ERRORS = {
    "only_blank_rows": "line 1: weather CSV needs a header and at least one row",
    "header_only": "line 1: weather CSV needs a header and at least one row",
    "quoted_header_then_a_blank_row": "line 1: weather CSV needs a header and at least one row",
    "bad_cells_around_the_time_column": "line 3: bad timestamp 'noon' (",
    "two_bad_value_columns": "line 3: bad numeric value 'cold' in column 'temperature'",
}


class TestReadWeather:
    def test_csv_records_sorted(self, tmp_path):
        path = write(tmp_path, "w.csv",
                     "timestamp,temperature,humidity\n"
                     "1970-01-01T02:00:00Z,14.0,60.0\n"
                     "1970-01-01T01:00:00Z,13.0,55.0\n")
        table = read_weather(path)
        assert list(table) == ["timestamp", "temperature", "humidity"]
        assert table["timestamp"].tolist() == [HOUR, 2 * HOUR]
        assert table["temperature"].tolist() == [13.0, 14.0]
        assert table["humidity"][1] == 60.0

    def test_empty_field_kept_as_missing(self, tmp_path):
        path = write(tmp_path, "w.csv",
                     "timestamp,temperature,humidity\n"
                     "1970-01-01T01:00:00Z,,55.0\n")
        table = read_weather(path)
        assert np.isnan(table["temperature"]).all()
        assert table["humidity"].tolist() == [55.0]

    def test_malformed_timestamp_names_line(self, tmp_path):
        path = write(tmp_path, "w.csv",
                     "timestamp,temperature\n"
                     "1970-01-01T01:00:00Z,13.0\n"
                     "noon,14.0\n")
        with pytest.raises(ParseError, match="line 3"):
            read_weather(path)

    def test_extra_columns_attached(self, tmp_path):
        path = write(tmp_path, "w.csv",
                     "timestamp,temperature,humidity,pressure\n"
                     "1970-01-01T01:00:00Z,13.0,55.0,1013.0\n")
        table = read_weather(path)
        assert list(table) == ["timestamp", "temperature", "humidity", "pressure"]
        assert table["pressure"].tolist() == [1013.0]

    def test_json_export_shape(self, tmp_path):
        payload = {"list": [
            {"dt": 7200, "main": {"temp": 14.0, "humidity": 60}},
            {"dt": 3600, "main": {"temp": 13.0, "humidity": 55}},
        ]}
        path = write(tmp_path, "w.json", json.dumps(payload))
        table = read_weather(path)
        assert table["timestamp"].tolist() == [HOUR, 2 * HOUR]
        assert table["temperature"][0] == 13.0

    def test_bare_json_list_and_missing_fields(self, tmp_path):
        path = write(tmp_path, "w.json",
                     json.dumps([{"dt": 3600, "main": {"humidity": 50}}]))
        table = read_weather(path)
        assert np.isnan(table["temperature"]).all() and table["humidity"].tolist() == [50.0]

    def test_invalid_json(self, tmp_path):
        path = write(tmp_path, "w.json", "{not json")
        with pytest.raises(ParseError):
            read_weather(path)

    @pytest.mark.parametrize("payload, message", [
        ([1, 2], "line 1: observation 0: expected an object"),
        ({"dt": 1, "main": 5}, "line 1: expected a list of observations"),
        ([{"dt": 1, "main": 5}], "line 1: observation 0: expected an object"),
        ({"list": [{"dt": 1}, {"main": {}}]}, "line 1: observation 1: 'dt'"),
        ([{"dt": 1, "main": {"temp": "warm"}}], "line 1: observation 0: could not convert"),
        ([{"dt": 1}, {"dt": 2, "main": {"humidity": [50]}}], "line 1: observation 1: "),
        ({"list": []}, "line 1: no observations"),
        ([], "line 1: no observations"),
    ], ids=["list_of_numbers", "object_without_list", "main_not_an_object", "no_dt",
            "text_temperature", "list_humidity", "empty_export_list", "empty_list"])
    def test_odd_json_is_a_parse_error(self, tmp_path, payload, message):
        path = write(tmp_path, "w.json", json.dumps(payload))
        with pytest.raises(ParseError) as caught:
            read_weather(path)
        assert str(caught.value).startswith(message)

    @pytest.mark.parametrize("text", ['[{"dt": NaN}]',
                                      '[{"dt": 1, "main": {"temp": Infinity}}]',
                                      '[{"dt": 1}, {"dt": 1e400}]'])
    def test_non_finite_json_number_is_a_parse_error(self, tmp_path, text):
        path = write(tmp_path, "w.json", text)
        with pytest.raises(ParseError, match="not finite"):
            read_weather(path)

    @pytest.mark.parametrize("cell", ["inf", "-Infinity", "1e400"])
    def test_non_finite_cell_names_its_line(self, tmp_path, cell):
        path = write(tmp_path, "w.csv", "timestamp,temperature,wind\n"
                                        "1970-01-01T01:00:00Z,13.0,2\n\n"
                                        f"1970-01-01T02:00:00Z,14.0,{cell}\n")
        with pytest.raises(ParseError) as caught:
            read_weather(path)
        assert str(caught.value) == f"line 4: bad numeric value {cell!r} in column 'wind'"

    def test_non_finite_epoch_timestamp_names_its_line(self, tmp_path):
        path = write(tmp_path, "w.csv", "dt,temp\n3600,13\nnan,14\n")
        with pytest.raises(ParseError, match=r"^line 3: bad timestamp 'nan' \(not finite\)$"):
            read_weather(path, DatasetSchema("dt", "temp", "epoch"))

    def test_absent_timestamp_cell_names_its_line(self, tmp_path):
        path = write(tmp_path, "w.csv", "temp,dt\n13,3600\n14\n")
        with pytest.raises(ParseError, match=r"^line 3: bad timestamp '' \(empty"):
            read_weather(path, DatasetSchema("dt", "temp", "epoch"))

    @pytest.mark.parametrize("name, data, message", [
        ("w.csv", b"timestamp,temp\xb0C\n1609459200,1\n", "line 1: not UTF-8: byte 0xb0"),
        ("w.csv", b"timestamp,temp\n1609459200,1\n\n1609462800,K\xf6ln\n",
         "line 4: not UTF-8: byte 0xf6"),
        ("w.json", b'{"city": "K\xf6ln", "list": []}', "line 1: not UTF-8: byte 0xf6"),
        ("w.json", b'[{"dt": 1, "main": {"temp": 1}},\r\n {"dt": 2, "name": "K\xf6ln"}]',
         "line 2: not UTF-8: byte 0xf6"),
    ], ids=["csv_header", "csv_body", "json_first_line", "json_second_line"])
    def test_undecodable_byte_is_a_parse_error_at_its_line(self, tmp_path, name, data,
                                                           message):
        path = tmp_path / name
        path.write_bytes(data)
        with pytest.raises(ParseError) as caught:
            read_weather(path)
        assert str(caught.value).startswith(message)

    def test_second_column_named_timestamp_is_refused(self, tmp_path):
        path = write(tmp_path, "w.csv", "date,timestamp\n1970-01-01T01:00:00Z,1\n")
        with pytest.raises(ParseError, match="line 1"):
            read_weather(path)

    @pytest.mark.parametrize("case", sorted(WEATHER_CASES))
    def test_same_table_or_error_as_reference_loop(self, case, tmp_path):
        name, text, schema = WEATHER_CASES[case]
        path = write(tmp_path, name, text)
        expected = _outcome(_reference_read_weather, path, schema)
        assert _outcome(read_weather, path, schema) == expected
        if case in WEATHER_NAMES:
            assert [name for name, *_ in expected] == WEATHER_NAMES[case]
        if case in WEATHER_ERRORS:
            assert expected[0] is ParseError and expected[1].startswith(WEATHER_ERRORS[case])

    @pytest.mark.parametrize("case", sorted(WEATHER_CASES))
    def test_same_table_or_error_through_csv_reader(self, case, tmp_path, monkeypatch):
        name, text, schema = WEATHER_CASES[case]
        path = write(tmp_path, name, text)
        expected = _outcome(_reference_read_weather, path, schema)
        monkeypatch.setattr(ingest, "_uniform_columns", lambda *args: None)
        assert _outcome(read_weather, path, schema) == expected


class TestCanonicalWriter:
    def test_round_trip_identity(self, tmp_path):
        values = np.array([1.5, np.nan, 3.25, 4.0, np.nan, 6.125])
        original = TimeSeries(7200.0, HOUR, values)
        path = tmp_path / "out.csv"
        write_energy_csv(path, original)
        back = read_energy_csv(path)
        assert back.start == original.start
        assert back.interval == original.interval
        np.testing.assert_array_equal(back.values, original.values)

    def test_exact_output_format(self):
        buf = io.StringIO()
        write_energy_csv(buf, TimeSeries(0.0, HOUR, np.array([5.0, np.nan])))
        assert buf.getvalue() == ("timestamp,value\n"
                                  "1970-01-01T00:00:00Z,5.0\n"
                                  "1970-01-01T01:00:00Z,NaN\n")

    def test_round_trip_preserves_float_precision(self, tmp_path):
        values = np.array([0.1, 1 / 3, 2 ** -40])
        path = tmp_path / "out.csv"
        write_energy_csv(path, TimeSeries(0.0, HOUR, values))
        np.testing.assert_array_equal(read_energy_csv(path).values, values)

    def test_never_invents_values(self, tmp_path):
        # 9 observed rows in, 9 non-missing values out
        lines = [f"1970-01-01T{h:02d}:00:00Z,{float(h)}" for h in range(10) if h != 4]
        path = write(tmp_path, "a.csv", "t,v\n" + "\n".join(lines) + "\n")
        s = read_energy_csv(path)
        assert np.count_nonzero(~np.isnan(s.values)) <= len(lines)


class TestSchemaChecks:
    @pytest.mark.parametrize("offset", [30.0, 24.0, -24.0, math.nan, math.inf, 1e300])
    def test_offset_outside_a_day_is_config_error(self, offset):
        with pytest.raises(ConfigError, match="UTC offset"):
            DatasetSchema("t", "v", utc_offset_hours=offset)

    # csv.reader takes one character, and can split on neither a quote nor a
    # line break; the columnar reader splits on the same character
    @pytest.mark.parametrize("delimiter", ["", ";;", ", ", '"', "\r", "\n"])
    def test_delimiter_not_one_splittable_character_is_config_error(self, delimiter):
        with pytest.raises(ConfigError, match="schema delimiter must be one character"):
            DatasetSchema("t", "v", delimiter=delimiter)

    @pytest.mark.parametrize("delimiter", [",", ";", "\t", "|", " ", "'", "§"])
    def test_one_character_delimiter_is_accepted(self, delimiter):
        assert DatasetSchema("t", "v", delimiter=delimiter).delimiter == delimiter


ISO_SCHEMA = DatasetSchema("t", "v")
READER_CASES = {
    "mixed_iso_and_epoch": (
        "t,v\n2021-01-01T00:00:00Z,1\n1609462800,2\n2021-01-01T02:00:00+00:00,3\n"
        "1609470000.0,4\n", ISO_SCHEMA),
    # bare digits parse as ISO where fromisoformat accepts them, else as epoch
    "digits_8_and_10": ("t,v\n20210101,1\n1609462800,2\n1609466400,3\n", ISO_SCHEMA),
    "digits_9": ("t,v\n100000000,1\n100003600,2\n100007200,3\n", ISO_SCHEMA),
    "digits_11_and_12": ("t,v\n20210101120,1\n1609534800,2\n1609538400.0,3\n", ISO_SCHEMA),
    "digits_12_out_of_range": ("t,v\n1609459200,1\n160946280000,2\n", ISO_SCHEMA),
    "padded_cells_and_missing_tokens": (
        "t,v\n" + "".join(f" {3600 * i + 1_000_000_000} ,{token}\n"
                          for i, token in enumerate(["  1.5 "] + MISSING_TOKENS + ["\t2\t"])),
        ISO_SCHEMA),
    "bom": ("\ufefft,v\n1970-01-02T00:00:00Z,1\n1970-01-02T01:00:00Z,2\n", ISO_SCHEMA),
    "edge_values": (
        "t,v\n" + "".join(f"{3600 * i + 1_000_000_000},{value}\n" for i, value in
                          enumerate(["-0.0", "1e16", "1e-5", "NaN", "-nan", "1_000", "0.1"])),
        ISO_SCHEMA),
    "inf_value": ("t,v\n1000000000,1\n1000003600,inf\n", ISO_SCHEMA),
    "fractional_epoch": ("t,v\n1609459200.25,1\n1609459200.75,2\n1609459201.25,3\n"
                         "1609459202.25,4\n", ISO_SCHEMA),
    "blank_rows_skipped": ("t,v\n\n1970-01-02T00:00:00Z,1\n,\n  \n , \n"
                           "1970-01-02T01:00:00Z,2\n\n", ISO_SCHEMA),
    "unsorted_with_gap": ("t,v\n1000007200,3\n1000000000,1\n1000003600,2\n1000014400,5\n",
                          ISO_SCHEMA),
    "headerless_text_column": (
        "HH-1;1000000000;5\nHH-1;1000000900;6\nHH-1;1000001800;7\n",
        DatasetSchema("1", "2", delimiter=";", has_header=False)),
    "naive_iso_with_offset": ("t,v\n1970-01-02 02:00:00,1\n1970-01-02 03:00:00,2\n",
                              DatasetSchema("t", "v", utc_offset_hours=5.5)),
    "strptime_with_offset": ("t,v\n02/01/1970 00:00,1\n02/01/1970 01:00,2\n",
                             DatasetSchema("t", "v", timestamp_format="%d/%m/%Y %H:%M",
                                           utc_offset_hours=-3.0)),
    "epoch_format": ("t|v\n 7200 |1\n10800|2\n", DatasetSchema("t", "v", "epoch", "|")),
    "duplicate": ("t,v\n1000000000,1\n1000000000,2\n", ISO_SCHEMA),
    # auto columns of 9- and 10-digit cells take one float pass
    "epoch_column": ("t,v\n1609459200,1\n1609462800,2\n1609470000,4\n", ISO_SCHEMA),
    "epoch_column_with_leading_zero": ("t,v\n0999999000,1\n0999999900,2\n", ISO_SCHEMA),
    "epoch_column_cell_holding_a_newline": (
        't,v\n1609459200,1\n"1609462800\n1609466400",2\n', ISO_SCHEMA),
    "epoch_format_empty_cell": ("t,v\n7200,1\n ,2\n", DatasetSchema("t", "v", "epoch")),
    "epoch_format_bad_cell": ("t,v\n7200,1\n10800,2\nnoon,3\n",
                              DatasetSchema("t", "v", "epoch")),
    "epoch_format_nan_stamps": ("t,v\n1000000000,1\nnan,2\nnan,3\n1000000900,4\n",
                                DatasetSchema("t", "v", "epoch")),
    # equally common gaps: the first seen is modal
    "tied_gaps_larger_first": ("t,v\n" + "".join(f"{1_000_000_000 + t},1\n" for t in
                                                 (0, 1800, 3600, 4500, 5400)), ISO_SCHEMA),
    "tied_gaps_smaller_first": ("t,v\n" + "".join(f"{1_000_000_000 + t},1\n" for t in
                                                  (0, 900, 1800, 3600, 5400)), ISO_SCHEMA),
}
# (file, the ParseError text the per-row reader raised)
READER_ERRORS = {
    "bad_timestamp_after_blank_rows": (
        "t,v\n2021-01-01T00:00:00Z,1\n\n  \nyesterday,2\n",
        "line 5: bad timestamp 'yesterday' "
        "(could not convert string to float: 'yesterday')"),
    "bad_value": ("t,v\n2021-01-01T00:00:00Z,1\n2021-01-01T01:00:00Z,2\n"
                  "2021-01-01T02:00:00Z, oops\n", "line 4: bad numeric value ' oops'"),
    "short_row": ("t,v\n2021-01-01T00:00:00Z,1\n2021-01-01T01:00:00Z\n",
                  "line 3: expected at least 2 columns, got 1"),
    "timestamp_before_value_in_a_row": ("t,v\n2021-01-01T00:00:00Z,1\nnoon,oops\n",
                                        "line 3: bad timestamp 'noon' "
                                        "(could not convert string to float: 'noon')"),
    "earlier_value_before_later_timestamp": (
        "t,v\n2021-01-01T00:00:00Z,oops\nnoon,1\n", "line 2: bad numeric value 'oops'"),
    "earlier_short_row_before_timestamp": ("t,v\n2021-01-01T00:00:00Z\nnoon,1\n",
                                           "line 2: expected at least 2 columns, got 1"),
    "empty_timestamp_in_a_row": ("t,v\n2021-01-01T00:00:00Z,1\n ,2\n",
                                 "line 3: bad timestamp ' ' (empty timestamp)"),
    "implausible_epoch": ("t,v\n42,1\n", "line 2: bad timestamp '42' "
                                         "('42' is neither ISO-8601 nor plausible "
                                         "epoch seconds)"),
    "only_blank_rows": ("t,v\n\n,\n", "line 1: no data rows"),
    "header_only": ("t,v\n", "line 1: no data rows"),
    "blank_lines_around_the_header": ("\n\nt,v\n\n", "line 3: no data rows"),
    "quoted_header_then_a_blank_row": ('\n"t",v\n,\n', "line 2: no data rows"),
    "empty_file": ("", "line 1: no data rows"),
    "overflowing_value_after_blank_row": ("t,v\n2021-01-01T00:00:00Z,1\n\n"
                                          "2021-01-01T01:00:00Z,-1e400\n",
                                          "line 4: bad numeric value '-1e400'"),
    "short_row_after_quoted_newlines_and_blank_rows": (
        't,v\n\n"2021-01-01T00:00:00Z","1\n\n"\n\n2021-01-01T01:00:00Z\n',
        "line 7: expected at least 2 columns, got 1"),
    "infinite_value_before_later_timestamp": ("t,v\n2021-01-01T00:00:00Z,Infinity\nnoon,1\n",
                                              "line 2: bad numeric value 'Infinity'"),
}
TIMESTAMP_CELLS = ["20210101", "202101011", "2021010112", "20210101120", "202101011200",
                   "1609459200", "160945920", "160945920000", "1e9", " 1609459200.5 ",
                   "2021-01-01T00:00:00Z", "2021-01-01 05:30", "2021-01-01T00:00:00+02:00",
                   "02/01/1970 00:00", "", "  ", "noon", "42", "-1609459200", "nan"]


# (file, its time and value columns, the start of the error both readers raise)
# with a quoted cell holding a newline before the bad cell
QUOTED_NEWLINE_FILES = {
    "energy": ('t,v\n2021-01-01T00:00:00Z,"1\n"\n2021-01-01T01:00:00Z,2\nnoon,3\n',
               "t", "v", "line 5: bad timestamp 'noon'"),
    "weather": ('timestamp,temperature\n2021-01-01T00:00:00Z,"5\n"\n'
                "2021-01-01T01:00:00Z,warm\n",
                "timestamp", "temperature", "line 4: bad numeric value 'warm'"),
}


@pytest.mark.parametrize("reader", [read_energy_csv, read_weather],
                         ids=["read_energy_csv", "read_weather"])
@pytest.mark.parametrize("case", sorted(QUOTED_NEWLINE_FILES))
def test_error_line_counts_quoted_newlines(tmp_path, case, reader):
    text, ts_column, value_column, message = QUOTED_NEWLINE_FILES[case]
    path = write(tmp_path, "a.csv", text)
    with pytest.raises(ParseError) as caught:
        reader(path, DatasetSchema(ts_column, value_column))
    assert str(caught.value).startswith(message)


class TestReaderMatchesReferenceLoop:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("case", sorted(READER_CASES))
    def test_same_series_or_error(self, case, backend, tmp_path, monkeypatch):
        text, schema = READER_CASES[case]
        path = write(tmp_path, "a.csv", text)
        use_backend(monkeypatch, backend)
        got = _outcome(read_energy_csv, path, schema)
        assert got == _outcome(_reference_read_energy_csv, path, schema)
        if case == "digits_12_out_of_range":
            assert got[0] is ParseError and got[1].startswith("line 3: bad timestamp")
        if case == "tied_gaps_larger_first":
            assert got == (NonUniformInterval, "modal interval 1800s covers only 50% of gaps")
        if case == "tied_gaps_smaller_first":
            assert got[1] == 900.0
        if case == "epoch_format_empty_cell":
            assert got == (ParseError, "line 3: bad timestamp ' ' (empty timestamp)")
        if case == "epoch_format_nan_stamps":
            assert got == (ParseError, "line 3: bad timestamp 'nan' (not finite)")
        if case == "inf_value":
            assert got == (ParseError, "line 3: bad numeric value 'inf'")

    @pytest.mark.parametrize("fmt", ["auto", "epoch"])
    def test_epoch_column_skips_the_cell_loop(self, tmp_path, monkeypatch, fmt):
        path = write(tmp_path, "a.csv", "t,v\n1609459200,1\n1609462800,2\n")
        use_backend(monkeypatch, "columnar")
        expected = _outcome(read_energy_csv, path, DatasetSchema("t", "v", fmt))

        def no_cell_parser(*args):
            raise AssertionError("the cell parser ran")

        monkeypatch.setattr("wattcast.ingest._timestamp_parser", no_cell_parser)
        assert _outcome(read_energy_csv, path, DatasetSchema("t", "v", fmt)) == expected

    @pytest.mark.parametrize("columnar", [True, False], ids=["columnar", "csv_reader"])
    def test_value_column_skips_the_cell_loop(self, tmp_path, monkeypatch, columnar):
        path = write(tmp_path, "a.csv", "t,v\n1609459200,1.5\n1609462800, -2e3 \n")
        expected = _outcome(read_energy_csv, path, ISO_SCHEMA)

        def no_cell_parser(text):
            raise AssertionError("the cell parser ran")

        monkeypatch.setattr(ingest, "_parse_value", no_cell_parser)
        use_backend(monkeypatch, "columnar" if columnar else "csv_reader")
        assert _outcome(read_energy_csv, path, ISO_SCHEMA) == expected

    def test_weather_value_columns_skip_the_cell_loop(self, tmp_path, monkeypatch):
        path = write(tmp_path, "w.csv", "timestamp,temperature,humidity\n"
                                        "1609459200,1.5,80\n1609462800,nan,-0.0\n")
        expected = _outcome(read_weather, path)

        def no_cell_parser(text):
            raise AssertionError("the cell parser ran")

        monkeypatch.setattr(ingest, "_parse_value", no_cell_parser)
        assert _outcome(read_weather, path) == expected

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("case", sorted(READER_ERRORS))
    def test_same_parse_error_line_and_text(self, case, backend, tmp_path, monkeypatch):
        text, message = READER_ERRORS[case]
        path = write(tmp_path, "a.csv", text)
        expected = _outcome(_reference_read_energy_csv, path, ISO_SCHEMA)
        assert expected == (ParseError, message)
        use_backend(monkeypatch, backend)
        assert _outcome(read_energy_csv, path, ISO_SCHEMA) == expected

    @pytest.mark.parametrize("fmt", ["auto", "iso", "epoch", "%Y%m%d%H", "%d/%m/%Y %H:%M"])
    @pytest.mark.parametrize("offset", [0.0, 5.5, -3.0])
    def test_cell_parser_is_parse_timestamp(self, fmt, offset):
        parse = _timestamp_parser(fmt, offset)
        for cell in TIMESTAMP_CELLS:
            expected = _outcome(_reference_parse_timestamp, cell, fmt, offset)
            assert _outcome(parse, cell) == expected, cell
            assert _outcome(parse_timestamp, cell, fmt, offset) == expected, cell


EPOCH_SCHEMA = DatasetSchema("t", "v", "epoch")
ONE_COLUMN = DatasetSchema("0", "0", has_header=False)
# (file bytes, schema, whether the columnar reader serves it: csv.reader is
# not called). Every other file is read by csv.reader, bar those marked None,
# which are refused before they are split. A columnar file with a cell that
# fails to parse stays columnar: its record k is on line k + 1.
PATH_CASES = {
    "lf": (b"t,v\n1609459200,1\n1609462800,2\n", ISO_SCHEMA, True),
    "crlf": (b"t,v\r\n1609459200,1\r\n1609462800,2\r\n", ISO_SCHEMA, True),
    "lone_cr": (b"t,v\r1609459200,1\r1609462800,2\r", ISO_SCHEMA, False),
    "crlf_and_a_lone_cr": (b"t,v\r\n1609459200,1\r1609462800,2\r\n", ISO_SCHEMA, False),
    "cr_inside_a_cell": (b"t,v\n1609459200,1\r2\n1609462800,2\n", ISO_SCHEMA, False),
    "cr_inside_an_unparsed_cell": (b"t,v,note\n1609459200,1,a\rb\n1609462800,2,c\n",
                                   ISO_SCHEMA, False),
    "no_final_newline": (b"t,v\n1609459200,1\n1609462800,2", ISO_SCHEMA, True),
    "crlf_no_final_newline": (b"t,v\r\n1609459200,1\r\n1609462800,2", ISO_SCHEMA, True),
    "blank_line_in_body": (b"t,v\n1609459200,1\n\n1609462800,2\n", ISO_SCHEMA, False),
    "blank_lines_at_end": (b"t,v\n1609459200,1\n1609462800,2\n\n\n", ISO_SCHEMA, False),
    "crlf_blank_line_at_end": (b"t,v\r\n1609459200,1\r\n1609462800,2\r\n\r\n",
                               ISO_SCHEMA, False),
    "row_of_delimiters": (b"t,v\n1609459200,1\n,\n1609462800,2\n", ISO_SCHEMA, False),
    "row_of_padded_delimiters": (b"t,v\n1609459200,1\n \t, \n1609462800,2\n",
                                 ISO_SCHEMA, False),
    "bom": (b"\xef\xbb\xbft,v\n1609459200,1\n1609462800,2\n", ISO_SCHEMA, True),
    "bom_headerless_crlf": (b"\xef\xbb\xbf1609459200;1\r\n1609462800;2\r\n",
                            DatasetSchema("0", "1", delimiter=";", has_header=False), True),
    "rows_wider_than_header": (b"t,v\n1609459200,1,x\n1609462800,2\n", ISO_SCHEMA, False),
    "all_rows_wider_than_header": (b"t,v\n1609459200,1,x\n1609462800,2,y\n",
                                   ISO_SCHEMA, False),
    "header_wider_than_rows": (b"t,v,note\n1609459200,1\n1609462800,2\n", ISO_SCHEMA, False),
    "row_narrower_than_header": (b"t,v\n1609459200,1\n1609462800\n", ISO_SCHEMA, False),
    "quoted_cell": (b't,v\n1609459200,"1"\n1609462800,2\n', ISO_SCHEMA, False),
    "quoted_header": (b'"t",v\n1609459200,1\n1609462800,2\n', ISO_SCHEMA, False),
    "quote_inside_a_cell": (b't,v\n1609459200,1"\n1609462800,2\n', ISO_SCHEMA, False),
    "headerless": (b"HH-1;1609459200;5\nHH-1;1609460100;6\nHH-1;1609461900;8\n",
                   DatasetSchema("1", "2", delimiter=";", has_header=False), True),
    "headerless_one_column": (b"1609459200\n1609462800\n", ONE_COLUMN, True),
    "headerless_one_column_blank_line": (b"1609459200\n\n1609462800\n", ONE_COLUMN, False),
    "headerless_one_column_first_line_blank": (b"\n1609459200\n1609462800\n",
                                               ONE_COLUMN, False),
    "first_line_blank": (b"\nt,v\n1609459200,1\n1609462800,2\n", ISO_SCHEMA, False),
    "first_line_of_delimiters": (b" ,\nt,v\n1609459200,1\n1609462800,2\n", ISO_SCHEMA,
                                 False),
    "blank_lines_then_header_only": (b"\n\r\nt,v\n", ISO_SCHEMA, False),
    "only_blank_lines": (b"\n,\n \n", ISO_SCHEMA, False),
    "headerless_only_blank_lines": (b"\n \n", ONE_COLUMN, False),
    "one_column_blank_header_line": (b"\n1609459200\n1609462800\n", DatasetSchema("0", "0"),
                                     False),
    "padded_cells": (b"t,v\n 1609459200 ,\t1.5 \n1609462800\t, -2 \n", ISO_SCHEMA, True),
    "padded_iso_cells": (b"t,v\n 2021-01-01T00:00:00Z , 1\n2021-01-01T01:00:00Z,2\n",
                         ISO_SCHEMA, True),
    "tab_delimited": (b"t\tv\n1609459200\t1\n1609462800\t2\n",
                      DatasetSchema("t", "v", delimiter="\t"), True),
    "missing_tokens": (b"t|v\n" + b"".join(
        b"%d|%s\n" % (1609459200 + 3600 * i, token.encode())
        for i, token in enumerate(MISSING_TOKENS + ["3"])),
        DatasetSchema("t", "v", delimiter="|"), True),
    "missing_timestamp": (b"t,v\n1609459200,1\n,2\n1609466400,3\n", ISO_SCHEMA, True),
    "bad_value_on_last_line": (b"t,v\n1609459200,1\n1609462800,oops\n", ISO_SCHEMA, True),
    "bad_value_on_last_line_no_newline": (b"t,v\n1609459200,1\n1609462800,oops",
                                          ISO_SCHEMA, True),
    "bad_timestamp_on_last_line": (b"t,v\n1609459200,1\nnoon,2\n", ISO_SCHEMA, True),
    "bad_epoch_on_last_line_crlf": (b"t,v\r\n7200,1\r\n10800,2\r\nnoon,3", EPOCH_SCHEMA,
                                    True),
    "infinite_value": (b"t,v\n1609459200,1\n1609462800,-inf\n", ISO_SCHEMA, True),
    "nan_epoch_stamp": (b"t,v\n7200,1\nnan,2\n", EPOCH_SCHEMA, True),
    "nul_in_a_cell": (b"t,v\n1609459200,1\x00\n1609462800,2\n", ISO_SCHEMA, False),
    # csv.reader before Python 3.11 refuses a NUL anywhere on a line
    "nul_in_an_unparsed_cell": (b"t,v,note\n1609459200,1,a\x00\n1609462800,2,b\n",
                                ISO_SCHEMA, False),
    "not_utf8": (b"t,v\n1609459200,1\n1609462800,\xff\n", ISO_SCHEMA, None),
    # a text-mode read names the byte's position in the block it was decoding
    "not_utf8_past_the_first_block": (b"t,v\n" + b"".join(
        b"%d,1\n" % (1609459200 + 3600 * i) for i in range(1000)) + b"1609459200,\xff\n",
        ISO_SCHEMA, None),
    "not_utf8_in_the_header": (b"t,v\xb0C\n1609459200,1\n", ISO_SCHEMA, None),
    "not_utf8_after_a_bom": (b"\xef\xbb\xbft,v\n\xe9,1\n", ISO_SCHEMA, None),
    "not_utf8_after_lone_crs": (b"t,v\r1609459200,1\r\r\n1609462800,\xc3(\r", ISO_SCHEMA,
                                None),
    "cut_character_at_the_end": (b"t,v\n1609459200,1\n1609462800,2\xc3", ISO_SCHEMA, None),
    "field_longer_than_the_csv_limit": (
        b"t,v\n1609459200,1\n1609462800," + b" " * csv.field_size_limit() + b"2\n",
        ISO_SCHEMA, False),
    "quoted_field_longer_than_the_csv_limit": (
        b't,v\n1609459200,1\n1609462800,"\n' + b" " * csv.field_size_limit() + b'2"\n',
        ISO_SCHEMA, False),
    "missing_value_column": (b"t,w\n1609459200,1\n1609462800,2\n", ISO_SCHEMA, True),
    "duplicate_stamp": (b"t,v\n1609459200,1\n1609459200,2\n", ISO_SCHEMA, True),
    "header_only": (b"t,v\n", ISO_SCHEMA, True),
    "empty_file": (b"", ISO_SCHEMA, False),
    "signed_values_with_exponents": (
        b"t,v\n1609459200,+1.5e3\n1609462800,-0\n1609466400,.5E-2\n1609470000,007.\n"
        b"1609473600,3e23\n1609477200,-7e-23\n1609480800,9007199254740993\n",
        ISO_SCHEMA, True),
    "subnormal_and_underflowing_values": (b"t,v\n1609459200,4.9e-324\n1609462800,-1e-400\n",
                                          ISO_SCHEMA, True),
    "underscore_in_a_value": (b"t,v\n1609459200,1_0\n1609462800,2\n", ISO_SCHEMA, True),
    "hexadecimal_value": (b"t,v\n1609459200,0x10\n1609462800,2\n", ISO_SCHEMA, True),
    "overflowing_value": (b"t,v\n1609459200,1\n1609462800,1e400\n", ISO_SCHEMA, True),
    "not_ascii_in_an_unparsed_cell": ("t;v;site\n1609459200;1;Zürich\n1609462800;2;Zürich\n"
                                      .encode(), DatasetSchema("t", "v", delimiter=";"), True),
    "epoch_stamps_with_exponents": (b"t,v\n1.6094592e9,1\n1609462800.0,2\n-0,3\n",
                                    EPOCH_SCHEMA, True),
    "blank_first_line_numbered_columns": (b" , \n1609459200,1\n1609462800,2\n1609466400,3\n",
                                          DatasetSchema("0", "1"), False),
    "epoch_stamp_with_a_leading_zero": (b"t,v\n01609459200,1\n1609462800,2\n", ISO_SCHEMA,
                                        True),
}
# the PATH_CASES files the compiled column pass parses; it declines the others
KERNEL_CASES = {"bom", "bom_headerless_crlf", "crlf", "crlf_no_final_newline",
                "duplicate_stamp", "epoch_stamps_with_exponents", "headerless",
                "headerless_one_column", "lf", "no_final_newline",
                "signed_values_with_exponents", "subnormal_and_underflowing_values",
                "tab_delimited"}
# the ParseError text both readers give on odd bytes, refused records and blank lines
PATH_ERRORS = {
    "not_utf8": "line 3: not UTF-8: byte 0xff (invalid start byte)",
    "not_utf8_past_the_first_block": "line 1002: not UTF-8: byte 0xff",
    "not_utf8_in_the_header": "line 1: not UTF-8: byte 0xb0",
    "not_utf8_after_a_bom": "line 2: not UTF-8: byte 0xe9",
    "not_utf8_after_lone_crs": "line 4: not UTF-8: byte 0xc3 (invalid continuation byte)",
    "cut_character_at_the_end": "line 3: not UTF-8: byte 0xc3 (unexpected end of data)",
    "field_longer_than_the_csv_limit": "line 3: field larger than field limit (131072)",
    "quoted_field_longer_than_the_csv_limit": "line 3: field larger than field limit",
    "blank_lines_then_header_only": "line 3: no data rows",
    "only_blank_lines": "line 1: no data rows",
    "headerless_only_blank_lines": "line 1: no data rows",
}


# files both readers take, with the schema both are given
ONE_READ_FILES = {
    "uniform": "timestamp,temperature\n1609459200,1\n1609462800,2\n1609466400,3\n",
    "uniform_bad_last_cell": "timestamp,temperature\n1609459200,1\n1609462800,warm\n",
    "quoted": 'timestamp,temperature\n1609459200,"1"\n1609462800,2\n1609466400,3\n',
}


@pytest.mark.parametrize("reader", [read_energy_csv, read_weather],
                         ids=["read_energy_csv", "read_weather"])
@pytest.mark.parametrize("case", sorted(ONE_READ_FILES))
def test_input_file_is_opened_once(tmp_path, monkeypatch, case, reader):
    path = write(tmp_path, "a.csv", ONE_READ_FILES[case])
    opened = []
    monkeypatch.setattr(ingest, "open", lambda *args, **kwargs: opened.append(args[0])
                        or open(*args, **kwargs), raising=False)
    _outcome(reader, path, DatasetSchema("timestamp", "temperature"))
    assert opened == [path]


class TestColumnarPath:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("case", sorted(PATH_CASES))
    def test_same_series_or_error_on_every_backend(self, case, backend, tmp_path,
                                                   monkeypatch):
        data, schema, serves = PATH_CASES[case]
        path = tmp_path / "a.csv"
        path.write_bytes(data)
        expected = _outcome(_reference_read_energy_csv, path, schema)
        readers = []
        monkeypatch.setattr(csv, "reader", lambda *args, reader=csv.reader, **kwargs:
                            readers.append(args) or reader(*args, **kwargs))
        served = use_backend(monkeypatch, backend)
        assert _outcome(read_energy_csv, path, schema) == expected
        by_kernel = backend == "kernel" and case in KERNEL_CASES
        assert any(served) == by_kernel and len(served) <= 1
        assert bool(readers) == (serves is not None and not by_kernel
                                 and (backend == "csv_reader" or not serves))
        if case in PATH_ERRORS:
            assert expected[0] is ParseError and expected[1].startswith(PATH_ERRORS[case])

    @pytest.mark.parametrize("backend", ["kernel", "columnar"])
    def test_meter_shaped_export_never_reaches_csv_reader(self, backend, tmp_path,
                                                          monkeypatch):
        rows = [f"HH-0001;{1_609_459_200 + 900 * i};{1000 + 7 * i}"
                for i in range(12) if i not in (4, 5)]
        path = write(tmp_path, "export.csv", "site;unix_time;energy\n" + "\n".join(rows) + "\n")
        schema = infer_schema(path)
        assert schema == DatasetSchema("unix_time", "energy", delimiter=";")
        quoted = write(tmp_path, "quoted.csv", '"site";unix_time;energy\n' + "\n".join(rows))
        expected = _outcome(_reference_read_energy_csv, path, schema)
        assert expected[2] == np.array([1000 + 7 * i if i not in (4, 5) else np.nan
                                        for i in range(12)]).tobytes()

        def no_csv_reader(*args, **kwargs):
            raise AssertionError("csv.reader ran")

        served, splits = use_backend(monkeypatch, backend), []
        monkeypatch.setattr(ingest, "_split_table", lambda *args, split=ingest._split_table:
                            splits.append(args[1:]) or split(*args))
        monkeypatch.setattr(csv, "reader", no_csv_reader)
        assert _outcome(read_energy_csv, path, schema) == expected
        # the compiled pass parses the export without splitting its text
        assert served == [True] * (backend == "kernel")
        assert bool(splits) == (backend != "kernel")
        with pytest.raises(AssertionError, match="csv.reader ran"):
            read_energy_csv(quoted, schema)

    @pytest.mark.parametrize("breakage", ["no_compiler", "build_fails"])
    def test_without_the_kernel_every_file_reads_as_before(self, breakage, tmp_path,
                                                           monkeypatch):
        if breakage == "no_compiler":
            monkeypatch.setattr(shutil, "which", lambda name: None)
        else:
            broken = tmp_path / ingest._KERNEL_SOURCE.name
            broken.write_text("this is not C\n")
            monkeypatch.setattr(ingest, "_KERNEL_SOURCE", broken)
        load = ingest._load_kernel.__wrapped__  # uncached: this process may hold a kernel
        assert load() is None
        monkeypatch.setattr(ingest, "_load_kernel", load)
        for case, (data, schema, _) in sorted(PATH_CASES.items()):
            path = tmp_path / f"{case}.csv"
            path.write_bytes(data)
            assert _outcome(read_energy_csv, path, schema) == \
                _outcome(_reference_read_energy_csv, path, schema), case

    # (file, schema): files whose stamps the compiled pass declines, though
    # they are clean; the general path raises its error at their line
    DECLINED = {
        "stamp_after_year_9999": ("t,v\n7200,1\n1e14,2\n", EPOCH_SCHEMA),
        "stamp_before_year_1": ("t,v\n7200,1\n-7e10,2\n", EPOCH_SCHEMA),
        "overflowing_stamp": ("t,v\n7200,1\n1e400,2\n", EPOCH_SCHEMA),
    }

    @pytest.mark.parametrize("case", sorted(DECLINED))
    def test_declined_stamp_is_the_general_paths_error(self, case, tmp_path, monkeypatch):
        text, schema = self.DECLINED[case]
        path = write(tmp_path, "a.csv", text)
        served = use_backend(monkeypatch, "kernel")
        got = _outcome(read_energy_csv, path, schema)
        assert served == [False]
        use_backend(monkeypatch, "columnar")
        assert got == _outcome(read_energy_csv, path, schema)
        assert got[0] is ParseError and got[1].startswith("line 3: bad timestamp")


def _stamps_near_second_boundaries():
    offsets = np.arange(-30, 31) * 1e-7
    bases = [-86401.0, -1.0, 0.0, 59.0, 1e9, 1609459199.0]
    extra = [0.9999995, -0.0000005, -0.5, -0.9999995, -1e-7, -0.0, 0.5, 1.4999995,
             2.5e-7, -2.5e-7, 86399.9999995, 1609459200.25]
    return [b + d for b in bases for d in offsets.tolist()] + extra


@pytest.mark.usefixtures("writer")
class TestWriterMatchesReferenceLoop:
    VALUES = np.array([-0.0, 1e16, 1e-5, np.nan, 1.5, 0.1, 1 / 3, -2.5e-300, np.nan])
    STARTS = {
        "fractional": (1609459200.25, 0.1),
        "half_microsecond": (0.0000005, 0.9999995),
        "pre_1970": (-86400.75, 3600.5),
        "pre_1970_fractional_interval": (-0.0000015, 1e-6),
        "year_below_1000": (-5e10, 86400.0),
        "whole_hours": (1609459200.0, 3600.0),
    }

    @pytest.mark.parametrize("case", sorted(STARTS))
    def test_same_bytes(self, case, tmp_path):
        start, interval = self.STARTS[case]
        s = TimeSeries(start, interval, self.VALUES)
        expected = io.StringIO()
        _reference_write_energy_csv(expected, s)
        got = io.StringIO()
        write_energy_csv(got, s)
        assert got.getvalue() == expected.getvalue()
        path = tmp_path / "out.csv"
        write_energy_csv(path, s)
        assert path.read_bytes() == expected.getvalue().encode()

    def test_rows_span_several_chunks(self):
        s = TimeSeries(-1000.5, 0.75, np.where(np.arange(10_000) % 7 == 0, np.nan,
                                               np.arange(10_000) / 3))
        expected, got = io.StringIO(), io.StringIO()
        _reference_write_energy_csv(expected, s)
        write_energy_csv(got, s)
        assert got.getvalue() == expected.getvalue()

    def test_empty_series_writes_the_header(self):
        got = io.StringIO()
        write_energy_csv(got, TimeSeries(0.0, HOUR, np.array([])))
        assert got.getvalue() == "timestamp,value\n"

    def test_format_timestamps_rounds_like_fromtimestamp(self):
        seconds = _stamps_near_second_boundaries()
        assert _format_timestamps(seconds) == [_format_timestamp(x) for x in seconds]

    def test_years_below_1000_match_strftime(self):
        # strftime's months to seconds, after the year zero-padded to four digits
        seconds = [-62135596800.0, -5e10, -30610224000.5, -30610224000.0, 0.0]
        expected = ["0001-01-01T00:00:00Z", "0385-07-25T07:06:40Z", "0999-12-31T23:59:59Z",
                    "1000-01-01T00:00:00Z", "1970-01-01T00:00:00Z"]
        assert [_format_timestamp(x) for x in seconds] == expected
        assert _format_timestamps(seconds) == expected

    @pytest.mark.parametrize("start", ["0001-01-01T00:00:00Z", "0999-12-31T22:00:00Z"])
    def test_years_below_1000_round_trip(self, tmp_path, start):
        s = TimeSeries(parse_timestamp(start), HOUR, np.array([1.0, np.nan, 3.0, 4.0]))
        path = tmp_path / "early.csv"
        write_energy_csv(path, s)
        assert path.read_text().splitlines()[1] == f"{start},1.0"
        assert _outcome(read_energy_csv, path) == _outcome(lambda: s)
        out = tmp_path / "two_hourly.csv"
        assert main(["resample", "--input", str(path), "--interval", "2h",
                     "--out", str(out)]) == 0
        assert _outcome(read_energy_csv, out) == _outcome(resample, s, 2 * HOUR)

    @pytest.mark.parametrize("bad", [-62135596801.0, 253402300800.0, 253402300799.9999996,
                                     math.nan, 1e20])
    def test_out_of_range_year_raises_as_before(self, bad):
        expected = _outcome(_format_timestamp, bad)
        assert expected[0] in (ValueError, OverflowError)
        assert _outcome(_format_timestamps, [0.0, bad, 1.0]) == expected
        s = TimeSeries(bad, HOUR, np.array([1.0, 2.0]))
        assert _outcome(write_energy_csv, io.StringIO(), s) == \
            _outcome(_reference_write_energy_csv, io.StringIO(), s)


def _writer_kernel():
    kernel = ingest._load_kernel()
    if kernel is None:
        pytest.skip(f"no C compiler could build {ingest._KERNEL_SOURCE.name}")
    return kernel


def _repr_corpus() -> np.ndarray:
    """200,000 seeded random bit patterns, then the edges of repr's notations
    and of the double range, every power of two, and their neighbours."""
    bits = np.random.default_rng(30).integers(0, 2**64, 200_000, dtype=np.uint64)
    edges = np.array([1e-5, 1e-4, 1e16, 9999999999999998.0, 2.0**53, 5e-324,
                      sys.float_info.max, *(math.ldexp(1.0, e) for e in range(-1074, 1024))])
    edges = np.concatenate([edges, np.nextafter(edges, 0.0),
                            np.nextafter(edges[edges < sys.float_info.max], np.inf)])
    return np.concatenate([bits.view(np.float64), edges, -edges])


class TestCompiledWriter:
    def test_every_value_is_its_repr(self):
        values = _repr_corpus()
        text = _writer_kernel().write(np.zeros(values.size), [values])
        cells = [line[len("1970-01-01T00:00:00Z,"):] for line in text.splitlines()]
        assert cells == ["NaN" if math.isnan(v) else repr(v) for v in values.tolist()]

    def test_ryu_tables_are_the_powers_of_five(self):
        source = ingest._KERNEL_SOURCE.read_text()

        def table(name):
            size, body = re.search(rf"{name}\[(\d+)\]\[2\] = \{{(.*?)\}};", source,
                                   re.S).groups()
            words = [int(word, 16) for word in re.findall(r"0x([0-9a-f]{16})", body)]
            assert len(words) == 2 * int(size)
            return [low | high << 64 for low, high in zip(words[::2], words[1::2])]

        inverse, split = table("POW5_INV_SPLIT"), table("POW5_SPLIT")
        for q, entry in enumerate(inverse):
            assert entry == (1 << (5**q).bit_length() - 1 + 125) // 5**q + 1, q
        for i, entry in enumerate(split):
            shift = (5**i).bit_length() - 125
            assert entry == (5**i >> shift if shift >= 0 else 5**i << -shift), i
        # the largest index that a double's binary exponent e2 selects
        assert max((e2 * 78913 >> 18) - (e2 > 3) for e2 in range(970)) == len(inverse) - 1
        assert max(e2 - ((e2 * 732923 >> 20) - (e2 > 1))
                   for e2 in range(1, 1077)) == len(split) - 1

    def test_declines_a_chunk_the_python_path_raises_on(self):
        kernel = _writer_kernel()
        assert kernel.write(np.array([0.0, 1.5]), []) == \
            "1970-01-01T00:00:00Z\n1970-01-01T00:00:01Z\n"
        for bad in (math.nan, math.inf, ingest._YEAR_1 - 1, ingest._YEAR_10000,
                    ingest._YEAR_10000 - 0.0000004):
            assert kernel.write(np.array([0.0, bad]), [np.ones(2)]) is None, bad

    def test_formats_every_chunk_of_a_table(self, monkeypatch):
        kernel, served = _writer_kernel(), []

        def spy(stamps, columns):
            text = kernel.write(stamps, columns)
            served.append(text is not None)
            return text

        monkeypatch.setattr(ingest, "_load_kernel",
                            lambda: SimpleNamespace(columns=kernel.columns, write=spy))
        stamps = np.arange(10_000) * 900.0
        stamps[9_000] = math.nan  # the third chunk takes the Python path, which raises
        got = io.StringIO()
        with pytest.raises(ValueError, match="NaN"):
            write_columns(got, stamps, {"a": np.arange(10_000) / 3, "b": -stamps})
        assert served == [True, True, False]
        assert got.getvalue().count("\n") == 1 + 2 * ingest._CHUNK_ROWS
        # another shape of table is formatted in Python alone
        write_columns(io.StringIO(), stamps[:5], {"short": np.ones(4)})
        write_columns(io.StringIO(), stamps[:0], {"a": stamps[:0]})
        assert served == [True, True, False]
