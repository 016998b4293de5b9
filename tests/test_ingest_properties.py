"""Property tests for ingest: CSV dialects round-trip, the compiled column
pass reads epoch-stamped exports as ``float`` does or declines them, the
column timestamp parser equals the scalar one, the column timestamp
formatter equals the scalar one, and the compiled CSV writer writes the
Python formatter's bytes."""

import csv
import io
import string
import struct
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import wattcast.ingest as ingest  # noqa: E402
from test_ingest import _outcome, _reference_parse_timestamp  # noqa: E402
from wattcast.ingest import (  # noqa: E402
    DatasetSchema,
    _format_timestamp,
    _float_stamps,
    _format_timestamps,
    _parse_cells,
    _timestamp_parser,
    read_energy_csv,
    write_columns,
)

MISSING_TOKENS = ["", "nan", "NaN", "na", "NA", "null", "None", " none "]
# 0001-01-01T00:00:00Z and 9999-12-31T23:59:59Z
FIRST_SECOND, LAST_SECOND = -62135596800.0, 253402300799.0


@st.composite
def dialect_files(draw):
    """(file text, schema, start, interval, expected values, uniform) of one
    export. A uniform file is unquoted, with one cell count on every line,
    and the compiled pass may parse it; the others quote cells, widen rows or
    end in blank lines, which the pass declines."""
    n = draw(st.integers(3, 40))
    interval = draw(st.sampled_from([60, 900, 3600, 86400]))
    start = draw(st.integers(100_000_000, 4_000_000_000))
    readings = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.none(),
                             min_size=n, max_size=n))
    # fewer than a third of the gaps widen, so the interval stays the modal gap
    dropped = draw(st.sets(st.integers(1, n - 2), max_size=(n - 2) // 3))
    delimiter = draw(st.sampled_from(",;\t|"))
    has_header = draw(st.booleans())
    iso = draw(st.booleans())
    fmt = draw(st.sampled_from(["auto", "iso"] if iso else ["auto", "epoch"]))
    order = draw(st.permutations(["text", "time", "value"]))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    uniform = draw(st.booleans())
    # cells to quote, and rows given one more cell, in files that are not uniform
    quoted = draw(st.sets(st.sampled_from(order))) if not uniform else set()
    wide = draw(st.sets(st.integers(0, n - 1))) if not uniform else set()

    rows = []
    for i, reading in enumerate(readings):
        if i in dropped:
            continue
        stamp = start + i * interval
        cells = {"text": draw(st.text(string.ascii_letters, min_size=1, max_size=6)),
                 "time": _format_timestamp(stamp) if iso else str(stamp),
                 "value": (draw(st.sampled_from(MISSING_TOKENS)) if reading is None
                           else repr(reading))}
        cells = {name: f'"{cell}"' if name in quoted else cell for name, cell in cells.items()}
        rows.append(delimiter.join(cells[name] for name in order) + delimiter * (i in wide))
    if has_header:
        rows.insert(0, delimiter.join(order))
        columns = ("time", "value")
    else:
        columns = (str(order.index("time")), str(order.index("value")))
    schema = DatasetSchema(*columns, timestamp_format=fmt, delimiter=delimiter,
                           has_header=has_header)
    expected = np.array([np.nan if reading is None or i in dropped else reading
                         for i, reading in enumerate(readings)])
    # the last line with or without its line break, then any blank lines
    tail = draw(st.sampled_from(["", ending]) if uniform else
                st.sampled_from([ending * 2, ending * 3]))
    return ending.join(rows) + tail, schema, float(start), float(interval), expected, uniform


@settings(deadline=None)
@given(dialect_files())
def test_dialects_round_trip(case):
    text, schema, start, interval, expected, uniform = case
    parsed, kernel_rows = [], ingest._kernel_rows

    def spy(*args):
        rows = kernel_rows(*args)
        parsed.append(rows is not None)
        return rows

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "export.csv"
        path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(csv, "reader", wraps=csv.reader) as reader, \
                mock.patch.object(ingest, "_kernel_rows", spy):
            s = read_energy_csv(path, schema)
    # the compiled pass parsed the file, or csv.reader split it
    assert parsed[0] != reader.called and (uniform or not parsed[0])
    assert (s.start, s.interval) == (start, interval)
    assert s.values.tobytes() == expected.tobytes()


# cells ``float`` reads that the compiled pass declines, and cells it refuses
ODD_NUMBER_CELLS = [" 1", "1 ", "\t2", "1_0", "0x10", "inf", "-Infinity", "nan", "1e400",
                    "-1e400", "", "NaN", "1e", ".", "+", "e5", "1.5.2", "--1", "١"]


@st.composite
def number_cells(draw):
    """A value cell: mostly a number as a meter or ``repr`` writes it (signs,
    leading zeros, ``-0``, exponents, 17-digit ``repr``, subnormals), else a
    cell the compiled pass must decline."""
    kind = draw(st.integers(0, 11))
    if kind > 9:  # a short mantissa around the fast path's edge of 10^22
        return f"{draw(st.integers(0, 10 ** 7))}e{draw(st.integers(-30, 30))}"
    if kind < 4:
        x = draw(st.floats(allow_nan=False, allow_infinity=False))
        return draw(st.sampled_from([repr(x), f"{x:.17g}", f"{x:.3f}", f"{x:e}"]))
    if kind < 8:
        sign = draw(st.sampled_from(["", "+", "-"]))
        whole = draw(st.sampled_from(["", "0", "00"])) + draw(st.text("0123456789", max_size=22))
        fraction = draw(st.none() | st.text("0123456789", max_size=22))
        if not whole and not fraction:
            whole = "0"
        exponent = draw(st.none() | st.integers(-30, 30) | st.integers(-400, 400))
        return (sign + whole + ("" if fraction is None else "." + fraction)
                + ("" if exponent is None else draw(st.sampled_from("eE")) + str(exponent)))
    if kind < 9:
        return draw(st.sampled_from(["-0", "+0", "-0.0", "0e999", "4.9e-324", "5e-324",
                                     "2.2250738585072011e-308", "1.7976931348623157e308",
                                     "1.7976931348623159e308", "9007199254740993"]))
    return draw(st.sampled_from(ODD_NUMBER_CELLS))


@st.composite
def epoch_exports(draw):
    """(file bytes, schema, stamp cells, value cells) of a meter export: a
    text column, epoch stamps and values, ``;`` or ``,`` separated, LF or
    CRLF ended, with missing rows and now and then an odd stamp."""
    n = draw(st.integers(1, 12))
    fmt = draw(st.sampled_from(["auto", "epoch"]))
    delimiter = draw(st.sampled_from(";,"))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    start = draw(st.integers(10 ** 8, 4 * 10 ** 9))
    kept = [i for i in range(n) if i == 0 or draw(st.integers(0, 5))]
    stamps = [str(start + 900 * i) for i in kept]
    if draw(st.integers(0, 4)) == 4:
        stamps[draw(st.integers(0, len(stamps) - 1))] = draw(
            st.sampled_from([f"{start}.0", f"{start / 1e9!r}e9", f"0{start}", f" {start}",
                             "1e14", "nan", "-7e10", "12345678"]) | number_cells())
    values = [draw(number_cells()) for _ in kept]
    lines = ["site" + delimiter + "unix_time" + delimiter + "energy"] + [
        delimiter.join(("HH-1", stamp, value)) for stamp, value in zip(stamps, values)]
    text = ending.join(lines) + draw(st.sampled_from(["", ending]))
    schema = DatasetSchema("unix_time", "energy", fmt, delimiter)
    return text.encode(), schema, stamps, values


@settings(deadline=None, max_examples=300)
@given(epoch_exports())
def test_compiled_pass_reads_as_float_or_declines(export):
    data, schema, stamps, values = export
    if ingest._load_kernel() is None:
        pytest.skip(f"no C compiler could build {ingest._KERNEL_SOURCE.name}")
    parsed = ingest._kernel_rows(data, schema)
    if parsed is not None:
        assert parsed[0].tobytes() == np.array([float(c) for c in stamps]).tobytes()
        assert parsed[1].tobytes() == np.array([float(c) for c in values]).tobytes()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "export.csv"
        path.write_bytes(data)
        compiled = _outcome(read_energy_csv, path, schema)
        with mock.patch.object(ingest, "_load_kernel", lambda: None):
            assert _outcome(read_energy_csv, path, schema) == compiled


@settings(deadline=None)
@given(st.lists(st.floats(FIRST_SECOND, LAST_SECOND), max_size=50))
def test_format_timestamps_is_format_timestamp(seconds):
    assert _format_timestamps(seconds) == [_format_timestamp(x) for x in seconds]


# any double: NaN, infinities, zeros and subnormals, and raw 64-bit patterns
DOUBLES = st.floats() | st.integers(0, 2**64 - 1).map(
    lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])
# stamps anywhere in years 1-9999 and at their edges, negative fractional
# seconds, half-microsecond ties, and sometimes a stamp the writer refuses
STAMPS = st.one_of(
    st.floats(FIRST_SECOND, LAST_SECOND + 1),
    st.sampled_from([FIRST_SECOND, FIRST_SECOND - 0.0000005, FIRST_SECOND - 0.0000004,
                     LAST_SECOND + 0.9999994, LAST_SECOND + 0.9999995]),
    st.floats(-3.0, 0.0),
    st.builds(lambda second, micro: second + (micro + 0.5) / 1e6,
              st.integers(int(FIRST_SECOND), int(LAST_SECOND)), st.integers(-10**6, 10**6)),
    st.sampled_from([float("nan"), float("inf"), FIRST_SECOND - 1, LAST_SECOND + 1]),
)


def _written(timestamps, columns):
    out = io.StringIO()
    write_columns(out, timestamps, columns)
    return out.getvalue()


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 12).flatmap(
    lambda n: st.tuples(st.lists(STAMPS, min_size=n, max_size=n),
                        st.lists(st.lists(DOUBLES, min_size=n, max_size=n), max_size=3))))
def test_compiled_writer_writes_the_python_bytes(table):
    stamps, columns = table
    kernel = ingest._load_kernel()
    if kernel is None:
        pytest.skip(f"no C compiler could build {ingest._KERNEL_SOURCE.name}")
    columns = {f"c{j}": values for j, values in enumerate(columns)}
    compiled = _outcome(_written, stamps, columns)
    with mock.patch.object(ingest, "_load_kernel", lambda: None):
        assert _outcome(_written, stamps, columns) == compiled
    text = kernel.write(np.array(stamps), [np.array(values) for values in columns.values()])
    assert text is None or compiled == ",".join(["timestamp", *columns]) + "\n" + text


@st.composite
def digit_cells(draw):
    """A digit string of 1 to 14 characters: a plain 9- or 10-digit epoch
    second, a basic-format date with a digit suffix (the strings
    ``fromisoformat`` may take), or any digits; sometimes with a leading zero
    or whitespace padding."""
    digits = draw(st.integers(10 ** 8, 10 ** 10 - 1).map(str)
                  | st.builds(lambda day, suffix: day.strftime("%Y%m%d") + suffix,
                              st.dates(), st.text("0123456789", max_size=6))
                  | st.text("0123456789", min_size=1, max_size=14))
    if len(digits) < 14 and draw(st.booleans()):
        digits = "0" + digits
    pad = st.sampled_from(["", "", " ", "\t", "  "])
    return draw(pad) + digits + draw(pad)


def _reference_column(cells, fmt, offset):
    """The scalar parser over each cell, up to the first error."""
    out = []
    for cell in cells:
        try:
            out.append(_reference_parse_timestamp(cell, fmt, offset))
        except ValueError as exc:
            return out, (type(exc), str(exc))
    return out, None


def _stamp_column(cells, fmt, offset):
    """The reader's stamp parse: the values before the first cell the parser
    refuses, and that error's type and text."""
    values, bad = _parse_cells(cells, lambda: _timestamp_parser(fmt, offset),
                               _float_stamps(cells, fmt), nan_ok=False)
    error = None if bad is None else bad[1]
    return values.tolist(), None if error is None else (type(error), str(error))


@settings(deadline=None)
@given(st.lists(digit_cells(), min_size=1, max_size=12),
       st.sampled_from(["auto", "epoch"]), st.sampled_from([0.0, 5.5]))
def test_parse_timestamps_is_parse_timestamp(cells, fmt, offset):
    assert _stamp_column(cells, fmt, offset) == _reference_column(cells, fmt, offset)


@settings(deadline=None)
@given(st.lists(st.integers(10 ** 8, 10 ** 10 - 1).map(str), min_size=1, max_size=12),
       st.integers(0, 11), st.sampled_from(["auto", "epoch"]))
def test_parse_timestamps_of_an_epoch_column_with_one_odd_cell(cells, at, fmt):
    """A column that fails the one-pass read at one cell: the loop reports it."""
    cells = [*cells[:at], "", *cells[at:]]
    assert _stamp_column(cells, fmt, 0.0) == _reference_column(cells, fmt, 0.0)
