"""Property tests for ingest: CSV dialects round-trip, the column
timestamp parser equals the scalar one, and the column timestamp formatter
equals the scalar one."""

import csv
import string
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from test_ingest import _reference_parse_timestamp  # noqa: E402
from wattcast.ingest import (  # noqa: E402
    DatasetSchema,
    _format_timestamp,
    _float_stamps,
    _format_timestamps,
    _parse_cells,
    _timestamp_parser,
    read_energy_csv,
)

MISSING_TOKENS = ["", "nan", "NaN", "na", "NA", "null", "None", " none "]
# 0001-01-01T00:00:00Z and 9999-12-31T23:59:59Z
FIRST_SECOND, LAST_SECOND = -62135596800.0, 253402300799.0


@st.composite
def dialect_files(draw):
    """(file text, schema, start, interval, expected values, uniform) of one
    export. A uniform file is unquoted, with one cell count on every line,
    and the columnar reader serves it; the others quote cells, widen rows or
    end in blank lines, and csv.reader reads them."""
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
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "export.csv"
        path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(csv, "reader", wraps=csv.reader) as reader:
            s = read_energy_csv(path, schema)
    assert reader.called != uniform
    assert (s.start, s.interval) == (start, interval)
    assert s.values.tobytes() == expected.tobytes()


@settings(deadline=None)
@given(st.lists(st.floats(FIRST_SECOND, LAST_SECOND), max_size=50))
def test_format_timestamps_is_format_timestamp(seconds):
    assert _format_timestamps(seconds) == [_format_timestamp(x) for x in seconds]


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
