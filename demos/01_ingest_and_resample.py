"""Reading messy meter CSVs and putting them on a uniform grid.

Meter exports are rarely tidy: rows arrive out of order, hours go missing,
and every vendor picks its own column names. This walk-through builds such
a file, lets schema inference figure out the layout, and shows how reading
normalizes everything to a uniformly spaced series that downstream code
can rely on.
"""

import tempfile
from pathlib import Path

import numpy as np

from wattcast import infer_schema, read_energy_csv, resample, write_energy_csv

# a scratch directory for the files below, removed when the demo ends
tmp = tempfile.TemporaryDirectory(prefix="wattcast-demo-")
workdir = Path(tmp.name)
raw = workdir / "meter_export.csv"

# A vendor-style export: 15-minute readings in milliwatts, one row missing
# (01:30) and two rows swapped. Timestamps are ISO-8601 without a zone.
rows = [
    ("2024-03-01 00:00:00", 512_000),
    ("2024-03-01 00:15:00", 498_500),
    ("2024-03-01 00:45:00", 530_250),   # swapped with 00:30
    ("2024-03-01 00:30:00", 505_750),
    ("2024-03-01 01:00:00", 541_000),
    ("2024-03-01 01:15:00", 552_500),
    # 01:30 never made it off the meter
    ("2024-03-01 01:45:00", 561_250),
    ("2024-03-01 02:00:00", 548_000),
]
raw.write_text("reading_time,power_mw\n"
               + "\n".join(f"{t},{v}" for t, v in rows) + "\n")

schema = infer_schema(raw)
print(f"inferred schema: timestamp={schema.timestamp_column!r} "
      f"value={schema.value_column!r} delimiter={schema.delimiter!r}")

series = read_energy_csv(raw, schema)
print(f"\nread {len(series)} slots at {series.interval:.0f}s spacing "
      f"({int(series.missing.sum())} missing)")
for i, value in enumerate(series.values):
    marker = "  <- gap became an explicit missing slot" if np.isnan(value) else ""
    print(f"  t+{int(i * series.interval) // 60:3d}min  {value:>9}{marker}")

# Aggregating power readings: mean preserves the unit (mW); sum would turn
# them into energy-per-window. Windows touching a missing slot stay missing.
hourly = resample(series, 3600.0, mode="mean")
print(f"\nhourly means ({len(hourly)} windows):")
for i, value in enumerate(hourly.values):
    text = "missing (window contains a gap)" if np.isnan(value) else f"{value:,.0f} mW"
    print(f"  hour {i}: {text}")

# The canonical writer produces the round-trippable exchange format.
out = workdir / "canonical.csv"
write_energy_csv(out, series)
print("\ncanonical CSV, first lines:")
print("\n".join(out.read_text().splitlines()[:4] + ["  ..."]))

again = read_energy_csv(out)
assert again.start == series.start and again.interval == series.interval
assert np.array_equal(again.values, series.values, equal_nan=True)
print("round-trip read-back is identical, including the missing slot")
tmp.cleanup()
