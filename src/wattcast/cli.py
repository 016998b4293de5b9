"""Command-line surface: forecast, benchmark, resample, decompose.

Every command is a pure function of its input files, flags, and seed —
identical invocations produce byte-identical outputs (forecast CSVs,
reports, and SVG plots alike) for a fixed BLAS thread count; another count
may reorder BLAS sums and change the last digits of full-precision output
such as the JSON report. Flags may come from a ``key = value``
config file (``--config``, or the ``WATTCAST_CONFIG`` environment
variable); explicit flags win over the file, the file wins over defaults.

Exit codes: 0 success, 2 configuration error (a config file that is not
UTF-8 included), 3 data error (an input file that is not UTF-8 or has a
record ``csv`` refuses included, and values whose sums or squares overflow
float64: a ``resample`` window, the scores of a benchmark cell, which fail
that cell), 4 model error (running out of memory, or a forecast that is
not finite, included), 5 when every benchmark cell failed. Errors are typed
where they are raised: ``main`` maps the error families, ``OSError`` and
``MemoryError`` to their codes and has no catch-all.
"""

from __future__ import annotations

import argparse
import inspect
import os
import re
import sys
from dataclasses import replace
from pathlib import Path

from .errors import ConfigError, DataError, ModelError
from .evaluation import (
    ARIMA_ORDER,
    FAMILIES,
    MODE_ONE_STEP,
    MODE_RECURSIVE,
    MODELS,
    benchmark,
    check_finite,
    fit_forecast,
    spec_for,
)
from .ingest import (
    DatasetSchema,
    infer_schema,
    read_energy_csv,
    writable_stamps,
    write_columns,
    write_energy_csv,
)
from .series import TimeSeries, resample
from .svgplot import decomposition_chart, forecast_chart
from .transform import decompose

# Not called here (forecasts go through evaluation.fit_forecast), but kept
# bound: perfbench/tracing.py wraps these names in this module by attribute
# lookup, and a missing one breaks every traced benchmark run.
from .arima import arima_fit, arima_forecast  # noqa: F401
from .transform import lag_embed  # noqa: F401
from .var import var_fit, var_forecast  # noqa: F401

# The defaults of the command options; --help quotes these. Model
# hyperparameters default in their constructors, and --help quotes those.
DEFAULTS = {
    "model": "svr",
    "p": 24,
    "d": 0,
    "q": 0,
    # order of the arima entry in benchmark suites: (arima_p, d, arima_q)
    "arima_p": ARIMA_ORDER[0],
    "arima_q": ARIMA_ORDER[2],
    "horizon": 24,
    "models": ",".join(MODELS),
    "splits": "0.6,0.7,0.8",
    "mode": MODE_ONE_STEP,
    "period": 24,
    "seed": 0,
    "jobs": 1,
    "agg": "sum",
}

_INTERVAL_RE = re.compile(r"^(\d+)([mhd])$")
_UNIT_SECONDS = {"m": 60.0, "h": 3600.0, "d": 86400.0}


def parse_interval(text: str) -> float:
    """``<integer><unit>`` with units m/h/d, or the alias "daily"."""
    text = text.strip()
    if text == "daily":
        return 86400.0
    matched = _INTERVAL_RE.match(text)
    if not matched or int(matched.group(1)) == 0:
        raise ConfigError(f"bad interval {text!r}; use <integer><m|h|d> "
                          "(e.g. 15m, 1h, 1d) or 'daily'")
    return int(matched.group(1)) * _UNIT_SECONDS[matched.group(2)]


# --- argument parsing and config resolution --------------------------------

def _dflt(key) -> str:
    return f"(default: {DEFAULTS[key]})"


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", metavar="FILE",
                   help="key=value config file; flags win over file entries "
                        "(default: $WATTCAST_CONFIG if set)")
    p.add_argument("--seed", type=int, help=f"seed for seeded models {_dflt('seed')}")


def _add_schema(p: argparse.ArgumentParser):
    p.add_argument("--timestamp-column", help="timestamp column name or index "
                                              "(default: inferred)")
    p.add_argument("--value-column", help="value column name or index "
                                          "(default: inferred)")
    p.add_argument("--timestamp-format",
                   help="'auto', 'iso', 'epoch', or a strptime pattern "
                        "(default: auto)")
    p.add_argument("--delimiter", help="CSV delimiter (default: inferred)")
    p.add_argument("--no-header", action="store_const", const=True, default=None,
                   help="file has no header row (default: inferred)")
    p.add_argument("--utc-offset", type=float, metavar="HOURS",
                   help="UTC offset of naive timestamps (default: 0)")


def _add_hyper(p: argparse.ArgumentParser):
    """One flag per hyperparameter in FAMILIES, quoting the constructor default."""
    for family in FAMILIES.values():
        for arg, key, *flag in family.params:
            if key != "seed":  # _add_common adds it to every command
                kind, phrase = flag
                default = inspect.signature(family.model).parameters[arg].default
                shown = "" if default is None else f" (default: {default})"
                p.add_argument("--" + key.replace("_", "-"), type=kind, help=phrase + shown)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wattcast",
        description="Energy consumption forecasting toolkit: classical and "
                    "regression forecasters with a chronological benchmark.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    forecast = sub.add_parser(
        "forecast", help="fit one model on a series and forecast ahead",
        description="Fit the chosen model on the whole input series and write "
                    "the next --horizon values as canonical CSV.")
    forecast.add_argument("--input", metavar="FILE", help="energy CSV to read")
    forecast.add_argument("--model", choices=MODELS,
                          help=f"model family {_dflt('model')}")
    forecast.add_argument("--p", type=int,
                          help=f"lag order / AR order {_dflt('p')}")
    forecast.add_argument("--d", type=int,
                          help=f"differencing order (arima) {_dflt('d')}")
    forecast.add_argument("--q", type=int, help=f"MA order (arima) {_dflt('q')}")
    forecast.add_argument("--horizon", type=int,
                          help=f"steps to forecast {_dflt('horizon')}")
    forecast.add_argument("--out", metavar="FILE",
                          help="forecast CSV path (default: stdout)")
    forecast.add_argument("--plot", metavar="FILE",
                          help="write an SVG overlaying history and forecast")
    _add_hyper(forecast)
    _add_schema(forecast)
    _add_common(forecast)

    bench = sub.add_parser(
        "benchmark", help="sweep models x datasets x splits and rank by RAE",
        description="Cartesian sweep over models, datasets, chronological "
                    "splits and optional resampling intervals; failed cells "
                    "are recorded, not fatal.")
    bench.add_argument("--input", action="append", metavar="FILE",
                       help="energy CSV (repeatable)")
    bench.add_argument("--models", help=f"comma-separated families {_dflt('models')}")
    bench.add_argument("--splits",
                       help=f"comma-separated train fractions {_dflt('splits')}")
    bench.add_argument("--p", type=int, help=f"lag order {_dflt('p')}")
    bench.add_argument("--arima-p", type=int,
                       help=f"AR order of the arima entry {_dflt('arima_p')}")
    bench.add_argument("--d", type=int,
                       help=f"differencing order of the arima entry {_dflt('d')}")
    bench.add_argument("--arima-q", type=int,
                       help=f"MA order of the arima entry {_dflt('arima_q')}")
    bench.add_argument("--horizon", type=int,
                       help="cap on scored test steps (default: whole test span)")
    bench.add_argument("--mode", choices=(MODE_ONE_STEP, MODE_RECURSIVE),
                       help=f"prediction mode {_dflt('mode')}")
    bench.add_argument("--intervals",
                       help="comma-separated resampling intervals, e.g. "
                            "'native,1h,3h,daily' (default: native)")
    bench.add_argument("--jobs", type=int,
                       help=f"worker processes for sweep cells {_dflt('jobs')}")
    bench.add_argument("--report", metavar="FILE",
                       help="text report path (default: stdout)")
    bench.add_argument("--json", metavar="FILE",
                       help="also write a JSON report here")
    _add_hyper(bench)
    _add_schema(bench)
    _add_common(bench)

    resample_p = sub.add_parser(
        "resample", help="aggregate a series to a coarser interval",
        description="Aggregate to an integer multiple of the source interval "
                    "and write canonical CSV.")
    resample_p.add_argument("--input", metavar="FILE", help="energy CSV to read")
    resample_p.add_argument("--interval",
                            help="target interval: <integer><m|h|d> or 'daily'")
    resample_p.add_argument("--agg", choices=("sum", "mean"),
                            help=f"window aggregate {_dflt('agg')}")
    resample_p.add_argument("--out", metavar="FILE",
                            help="output CSV path (default: stdout)")
    _add_schema(resample_p)
    _add_common(resample_p)

    decompose_p = sub.add_parser(
        "decompose", help="split a series into trend/seasonal/residual",
        description="Classical additive decomposition; writes aligned "
                    "value, trend, seasonal and residual columns.")
    decompose_p.add_argument("--input", metavar="FILE", help="energy CSV to read")
    decompose_p.add_argument("--period", type=int,
                             help=f"seasonal period in samples {_dflt('period')}")
    decompose_p.add_argument("--out", metavar="FILE",
                             help="output CSV path (default: stdout)")
    decompose_p.add_argument("--plot", metavar="FILE",
                             help="write a stacked component SVG")
    _add_schema(decompose_p)
    _add_common(decompose_p)

    actions = {name: choice._actions
               for name, choice in sub.choices.items()}
    return parser, actions


def _parse_config_file(path: str) -> dict:
    entries = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read config file {path}: not UTF-8: byte "
                          f"{exc.object[exc.start]:#04x} ({exc.reason})") from None
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise ConfigError(f"{path}:{line_no}: expected key = value")
        entries[key.strip().replace("-", "_")] = value.strip()
    return entries


_TRUE_WORDS = ("1", "true", "yes", "on")
_FALSE_WORDS = ("0", "false", "no", "off")


def _apply_config(args, actions) -> None:
    path = args.config or os.environ.get("WATTCAST_CONFIG")
    if not path:
        return
    by_dest = {a.dest: a for a in actions if a.dest not in ("help", "config")}
    for key, text in _parse_config_file(path).items():
        if key not in by_dest:
            raise ConfigError(f"unknown config key {key!r} "
                              f"(choose from {', '.join(sorted(by_dest))})")
        if getattr(args, key) is not None:
            continue  # explicit flag wins
        action = by_dest[key]
        if action.const is True:  # boolean switch
            low = text.lower()
            if low in _TRUE_WORDS:
                value = True
            elif low in _FALSE_WORDS:
                value = None
            else:
                raise ConfigError(f"config key {key!r}: boolean expected, got {text!r}")
        elif isinstance(action, argparse._AppendAction):
            cast = action.type or str
            value = [cast(part.strip()) for part in text.split(",") if part.strip()]
        else:
            try:
                value = (action.type or str)(text)
            except ValueError:
                raise ConfigError(f"config key {key!r}: cannot parse {text!r}") from None
            if action.choices is not None and value not in action.choices:
                raise ConfigError(f"config key {key!r}: {text!r} is not one of "
                                  f"{', '.join(map(str, action.choices))}")
        setattr(args, key, value)


def _opt(args) -> dict:
    """Resolved options: explicit flags and config entries over DEFAULTS.

    Model hyperparameters appear only when given; ``spec_for`` leaves the
    others at their constructor defaults.
    """
    given = {key: value for key, value in vars(args).items() if value is not None}
    return {**DEFAULTS, **given}


# --- shared pieces ----------------------------------------------------------

def _read_input(path, args) -> TimeSeries:
    if path is None:
        raise ConfigError("--input is required")
    if (args.timestamp_column is None) != (args.value_column is None):
        raise ConfigError("--timestamp-column and --value-column "
                          "must be given together")
    if args.timestamp_column is not None:
        schema = DatasetSchema(args.timestamp_column, args.value_column)
    else:
        schema = infer_schema(path, args.delimiter)
    overrides = {"timestamp_format": args.timestamp_format,
                 "delimiter": args.delimiter,
                 "has_header": False if args.no_header else None,
                 "utc_offset_hours": args.utc_offset}
    # replace() re-runs the schema's checks, so an empty delimiter or format is refused
    schema = replace(schema, **{k: v for k, v in overrides.items() if v is not None})
    return read_energy_csv(path, schema)


def _write_text(destination, text: str) -> None:
    if destination is None:
        sys.stdout.write(text)
    else:
        Path(destination).write_text(text, encoding="utf-8")


def _write_series(destination, s: TimeSeries) -> None:
    write_energy_csv(sys.stdout if destination is None else destination, s)


# --- commands ---------------------------------------------------------------

def cmd_forecast(args) -> int:
    opts = _opt(args)
    horizon = opts["horizon"]
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    p = opts["p"]
    s = _read_input(args.input, args)
    first = s.start + len(s) * s.interval
    fits = writable_stamps(first, s.interval)
    if fits < horizon:
        raise ConfigError(f"a {horizon}-step forecast passes year 9999; "
                          f"{fits} steps fit after the input's last timestamp")
    spec = spec_for(opts["model"], hyper=opts, arima_order=(p, opts["d"], opts["q"]))
    predictions = fit_forecast(spec, s, len(s), horizon, p=p,
                               mode=MODE_RECURSIVE).predictions
    check_finite(predictions)
    forecast = TimeSeries(first, s.interval, predictions)
    _write_series(args.out, forecast)
    if args.plot:
        tail = s.slice(max(0, len(s) - 4 * horizon))
        _write_text(args.plot, forecast_chart(tail, forecast))
    return 0


def cmd_benchmark(args) -> int:
    opts = _opt(args)
    names = [t.strip() for t in opts["models"].split(",") if t.strip()]
    if not names:
        raise ConfigError("no models selected")
    try:
        splits = [float(t) for t in opts["splits"].split(",") if t.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --splits value: {exc}") from None
    if not splits:
        raise ConfigError("no splits selected")
    for key, value in (("p", opts["p"]), ("horizon", args.horizon), ("jobs", opts["jobs"])):
        if value is not None and value < 1:
            raise ConfigError(f"{key} must be >= 1, got {value}")

    if not args.input:
        raise ConfigError("--input is required (repeat for several datasets)")
    datasets = [(Path(path).stem, _read_input(path, args)) for path in args.input]

    intervals = [None]
    if args.intervals:
        intervals = [None if token.strip() == "native"
                     else parse_interval(token.strip())
                     for token in args.intervals.split(",") if token.strip()]

    arima_order = (opts["arima_p"], opts["d"], opts["arima_q"])
    specs = [spec_for(name, hyper=opts, arima_order=arima_order) for name in names]
    report = benchmark(specs, datasets, splits, p=opts["p"],
                       horizon=args.horizon, mode=opts["mode"],
                       intervals=intervals, jobs=opts["jobs"],
                       config_extra={"seed": opts["seed"]})
    _write_text(args.report, report.to_text())
    if args.json:
        _write_text(args.json, report.to_json())
    if report.records and not any(r.ok for r in report.records):
        return 5
    return 0


def cmd_resample(args) -> int:
    if args.interval is None:
        raise ConfigError("--interval is required")
    target = parse_interval(args.interval)
    s = _read_input(args.input, args)
    _write_series(args.out, resample(s, target, mode=_opt(args)["agg"]))
    return 0


def cmd_decompose(args) -> int:
    period = _opt(args)["period"]
    s = _read_input(args.input, args)
    parts = decompose(s, period)
    write_columns(sys.stdout if args.out is None else args.out, s.timestamps,
                  {"value": s.values, "trend": parts.trend,
                   "seasonal": parts.seasonal, "residual": parts.residual})
    if args.plot:
        _write_text(args.plot, decomposition_chart(s, parts))
    return 0


_HANDLERS = {
    "forecast": cmd_forecast,
    "benchmark": cmd_benchmark,
    "resample": cmd_resample,
    "decompose": cmd_decompose,
}


def main(argv=None) -> int:
    parser, actions = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own diagnostics
        return int(exc.code) if exc.code else 0
    try:
        _apply_config(args, actions[args.command])
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"wattcast: configuration error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"wattcast: data error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"wattcast: data error: {exc}", file=sys.stderr)
        return 3
    except (ModelError, MemoryError) as exc:
        print(f"wattcast: model error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
