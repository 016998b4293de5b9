"""Show that every output check fires on a deliberately corrupted output.

    python3 perfbench/selftest.py [--workloads sweep,meter,kernel] [--seed 1]

For each workload it runs one real pass, confirms that the checks pass on
it, then corrupts one output at a time (a copy; the program is untouched)
and confirms that the check aimed at that output reports a problem. Exits
1 if any corruption goes unnoticed or the clean pass fails a check.
"""

from __future__ import annotations

import argparse
import copy
import os
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402


def _sweep_cases(clean):
    report = clean.data

    def edit(fn):
        def make():
            bad = copy.deepcopy(report)
            fn(bad)
            return [clean._replace(data=bad)]
        return make

    def record(bad, model, fraction=0.7):
        return next(i for i, r in enumerate(bad.records)
                    if r.model == model and r.train_fraction == fraction)

    def set_field(model, **fields):
        def fn(bad):
            i = record(bad, model)
            bad.records[i] = replace(bad.records[i], **fields)
        return fn

    def scale(model, name, factor):
        def fn(bad):
            i = record(bad, model)
            bad.records[i] = replace(bad.records[i],
                                     **{name: getattr(bad.records[i], name) * factor})
        return fn

    def swap_ranking(bad):
        ranks = bad.rankings["household"]
        ranks[0], ranks[1] = ranks[1], ranks[0]

    gp = next(r for r in report.records if r.model == "gp")
    return [
        ("21 ok cells", "ok cells", edit(set_field("knn", error="ModelError: boom"))),
        ("train length is floor(fraction * n)", "test span",
         edit(set_field("var", horizon=report.records[0].horizon + 1))),
        ("OLS matches a lstsq refit", "lstsq refit", edit(scale("ols", "mae", 1.001))),
        ("every RAE < 1", "not below 1", edit(set_field("arima", rae=1.5))),
        ("RMSE >= MAE", "RMSE", edit(set_field("gp", mae=gp.rmse * 1.5))),
        ("ranking follows mean RAE", "ranking", edit(swap_ranking)),
        ("to_text() repeats across passes", "differs from the first pass",
         lambda: [clean, clean._replace(fingerprint=clean.fingerprint + "x")]),
    ]


def _meter_cases(clean, workdir: Path):
    def edit_file(key, fn):
        def make():
            paths = {k: workdir / "bad" / p.name for k, p in clean.data.items()}
            shutil.rmtree(workdir / "bad", ignore_errors=True)
            shutil.copytree(clean.data["report"].parent, workdir / "bad")
            lines = paths[key].read_text(encoding="utf-8").splitlines(keepends=True)
            paths[key].write_text("".join(fn(lines)), encoding="utf-8")
            return [clean._replace(data=paths)]
        return make

    def change_cell(row, column, text):
        def fn(lines):
            cells = lines[row].rstrip("\n").split(",")
            cells[column] = text
            lines[row] = ",".join(cells) + "\n"
            return lines
        return fn

    def report_rmse_below_mae(lines):
        for i, line in enumerate(lines):
            cells = line.rstrip("\n").split("\t")
            if len(cells) == 11 and cells[10] == "ok":
                cells[7] = repr(float(cells[8]) / 2)
                lines[i] = "\t".join(cells) + "\n"
                return lines
        return lines

    failures = dict(clean.failures, **{"resample-1h": "exit 3: data error"})
    return [
        ("NaN slots are the dropped rows", "NaN slots", edit_file("decomp", change_cell(5, 1, "NaN"))),
        ("values read back equal the readings", "readings",
         edit_file("decomp", change_cell(7, 1, "123.0"))),
        ("hourly file is a reshape-sum", "hourly", edit_file("hourly", change_cell(9, 1, "1.0"))),
        ("daily file is a reshape-sum", "daily", edit_file("daily", change_cell(3, 1, "1.0"))),
        ("value = trend + seasonal + residual", "trend + seasonal",
         edit_file("decomp", change_cell(500, 4, "1.0"))),
        ("OLS forecast matches a lstsq recursion", "lstsq recursion",
         edit_file("forecast", change_cell(4, 1, "100000.0"))),
        ("decomposition SVG parses with an svg root", "decomp.svg",
         edit_file("decomp_svg", lambda lines: lines[:-1])),
        ("forecast SVG parses with an svg root", "forecast_ols.svg",
         edit_file("forecast_svg", lambda lines: [lines[0].replace("<svg", "<html")] + lines[1:])),
        ("benchmark cells keep RMSE >= MAE", "RMSE < MAE",
         edit_file("report", report_rmse_below_mae)),
        ("only the named MissingCells operations fail", "unexpected failure",
         lambda: [clean._replace(failures=failures)]),
        ("outputs repeat byte for byte", "differs from the first pass",
         lambda: [clean, clean._replace(fingerprint=dict(clean.fingerprint, daily="0"))]),
    ]


def _kernel_cases(clean):
    def edit(model, fn):
        def make():
            data = copy.deepcopy(clean.data)
            fn(data["reports"][model]["outputs"])
            return [clean._replace(data=data)]
        return make

    def shift_gp_mean(out):
        out["predict_batch"][10] += 1.0

    def outside_box(out):
        i = int(np.argmax(out["alpha"]))
        out["alpha"][i] = out["C"] * 1.5

    def unbalanced(out):
        i = int(np.argmax(out["alpha"]))
        out["alpha"][i] *= 0.5

    def moved_pair(out):
        alpha = np.array(out["alpha"])
        free = np.flatnonzero((alpha > 0.2 * out["C"]) & (alpha < 0.8 * out["C"]))
        out["alpha"][free[0]] += 0.1 * out["C"]
        out["alpha"][free[1]] -= 0.1 * out["C"]

    def first_step(out):
        out["series_first"] += 1.0

    return [
        ("GP mean matches a dense solve", "dense solve", edit("gp", shift_gp_mean)),
        ("SVR duals stay in [0, C]", "outside [0, C]", edit("svr", outside_box)),
        ("SVR sum(alpha - alpha*) = 0", "not 0", edit("svr", unbalanced)),
        ("SVR KKT gap <= tol", "KKT gap", edit("svr", moved_pair)),
        ("first recursive step equals predict_batch", "first step", edit("gp", first_step)),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="sweep,meter,kernel")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    missed = 0
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        for name in args.workloads.split(","):
            module = __import__(name)
            bench = module.Workload(args.seed, workdir)
            clean = bench.run_pass(0)
            baseline = bench.check([clean])
            print(f"{name}: clean pass, {len(baseline)} problems")
            missed += bool(baseline)
            for problem in baseline:
                print(f"  unexpected: {problem}")
            cases = {"sweep": lambda: _sweep_cases(clean),
                     "meter": lambda: _meter_cases(clean, workdir),
                     "kernel": lambda: _kernel_cases(clean)}[name]()
            for label, needle, make in cases:
                found = [msg for _, _, msg in bench.check(make())]
                fired = any(needle in msg for msg in found)
                missed += not fired
                print(f"  {'fires' if fired else 'MISSED'}: {label}"
                      + (f" -> {next(m for m in found if needle in m)[:90]}" if fired else ""))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
