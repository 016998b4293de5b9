"""Run one benchmark workload of wattcast for one seed and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

The program under test is this checkout's ``src/wattcast``; the run stops
with exit code 2 if it is absent rather than use an installed copy. A run
measures the set-up (``import wattcast`` in fresh interpreters), generates
the workload's inputs from the seed, then repeats untraced passes of the
workload until ``--seconds`` have gone by (at least one). With ``--trace 1``
it adds one traced pass and reports per-layer metrics instead of end-to-end
ones. Outputs are checked after the timed passes. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread in this process and every child, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer, instrument, merge_profiles  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep", "meter", "kernel")
IMPORT_PROBES = 3
PROBE_TIMEOUT_S = 60
_PROBE = ("import time; t0 = time.perf_counter(); import wattcast; "
          "t1 = time.perf_counter(); print(t1 - t0); print(wattcast.__file__)")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _from_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def import_seconds() -> float:
    """Wall time of ``import wattcast`` in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True, text=True,
                          env=_child_env(), cwd=ROOT, timeout=PROBE_TIMEOUT_S, check=True)
    seconds, location = done.stdout.split("\n")[:2]
    if not _from_src(location):
        raise RuntimeError(f"wattcast imported from {location}, not from {SRC}")
    return float(seconds)


def scipy_import_share() -> float:
    """Share of ``import wattcast`` spent in its outermost scipy imports, from
    ``-X importtime`` in a fresh interpreter. A share, because importtime
    slows every import it reports."""
    done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import wattcast"],
                          capture_output=True, text=True, env=_child_env(), cwd=ROOT,
                          timeout=PROBE_TIMEOUT_S, check=True)
    rows = []
    for line in done.stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, int(cumulative), name.strip()))
    # the output lists children before their parent; walk it backwards so a
    # parent comes first and nested scipy imports are not counted twice
    scipy_us, package_us, stack = 0, 0, []
    for depth, cumulative, name in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = name.split(".")[0] == "scipy"
        inside_scipy = any(flag for _, flag in stack)
        if is_scipy and not inside_scipy:
            scipy_us += cumulative
        if name == "wattcast":
            package_us = cumulative
        stack.append((depth, is_scipy or inside_scipy))
    return _ratio(scipy_us, package_us)


def _metric_table() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def _ratio(a: float, b: float, scale: float = 1.0) -> float:
    return a / b * scale if b else 0.0


def per_layer(profile: dict, kernel_reports: dict, import_s: float, scipy_s: float,
              overhead_s: float) -> dict:
    total, counts, own = profile["total"], profile["counts"], profile["self"]

    def t(key):
        return total.get(key, 0.0)

    def c(key):
        return counts.get(key, 0)

    values = {
        "package.import_s": import_s,
        "package.scipy_import_s": scipy_s,
        "evaluation.cells": c("evaluation.cells"),
        "evaluation.cells_failed": c("evaluation.cells_failed"),
        "evaluation.self_s": own.get("evaluation", 0.0),
        "mlp.fit_s": t("mlp.fit"),
        "mlp.epoch_ms": _ratio(t("mlp.fit"), c("mlp.epochs"), 1e3),
        "mlp.row_updates": c("mlp.row_updates"),
        "mlp.row_update_us": _ratio(t("mlp.fit"), c("mlp.row_updates"), 1e6),
        "mlp.rollbacks": c("mlp.rollbacks"),
        "svr.smo_iters": c("svr.smo_iters"),
        "svr.iter_us": _ratio(t("svr.fit"), c("svr.smo_iters"), 1e6),
        "svr.support_vectors": c("svr.support_vectors"),
        "linear.fit_s": t("linear.fit"),
        "linear.predict_s": t("linear.predict"),
        "neighbors.predict_s": t("neighbors.predict"),
        "arima.fit_s": t("arima.fit"),
        "arima.predict_s": t("arima.predict"),
        "arima.css_calls": c("arima.css_calls"),
        "var.fit_s": t("var.fit"),
        "var.predict_s": t("var.predict"),
        "transform.lag_embed_s": t("transform.lag_embed"),
        "transform.decompose_s": t("transform.decompose"),
        "series.resample_s": t("series.resample"),
        "ingest.infer_s": t("ingest.infer"),
        "ingest.read_s": t("ingest.read"),
        "ingest.read_rows": c("ingest.read.rows"),
        "ingest.read_rows_per_s": _ratio(c("ingest.read.rows"), t("ingest.read")),
        "ingest.write_s": t("ingest.write"),
        "ingest.write_rows": c("ingest.write.rows"),
        "ingest.write_rows_per_s": _ratio(c("ingest.write.rows"), t("ingest.write")),
        "svgplot.chart_s": t("svgplot.chart"),
        "svgplot.bytes": c("svgplot.bytes"),
        "cli.resample_s": t("cli.resample"),
        "cli.decompose_s": t("cli.decompose"),
        "cli.forecast_s": t("cli.forecast"),
        "cli.benchmark_s": t("cli.benchmark"),
        "cli.self_s": own.get("cli", 0.0),
        "trace.overhead_s": overhead_s,
    }
    for layer, model in (("svr", "svr"), ("gaussian_process", "gp")):
        values[f"{layer}.fit_s"] = t(f"{layer}.fit")
        values[f"{layer}.predict_s"] = t(f"{layer}.predict")
        values[f"{layer}.step_ms"] = _ratio(t(f"{layer}.predict_series"),
                                            c(f"{layer}.steps"), 1e3)
        report = kernel_reports.get(model)
        grown_kb = report["peak_kb"] - report["base_kb"] if report else 0
        values[f"{layer}.rss_mb"] = grown_kb / 1024
        values[f"{layer}.kernel_copies"] = (
            _ratio(grown_kb * 1024, 8 * report["n"] ** 2) if report else 0.0)
    return values


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    table = _metric_table()
    setup = [import_seconds() for _ in range(IMPORT_PROBES)]
    module = importlib.import_module(workload)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        bench = module.Workload(seed, workdir)
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            passes.append(bench.run_pass(len(passes)))
        peak_kb = max([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]
                      + [p.peak_rss_kb for p in passes])
        done = list(passes)
        if trace:
            tracer = Tracer()
            with instrument(tracer):
                traced = bench.run_pass(len(passes), tracer)
            done.append(traced)
        problems = bench.check(done)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed_ops = {(i, op) for i, p in enumerate(done)
                  for op, err in p.failures.items() if err is not None}
    failed_ops |= {(i, op) for i, op, _ in problems}
    attempted = sum(len(p.failures) for p in done)
    walls = [p.wall_s for p in passes]
    wall_s = statistics.median(walls)
    log = [f"{workload} seed={seed}: {len(passes)} untraced passes, wall "
           + " ".join(f"{w:.3f}" for w in walls) + f" s; import {statistics.median(setup):.3f} s"]
    log += [f"check failed: pass {i} {op}: {msg}" for i, op, msg in problems]

    if trace:
        # kernel children trace themselves and return their profiles
        profile = merge_profiles([tracer.profile(), *(traced.profile or [])])
        reports = traced.data["reports"] if workload == "kernel" else {}
        overhead = traced.wall_s - wall_s
        import_s = statistics.median(setup)
        values = per_layer(profile, reports, import_s, import_s * scipy_import_share(),
                           overhead)
        layer_self = sum(profile["self"].values())
        log.append(f"traced pass {traced.wall_s:.3f} s, overhead {overhead:+.3f} s, "
                   f"layer self times sum to {layer_self:.3f} s "
                   f"(unattributed {traced.wall_s - layer_self:+.4f} s)")
        units = table["per_layer"]
    else:
        values = {"wall_s": wall_s, "setup_s": statistics.median(setup),
                  "peak_rss_mb": peak_kb / 1024}
        units = table["end_to_end"]
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} do not match "
                           "BENCHMARK.json")
    print("\n".join(log), file=sys.stderr)
    return {"correct": not problems, "attempted": attempted,
            "failed": min(len(failed_ops), attempted),
            "metrics": {name: {"value": float(values[name]), "unit": units[name]}
                        for name in units}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wattcast" / "__init__.py").is_file():
        print(f"perfbench: no program under test: {SRC / 'wattcast'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import wattcast
    if not _from_src(wattcast.__file__):
        print(f"perfbench: wattcast resolved to {wattcast.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
