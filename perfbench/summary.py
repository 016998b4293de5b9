"""Collect, summarise and compare sets of benchmark runs.

    python3 perfbench/summary.py collect DIR [--workloads sweep,meter,kernel]
                                 [--seeds 1-10] [--traced-seeds 1]
    python3 perfbench/summary.py show DIR
    python3 perfbench/summary.py compare BASE_DIR CHANGE_DIR

``collect`` runs ``run.py`` once per workload and seed, with the run length
from BENCHMARK.json, and stores each result line as
``DIR/<workload>/seed<n>-trace<t>.json`` and its elapsed time in
``DIR/elapsed.tsv``. ``show`` prints, per workload, the median, quartiles and
spread (interquartile range over median) of every end-to-end metric, the
operations attempted and failed, and the elapsed time of a run. ``compare``
prints each end-to-end metric of the change against the base and the
metric's bound, then the per-layer medians of the traced runs side by side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += list(range(int(first), int(last or first) + 1))
    return seeds


def collect(out: Path, workloads: list, seeds: list, traced_seeds: list) -> None:
    seconds = _spec()["run_seconds"]
    for workload in workloads:
        (out / workload).mkdir(parents=True, exist_ok=True)
        jobs = [(s, 0) for s in seeds] + [(s, 1) for s in traced_seeds]
        for seed, trace in jobs:
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            t0 = time.perf_counter()
            done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
            elapsed = time.perf_counter() - t0
            sys.stderr.write(done.stderr)
            with open(out / "elapsed.tsv", "a", encoding="utf-8") as fh:
                fh.write(f"{workload}\t{seed}\t{trace}\t{elapsed:.2f}\n")
            if done.returncode != 0:
                raise SystemExit(f"{workload} seed {seed} exited {done.returncode}")
            line = done.stdout.strip().splitlines()[-1]
            (out / workload / f"seed{seed}-trace{trace}.json").write_text(line + "\n")


def load(directory: Path) -> dict:
    """workload -> {"plain": [results], "traced": [results]}"""
    sets = {}
    for path in sorted(directory.glob("*/seed*-trace*.json")):
        kind = "traced" if path.stem.endswith("trace1") else "plain"
        result = json.loads(path.read_text())
        sets.setdefault(path.parent.name, {"plain": [], "traced": []})[kind].append(result)
    return sets


def _stats(values: list) -> tuple:
    """(median, q1, q3, spread) with Python's default quartile method."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("nan")


def _metric(results: list, name: str) -> list:
    return [r["metrics"][name]["value"] for r in results if name in r["metrics"]]


def _elapsed(directory: Path) -> dict:
    """(workload, trace) -> elapsed seconds of each run."""
    elapsed = {}
    path = directory / "elapsed.tsv"
    for line in path.read_text().splitlines() if path.exists() else []:
        workload, _, trace, seconds = line.split("\t")
        elapsed.setdefault((workload, trace == "1"), []).append(float(seconds))
    return elapsed


def show(directory: Path) -> None:
    spec = _spec()
    elapsed = _elapsed(directory)
    for workload, runs in load(directory).items():
        plain = runs["plain"]
        attempted = sum(r["attempted"] for r in plain)
        failed = sum(r["failed"] for r in plain)
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in plain})
        correct = all(r["correct"] for r in plain + runs["traced"])
        print(f"{workload}: {len(plain)} runs, attempted {attempted}, failed {failed} "
              f"(per run {', '.join(shares)}), correct={correct}")
        for traced in (False, True):
            if elapsed.get((workload, traced)):
                times = elapsed[workload, traced]
                print(f"  elapsed per {'traced' if traced else 'untraced'} run: median "
                      f"{statistics.median(times):.1f} s, max {max(times):.1f} s")
        for m in spec["end_to_end"]:
            values = _metric(plain, m["name"])
            if not values:
                continue
            med, q1, q3, spread = _stats(values)
            flag = "" if spread < m["bound"] / 3 else "  <- spread above bound/3"
            print(f"  {m['name']:<14} median {med:10.4f} {m['unit']:<3} "
                  f"q1 {q1:10.4f} q3 {q3:10.4f} spread {spread:6.2%} "
                  f"(bound {m['bound']:.0%}){flag}")


def _worse_by(base: float, change: float, better: str) -> float:
    if not base:
        return 0.0
    return (change - base) / base if better == "lower" else (base - change) / base


def compare(base_dir: Path, change_dir: Path) -> None:
    spec = _spec()
    base, change = load(base_dir), load(change_dir)
    for workload in sorted(set(base) & set(change)):
        a, b = base[workload], change[workload]
        share_a = {(r["failed"], r["attempted"]) for r in a["plain"]}
        share_b = {(r["failed"], r["attempted"]) for r in b["plain"]}
        print(f"{workload}: failed/attempted base {sorted(share_a)} change {sorted(share_b)}")
        for m in spec["end_to_end"]:
            va, vb = _metric(a["plain"], m["name"]), _metric(b["plain"], m["name"])
            if not va or not vb:
                continue
            ma, _, _, spread_a = _stats(va)
            mb, _, _, spread_b = _stats(vb)
            worse = _worse_by(ma, mb, m["better"])
            if worse > m["bound"]:
                verdict = "WORSE than bound"
            elif max(spread_a, spread_b) > m["bound"]:
                verdict = "unresolved (spread above bound)"
            else:
                verdict = "within bound"
            print(f"  {m['name']:<14} base {ma:10.4f} change {mb:10.4f} {m['unit']:<3} "
                  f"worse by {worse:+7.2%} (bound {m['bound']:.0%}) {verdict}")
        if a["traced"] and b["traced"]:
            print(f"  per-layer medians of traced runs ({len(a['traced'])} vs "
                  f"{len(b['traced'])}):")
            for m in spec["per_layer"]:
                va, vb = _metric(a["traced"], m["name"]), _metric(b["traced"], m["name"])
                if not va or not vb:
                    continue
                ma, mb = statistics.median(va), statistics.median(vb)
                if ma == 0 and mb == 0:
                    continue
                ratio = f"x{mb / ma:.3f}" if ma else ""
                print(f"    {m['name']:<32} {ma:14.6g} {mb:14.6g} {m['unit']:<7} {ratio}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("collect", help="run the benchmark and store the results")
    p.add_argument("out", type=Path)
    p.add_argument("--workloads", default=",".join(w["name"] for w in _spec()["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--traced-seeds", default="1")
    p = sub.add_parser("show", help="summarise one set of runs")
    p.add_argument("directory", type=Path)
    p = sub.add_parser("compare", help="compare a change's runs with a base's")
    p.add_argument("base", type=Path)
    p.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    if args.command == "collect":
        collect(args.out, args.workloads.split(","), _seeds(args.seeds),
                _seeds(args.traced_seeds) if args.traced_seeds else [])
    elif args.command == "show":
        show(args.directory)
    else:
        compare(args.base, args.change)
    return 0


if __name__ == "__main__":
    sys.exit(main())
