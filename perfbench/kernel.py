"""Workload ``kernel``: the O(n^2) kernel models, one child process each.

A pass runs ``GpModel`` and then ``SvrModel`` in fresh child processes, one
at a time, on an hourly household series generated from the run's seed.
Each child fits on n_train = 4000 lag windows (p = 24), predicts the next
1000 windows with ``predict_batch``, then runs a 168-step recursive
``predict_series``. A child reports its timed calls, its peak resident
memory before and after them, and the outputs that the parent then checks.

Run as a script, this module is the child:
``python3 kernel.py --model gp --seed 1 --trace 0``.
"""

from __future__ import annotations

import contextlib
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from common import Pass
from tracing import Tracer, instrument

P = 24
N_TRAIN = 4000
N_TEST = 1000
STEPS = 168
MODELS = ("gp", "svr")
OPS = ("fit", "predict_batch", "predict_series")
CHILD_TIMEOUT_S = 150


class Workload:
    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self._expected = {}

    def run_pass(self, index: int, tracer=None) -> Pass:
        wall = 0.0
        failures, profiles, reports = {}, [], {}
        for model in MODELS:
            argv = [sys.executable, str(Path(__file__).resolve()), "--model", model,
                    "--seed", str(self.seed), "--trace", "1" if tracer else "0"]
            done = subprocess.run(argv, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            if done.returncode != 0:
                raise RuntimeError(f"kernel child {model} exited {done.returncode}: "
                                   f"{done.stderr.strip()[-2000:]}")
            report = json.loads(done.stdout.strip().splitlines()[-1])
            reports[model] = report
            wall += sum(report["timings"].values())
            print(f"kernel child {model}: "
                  + ", ".join(f"{op} {t:.3f} s" for op, t in report["timings"].items())
                  + (f", {report['smo_iters']} SMO iterations" if report["smo_iters"] else ""),
                  file=sys.stderr)
            failures.update({f"{model}.{op}": err for op, err in report["failures"].items()})
            if report["profile"] is not None:
                profiles.append(report["profile"])
        peak = max(r["peak_kb"] for r in reports.values())
        return Pass(wall, failures, None, {"reports": reports}, profiles, peak)

    def check(self, passes) -> list:
        problems = []
        for i, done in enumerate(passes):
            problems += [(i, op, f"unexpected failure: {err}")
                         for op, err in done.failures.items() if err is not None]
            for model, report in done.data["reports"].items():
                out = report["outputs"]
                if out is None:
                    continue
                if model == "gp":
                    found = self._check_gp(out)
                else:
                    found = self._check_svr(out)
                if not np.isclose(out["series_first"], out["batch_first"], rtol=1e-12,
                                  atol=0.0):
                    found.append(("predict_series", f"first step {out['series_first']!r} "
                                                    f"!= predict_batch {out['batch_first']!r}"))
                problems += [(i, f"{model}.{op}", msg) for op, msg in found]
        return problems

    def _check_gp(self, out) -> list:
        """The posterior mean against a dense solve of (K + sigma^2 I) alpha = y."""
        if "gp" not in self._expected:
            self._expected["gp"] = _gp_mean(out, *_inputs(self.seed))
        expected, y_sd = self._expected["gp"]
        got = np.array(out["predict_batch"])
        if not np.allclose(got, expected, rtol=0.0, atol=1e-10 * y_sd):
            worst = float(np.max(np.abs(got - expected)))
            return [("predict_batch", f"GP mean differs from a dense solve by {worst:g}")]
        return []

    def _check_svr(self, out) -> list:
        """Box and equality constraints of the dual, and the KKT gap."""
        problems = []
        a, a_star = np.array(out["alpha"]), np.array(out["alpha_star"])
        C, epsilon, tol = out["C"], out["epsilon"], out["tol"]
        if min(a.min(), a_star.min()) < 0.0 or max(a.max(), a_star.max()) > C * (1 + 1e-12):
            problems.append(("fit", "dual variables outside [0, C]"))
        beta = a - a_star
        if abs(beta.sum()) > 1e-9 * C * beta.size:
            problems.append(("fit", f"sum(alpha - alpha*) = {beta.sum():g}, not 0"))
        if "svr" not in self._expected:
            X, y, _ = _inputs(self.seed)
            self._expected["svr"] = _svr_kernel(X, y)
        K, ys = self._expected["svr"]
        Kb = K @ beta
        # -z * gradient of the dual objective for the stacked [alpha; alpha*]
        score = np.concatenate([ys - Kb - epsilon, ys - Kb + epsilon])
        theta = np.concatenate([a, a_star])
        z = np.concatenate([np.ones(a.size), -np.ones(a.size)])
        up = ((theta < C) & (z > 0)) | ((theta > 0) & (z < 0))
        low = ((theta < C) & (z < 0)) | ((theta > 0) & (z > 0))
        gap = score[up].max() - score[low].min()
        # the solver updates its gradient incrementally; a fresh one differs
        # from it by rounding, hence the 1e-9 allowance
        if gap > tol + 1e-9:
            problems.append(("fit", f"KKT gap {gap:g} above tol {tol:g}"))
        return problems


def _inputs(seed: int):
    """Train windows, targets and test windows, built with numpy alone."""
    from wattcast.synthetic import household_series

    values = household_series(P + N_TRAIN + N_TEST, seed).values
    windows = np.lib.stride_tricks.sliding_window_view(values, P)[:-1]
    return windows[:N_TRAIN], values[P: P + N_TRAIN], windows[N_TRAIN:]


def _stats(A: np.ndarray):
    return A.mean(axis=0), np.maximum(A.std(axis=0), 1e-12)


def _sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    sq = (A * A).sum(axis=1)[:, None] + (B * B).sum(axis=1)[None, :] - 2.0 * A @ B.T
    return np.maximum(sq, 0.0)


def _gp_mean(out, X, y, X_test):
    x_mean, x_sd = _stats(X)
    y_mean, y_sd = _stats(y)
    Xs, Ts = (X - x_mean) / x_sd, (X_test - x_mean) / x_sd
    two_l2 = 2.0 * out["length_scale"] ** 2
    K = out["signal_var"] * np.exp(-_sq_dists(Xs, Xs) / two_l2)
    K[np.diag_indices_from(K)] += out["noise_var"]
    alpha = np.linalg.solve(K, (y - y_mean) / y_sd)
    del K
    mean = (out["signal_var"] * np.exp(-_sq_dists(Ts, Xs) / two_l2)) @ alpha
    return mean * y_sd + y_mean, y_sd


def _svr_kernel(X, y):
    x_mean, x_sd = _stats(X)
    y_mean, y_sd = _stats(y)
    Xs = (X - x_mean) / x_sd
    gamma = 1.0 / (Xs.shape[1] * Xs.var())
    return np.exp(-gamma * _sq_dists(Xs, Xs)), (y - y_mean) / y_sd


# --- child ------------------------------------------------------------------

def _child(model_name: str, seed: int, trace: bool) -> dict:
    import wattcast
    from wattcast import lag_embed
    from wattcast.synthetic import household_series
    from wattcast.transform import SupervisedFrame

    series = household_series(P + N_TRAIN + N_TEST, seed)
    frame = lag_embed(series, P)
    train = SupervisedFrame(frame.X[:N_TRAIN], frame.y[:N_TRAIN], P,
                            frame.feature_names, frame.target_positions[:N_TRAIN])
    X_test = np.array(frame.X[N_TRAIN:])
    history = series.values[: P + N_TRAIN]
    model = {"gp": wattcast.GpModel, "svr": wattcast.SvrModel}[model_name]()

    timings, failures, results = {}, {op: None for op in OPS}, {}
    calls = (("fit", lambda: model.fit(train)),
             ("predict_batch", lambda: model.predict_batch(X_test)),
             ("predict_series", lambda: model.predict_series(history, STEPS)))
    tracer = Tracer() if trace else None
    with instrument(tracer) if tracer else contextlib.nullcontext():
        base_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        for op, call in calls:
            t0 = time.perf_counter()
            try:
                results[op] = call()
            except Exception as exc:  # recorded as a failed operation
                failures[op] = f"{type(exc).__name__}: {exc}"
                break
            finally:
                timings[op] = time.perf_counter() - t0
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for op in OPS[len(timings):]:
        failures[op] = "not run: an earlier call failed"

    outputs = None
    if len(results) == len(OPS):
        outputs = {"predict_batch": results["predict_batch"].tolist(),
                   "series_first": float(results["predict_series"][0]),
                   "batch_first": float(model.predict_batch(history[-P:][None, :])[0])}
        if model_name == "gp":
            outputs.update(signal_var=model.signal_var, length_scale=model.length_scale,
                           noise_var=model.noise_var)
        else:
            outputs.update(alpha=model.alpha_.tolist(), alpha_star=model.alpha_star_.tolist(),
                           C=model.C, epsilon=model.epsilon, tol=model.tol)
    return {"model": model_name, "n": N_TRAIN, "timings": timings, "failures": failures,
            "outputs": outputs, "base_kb": base_kb, "peak_kb": peak_kb,
            "smo_iters": getattr(model, "n_iter_", None),
            "profile": tracer.profile() if tracer else None}


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--model", choices=MODELS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    print(json.dumps(_child(args.model, args.seed, bool(args.trace))))
