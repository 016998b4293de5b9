"""Workload ``sweep``: the acceptance sweep, run serially in process.

One pass is ``benchmark(default_specs(seed), [("household",
household_series(2000, seed))], splits=[0.6, 0.7, 0.8], p=24)``: seven
model families times three chronological splits. MLP training dominates
it; ingest, svgplot and the CLI are never touched.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np

import wattcast
from wattcast import evaluation
from wattcast.synthetic import household_series

from common import Pass

N = 2000
P = 24
SPLITS = (0.6, 0.7, 0.8)
DATASET = "household"
MODELS = ("ols", "gp", "mlp", "svr", "knn", "arima", "var")
REPORT = "report"


class Workload:
    def __init__(self, seed: int, workdir):
        self.series = household_series(N, seed)
        self.specs = wattcast.default_specs(seed)

    def run_pass(self, index: int, tracer=None) -> Pass:
        datasets = [(DATASET, self.series)]
        t0 = time.perf_counter()
        report = evaluation.benchmark(self.specs, datasets, splits=list(SPLITS), p=P)
        wall = time.perf_counter() - t0
        failures = {f"{r.model}@{r.train_fraction}": r.error for r in report.records}
        failures[REPORT] = None
        return Pass(wall, failures, report.to_text(), report)

    def check(self, passes) -> list:
        """(pass index, operation, message) for every failed check."""
        problems = []
        for i, done in enumerate(passes):
            problems += [(i, op, msg) for op, msg in self._check_report(done.data)]
            if done.fingerprint != passes[0].fingerprint:
                problems.append((i, REPORT, "to_text() differs from the first pass"))
        return problems

    def _check_report(self, report) -> list:
        problems = []
        y = self.series.values
        ok = [r for r in report.records if r.ok]
        if len(ok) != len(MODELS) * len(SPLITS) or len(report.records) != len(ok):
            problems.append((REPORT, f"{len(ok)} ok cells of {len(report.records)}, "
                                     f"expected {len(MODELS) * len(SPLITS)}"))
        for r in report.records:
            op = f"{r.model}@{r.train_fraction}"
            if not r.ok:
                continue
            n_train = math.floor(Fraction(str(r.train_fraction)) * N)
            if r.horizon != N - n_train or r.n_test != N - n_train:
                problems.append((op, f"test span {r.horizon}/{r.n_test} rows, "
                                     f"expected {N - n_train}"))
            if not r.rae < 1.0:
                problems.append((op, f"RAE {r.rae} is not below 1"))
            if not r.rmse >= r.mae:
                problems.append((op, f"RMSE {r.rmse} < MAE {r.mae}"))
            if r.model == "ols":
                expected = _ols_refit_metrics(y, n_train)
                got = np.array([r.rmse, r.mae, r.rae])
                if not np.allclose(got, expected, rtol=1e-9, atol=0.0):
                    problems.append((op, f"OLS metrics {got} differ from a "
                                         f"lstsq refit {expected}"))
        mean_rae = {}
        for name in MODELS:
            values = [r.rae for r in report.records if r.model == name and r.ok]
            mean_rae[name] = float(np.mean(values)) if values else math.inf
        expected_order = sorted(MODELS, key=lambda m: (mean_rae[m], MODELS.index(m)))
        got_order = [name for name, _ in report.rankings.get(DATASET, [])]
        if got_order != expected_order:
            problems.append((REPORT, f"ranking {got_order}, mean RAE orders "
                                     f"{expected_order}"))
        return problems


def _ols_refit_metrics(y: np.ndarray, n_train: int) -> np.ndarray:
    """RMSE, MAE and RAE of a one-step OLS lag model fitted with lstsq."""
    windows = np.lib.stride_tricks.sliding_window_view(y, P)[:-1]
    design = np.column_stack([np.ones(len(windows)), windows])
    targets = y[P:]
    train = np.arange(P, len(y)) < n_train
    beta, *_ = np.linalg.lstsq(design[train], targets[train], rcond=None)
    err = targets[~train] - design[~train] @ beta
    baseline = np.abs(targets[~train] - y[:n_train].mean()).sum()
    return np.array([np.sqrt(np.mean(err ** 2)), np.mean(np.abs(err)),
                     np.abs(err).sum() / baseline])
