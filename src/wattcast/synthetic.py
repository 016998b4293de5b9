"""Seeded synthetic series generators for tests, demos, and benchmarks.

All generators are deterministic functions of their arguments; the noise
stream comes from ``numpy.random.default_rng(seed)``.
"""

from __future__ import annotations

import numpy as np

from .series import MultiSeries, TimeSeries

HOUR = 3600.0


def arma_series(n: int, ar=(), ma=(), intercept: float = 0.0,
                noise_sd: float = 1.0, seed: int = 0, initial=None,
                start: float = 0.0, interval: float = HOUR) -> TimeSeries:
    """Simulate an ARMA process with zero pre-sample values and shocks.

    ``initial`` optionally pins the first values exactly (useful for
    noiseless recursions whose transient is the signal).
    """
    ar = np.asarray(ar, dtype=float)
    ma = np.asarray(ma, dtype=float)
    rng = np.random.default_rng(seed)
    shocks = noise_sd * rng.standard_normal(n)
    x = np.zeros(n)
    fixed = 0
    if initial is not None:
        initial = np.asarray(initial, dtype=float)
        fixed = initial.size
        x[:fixed] = initial
    for t in range(fixed, n):
        value = intercept + shocks[t]
        for i in range(1, ar.size + 1):
            if t - i >= 0:
                value += ar[i - 1] * x[t - i]
        for j in range(1, ma.size + 1):
            if t - j >= 0:
                value += ma[j - 1] * shocks[t - j]
        x[t] = value
    return TimeSeries(start, interval, x)


def var_series(n: int, coef, intercept=None, noise_sd: float = 1.0,
               seed: int = 0, initial=None, names=None,
               start: float = 0.0, interval: float = HOUR) -> MultiSeries:
    """Simulate a VAR process. ``coef`` is (k, k) for p=1 or (p, k, k)."""
    coef = np.asarray(coef, dtype=float)
    if coef.ndim == 2:
        coef = coef[None]
    p, k = coef.shape[0], coef.shape[1]
    intercept = np.zeros(k) if intercept is None else np.asarray(intercept, dtype=float)
    rng = np.random.default_rng(seed)
    shocks = noise_sd * rng.standard_normal((n, k))
    y = np.zeros((n, k))
    fixed = 0
    if initial is not None:
        initial = np.atleast_2d(np.asarray(initial, dtype=float))
        fixed = initial.shape[0]
        y[:fixed] = initial
    for t in range(fixed, n):
        row = intercept + shocks[t]
        for i in range(1, p + 1):
            if t - i >= 0:
                row = row + coef[i - 1] @ y[t - i]
        y[t] = row
    if names is None:
        names = tuple(f"y{j}" for j in range(k))
    return MultiSeries(start, interval, tuple(names), y)


def household_series(n: int = 2000, seed: int = 0, base: float = 500_000.0,
                     daily_amplitude: float = 120_000.0, noise_sd: float = 20_000.0,
                     ar: float = 0.6, start: float = 0.0,
                     interval: float = HOUR) -> TimeSeries:
    """Hourly consumption stand-in: daily sinusoid plus AR(1) noise, in mW."""
    from scipy.signal import lfilter

    rng = np.random.default_rng(seed)
    noise = lfilter([1.0], [1.0, -ar], noise_sd * rng.standard_normal(n))
    i = np.arange(n)
    values = base + daily_amplitude * np.sin(2.0 * np.pi * i / 24.0) + noise
    return TimeSeries(start, interval, values)


def weather_table(n: int = 200, seed: int = 0, start: float = 0.0,
                  interval: float = HOUR) -> dict:
    """Hourly weather observations with a daily temperature cycle, as the
    ``timestamp``/``temperature``/``humidity`` table of ``read_weather``."""
    rng = np.random.default_rng(seed)
    temperature, humidity = np.empty(n), np.empty(n)
    for i in range(n):
        temp = 12.0 + 8.0 * np.sin(2.0 * np.pi * (i - 6) / 24.0) + rng.normal(0, 0.8)
        temperature[i] = temp
        humidity[i] = np.clip(65.0 - 1.5 * (temp - 12.0) + rng.normal(0, 4.0), 5.0, 100.0)
    return {"timestamp": start + np.arange(n) * interval,
            "temperature": temperature, "humidity": humidity}
