"""Decay-curve fitting of cycle-benchmarking samples: the SPAM-robust
estimate of a fidelity (product) from expectation values at several
depths."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NoisySample:
    depth: int
    value: float
    sigma: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sample sigma must be positive")


def decay_fit(samples: list[NoisySample]) -> tuple[float, float, float]:
    """Fit O_d = A * f**d; returns (A, f, stderr of f).

    Weighted log-linear least squares is the primary path (multiplicative
    precision, SPAM absorbed into A); non-positive samples fall back to
    weighted nonlinear least squares.
    """
    depths = np.array([s.depth for s in samples], dtype=float)
    values = np.array([s.value for s in samples], dtype=float)
    sigmas = np.array([s.sigma for s in samples], dtype=float)
    if len(set(depths)) < 2:
        raise ValueError("need at least two distinct depths")
    if np.all(values > 0):
        y = np.log(values)
        w = (values / sigmas) ** 2  # var(log O) ~ (sigma / O)^2
        sw = w.sum()
        dbar = (w * depths).sum() / sw
        ybar = (w * y).sum() / sw
        var_d = (w * (depths - dbar) ** 2).sum()
        slope = (w * (depths - dbar) * (y - ybar)).sum() / var_d
        intercept = ybar - slope * dbar
        f = float(np.exp(slope))
        a = float(np.exp(intercept))
        stderr = f * float(np.sqrt(1.0 / var_d))
        return a, f, stderr
    from scipy.optimize import curve_fit

    def model(d, a, f):
        return a * f**d

    p0 = (max(values.max(), 0.5), 0.99)
    popt, pcov = curve_fit(
        model, depths, values, p0=p0, sigma=sigmas, absolute_sigma=True, maxfev=10000
    )
    return float(popt[0]), float(popt[1]), float(np.sqrt(pcov[1, 1]))
