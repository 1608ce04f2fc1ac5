"""Derivatives of the information density x -> i(x; P_Y) and zero counting.

The first derivative uses the reduced-trial-count conditional-mean form
(posterior means under an (n-1)-trial channel); the second derivative uses
the n-trial conditional means.  Both reduce to log-moment ratios of the input
distribution, so they stay finite whenever the induced output pmf is strictly
positive.  Terms whose binomial weight underflows double precision (below
~1e-300) drop out of the expectations automatically.

Derivatives are undefined at x in {0, 1} (the log(x/(1-x)) term diverges);
callers get a domain error there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    DiscreteInput,
    UndefinedPosteriorError,
    log_mixed_moments,
    log_output_pmf,
    log_posterior_mean_pair,
    _info_density_against_logq,
)
from .kernel import ChannelSpec, log_pmf_matrix
from .serialize import csv_text


def bregman_binomial(x: float, xhat: float) -> float:
    """Bregman divergence matched to the binomial channel, on (0,1)^2.

    Nonnegative, zero exactly on the diagonal, and asymmetric in its
    arguments.
    """
    x = float(x)
    xhat = float(xhat)
    if not (0.0 < x < 1.0 and 0.0 < xhat < 1.0):
        raise ValueError("bregman_binomial requires interior arguments in (0, 1)")
    return x * math.log(x * (1.0 - xhat) / ((1.0 - x) * xhat)) - (x - xhat) / (1.0 - xhat)


def _check_interior(x) -> np.ndarray:
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(xs <= 0.0) or np.any(xs >= 1.0):
        raise ValueError("derivative evaluation requires x strictly inside (0, 1)")
    return xs


def _require_positive_output(dist: DiscreteInput, spec: ChannelSpec) -> np.ndarray:
    logq = log_output_pmf(dist, spec)
    if not np.all(np.isfinite(logq)):
        bad = int(np.flatnonzero(~np.isfinite(logq))[0])
        raise UndefinedPosteriorError(
            f"induced output pmf vanishes at y={bad}; conditional means are undefined"
        )
    return logq


def info_density_prime(x, dist: DiscreteInput, spec: ChannelSpec):
    """d/dx i(x; P_Y) for the output induced by dist; scalar or array x."""
    xs = _check_interior(x)
    n = spec.n
    _require_positive_output(dist, spec)
    if n >= 2:
        lpx, lp1mx = log_posterior_mean_pair(dist, ChannelSpec(n - 1))
        log_ratio = lp1mx - lpx
        pm = np.exp(log_pmf_matrix(ChannelSpec(n - 1), xs))
        vals = n * np.log(xs / (1.0 - xs)) + n * (pm @ log_ratio)
    else:
        # single-trial form: the conditional-mean ratio collapses to E[1-X]/E[X]
        l1mx = log_mixed_moments(dist, np.asarray(0.0), np.asarray(1.0))
        lx = log_mixed_moments(dist, np.asarray(1.0), np.asarray(0.0))
        vals = np.log(xs / (1.0 - xs)) + float(l1mx - lx)
    return float(vals[0]) if np.isscalar(x) else vals


def info_density_second(x, dist: DiscreteInput, spec: ChannelSpec):
    """d^2/dx^2 i(x; P_Y): n/(x(1-x)) plus a conditional-mean correction.

    The correction averages (n-Y)(n-Y-1) times a log-ratio of adjacent
    posterior means over outputs y <= n-2; it vanishes identically for n = 1.
    """
    xs = _check_interior(x)
    n = spec.n
    _require_positive_output(dist, spec)
    base = n / (xs * (1.0 - xs))
    if n >= 2:
        lpx, lp1mx = log_posterior_mean_pair(dist, spec)
        ys = np.arange(n - 1)
        log_term = lpx[ys] - lp1mx[ys + 1] + lp1mx[ys + 2] - lpx[ys + 1]
        coef = (n - ys) * (n - ys - 1.0)
        pm = np.exp(log_pmf_matrix(spec, xs))[:, : n - 1]
        vals = base + (pm @ (coef * log_term)) / (1.0 - xs) ** 2
    else:
        vals = base
    return float(vals[0]) if np.isscalar(x) else vals


def count_sign_changes(values) -> int:
    """Strict sign alternations in a sequence, skipping exact zeros."""
    vals = np.asarray(values, dtype=float)
    if np.any(np.isnan(vals)):
        raise ValueError("sign counting requires a NaN-free sequence")
    signs = np.sign(vals)
    signs = signs[signs != 0]
    if len(signs) < 2:
        return 0
    return int(np.sum(signs[1:] != signs[:-1]))


def cardinality_upper_via_second_derivative(dist: DiscreteInput, spec: ChannelSpec,
                                            grid_size: int = 10_001) -> int:
    """Support-size bound 2 + floor(S/2), S = sign changes of i'' on (0, 1).

    Valid when dist is (close to) capacity-achieving.  The result may never
    exceed 2 + floor(n/2); a violation indicates a broken premise and raises.
    """
    if grid_size < 1000:
        raise ValueError("grid_size must be at least 1000")
    xs = np.linspace(0.0, 1.0, grid_size + 2)[1:-1]
    vals = info_density_second(xs, dist, spec)
    bound = 2 + count_sign_changes(vals) // 2
    cap = 2 + spec.n // 2
    if bound > cap:
        raise RuntimeError(
            f"sign-change bound {bound} exceeds the degree bound {cap}; "
            "the input distribution is too far from optimal"
        )
    return bound


@dataclass(frozen=True)
class DensityCurve:
    """Sampled information density with first and second derivatives.

    Derivatives are NaN at the two endpoint grid points, where they diverge.
    """

    grid: np.ndarray
    values: np.ndarray
    d1: np.ndarray
    d2: np.ndarray

    def to_csv(self) -> str:
        return csv_text(("x", "info_density", "first_derivative", "second_derivative"),
                        zip(self.grid, self.values, self.d1, self.d2))


def density_curve(dist: DiscreteInput, spec: ChannelSpec, grid_size: int = 1001) -> DensityCurve:
    """Evaluate i, i', i'' on a uniform [0, 1] grid (endpoints included)."""
    if grid_size < 3:
        raise ValueError("grid_size must be at least 3")
    grid = np.linspace(0.0, 1.0, grid_size)
    logq = _require_positive_output(dist, spec)
    values = _info_density_against_logq(spec, grid, logq)
    d1 = np.full(grid_size, np.nan)
    d2 = np.full(grid_size, np.nan)
    d1[1:-1] = info_density_prime(grid[1:-1], dist, spec)
    d2[1:-1] = info_density_second(grid[1:-1], dist, spec)
    return DensityCurve(grid, values, d1, d2)
