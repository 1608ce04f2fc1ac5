"""Derivatives of the information density x -> i(x; P_Y) and zero counting.

i, i' and i'' all come from the one chunked sweep of the channel rows
(`distributions._info_density_against_logq`, on the kernel
`distributions._info_terms`): with t = d log P(y|x) / dx,

    i'  = sum_y P t (log P - log q),
    i'' = sum_y P (t^2 + dt/dx) (log P - log q) + P t^2,

against the output pmf q of the input, with the Bernstein windows and
chunking of the density sweep, so one call holds one chunk of cells at a
time.  The paper writes the same derivatives as conditional-mean (log
moment-ratio) identities; the tests keep those forms as the reference.

Derivatives are undefined at x in {0, 1} (the log(x/(1-x)) term diverges);
callers get a domain error there, and an UndefinedPosteriorError where the
induced output pmf vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    DiscreteInput,
    UndefinedPosteriorError,
    log_output_pmf,
    _info_density_against_logq,
)
from .kernel import ChannelSpec
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
    if not np.all((xs > 0.0) & (xs < 1.0)):  # NaN fails both
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


def _derivatives(x, dist: DiscreteInput, spec: ChannelSpec):
    """(i', i'') at interior x, from one sweep of the channel rows."""
    xs = _check_interior(x)
    logq = _require_positive_output(dist, spec)
    return _info_density_against_logq(spec, xs, logq, derivatives=True)[1:]


def info_density_prime(x, dist: DiscreteInput, spec: ChannelSpec):
    """d/dx i(x; P_Y) for the output induced by dist; scalar or array x."""
    vals = _derivatives(x, dist, spec)[0]
    return float(vals[0]) if np.isscalar(x) else vals


def info_density_second(x, dist: DiscreteInput, spec: ChannelSpec):
    """d^2/dx^2 i(x; P_Y) for the output induced by dist; scalar or array x.

    It equals n/(x(1-x)) plus a conditional-mean correction that vanishes
    identically for n = 1.
    """
    vals = _derivatives(x, dist, spec)[1]
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
    return DensityCurve(grid, *_info_density_against_logq(spec, grid, logq, derivatives=True))
