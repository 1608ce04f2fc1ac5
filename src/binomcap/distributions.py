"""Discrete input distributions on [0,1] and the quantities they induce.

A DiscreteInput is a finite list of strictly increasing atoms with positive
weights summing to one.  From it we derive the induced output pmf, mutual
information, information densities, posterior means (in moment-ratio form,
evaluated per atom in the log domain and combined with log-sum-exp), and the
channel matrix used for the full-rank/injectivity check.

All functions are pure; DiscreteInput and OutputPmf are immutable after
construction.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp, xlogy

from .kernel import ChannelSpec, log_binom_coeffs, log_pmf_matrix

MIN_ATOM_GAP = 1e-12
WEIGHT_SUM_TOL = 1e-12


class UndefinedPosteriorError(ValueError):
    """Raised when a posterior mean is requested where the output has no mass."""


@dataclass(frozen=True)
class DiscreteInput:
    """Finitely supported input distribution on [0, 1]."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        wts = np.asarray(self.weights, dtype=float)
        if pts.ndim != 1 or wts.ndim != 1 or len(pts) != len(wts):
            raise ValueError("points and weights must be 1-d arrays of equal length")
        if len(pts) == 0:
            raise ValueError("distribution needs at least one atom")
        if np.any(pts < 0.0) or np.any(pts > 1.0):
            raise ValueError("support points must lie in [0, 1]")
        if len(pts) > 1 and np.any(np.diff(pts) <= MIN_ATOM_GAP):
            raise ValueError(
                f"support points must be strictly increasing with gaps > {MIN_ATOM_GAP}"
            )
        if np.any(wts <= 0.0):
            raise ValueError("weights must all be positive (prune zero atoms)")
        if abs(wts.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1 within {WEIGHT_SUM_TOL}")
        pts.setflags(write=False)
        wts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)

    def __len__(self) -> int:
        return len(self.points)

    def as_dict(self) -> dict:
        return {"points": list(self.points), "weights": list(self.weights)}

    @classmethod
    def from_dict(cls, d: dict) -> "DiscreteInput":
        pts = d.get("points", d.get("support"))
        if pts is None or "weights" not in d:
            raise ValueError('input distribution JSON needs "points" (or "support") and "weights"')
        return cls(np.asarray(pts, dtype=float), np.asarray(d["weights"], dtype=float))


@dataclass(frozen=True)
class OutputPmf:
    """Probability vector over the n+1 channel outputs."""

    probs: np.ndarray
    n: int = field(default=-1)

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        n = self.n if self.n >= 0 else len(p) - 1
        if len(p) != n + 1:
            raise ValueError(f"output pmf must have length n+1 = {n + 1}, got {len(p)}")
        if np.any(p < 0.0):
            raise ValueError("output probabilities must be nonnegative")
        if abs(p.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"output probabilities must sum to 1 within {WEIGHT_SUM_TOL}")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "n", n)


def log_output_pmf(dist: DiscreteInput, spec: ChannelSpec) -> np.ndarray:
    """Log of the induced output pmf, accumulated with log-sum-exp per output."""
    n = spec.n
    y = np.arange(n + 1)
    lw = np.log(dist.weights)
    terms = lw[None, :] + xlogy(y[:, None], dist.points[None, :]) \
        + xlogy(n - y[:, None], 1.0 - dist.points[None, :])
    return log_binom_coeffs(n) + logsumexp(terms, axis=1)


def induce_output(dist: DiscreteInput, spec: ChannelSpec) -> OutputPmf:
    """Push the input distribution through the channel."""
    return OutputPmf(np.exp(log_output_pmf(dist, spec)), spec.n)


def kl_divergence(p, q) -> float:
    """Relative entropy D(p || q) in nats; +inf where p charges a q-null output."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    if np.any((p > 0) & (q == 0)):
        return float("inf")
    mask = p > 0
    return float(np.sum(p[mask] * (np.log(p[mask]) - np.log(q[mask]))))


def _info_terms(spec: ChannelSpec, xs: np.ndarray, logP: np.ndarray, P: np.ndarray,
                logq: np.ndarray, interior=slice(0, 0)):
    """Information density rows and, at the rows `interior`, their slope.

    Given the channel rows logP = log P(.|xs), P = exp(logP) and a frozen
    log q, returns (i, P', i') with i(x) = sum_y P (log P - log q) under the
    0 log 0 = 0 convention, P' = dP/dx on the interior rows (0 < x < 1; none
    by default) and i'(x) = sum_y P' (log P - log q) there.
    """
    n = spec.n
    y = np.arange(n + 1)
    xi = xs[interior]
    Pp = P[interior] * (y[None, :] - n * xi[:, None]) / (xi * (1.0 - xi))[:, None]
    with np.errstate(invalid="ignore"):
        terms = logP - logq
        terms *= P
        np.copyto(terms, 0.0, where=~(P > 0))
        ival = np.sum(terms, axis=1)
        ip = np.sum(Pp * (logP[interior] - logq), axis=1)
    return ival, Pp, ip


# Cells in flight in the density sweep, summed over the CPUs that sweep it:
# each takes chunks of _CHUNK_CELLS // cpus cells.  A chunk-sized float array
# is then at most 400 KB, so the five or so of them one chunk needs (the
# kernel's products, logP, P, the terms) stay within a 2 MB per-core L2 cache,
# and peak memory does not grow with the CPU count.
_CHUNK_CELLS = 50_000


def _sweep_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _info_density_against_logq(spec: ChannelSpec, xs, logq: np.ndarray) -> np.ndarray:
    """i(x) = D(P(.|x) || q) for an array of x, given log q.

    The rows are split into one contiguous block of whole chunks per CPU;
    the calling thread sweeps the first block and a pool made for this call
    the others (numpy releases the GIL in its elementwise loops).  Each row's
    arithmetic does not depend on the chunk it falls in, so the result is
    bit-identical whatever the CPU count.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    out = np.empty(len(xs))
    cpus = _sweep_cpus()
    step = max(1, _CHUNK_CELLS // cpus // (spec.n + 1))
    block = step * max(1, -(-len(xs) // (step * cpus)))

    def sweep(lo):
        for s in range(lo, min(lo + block, len(xs)), step):
            x = xs[s:s + step]
            logP = log_pmf_matrix(spec, x)
            out[s:s + step] = _info_terms(spec, x, logP, np.exp(logP), logq)[0]

    rest = range(block, len(xs), block)
    if not rest:
        sweep(0)
        return out
    with ThreadPoolExecutor(max_workers=len(rest)) as pool:
        futures = [pool.submit(sweep, lo) for lo in rest]
        sweep(0)
        for f in futures:
            f.result()
    return out


def info_density(x, out: OutputPmf, spec: ChannelSpec):
    """Information density i(x; P_Y) = D(P(.|x) || P_Y); scalar or array x."""
    with np.errstate(divide="ignore"):
        logq = np.log(out.probs)
    vals = _info_density_against_logq(spec, x, logq)
    return float(vals[0]) if np.isscalar(x) else vals


def mutual_information(dist: DiscreteInput, spec: ChannelSpec) -> float:
    """I(X;Y) as the weight-average of the per-atom information densities."""
    logq = log_output_pmf(dist, spec)
    vals = _info_density_against_logq(spec, dist.points, logq)
    return float(dist.weights @ vals)


def log_mixed_moments(dist: DiscreteInput, a, b) -> np.ndarray:
    """log E[X^a (1-X)^b] elementwise over exponent arrays a, b.

    Per-atom terms are formed in the log domain (0 log 0 = 0 for endpoint
    atoms) and combined with log-sum-exp, so extreme exponents do not
    underflow.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    lw = np.log(dist.weights)
    terms = lw + xlogy(a[..., None], dist.points) + xlogy(b[..., None], 1.0 - dist.points)
    return logsumexp(terms, axis=-1)


def log_posterior_mean_pair(dist: DiscreteInput, spec: ChannelSpec):
    """(log E[X | Y=y], log E[1-X | Y=y]) for y = 0..n under an n-trial channel.

    Entries are -inf where the conditional mean is exactly 0; a y whose output
    probability vanishes yields NaN in both slots.
    """
    n = spec.n
    y = np.arange(n + 1)
    den = log_mixed_moments(dist, y, n - y)
    with np.errstate(invalid="ignore"):
        lpx = log_mixed_moments(dist, y + 1, n - y) - den
        lp1mx = log_mixed_moments(dist, y, n - y + 1) - den
    return lpx, lp1mx


def posterior_mean(dist: DiscreteInput, spec: ChannelSpec, y: int) -> float:
    """E[X | Y=y] in moment-ratio form; errors where P_Y(y) = 0."""
    n = spec.n
    if not isinstance(y, (int, np.integer)) or isinstance(y, bool):
        raise ValueError("y must be an integer")
    if not 0 <= y <= n:
        raise ValueError(f"y must be in [0, {n}], got {y}")
    den = log_mixed_moments(dist, np.asarray(float(y)), np.asarray(float(n - y)))
    if not np.isfinite(den):
        raise UndefinedPosteriorError(
            f"posterior mean undefined at y={y}: output has no probability mass there"
        )
    num = log_mixed_moments(dist, np.asarray(float(y + 1)), np.asarray(float(n - y)))
    return float(np.exp(num - den))


def channel_matrix_logdet(spec: ChannelSpec, support) -> tuple[int, float]:
    """Sign and log|det| of the (n+1)x(n+1) matrix A[i,k] = P(i-1 | x_k).

    Computed by pivoted LU on the explicit matrix.  A sign of 0 flags a
    numerically singular matrix.
    """
    pts = np.asarray(support, dtype=float)
    n = spec.n
    if pts.ndim != 1 or len(pts) != n + 1:
        raise ValueError(f"support must contain exactly n+1 = {n + 1} points")
    if np.any(pts < 0.0) or np.any(pts > 1.0) or np.any(np.diff(pts) <= 0):
        raise ValueError("support points must be strictly increasing in [0, 1]")
    A = np.exp(log_pmf_matrix(spec, pts)).T  # rows indexed by output
    sign, logabs = np.linalg.slogdet(A)
    return int(sign), float(logabs)
