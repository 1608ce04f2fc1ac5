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

from dataclasses import dataclass, field

import numpy as np
from scipy.special import xlogy

from .kernel import ChannelSpec, _output_counts, log_binom_coeffs, log_pmf_matrix

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
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(wts))):
            raise ValueError("points and weights must be finite numbers")
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

    @classmethod
    def from_dict(cls, d: dict) -> "DiscreteInput":
        if not isinstance(d, dict):
            raise ValueError(f"input distribution JSON must be an object, not {type(d).__name__}")
        pts = d.get("points", d.get("support"))
        if pts is None or "weights" not in d:
            raise ValueError('input distribution JSON needs "points" (or "support") and "weights"')
        try:
            pts, wts = np.asarray(pts, dtype=float), np.asarray(d["weights"], dtype=float)
        except TypeError as exc:
            raise ValueError(f"points and weights must be lists of numbers: {exc}") from None
        return cls(pts, wts)


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


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log sum exp(a) over the last axis, bit for bit what
    scipy.special.logsumexp(a, axis=-1) returns for inputs without NaN or
    +inf, without its array-API dispatch.  Every maximum of a row leaves the
    shifted sum s and is counted in m, and the result is
    log1p(s / m) + log(m) + max, so rows that tie (a symmetric input at
    y = n/2) round as scipy's do.  A row of -inf gives -inf."""
    top = a.max(axis=-1, keepdims=True)
    at_top = a == top
    with np.errstate(invalid="ignore"):  # -inf - -inf in a row of -inf
        shifted = np.exp(a - top)
    np.copyto(shifted, 0.0, where=at_top)
    m = at_top.sum(axis=-1, keepdims=True, dtype=float)
    out = np.log1p(shifted.sum(axis=-1, keepdims=True) / m) + np.log(m) + top
    return out[..., 0][()]


def log_output_pmf(dist: DiscreteInput, spec: ChannelSpec) -> np.ndarray:
    """Log of the induced output pmf, log C(n, y) + log E[X^y (1-X)^(n-y)]."""
    return log_binom_coeffs(spec.n) + log_mixed_moments(dist, *_output_counts(spec.n))


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


def _density_cells(logP: np.ndarray, P: np.ndarray, logq) -> np.ndarray:
    """The cells P (log P - log q) of i(x), 0 where P = 0 (0 log 0 = 0)."""
    with np.errstate(invalid="ignore"):
        terms = logP - logq
        terms *= P
        np.copyto(terms, 0.0, where=~(P > 0))
    return terms


def _row_sums(cells: np.ndarray, start, n: int) -> np.ndarray:
    """Sums of the rows of cells.  With `start`, row k holds the outputs
    y = start[k] + arange(w); it is placed in a zeroed row of width n + 1
    and summed there, so that the sum runs the pairwise-summation tree of
    the full row."""
    if start is None:
        return cells.sum(axis=1)
    rows = np.zeros((len(cells), n + 1))
    w = cells.shape[1]
    for row, a, c in zip(rows, start, cells):
        row[a:a + w] = c
    return rows.sum(axis=1)


def _info_terms(spec: ChannelSpec, xs: np.ndarray, logP: np.ndarray, P: np.ndarray,
                logq: np.ndarray, interior=None, start=None):
    """Information density rows and, at the rows `interior`, derivatives.

    Given the channel rows logP = log P(.|xs), P = exp(logP) and a frozen
    log q, returns i(x) = sum_y P (log P - log q) under the 0 log 0 = 0
    convention; with `interior` (rows with 0 < x < 1) it returns
    (i, P', i', i'') with, on those rows only, P' = P t for t = d log P / dx,
    i' = sum_y P' (log P - log q) and i'' = sum_y (P'' (log P - log q) + P' t).

    With `start` (from `_row_window`), row k of logP and P holds only the
    outputs y = start[k] + arange(w), and so does P'; each sum then runs
    over a zeroed full-width row that holds the window's cells in place.
    """
    n = spec.n
    y, ny = _output_counts(n)
    if start is not None:
        y = start[:, None] + np.arange(logP.shape[1])
        logq = logq[y]
    ival = _row_sums(_density_cells(logP, P, logq), start, n)
    if interior is None:
        return ival
    if start is not None:
        y, logq, start = y[interior], logq[interior], start[interior]
        ny = n - y
    xi = xs[interior][:, None]
    Pi = P[interior]
    t = (y - n * xi) / (xi * (1.0 - xi))
    Pp = Pi * t
    d = logP[interior] - logq
    ip = _row_sums(Pp * d, start, n)
    Ppp = Pi * (t * t - y / xi ** 2 - ny / (1.0 - xi) ** 2)
    return ival, Pp, ip, _row_sums(Ppp * d, start, n) + _row_sums(Pp * t, start, n)


# Cells per chunk of the density sweep: a chunk-sized float array is then at
# most 400 KB, so the five or so of them one chunk needs (the kernel's
# products, logP, P, the terms, the full-width row sums) stay within a 2 MB
# L2 cache, and peak memory does not grow with the number of points.
_CHUNK_CELLS = 50_000

# Half-width of the Bernstein window in nats: the binomial kernel obeys
# P(y|x) <= exp(-t^2 / (2 (n x(1-x) + t/3))) for |y - n x| >= t, which is
# e^-T at t = T/3 + sqrt(T^2/9 + 2 T n x(1-x)).  A cell outside the window is
# then at most e^-60 (60 + |log q(y)|), below the last bit of an i of order 1.
_WINDOW_NATS = 60.0

# Share of the row above which rows are taken in full (a chunk of the
# density sweep, a round of peak refinement).  The windowed rows compute
# logP, P and the cells on the window alone but still zero, fill and sum
# full-width rows.  On the widest (centre) rows of the density sweep, one
# OpenBLAS thread of a 2-vCPU VM, they took 2.0 times the full-row time at
# n = 128 (window 99 % of the row), 1.4 at 256 (86 %), about 1 from 400 to
# 600 (66 % to 52 %), 0.8 at 768 (45 %), 0.6 at 1024 (38 %) and 0.3 at 4096
# (18 %).  On the certificate grid every chunk is summed in full below
# n = 249 and every chunk on its window from n = 647.
_WINDOW_CUT = 0.5


def _bernstein_window(n: int, xs: np.ndarray):
    """(lo, hi): the first and last y with |y - n x| <= t(x) for each x,
    rounded outwards and clipped to 0..n."""
    T = _WINDOW_NATS
    t = T / 3 + np.sqrt(T * T / 9 + 2 * T * n * xs * (1.0 - xs))
    return (np.maximum(np.floor(n * xs - t), 0).astype(int),
            np.minimum(np.ceil(n * xs + t), n).astype(int))


def _row_window(n: int, lo: np.ndarray, hi: np.ndarray):
    """(start, w): rows whose Bernstein windows are lo..hi take the outputs
    y = start + arange(w), w the widest window among them, each start moved
    in so the window stays within 0..n; (None, 0), the full rows, where w
    exceeds _WINDOW_CUT of the row."""
    w = int((hi - lo).max()) + 1
    if w > _WINDOW_CUT * (n + 1):
        return None, 0
    return np.minimum(lo, n + 1 - w), w


def _info_density_against_logq(spec: ChannelSpec, xs, logq: np.ndarray,
                               derivatives: bool = False):
    """i(x) = D(P(.|x) || q) for an array of x, given log q, swept in chunks
    of rows; with `derivatives`, (i, i', i'') from the same sweep, i' and
    i'' NaN at x = 0 and 1, where they diverge.

    A chunk whose Bernstein windows |y - n x| <= t(x) are narrow computes
    its cells on the window only, y = lo + arange(w) with w the widest
    window of the chunk, and places them in a zeroed full-width row.  The
    row sum then runs the same pairwise-summation tree as the full-row
    sweep, each cell it drops is below e^-60 (60 + |log q|), and i is bit
    for bit the full-row sum (the tests check this against a where-form
    sweep up to n = 4096).  A cell's value does not depend on the chunk its
    row falls in; the chunk sets only which of these tiny cells are kept.
    The derivative rows of `_info_terms` drop the same cells, and no kernel
    call holds more than one chunk of cells."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    n = spec.n
    out = np.empty(len(xs))
    ip, ipp = np.full((2, len(xs) if derivatives else 0), np.nan)
    lo, hi = _bernstein_window(n, xs)
    step = max(1, _CHUNK_CELLS // (n + 1))
    for s in range(0, len(xs), step):
        x = xs[s:s + step]
        start, w = _row_window(n, lo[s:s + step], hi[s:s + step])
        logP = log_pmf_matrix(spec, x, start, w)
        if derivatives:
            k = np.flatnonzero((x > 0.0) & (x < 1.0))
            out[s:s + step], _, ip[s + k], ipp[s + k] = _info_terms(
                spec, x, logP, np.exp(logP), logq, k, start=start)
        else:
            out[s:s + step] = _info_terms(spec, x, logP, np.exp(logP), logq, start=start)
    return (out, ip, ipp) if derivatives else out


def info_density(x, out: OutputPmf, spec: ChannelSpec):
    """Information density i(x; P_Y) = D(P(.|x) || P_Y); scalar or array x
    in [0, 1]."""
    xs = np.asarray(x, dtype=float)
    bad = ~((xs >= 0.0) & (xs <= 1.0))  # NaN fails both
    if np.any(bad):
        raise ValueError(f"success probability x must be in [0, 1], got {xs[bad].flat[0]}")
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
    return _logsumexp(terms)


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
