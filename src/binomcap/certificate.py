"""The optimality certificate of an input distribution.

An input with output pmf q achieves the capacity C exactly when its
information density i(x) = D(P(.|x) || q) obeys i(x) <= C on all of [0, 1],
with equality on its support.  `_certify` checks both on a grid of 4 points
per kernel width in arcsin sqrt(x): each local maximum of i on it is refined
by Newton's method on i' inside the bracket of its grid neighbours, and the
largest i evaluated, less the capacity, is the KKT slack.  It also reports
the equality defect at the atoms, the symmetry defect and nine structural
flags.  The solver certifies every iterate here, `verify` certifies a
user's input, and the 1e-8 default certification tolerance is set here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    DiscreteInput,
    OutputPmf,
    log_output_pmf,
    _bernstein_window,
    _info_density_against_logq,
    _info_terms,
    _row_window,
)
from .kernel import ChannelSpec, check_tol, log_pmf_matrix

# the KKT slack and equality defect that certify an input, by default
KKT_TOL = 1e-8


@dataclass(frozen=True)
class KktSummary:
    """Optimality certificate: i on the arcsine grid and its refined peaks.
    Its fields, in order, are the `verify` JSON."""

    n: int
    capacity_nats: float
    kkt_slack: float
    equality_defect: float
    symmetry_defect: float
    active_set: list
    flags: dict
    grid_points: int


@dataclass(frozen=True)
class SolveReport(KktSummary):
    """An input distribution's certificate, plus the input, its output pmf
    and how the solve went."""

    input: DiscreteInput
    output: OutputPmf
    iterations: int
    converged: bool

    @property
    def support_size(self) -> int:
        return len(self.input)

    def to_dict(self) -> dict:
        """JSON payload with fixed field order; its flags end with the
        equality and symmetry defects and the active-set size."""
        return {
            "n": self.n,
            "capacity_nats": self.capacity_nats,
            "kkt_slack": self.kkt_slack,
            "support": list(self.input.points),
            "weights": list(self.input.weights),
            "output_pmf": list(self.output.probs),
            "flags": {**self.flags, "equality_defect": self.equality_defect,
                      "symmetry_defect": self.symmetry_defect,
                      "active_set_size": len(self.active_set)},
            "iterations": self.iterations,
            "converged": self.converged,
        }


# grid points per kernel width: in phi = 2 arcsin sqrt(x) the binomial kernel
# P(.|x) has a width of about 1/sqrt(n) over all of [0, pi]
_CERT_POINTS_PER_WIDTH = 4


def _cert_grid(n: int) -> np.ndarray:
    """x = sin^2(phi / 2) on an even number of equal steps of phi over
    [0, pi], _CERT_POINTS_PER_WIDTH per kernel width; it holds 0, 1/2 and 1
    and is mirror-symmetric to the bit."""
    half = math.ceil(_CERT_POINTS_PER_WIDTH * math.pi * math.sqrt(n) / 2)
    h = np.sin(np.linspace(0.0, 0.25 * math.pi, half + 1)) ** 2
    h[-1] = 0.5
    return np.concatenate([h, 1.0 - h[-2::-1]])


def _refine_peaks(spec: ChannelSpec, logq: np.ndarray, x: np.ndarray,
                  lo: np.ndarray, hi: np.ndarray, best: np.ndarray):
    """Climb each x to the maximum of i in its bracket [lo, hi]: a Newton
    step on i' where i'' < 0 and the step stays in the bracket, else
    bisection, the bracket shrinking by the sign of i', until a step is below
    1e-12 or a Newton step's model gain |i' dx| / 2 is below i's rounding,
    1e-16 max(1, |i|).  `best` holds i at x; returns the point of each
    bracket with the largest i evaluated, and that i.  Overwrites x, lo, hi
    and best.

    Where even the centre row's Bernstein window is narrow (n >= 643), each
    round takes its rows on their windows as the density sweep does, and
    its sums are the full-row ones bit for bit (the tests check this at
    n = 1024 and 4096).  Below that the rows are full: a round of edge
    peaks alone could take windows, but finding them (about 20 us a round)
    cost more than it saved at n = 256 to 512."""
    at = x.copy()
    todo = np.arange(len(x))
    n = spec.n
    windowed = _row_window(n, *_bernstein_window(n, 0.5))[0] is not None
    for _ in range(100):
        if not len(todo):
            break
        xt = x[todo]
        start, w = _row_window(n, *_bernstein_window(n, xt)) if windowed else (None, 0)
        logP = log_pmf_matrix(spec, xt, start, w)
        ival, _, ip, ipp = _info_terms(spec, xt, logP, np.exp(logP), logq,
                                       np.arange(len(xt)), start=start)
        up = ival > best[todo]
        best[todo[up]], at[todo[up]] = ival[up], xt[up]
        lo[todo] = np.where(ip > 0.0, xt, lo[todo])
        hi[todo] = np.where(ip > 0.0, hi[todo], xt)
        with np.errstate(divide="ignore", invalid="ignore"):
            nx = xt - ip / ipp
        newton = (ipp < 0.0) & (nx >= lo[todo]) & (nx <= hi[todo])
        gain = 0.5 * np.abs(ip * (nx - xt))
        floor = newton & (gain <= 1e-16 * np.maximum(1.0, np.abs(ival)))
        nx = np.where(newton, nx, 0.5 * (lo[todo] + hi[todo]))
        x[todo] = nx
        todo = todo[(np.abs(nx - xt) > 1e-12) & ~floor]
    return at, best


def _certify(dist: DiscreteInput, spec: ChannelSpec,
             tol: float) -> tuple[KktSummary, np.ndarray, np.ndarray, np.ndarray]:
    """Maximum of the information density, peaks and structural flags.

    i is evaluated on the arcsine grid plus the atoms, and every interior
    local maximum of i on it is refined inside the bracket of its grid
    neighbours.  The slack is the largest i evaluated less the capacity;
    the active set is the peaks within tol of it.  Returns the summary, the
    peaks: (x, i) of the refined maxima and of the endpoints that are grid
    maxima, and the log output pmf of dist.
    """
    check_tol(tol, "KKT tolerance")
    n = spec.n
    logq = log_output_pmf(dist, spec)
    xs = np.union1d(_cert_grid(n), dist.points)
    ivals = _info_density_against_logq(spec, xs, logq)
    atom_idx = np.searchsorted(xs, dist.points)
    cap = float(dist.weights @ ivals[atom_idx])
    defect = float(np.abs(ivals[atom_idx] - cap).max())

    # grid maxima; the first of equal neighbours, so the largest i is one
    s = np.concatenate([[-np.inf], ivals, [-np.inf]])
    k = np.flatnonzero((s[1:-1] > s[:-2]) & (s[1:-1] >= s[2:]))
    peak_x, peak_i = xs[k], ivals[k]
    inner = np.flatnonzero((k > 0) & (k < len(xs) - 1) & np.isfinite(peak_i))
    ki = k[inner]
    peak_x[inner], peak_i[inner] = _refine_peaks(spec, logq, xs[ki], xs[ki - 1], xs[ki + 1],
                                                 peak_i[inner])
    slack = float(peak_i.max() - cap)
    active = [float(x) for x in peak_x[np.abs(peak_i - cap) <= tol]]

    # each atom's mirror 1 - x against the nearer of its sorted neighbours
    # (the lower on a tie): an unmatched atom counts its weight, a matched
    # pair its weight difference
    pts, wts = dist.points, dist.weights
    mirror = 1.0 - pts
    hi = np.minimum(np.searchsorted(pts, mirror), len(pts) - 1)
    lo = np.maximum(hi - 1, 0)
    gap_lo, gap_hi = np.abs(pts[lo] - mirror), np.abs(pts[hi] - mirror)
    j = np.where(gap_lo <= gap_hi, lo, hi)
    sym_defect = float(np.where(np.minimum(gap_lo, gap_hi) > 1e-9, wts,
                                np.abs(wts - wts[j])).max())

    lower_edge = int(np.sum((pts > 0.0) & (pts <= 1.0 / n)))
    upper_edge = int(np.sum((pts >= 1.0 - 1.0 / n) & (pts < 1.0)))
    card_low = math.ceil(math.exp(cap) - 1e-9)
    card_high = 2 + n // 2
    flags = {
        "kkt_inequality": slack <= tol,
        # equality per the optimality characterization: every atom must reach
        # the true capacity, so a positive slack falsifies it as well
        "kkt_equality": defect <= tol and slack <= tol,
        "endpoints_in_support": bool(pts[0] == 0.0 and pts[-1] == 1.0),
        "capacity_output_identity": bool(abs(cap + logq[0]) <= 1e-8
                                         and abs(cap + logq[n]) <= 1e-8),
        "edge_interval_atoms": bool(lower_edge <= 1 and upper_edge <= 1),
        "symmetric": bool(sym_defect <= 1e-9),
        "support_size_in_bounds": bool(card_low <= len(pts) <= card_high),
        "weight_cap": bool(wts.max() <= math.exp(-cap) + 1e-9),
        "active_set_within_witsenhausen": bool(len(active) <= n + 1),
    }
    summary = KktSummary(n, cap, slack, defect, sym_defect, active, flags, len(xs))
    return summary, peak_x, peak_i, logq


def kkt_verify(report: SolveReport, spec: ChannelSpec,
               tol: float = KKT_TOL) -> KktSummary:
    """Re-certify a solve report (or any user distribution wrapped in one).

    Recomputes the information density and its peaks, and re-derives
    capacity, slack, equality defect, the active set, and all structural
    flags.  Raises ValueError where spec is not the report's channel.
    """
    if spec.n != report.n:
        raise ValueError(f"report is for n = {report.n}, spec for n = {spec.n}")
    return _certify(report.input, spec, tol)[0]


def report_for_distribution(dist: DiscreteInput, spec: ChannelSpec,
                            tol: float = KKT_TOL) -> SolveReport:
    """Build a SolveReport around an externally supplied distribution:
    iterations 0, converged where it certifies (the `kkt_equality` flag)."""
    summary, _, _, logq = _certify(dist, spec, tol)
    return _report(dist, summary, logq, 0, summary.flags["kkt_equality"])


def _report(dist: DiscreteInput, summary: KktSummary, logq: np.ndarray,
            iterations: int, converged: bool) -> SolveReport:
    """SolveReport of a distribution from its certification summary and its
    log output pmf."""
    return SolveReport(**vars(summary), input=dist, output=OutputPmf(np.exp(logq), summary.n),
                       iterations=iterations, converged=converged)
