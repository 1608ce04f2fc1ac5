"""Ground-truth fixtures and an independent grid-search capacity oracle.

The n <= 3 solutions are stored as exact rationals and converted to floats
only at the boundary, so the fixtures cannot drift.  The grid oracle is an
over-relaxed Blahut-Arimoto loop (step exponent 2, falling back to the plain
step whenever the mutual information would drop) that shares nothing with the
production solver beyond pmf evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .distributions import DiscreteInput, OutputPmf
from .kernel import ChannelSpec, log_pmf_matrix

_HALF = Fraction(1, 2)

# Step exponent mu of the oracle's accelerated update w * exp(mu * D).
_OVER_RELAX = 2.0

_TABLE = {
    1: {
        "capacity": Fraction(2),  # capacity = log of this rational
        "points": [Fraction(0), Fraction(1)],
        "weights": [_HALF, _HALF],
        "output": [_HALF, _HALF],
    },
    2: {
        "capacity": Fraction(17, 8),
        "points": [Fraction(0), _HALF, Fraction(1)],
        "weights": [Fraction(15, 34), Fraction(2, 17), Fraction(15, 34)],
        "output": [Fraction(8, 17), Fraction(1, 17), Fraction(8, 17)],
    },
    3: {
        "capacity": Fraction(19, 8),
        "points": [Fraction(0), _HALF, Fraction(1)],
        "weights": [Fraction(15, 38), Fraction(4, 19), Fraction(15, 38)],
        "output": [Fraction(8, 19), Fraction(3, 38), Fraction(3, 38), Fraction(8, 19)],
    },
}


@dataclass(frozen=True)
class ExactSolution:
    """Known closed-form optimum for a small trial count."""

    n: int
    capacity_nats: float
    capacity_exp: Fraction  # e^{C} as an exact rational
    input: DiscreteInput
    output: OutputPmf
    weights_exact: tuple
    points_exact: tuple


def exact_solution(n: int) -> ExactSolution:
    """Closed-form capacity and optimal distributions for n in {1, 2, 3}."""
    if n not in _TABLE:
        raise ValueError(f"closed-form solution known only for n in {{1, 2, 3}}, got {n}")
    row = _TABLE[n]
    dist = DiscreteInput(
        np.array([float(p) for p in row["points"]]),
        np.array([float(w) for w in row["weights"]]),
    )
    out = OutputPmf(np.array([float(q) for q in row["output"]]), n)
    return ExactSolution(
        n=n,
        capacity_nats=math.log(row["capacity"]),
        capacity_exp=row["capacity"],
        input=dist,
        output=out,
        weights_exact=tuple(row["weights"]),
        points_exact=tuple(row["points"]),
    )


def _information(wa: np.ndarray, Pa: np.ndarray, Ha: np.ndarray):
    """I(w), the information densities D_k and log q over the active rows."""
    q = wa @ Pa
    logq = np.log(np.maximum(q, 1e-300))
    Da = Ha - Pa @ logq
    return float(wa @ Da), Da, logq


def _step(wa: np.ndarray, Da: np.ndarray, hi: float, mu: float) -> np.ndarray:
    """Normalized BA update w * exp(mu * (D - max D)); mu = 1 is plain BA."""
    nxt = wa * np.exp(mu * (Da - hi))
    return nxt / nxt.sum()


def brute_force_grid_capacity(spec: ChannelSpec, grid_points: int, tol: float,
                              max_iters: int = 2_000_000) -> float:
    """Capacity lower bound from over-relaxed Blahut-Arimoto on a uniform grid.

    No support refinement, no symmetrization: a from-scratch cross-check of
    the production solver.  Each iteration takes the accelerated step
    w * exp(mu * D) with mu = 2 (Matz & Duhamel, ITW 2004); if that lowers
    the mutual information I(w), the plain step (mu = 1) is taken from the
    previous iterate instead, so I(w) never decreases.  The duality gap
    max_k D_k - sum_k w_k D_k is certified over the full grid before
    stopping; grid points whose weight decays below 1e-40 are frozen at zero
    and their rows dropped from the gathered active set (and revived if
    their information density recovers).  Raises if the gap does not close
    within the iteration cap.
    """
    if grid_points < 101 or grid_points % 2 == 0:
        raise ValueError("grid_points must be odd and at least 101")
    if tol <= 0:
        raise ValueError("tol must be positive")
    xs = np.linspace(0.0, 1.0, grid_points)
    logP = log_pmf_matrix(spec, xs)
    P = np.exp(logP)
    with np.errstate(invalid="ignore"):
        row_neg_entropy = np.sum(np.where(P > 0, P * logP, 0.0), axis=1)
    del logP  # so that two gathered copies of P fit under the peak above
    idx = np.arange(grid_points)
    Pa, Ha, wa = P, row_neg_entropy, np.full(grid_points, 1.0 / grid_points)
    lo, Da, logq = _information(wa, Pa, Ha)
    check_every = 250
    for it in range(1, max_iters + 1):
        hi_active = float(Da.max())
        if hi_active - lo <= tol or it % check_every == 0:
            w = np.zeros(grid_points)
            w[idx] = wa
            D = row_neg_entropy - P @ logq
            revive = (w == 0.0) & (D > hi_active + 0.5 * tol)
            if revive.any():
                w[revive] = 1e-20
                w /= w.sum()
                idx = np.flatnonzero(w)
                Pa, Ha, wa = P[idx], row_neg_entropy[idx], w[idx]
                lo, Da, logq = _information(wa, Pa, Ha)
                continue
            if float(D.max()) - lo <= tol:
                return lo
        nxt = _step(wa, Da, hi_active, _OVER_RELAX)
        info = _information(nxt, Pa, Ha)
        if info[0] < lo:
            nxt = _step(wa, Da, hi_active, 1.0)
            info = _information(nxt, Pa, Ha)
        wa, (lo, Da, logq) = nxt, info
        dying = wa < 1e-40
        if dying.any():
            keep = ~dying
            idx, Pa, Ha, wa = idx[keep], Pa[keep], Ha[keep], wa[keep]
            wa /= wa.sum()
            lo, Da, logq = _information(wa, Pa, Ha)
    raise RuntimeError(
        f"grid Blahut-Arimoto did not reach duality gap {tol} within {max_iters} iterations"
    )
