"""Ground-truth fixtures and an independent grid-search capacity oracle.

The n <= 3 solutions are stored as exact rationals and converted to floats
only at the boundary, so the fixtures cannot drift.  The grid oracle
maximizes the mutual information over a uniform input grid by accelerated
mirror ascent with a monotone Blahut-Arimoto safeguard, certifies its duality
gap over the full grid, and shares nothing with the production solver beyond
pmf evaluation (`log_pmf_matrix`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .distributions import DiscreteInput, OutputPmf
from .kernel import ChannelSpec, log_pmf_matrix

_HALF = Fraction(1, 2)

# Iterations between full-grid duality-gap certificates of the grid oracle.
_CHECK_EVERY = 50

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


def _densities(q: np.ndarray, P: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Information densities D_k of every grid point against the output pmf q."""
    return H - P @ np.log(np.maximum(q, 1e-300))


def _information(w: np.ndarray, q: np.ndarray, P: np.ndarray, H: np.ndarray):
    """I(w) and the information densities D_k of the grid input w with output pmf q."""
    D = _densities(q, P, H)
    return float(w @ D), D


def _information_value(w: np.ndarray, q: np.ndarray, H: np.ndarray) -> float:
    """I(w) = w.H - q.log q of the grid input w with output pmf q = w P.

    Equal to w.D of `_information` up to rounding, but its only channel
    term is the (n + 1)-cell sum over q: no product with the channel matrix.
    """
    return float(w @ H - q @ np.log(np.maximum(q, 1e-300)))


def _plain_step(x: np.ndarray, q: np.ndarray, P: np.ndarray, H: np.ndarray):
    """One Blahut-Arimoto step x * exp(D - max D) from x with output pmf q,
    normalized; it never lowers I.  Returns the new x, its output pmf and I."""
    D = _densities(q, P, H)
    x = x * np.exp(D - D.max())
    x /= x.sum()
    q = x @ P
    return x, q, _information_value(x, q, H)


def brute_force_grid_capacity(spec: ChannelSpec, grid_points: int, tol: float,
                              max_iters: int = 2_000_000) -> float:
    """Capacity lower bound from accelerated mirror ascent on a uniform grid.

    No support refinement, no symmetrization: a from-scratch cross-check of
    the production solver.  The mutual information I(w) over the grid weights
    w is maximized by the accelerated Bregman scheme in the entropy geometry
    (Hanzely, Richtarik & Xiao, 2021) with relative-smoothness constant 1, the
    constant that makes plain Blahut-Arimoto a unit step.  Iteration k mixes
    y = (1 - t) x + t z with t = 2 / (k + 2), takes the mirror step
    z <- z * exp(D(y) / t) and sets x <- (1 - t) x + t z.  If the new x has
    lower I, a plain Blahut-Arimoto step from the old x replaces it and
    restarts the scheme, so I(x) never decreases.  Every 50 iterations z
    replaces x when I(z) is higher, and the duality gap max_k D_k - I(x) is
    certified over the full grid.  The value returned is I(x) of a grid
    distribution whose gap is at most tol; raises if that does not happen
    within the iteration cap.

    Output pmfs mix linearly with their inputs, and I(w) = w.H - q.log q
    with q = w P, where H_k is the negative entropy of row k of the channel
    matrix P.  So an iteration takes two products with P: the densities
    D(y) = H - P log q_y from the mixed pmf q_y, and q_z = z P.  The
    densities of x itself are formed only at the 50-iteration certificate
    (one product, where I(z) is compared with I(x) from q_z alone) and at
    a plain step.
    """
    if grid_points < 101 or grid_points % 2 == 0:
        raise ValueError("grid_points must be odd and at least 101")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_iters < 0:
        raise ValueError("max_iters must be non-negative")
    xs = np.linspace(0.0, 1.0, grid_points)
    logP = log_pmf_matrix(spec, xs)
    P = np.exp(logP)
    with np.errstate(invalid="ignore"):
        H = np.sum(np.where(P > 0, P * logP, 0.0), axis=1)
    x = z = np.full(grid_points, 1.0 / grid_points)
    qz, lo, k = z @ P, -math.inf, 0
    for it in range(max_iters + 1):
        if it % _CHECK_EVERY == 0 or it == max_iters:
            if _information_value(z, qz, H) > lo:
                x, qx = z, qz
            lo, Dx = _information(x, qx, P, H)
            if float(Dx.max()) - lo <= tol:
                return lo
            if it == max_iters:
                break
        t = 2.0 / (k + 2)
        Dy = _densities((1 - t) * qx + t * qz, P, H)
        z = z * np.exp((Dy - Dy.max()) / t)
        z /= z.sum()
        qz = z @ P
        xc, qc = (1 - t) * x + t * z, (1 - t) * qx + t * qz
        info = _information_value(xc, qc, H)
        if info < lo:
            x, qx, lo = _plain_step(x, qx, P, H)
            z, qz, k = x, qx, 0
        else:
            x, qx, lo, k = xc, qc, info, k + 1
    raise RuntimeError(
        f"grid mirror ascent did not reach duality gap {tol} within {max_iters} iterations"
    )
