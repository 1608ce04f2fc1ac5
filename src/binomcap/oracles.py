"""Ground-truth fixtures and an independent grid-search capacity oracle.

The n <= 3 solutions are stored as exact rationals and converted to floats
only at the boundary, so the fixtures cannot drift.  The grid oracle
maximizes the mutual information over a uniform input grid by accelerated
mirror ascent with a monotone Blahut-Arimoto safeguard.  It runs on the
mirror orbits {x, 1 - x} of the grid and loses nothing by it: the
information is concave in the grid weights and unchanged by mirroring them
(P(y | 1 - x) = P(n - y | x)), so its grid maximum is reached at symmetric
weights, and with symmetric weights the information density is even about
1/2, so its maximum over the orbit points certifies the duality gap over
the full grid.  The output pmf of symmetric weights is symmetric too,
q(y) = q(n - y), so the oracle also keeps only the output orbits
{y, n - y}, y = 0..n // 2, and stores q once.  The oracle shares nothing
with the production solver beyond pmf evaluation (`log_pmf_matrix`).
"""

from __future__ import annotations

import math
import numbers
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
    _check_count(n, "n", 1)  # True would look up n = 1
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


def _check_count(value, name: str, least: int) -> None:
    """An iteration or point count is an integer of at least `least`; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _orbit_channel(spec: ChannelSpec, grid_points: int):
    """Channel terms of the mirror orbits {x_k, 1 - x_k}, k = 0..m - 1, of the
    uniform grid, m = (grid_points + 1) / 2; the centre x = 1/2 is its own orbit.

    The orbit rows R_k = (P(y | x_k) + P(y | 1 - x_k)) / 2
    = (P(y | x_k) + P(n - y | x_k)) / 2 take equal values at y and n - y, so
    only the output orbits {y, n - y}, y = 0..n // 2, are kept.  Returns RT,
    the (n // 2 + 1) x m transposed orbit rows on those outputs, so that
    q = RT u is the output pmf of orbit weights u split evenly over each
    pair, stored once per output orbit; c, the orbit sizes (2, and 1 for the
    centre output y = n / 2 when n is even); and H, the negative entropies
    of the rows, equal at x and 1 - x.  An orbit row's density
    H_k - (c log q) RT_k is the mean of the densities at x_k and 1 - x_k,
    so against the symmetric q it is both.  RT is C-contiguous: the
    densities and the output pmf RT u are each one BLAS product with it.
    """
    xs = np.linspace(0.0, 1.0, grid_points)[: grid_points // 2 + 1]
    logP = log_pmf_matrix(spec, xs)
    P = np.exp(logP)
    with np.errstate(invalid="ignore"):
        H = np.sum(np.where(P > 0, P * logP, 0.0), axis=1)
    y = np.arange(spec.n // 2 + 1)
    RT = np.ascontiguousarray(((P[:, y] + P[:, spec.n - y]) / 2).T)
    return RT, np.where(2 * y == spec.n, 1.0, 2.0), H


def _densities(q: np.ndarray, RT: np.ndarray, c: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Densities D_k of the orbit rows against the output orbits' pmf q; at
    x_k and 1 - x_k alike."""
    return H - (c * np.log(np.maximum(q, 1e-300))) @ RT


def _information(w: np.ndarray, q: np.ndarray, RT: np.ndarray, c: np.ndarray, H: np.ndarray):
    """I(w) and the information densities D_k of the orbit weights w with
    output pmf q; D is even about 1/2, so w.D is I of the split weights."""
    D = _densities(q, RT, c, H)
    return float(w @ D), D


def _information_value(w: np.ndarray, q: np.ndarray, c: np.ndarray, H: np.ndarray) -> float:
    """I(w) = w.H - (c q).log q of the orbit weights w with output pmf q = RT w.

    Equal to w.D of `_information` up to rounding, but its only channel
    term is the (n // 2 + 1)-cell sum over q: no product with the channel
    matrix.
    """
    return float(w @ H - (c * q) @ np.log(np.maximum(q, 1e-300)))


def _plain_step(x: np.ndarray, q: np.ndarray, RT: np.ndarray, c: np.ndarray, H: np.ndarray):
    """One Blahut-Arimoto step x * exp(D - max D) from x with output pmf q,
    normalized; it never lowers I.  Returns the new x, its output pmf and I."""
    D = _densities(q, RT, c, H)
    x = x * np.exp(D - D.max())
    x /= x.sum()
    q = RT @ x
    return x, q, _information_value(x, q, c, H)


def brute_force_grid_capacity(spec: ChannelSpec, grid_points: int, tol: float,
                              max_iters: int = 2_000_000) -> float:
    """Capacity lower bound from accelerated mirror ascent on a uniform grid.

    No support refinement: a from-scratch cross-check of the production
    solver.  The mutual information I(w) over the grid weights w is concave
    and, since P(y | 1 - x) = P(n - y | x), takes the same value at w and at
    its mirror image.  So the mirror average of any w is at least as good,
    and the grid maximum is reached at a symmetric w: the ascent runs on the
    m = (grid_points + 1) / 2 orbit weights of the pairs {x_k, 1 - x_k}, each
    split evenly over its pair, and loses nothing.  It starts from the
    uniform grid, 2 / grid_points per pair and 1 / grid_points at the centre.

    I is maximized by the accelerated Bregman scheme in the entropy geometry
    (Hanzely, Richtarik & Xiao, 2021) with relative-smoothness constant 1,
    the constant that makes plain Blahut-Arimoto a unit step.  Iteration k
    mixes y = (1 - t) x + t z with t = 2 / (k + 2), takes the mirror step
    z <- z * exp(D(y) / t) and sets x <- (1 - t) x + t z.  If the new x has
    lower I, a plain Blahut-Arimoto step from the old x replaces it and
    restarts the scheme, so I(x) never decreases.  Every 50 iterations z
    replaces x when I(z) is higher, and the duality gap max_k D_k - I(x) is
    certified.  A symmetric output pmf makes the density even about 1/2,
    so each orbit row's density is the density at both of its points, and
    their maximum is the maximum over the full grid: the value returned is
    I(x) of a grid distribution whose full-grid gap is at most tol; raises
    if that does not happen within the iteration cap.

    The output pmf of symmetric weights is symmetric, q(y) = q(n - y), so
    it is stored once per output orbit {y, n - y}, y = 0..n // 2, and the
    orbit matrix RT keeps only those n // 2 + 1 rows; c counts the outputs
    of each orbit.  Output pmfs mix linearly with their inputs, and
    I(w) = w.H - (c q).log q with q = RT w, where H_k is the negative
    entropy of the channel row of x_k.  So an iteration takes two products
    with the one (n // 2 + 1) x m orbit matrix: the densities
    D(y) = H - (c log q_y) RT from the mixed pmf q_y, and q_z = RT z.  The
    densities of x itself are formed only at the 50-iteration certificate
    (one product, where I(z) is compared with I(x) from q_z alone) and at a
    plain step.
    """
    _check_count(grid_points, "grid_points", 101)
    if grid_points % 2 == 0:
        raise ValueError(f"grid_points must be odd, got {grid_points}")
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    _check_count(max_iters, "max_iters", 0)
    RT, c, H = _orbit_channel(spec, grid_points)
    x = z = np.full(RT.shape[1], 2.0 / grid_points)
    z[-1] = 1.0 / grid_points
    qz, lo, k = RT @ z, -math.inf, 0
    for it in range(max_iters + 1):
        if it % _CHECK_EVERY == 0 or it == max_iters:
            if _information_value(z, qz, c, H) > lo:
                x, qx = z, qz
            lo, Dx = _information(x, qx, RT, c, H)
            if float(Dx.max()) - lo <= tol:
                return lo
            if it == max_iters:
                break
        t = 2.0 / (k + 2)
        Dy = _densities((1 - t) * qx + t * qz, RT, c, H)
        Dy -= Dy.max()
        Dy /= t
        z = z * np.exp(Dy, out=Dy)
        z /= z.sum()
        qz = RT @ z
        xc = x * (1 - t)
        xc += t * z
        qc = (1 - t) * qx + t * qz
        info = _information_value(xc, qc, c, H)
        if info < lo:
            x, qx, lo = _plain_step(x, qx, RT, c, H)
            z, qz, k = x, qx, 0
        else:
            x, qx, lo, k = xc, qc, info, k + 1
    raise RuntimeError(
        f"grid mirror ascent did not reach duality gap {tol} within {max_iters} iterations"
    )
