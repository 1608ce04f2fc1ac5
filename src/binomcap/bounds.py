"""Closed-form capacity bounds, crest-factor identities, and support counts.

The capacity bounds hold for every trial count n >= 1 and scale like
0.5 log n, so together they pin the capacity to within a few nats without
running the solver.  The crest factor of a support atom is the conditional
relative entropy that discounts its probability below e^{-C}; it admits two
independent evaluations (identity inversion and direct posterior sum) plus
two closed-form lower bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from .kernel import ChannelSpec, check_count, check_x, pmf_row
from .serialize import csv_text

_LOG2 = math.log(2.0)


def capacity_lower_bound(n: int) -> float:
    """Largest of the two-point and arcsine-input capacity lower bounds."""
    check_count(n, "n")
    arcsine = (
        math.log(math.pi * n)
        - 0.5 * math.log(2.0 * math.pi * math.e * (n / 8.0 + 1.0 / 12.0))
        + math.log(1.0 / (16.0 * n ** 2)) / math.sqrt(math.pi * (n + 0.25))
        - math.log(4.0)
        - 1.0
    )
    return max(_LOG2, arcsine)


def capacity_upper_bound(n: int) -> float:
    """Smaller of the support-entropy and dual-representation upper bounds."""
    check_count(n, "n")
    support_entropy = math.log(3 + (n - 1) // 2)
    dual = (
        math.log(math.pi * (n + 1))
        - 0.5 * math.log(n)
        + 1.5
        + math.log(n) * 2.0 ** -(n + 1)
        + 0.5 * math.log(1.5 * (1.0 + 1.0 / n))
    )
    return min(support_entropy, dual)


def dual_bound_term(x, n: int):
    """x-dependent term of the dual capacity upper bound; scalar or array x.

    The dual bound equals log(pi(n+1)) - 0.5 log(2 pi n) + 1 + max_x of this
    term; endpoints are evaluated termwise with 0 log 0 = 0.
    """
    check_count(n, "n")
    xs = np.atleast_1d(check_x(x))
    a = (1.0 - xs) ** n
    b = xs ** n
    t = (n * xs + 0.5) / (n + 1.0)
    vals = (
        0.5 * (a + b) * math.log(2.0 * math.pi * n)
        - 0.5 * xlogy(1.0 - a, xs)
        - 0.5 * xlogy(1.0 - b, 1.0 - xs)
        + 0.5 * np.log(t * (1.0 - t))
    )
    return float(vals[0]) if np.isscalar(x) else vals


def dual_bound_term_max(n: int) -> float:
    """Uniform upper bound on dual_bound_term over all of [0, 1]."""
    check_count(n, "n")
    return (0.5 * math.log(2.0 * math.pi) + 0.5 + math.log(n) * 2.0 ** -(n + 1)
            + 0.5 * math.log(1.5 * (1.0 + 1.0 / n)))


def crest_factor(report, x_star: float) -> float:
    """Conditional relative entropy discounting the probability of an atom
    of a solve report.

    Computed two ways and cross-checked: (a) inverting the probability
    identity w(x*) = e^{-C - D(x*)}, (b) the direct posterior sum
    -sum_y P(y|x*) log P_{X|Y}(x*|y).  Returns (b).
    """
    x_star = check_x(float(x_star))
    pts = report.input.points
    j = int(np.argmin(np.abs(pts - x_star)))
    if abs(pts[j] - x_star) > 1e-12:
        raise ValueError(f"x_star={x_star} is not an atom of the solved distribution")
    w = report.input.weights[j]
    spec = ChannelSpec(report.n)
    row = pmf_row(spec, float(pts[j]))
    q = report.output.probs
    if np.any((row > 0) & (q == 0)):
        return float("inf")
    mask = row > 0
    post = w * row[mask] / q[mask]
    direct = float(-np.sum(row[mask] * np.log(post)))
    inverted = -report.capacity_nats - math.log(w)
    if abs(direct - inverted) > 1e-8:
        raise RuntimeError(
            f"crest-factor cross-check failed at x*={x_star}: "
            f"direct {direct!r} vs inverted {inverted!r}"
        )
    return direct


def crest_factor_lower_endpoints(n: int, x: float) -> float:
    """Crest-factor lower bound retaining only the extreme outputs 0 and n.

    Defined for interior atoms; the ratio degenerates to +inf at n = 1 where
    its denominator vanishes.
    """
    check_count(n, "n")
    x = check_x(float(x), interior=True)
    a = (1.0 - x) ** n
    b = x ** n
    den = a + b - 1.0
    if den == 0.0:
        return float("inf")
    num = float(xlogy(a, a) + xlogy(b, b))
    return num / den


def crest_factor_lower_mirror(n: int, x: float) -> float:
    """Crest-factor lower bound from the mirror atom at 1-x; needs x != 1/2."""
    check_count(n, "n")
    x = check_x(float(x), interior=True)
    if x == 0.5:
        raise ValueError("bound excludes x = 1/2 (the atom is its own mirror)")
    t = n * (1.0 - 2.0 * x) * math.log(x / (1.0 - x))
    return float(np.logaddexp(0.0, t))


def support_count_identity(report) -> float:
    """e^C over the uniform-atom average of e^{-crest factor}, for a solve
    report.

    Equals the support size exactly at the optimum.
    """
    discounts = [math.exp(-crest_factor(report, float(x))) for x in report.input.points]
    return math.exp(report.capacity_nats) / (sum(discounts) / len(discounts))


def cardinality_bounds(n: int, capacity_nats: float) -> tuple[float, int]:
    """(e^C lower bound, 2 + floor(n/2) upper bound) on the support size."""
    check_count(n, "n")
    if not capacity_nats >= 0:  # NaN fails it
        raise ValueError(f"capacity must be nonnegative, got {capacity_nats}")
    return math.exp(capacity_nats), 2 + n // 2


@dataclass(frozen=True)
class BoundsReport:
    """Closed-form capacity and cardinality bounds for one trial count.
    Its fields, in order, are the `bounds` JSON keys and CSV columns."""

    n: int
    cap_lower: float
    cap_upper: float
    card_lower: float
    card_upper: int
    witsenhausen: int


def bounds_report(n: int, capacity_nats: float | None = None) -> BoundsReport:
    """Evaluate all closed-form bounds; card_lower uses the solved capacity
    when one is supplied, the capacity lower bound otherwise."""
    lo = capacity_lower_bound(n)
    hi = capacity_upper_bound(n)
    card_lo, card_hi = cardinality_bounds(n, capacity_nats if capacity_nats is not None else lo)
    return BoundsReport(n, lo, hi, card_lo, card_hi, n + 1)


def sweep_csv(rows: list[dict]) -> str:
    """CSV for capacity sweeps: one row per n with bounds and diagnostics."""
    cols = ("n", "cap_lower", "capacity_nats", "cap_upper", "support_size",
            "kkt_slack", "card_lower", "card_upper")
    return csv_text(cols, ([r[c] for c in cols] for r in rows))


def crest_bound_csv(n: int, grid_size: int = 1001) -> str:
    """CSV of the two crest-factor lower bounds on an interior grid."""
    xs = np.linspace(0.0, 1.0, check_count(grid_size, "grid_size") + 2)[1:-1]
    return csv_text(("x", "lower_endpoints", "lower_mirror"), (
        (x, crest_factor_lower_endpoints(n, float(x)),
         crest_factor_lower_mirror(n, float(x)) if x != 0.5 else float("nan"))
        for x in xs))
