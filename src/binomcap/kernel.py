"""Numerically stable binomial channel kernel and binomial entropy bounds.

All probability arithmetic is done in the log domain, from exact
log-binomial coefficients, so that trial counts up to a few thousand do not
underflow.  The log-pmf matrix takes log x and log(1-x) once per row, not
once per cell.  The 0 log 0 = 0 convention is applied throughout, so
endpoint inputs x = 0 and x = 1 give finite values instead of NaN.

Everything here is a pure function of its arguments; concurrent use is safe.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np
from scipy.special import xlog1py, xlogy

MAX_TRIALS = 4096


# The library's argument rules, one owner each; the oracles keep their own
# copies, as the independent reference.

def check_count(value, name: str, least: int = 1):
    """A count is an integer >= least; a bool is not one.  Returns it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be >= {least} (an integer), got {value!r}")
    return value


def check_tol(tol, name: str) -> None:
    """A tolerance is a real number in (0, inf); a bool is not one."""
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0 < tol < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {tol}")


def check_x(x, interior: bool = False):
    """A point is in [0, 1], or in (0, 1) where derivatives are taken; NaN
    fails both.  Returns a float for scalar x, a float array otherwise."""
    xs = np.asarray(x, dtype=float)
    ok = (xs > 0.0) & (xs < 1.0) if interior else (xs >= 0.0) & (xs <= 1.0)
    if not ok.all():
        where = "strictly inside (0, 1)" if interior else "in [0, 1]"
        raise ValueError(f"success probability x must be {where}, got {xs[~ok].flat[0]}")
    return float(xs) if xs.ndim == 0 else xs


def check_output(y, n: int):
    """An output index y is an integer in 0..n; a bool is not one.  Returns it."""
    if isinstance(y, bool) or not isinstance(y, (int, np.integer)) or not 0 <= y <= n:
        raise ValueError(f"y must be an integer in [0, {n}], got {y!r}")
    return y


@dataclass(frozen=True)
class ChannelSpec:
    """Binomial channel with a fixed number of trials."""

    n: int

    def __post_init__(self):
        if check_count(self.n, "trial count n") > MAX_TRIALS:
            raise ValueError(
                f"n={self.n} exceeds the supported double-precision range "
                f"(n <= {MAX_TRIALS})"
            )


@lru_cache(maxsize=64)
def log_binom_coeffs(n: int) -> np.ndarray:
    """log C(n, y) for y = 0..n, cached per n; the array is read-only.  Exact
    C(n, y) in Python integers make each entry math.log(math.comb(n, y))."""
    n = operator.index(n)
    exact = accumulate(range(n), lambda c, y: c * (n - y) // (y + 1), initial=1)
    out = np.array([math.log(c) for c in exact])
    out.setflags(write=False)
    return out


@lru_cache(maxsize=64)
def _output_counts(n: int) -> np.ndarray:
    """Rows y and n - y for the outputs y = 0..n, as floats, cached per n;
    the array is read-only."""
    out = np.array([np.arange(n + 1), np.arange(n, -1, -1)], dtype=float)
    out.setflags(write=False)
    return out


def log_pmf_matrix(spec: ChannelSpec, xs, lo=None, width: int = 0) -> np.ndarray:
    """Log-pmf rows for an array of inputs; shape (len(xs), n+1).

    Entries are log C(n,y) + y log x + (n-y) log(1-x).  log x and log(1-x)
    are taken once per row and broadcast over y, with the same rounding as
    the per-cell xlogy(y, x) and xlog1py(n-y, -x).  Endpoint rows follow the
    0 log 0 = 0 convention: x = 0 gives 0 at y = 0 and -inf elsewhere, x = 1
    gives 0 at y = n and -inf elsewhere.

    Given per-row starts `lo` and a `width`, row k holds only the outputs
    y = lo[k] + arange(width) (all within 0..n), shape (len(xs), width);
    each entry is bit-identical to its full-row value.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    n = spec.n
    y, ny = _output_counts(n)
    lbc = log_binom_coeffs(n)
    if lo is not None:
        yi = np.asarray(lo)[:, None] + np.arange(width)
        y, lbc = y[yi], lbc[yi]
        ny = n - y
    at0 = xs == 0.0
    at1 = xs == 1.0
    # endpoint rows are overwritten below; 0.5 keeps their logs finite
    xr = np.where(at0 | at1, 0.5, xs)[:, None]
    out = y * xlogy(1.0, xr)
    out += lbc
    out += ny * xlog1py(1.0, -xr)
    for k in np.flatnonzero(at0 | at1):  # certain of y = 0 (x = 0) or y = n (x = 1)
        out[k] = np.where((y if lo is None else y[k]) == n * at1[k], 0.0, -np.inf)
    return out


# Log-pmf cells below this many nats (P < 1e-304) are set to 0 by `floored_exp`.
_EXP_FLOOR = -700.0


def floored_exp(logP: np.ndarray, out=None) -> np.ndarray:
    """exp(logP) of full log-pmf rows (`log_pmf_matrix` without a window),
    with P = 0 where log P < -700, that is, where P < 1e-304.

    numpy's exp leaves its vector loop where the result nears the subnormal
    range: about 110 ns an element for arguments in (-745, -708) and 10 ns
    below, against 0.6 ns.  The binomial pmf is log-concave in y, so a row's
    smallest entry is at y = 0 or y = n, n log min(x, 1 - x).  Where no row's
    is below -700 this is plain np.exp; otherwise exp runs only on the cells
    at or above -700, and the others are 0.  A mask over all rows costs less
    than gathering the rows that need one.
    """
    if logP[:, :: logP.shape[1] - 1].min() >= _EXP_FLOOR:  # y = 0 and y = n
        return np.exp(logP, out=out)
    if out is None:
        out = np.zeros_like(logP)
    else:
        out.fill(0.0)
    return np.exp(logP, out=out, where=logP >= _EXP_FLOOR)


def log_pmf(spec: ChannelSpec, y: int, x: float) -> float:
    """Log-probability of y successes in n trials at success probability x."""
    return float(log_pmf_matrix(spec, check_x(float(x)))[0, check_output(y, spec.n)])


def pmf_row(spec: ChannelSpec, x: float) -> np.ndarray:
    """Output pmf over y = 0..n for input x; rows sum to 1 within 1e-12."""
    x = check_x(float(x))
    return np.exp(log_pmf_matrix(spec, x))[0]


def binary_entropy(x: float) -> float:
    """-x log x - (1-x) log(1-x), in nats."""
    x = check_x(float(x))
    return float(-xlogy(x, x) - xlog1py(1.0 - x, -x))


def binomial_entropy_exact(spec: ChannelSpec, x: float) -> float:
    """Entropy of the binomial output at input x, by direct summation."""
    p = pmf_row(spec, x)
    return float(-np.sum(xlogy(p, p)))


def binomial_entropy_upper(spec: ChannelSpec, x: float) -> float:
    """Gaussian-style upper bound 0.5 log(2*pi*e*(n x(1-x) + 1/12))."""
    x = check_x(float(x))
    return 0.5 * math.log(2.0 * math.pi * math.e * (spec.n * x * (1.0 - x) + 1.0 / 12.0))


def binomial_entropy_lower(spec: ChannelSpec, x: float) -> float:
    """Closed-form lower bound on the binomial output entropy.

    (1-(1-x)^n-x^n) * 0.5*log(2*pi*n) + 0.5*(1-(1-x)^n)*log(x)
    + 0.5*(1-x^n)*log(1-x) - 1, with endpoint values taken termwise by
    the 0 log 0 = 0 convention (both endpoints give -1).
    """
    x = check_x(float(x))
    n = spec.n
    a = (1.0 - x) ** n
    b = x ** n
    main = (1.0 - a - b) * 0.5 * math.log(2.0 * math.pi * n)
    t1 = 0.5 * float(xlogy(1.0 - a, x))
    t2 = 0.5 * float(xlogy(1.0 - b, 1.0 - x))
    return main + t1 + t2 - 1.0
