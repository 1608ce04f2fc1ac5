"""The paper's conditional-mean forms of i' and i'', the tests' reference.

The library takes i, i' and i'' from one kernel on the channel rows
(`distributions._info_terms`).  The paper writes the derivatives instead as
identities in the posterior means E[X | Y = y] and E[1 - X | Y = y], which
reduce to log-moment ratios of the input; these independent forms are kept
here so the tests can check the kernel against them.
"""

import math

import numpy as np

from binomcap import ChannelSpec
from binomcap.distributions import log_mixed_moments
from binomcap.kernel import log_pmf_matrix


def log_posterior_mean_pair(dist, spec):
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


def iprime_reduced_trial_form(x, dist, spec):
    """i'(x) from the posterior means under an (n-1)-trial channel; for
    n = 1 the conditional-mean ratio collapses to E[1-X]/E[X]."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    n = spec.n
    if n == 1:
        l1mx = log_mixed_moments(dist, np.asarray(0.0), np.asarray(1.0))
        lx = log_mixed_moments(dist, np.asarray(1.0), np.asarray(0.0))
        return np.log(xs / (1.0 - xs)) + float(l1mx - lx)
    lpx, lp1mx = log_posterior_mean_pair(dist, ChannelSpec(n - 1))
    pm = np.exp(log_pmf_matrix(ChannelSpec(n - 1), xs))
    return n * np.log(xs / (1.0 - xs)) + n * (pm @ (lp1mx - lpx))


def iprime_full_trial_form(x, dist, spec):
    """i'(x) from the n-trial posterior means, at a scalar x."""
    n = spec.n
    lpx, lp1mx = log_posterior_mean_pair(dist, spec)
    pm = np.exp(log_pmf_matrix(spec, np.atleast_1d(x)))[0]
    ys = np.arange(n)
    total = float(np.sum(pm[ys] * (n - ys) * (lp1mx[ys + 1] - lpx[ys])))
    return n * math.log(x / (1 - x)) + total / (1 - x)


def isecond_moment_ratio_form(x, dist, spec):
    """i''(x) = n/(x(1-x)) plus the average of (n-Y)(n-Y-1) times a
    log-ratio of adjacent n-trial posterior means over y <= n-2; the
    correction vanishes identically for n = 1."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    n = spec.n
    base = n / (xs * (1.0 - xs))
    if n == 1:
        return base
    lpx, lp1mx = log_posterior_mean_pair(dist, spec)
    ys = np.arange(n - 1)
    log_term = lpx[ys] - lp1mx[ys + 1] + lp1mx[ys + 2] - lpx[ys + 1]
    coef = (n - ys) * (n - ys - 1.0)
    pm = np.exp(log_pmf_matrix(spec, xs))[:, : n - 1]
    return base + (pm @ (coef * log_term)) / (1.0 - xs) ** 2


def isecond_first_derivative_form(x, dist, spec, ip):
    """i''(x) written through i'(x) = ip and the (n-1)-trial posterior
    means, at a scalar x and n >= 2."""
    n = spec.n
    lpx, lp1mx = log_posterior_mean_pair(dist, ChannelSpec(n - 1))
    pm = np.exp(log_pmf_matrix(ChannelSpec(n - 1), np.atleast_1d(x)))[0]
    s = float(np.sum(pm * np.arange(n) * (lp1mx - lpx)))
    return n * (1 + s) / (x * (1 - x)) \
        - (n - 1) / (1 - x) * (ip - n * math.log(x / (1 - x)))


def isecond_reduced_trial_form(x, dist, spec):
    """i''(x) over an (n-2)-trial expectation, at a scalar x and n >= 3."""
    n = spec.n
    lpx, lp1mx = log_posterior_mean_pair(dist, ChannelSpec(n - 1))
    ratio = lp1mx - lpx
    pm = np.exp(log_pmf_matrix(ChannelSpec(n - 2), np.atleast_1d(x)))[0]
    ys = np.arange(n - 1)
    s = float(np.sum(pm * (ratio[ys + 1] - ratio[ys])))
    return n / (x * (1 - x)) + n * (n - 1) * s
