"""The grid oracle's mirror ascent on every grid weight, the tests' reference.

`oracles.brute_force_grid_capacity` runs on the mirror orbits {x, 1 - x} of
the grid, with half the channel rows.  This is the same scheme on all grid
weights and the full grid × (n + 1) channel matrix, kept here so the tests
can check that the orbit form is the same computation: the same value after
the same number of density products.
"""

import math

import numpy as np

from binomcap.kernel import log_pmf_matrix

CHECK_EVERY = 50


def full_grid_channel(spec, grid_points):
    """The grid_points × (n + 1) channel matrix P and its rows' negative entropies H."""
    xs = np.linspace(0.0, 1.0, grid_points)
    logP = log_pmf_matrix(spec, xs)
    P = np.exp(logP)
    with np.errstate(invalid="ignore"):
        H = np.sum(np.where(P > 0, P * logP, 0.0), axis=1)
    return P, H


def full_grid_densities(q, P, H):
    """Information densities of every grid point against the output pmf q."""
    return H - P @ np.log(np.maximum(q, 1e-300))


def _value(w, q, H):
    return float(w @ H - q @ np.log(np.maximum(q, 1e-300)))


def full_grid_capacity(spec, grid_points, tol, max_iters=2_000_000):
    """(I, density products) of the accelerated mirror ascent on all grid
    weights, from the uniform grid, certified every CHECK_EVERY iterations."""
    P, H = full_grid_channel(spec, grid_points)
    products = 0

    def densities(q):
        nonlocal products
        products += 1
        return full_grid_densities(q, P, H)

    x = z = np.full(grid_points, 1.0 / grid_points)
    qz, lo, k = z @ P, -math.inf, 0
    for it in range(max_iters + 1):
        if it % CHECK_EVERY == 0 or it == max_iters:
            if _value(z, qz, H) > lo:
                x, qx = z, qz
            Dx = densities(qx)
            lo = float(x @ Dx)
            if float(Dx.max()) - lo <= tol:
                return lo, products
            if it == max_iters:
                break
        t = 2.0 / (k + 2)
        Dy = densities((1 - t) * qx + t * qz)
        z = z * np.exp((Dy - Dy.max()) / t)
        z /= z.sum()
        qz = z @ P
        xc, qc = (1 - t) * x + t * z, (1 - t) * qx + t * qz
        info = _value(xc, qc, H)
        if info < lo:
            D = densities(qx)
            x = x * np.exp(D - D.max())
            x /= x.sum()
            qx = x @ P
            lo = _value(x, qx, H)
            z, qz, k = x, qx, 0
        else:
            x, qx, lo, k = xc, qc, info, k + 1
    raise RuntimeError(f"full-grid mirror ascent did not reach duality gap {tol}")
