"""Capacity solver: arcsine-quantile seeding, support refinement, and KKT
certification.

The capacity-achieving input is unique, hence mirror-symmetric, so the solve
state is a half support: atoms 0 = h_0 < ... <= 1/2 with one mass v per
orbit {h, 1 - h}.  As P(y | 1 - x) = P(n - y | x), an orbit's channel row is
the mean of P(.|h) and its reverse: one form for the endpoint orbit {0, 1},
interior pairs and a centre atom.  The solve works in three layers:

1. quantiles of the arcsine (Jeffreys) prior seed about 1.8 sqrt(n) atoms,
   and Blahut-Arimoto on those atoms sets their masses;
2. a damped semismooth Newton iteration on the optimality conditions
   polishes masses and positions; the last orbit sits at 1/2 - sqrt(s), so
   one regular unknown covers a centre atom (s = 0) and a pair, and Newton
   splits or merges the centre by itself; negative masses mark orbits to
   drop, and where Newton stalls a direct ascent of I brings it in range;
3. the half support becomes an input on [0, 1] for certification: the
   information density is evaluated on a grid of 4 points per kernel width
   in arcsin sqrt(x), and each local maximum on it is refined by Newton's
   method on i'; where a peak still exceeds the capacity an atom is added
   there.

`sweep_capacity` starts each n from the solution certified at n - 1 with
layers 2 and 3 alone, and runs the full solve where that does not certify.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .distributions import (
    DiscreteInput,
    OutputPmf,
    log_output_pmf,
    _bernstein_window,
    _info_density_against_logq,
    _info_terms,
    _row_window,
)
from .kernel import ChannelSpec, log_pmf_matrix

log = logging.getLogger(__name__)

_TINY_Q = 1e-300
_DEAD_WEIGHT = 1e-40   # Blahut-Arimoto weight floor: no weight goes subnormal
_BA_TOL = 1e-10        # duality gap at which Blahut-Arimoto on the support stops
_MERGE_RADIUS = 1e-4   # half-support atoms at most this far apart merge
_PRUNE_WEIGHT = 1e-12  # orbits at most this heavy are dropped


@dataclass(frozen=True)
class SolverConfig:
    """The KKT slack and equality defect a solve must reach to certify, and
    its budget of outer iterations."""

    kkt_tol: float = 1e-8
    max_outer_iters: int = 200

    def __post_init__(self):
        if self.kkt_tol <= 0:
            raise ValueError("kkt_tol must be positive")
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be at least 1")


@dataclass(frozen=True)
class BAResult:
    """Blahut-Arimoto outcome: the capacity sandwich of the last iterate
    checked and its weights; at the iteration cap (converged False) the
    weights are one update past that iterate."""

    weights: np.ndarray
    capacity_low: float
    capacity_high: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class KktSummary:
    """Optimality certificate: i on the arcsine grid and its refined peaks."""

    capacity_nats: float
    slack: float
    equality_defect: float
    active_set: list
    symmetry_defect: float
    flags: dict
    grid_points: int


@dataclass(frozen=True)
class SolveReport:
    """Solved distribution with capacity estimate and KKT diagnostics."""

    input: DiscreteInput
    output: OutputPmf
    capacity_nats: float
    kkt_slack: float
    equality_defect: float
    support_size: int
    active_set_estimate: list
    iterations: int
    converged: bool
    flags: dict = field(default_factory=dict)
    n: int = 0

    def to_dict(self) -> dict:
        """JSON payload with fixed field order."""
        return {
            "n": self.n,
            "capacity_nats": self.capacity_nats,
            "kkt_slack": self.kkt_slack,
            "support": list(self.input.points),
            "weights": list(self.input.weights),
            "output_pmf": list(self.output.probs),
            "flags": dict(self.flags),
            "iterations": self.iterations,
            "converged": self.converged,
        }


# ---------------------------------------------------------------------------
# Blahut-Arimoto
# ---------------------------------------------------------------------------

def _mirror_mix(P: np.ndarray) -> np.ndarray:
    """Rows of the orbits {x, 1 - x} from the rows P(.|x): P(y | 1 - x) =
    P(n - y | x), so each is the mean of a row and its reverse."""
    return 0.5 * (P + P[:, ::-1])


def _ba_core(spec: ChannelSpec, xs: np.ndarray, tol: float, max_iters: int,
             defect_tol: float | None = None, orbits: bool = False):
    """Plain BA update w <- w exp(D - max D), renormalised and floored at
    1e-40 so that no weight goes subnormal (which slows a fine grid to a
    crawl; a solver support never nears the floor).  Stops once max D - w.D
    <= tol and, given defect_tol, |D - w.D| <= defect_tol at every weight of
    at least 1e-9.  At the cap, w is one update past the iterate that
    capacity_low, capacity_high and D describe.

    With orbits=True each x in [0, 1/2] stands for its orbit {x, 1 - x},
    starting from the orbit sums of a uniform start on the points of [0, 1].
    Returns (w, capacity_low, capacity_high, iterations, D, converged).
    """
    xs = np.asarray(xs, dtype=float)
    logP = log_pmf_matrix(spec, xs)
    P = np.exp(logP)
    rowH = _info_terms(spec, xs, logP, P, 0.0)
    if orbits:
        P = _mirror_mix(P)
    w = np.where(xs == 0.5, 1.0, 2.0) if orbits else np.ones(len(xs))
    w /= w.sum()
    for it in range(1, max_iters + 1):
        D = rowH - P @ np.log(np.maximum(w @ P, _TINY_Q))
        lo = float(w @ D)
        hi = float(D.max())
        ok = hi - lo <= tol
        if ok and defect_tol is not None:
            ok = float(np.abs(D[w >= 1e-9] - lo).max()) <= defect_tol
        if ok:
            return w, lo, hi, it, D, True
        w = np.maximum(w * np.exp(D - hi), _DEAD_WEIGHT)
        w /= w.sum()
    return w, lo, hi, max_iters, D, False


def blahut_arimoto(spec: ChannelSpec, grid, tol: float,
                   max_iters: int = 200_000) -> BAResult:
    """Optimize input weights on a fixed support by Blahut-Arimoto.

    Stops when the standard duality sandwich max_k D_k - sum_k w_k D_k closes
    below tol.  On hitting the iteration cap it returns converged=False with
    the sandwich of the last iterate checked and the weights one update past
    that iterate.
    """
    grid = np.asarray(grid, dtype=float)
    if len(grid) < 2:
        raise ValueError("support grid needs at least two points")
    if np.any(np.diff(grid) <= 0) or grid[0] < 0 or grid[-1] > 1:
        raise ValueError("support grid must be strictly increasing within [0, 1]")
    w, lo, hi, iters, _, converged = _ba_core(spec, grid, tol, max_iters)
    return BAResult(w, lo, hi, iters, converged)


# ---------------------------------------------------------------------------
# half supports: atoms 0 = h_0 < ... <= 1/2, one mass per orbit {h, 1 - h}
# ---------------------------------------------------------------------------

def _merge_half(h: np.ndarray, v: np.ndarray, radius: float):
    """Greedy left-to-right merge of the sorted half-support atoms closer
    than radius: the first atom stays on 0, others within radius of 1/2 snap
    onto it; renormalized."""
    order = np.argsort(h, kind="stable")
    out_h, out_v = [h[order[0]]], [v[order[0]]]
    for p, w in zip(h[order[1:]], v[order[1:]]):
        if p - out_h[-1] <= radius:
            tw = out_v[-1] + w
            out_h[-1] = (out_h[-1] * out_v[-1] + p * w) / tw
            out_v[-1] = tw
        else:
            out_h.append(p)
            out_v.append(w)
    h, v = np.asarray(out_h), np.asarray(out_v)
    h[0] = 0.0
    h[1:][0.5 - h[1:] <= radius] = 0.5
    return h, v / v.sum()


def _full_input(h: np.ndarray, v: np.ndarray) -> DiscreteInput:
    """The input on [0, 1] of a half support: each pair {h, 1 - h} splits
    its orbit's mass evenly, a centre atom keeps it whole."""
    pair = h < 0.5
    pts = np.concatenate([h, 1.0 - h[pair][::-1]])
    wts = np.concatenate([np.where(pair, 0.5 * v, v), 0.5 * v[pair][::-1]])
    return DiscreteInput(pts, wts / wts.sum())


# seed atoms per sqrt(n): the paper bounds the support size below by order
# sqrt(n), and certified supports have 13 atoms at n = 64, 20 at 128, 22 at 150
_SEED_ATOMS_PER_ROOT_N = 1.8


def _seed_support(spec: ChannelSpec):
    """Initial half support from the arcsine (Jeffreys) prior: about
    1.8 sqrt(n) atoms on [0, 1] equally spaced in theta = arcsin sqrt(x),
    the ones in [0, 1/2] with equal orbit masses.  At least 3 atoms, so 1/2
    is one: for n >= 2, e^C >= 17/8 > 2, and the paper's cardinality bound
    allows no fewer."""
    K = max(3, int(_SEED_ATOMS_PER_ROOT_N * math.sqrt(spec.n)))
    x = 0.5 - 0.5 * np.cos(np.linspace(0.0, math.pi, K))  # sin^2 theta
    h = x[x <= 0.5]
    return _merge_half(h, np.ones(len(h)), _MERGE_RADIUS)


# ---------------------------------------------------------------------------
# joint optimality-system Newton on the half support (internal)
# ---------------------------------------------------------------------------

def _centre_terms(spec: ChannelSpec, P: np.ndarray, d: np.ndarray):
    """(dR/ds, g', g'') of the centre orbit at s = 0, from P = P(.|1/2) and
    d = log P - log q: R_s = P''/2, g' = i''/2 and g'' = i''''/12.

    At x = 1/2, t = d log P/dx = 4y - 2n, t' = -4n, t'' = 8t, t''' = -96n.
    """
    n = spec.n
    t = 4.0 * np.arange(n + 1) - 2.0 * n
    Pt = P * t
    Ppp = P * (t * t - 4.0 * n)
    P3 = P * (t ** 3 + (8.0 - 12.0 * n) * t)
    P4 = P * (t ** 4 + (32.0 - 24.0 * n) * t * t + 48.0 * n * n - 96.0 * n)
    # i'''' = sum P'''' d + 3 sum P''' t + 3 t' sum P'' + sum P' t'', sum P'' = 0
    i4 = P4 @ d + 3.0 * (P3 @ t) + 8.0 * (Pt @ t)
    return 0.5 * Ppp, 0.5 * (Ppp @ d + Pt @ t), i4 / 12.0


def _kkt_residual(spec: ChannelSpec, h: np.ndarray, v: np.ndarray, C: float,
                  s_row: bool | None = None):
    """Residual of the stationarity system in (v, h_int, s, C).

    The last orbit is the centre orbit, at h_c = 1/2 - sqrt(s): a centre atom
    at s = 0, a pair for s > 0; h_int are the atoms strictly between it and
    0.  Rows: i(h_k) - C for every orbit, i'(h_k) at h_int, the centre row
    min(n^2 s, -g'(s)) of the complementarity s >= 0, g'(s) <= 0,
    s g'(s) = 0 for g(s) = i(1/2 + sqrt(s)), and the mass normalization.
    `s_row` fixes the branch of the centre row (None: the smaller one).
    Returns (F, i(h_k), terms), where terms feed the Jacobian, or
    (None, None, None) when some output is starved of probability.
    """
    K = len(h)
    logP = log_pmf_matrix(spec, h)
    P = np.exp(logP)
    R = _mirror_mix(P)
    q = v @ R
    if np.any(q <= 0.0):
        return None, None, None
    logq = np.log(q)
    ival, Pp, ip, ipp = _info_terms(spec, h, logP, P, logq, np.arange(1, K))
    d = 0.5 - h[-1]
    if d > 0.0:
        # R and g are even in d = sqrt(s): d/ds = (d/dd) / (2d)
        Rs = -_mirror_mix(Pp[-1:])[0] / (2.0 * d)
        gp = -ip[-1] / (2.0 * d)
        gpp = (ipp[-1] - 2.0 * gp) / (4.0 * d * d)
    else:
        Rs, gp, gpp = _centre_terms(spec, P[-1], logP[-1] - logq)
    centre, s_row = _centre_row(spec, h, gp, s_row)
    F = np.concatenate([ival - C, ip[:-1], [centre, v.sum() - 1.0]])
    return F, ival, (P, R, q, Pp[:-1], ip[:-1], ipp[:-1], Rs, gp, gpp, s_row)


def _centre_row(spec: ChannelSpec, h: np.ndarray, gp: float, s_row: bool | None):
    """(row, s_row): the centre row of `_kkt_residual`, n^2 s if s_row else
    -g'(s), where s_row = None takes the smaller of the two."""
    d = 0.5 - h[-1]
    ns = spec.n ** 2 * d * d
    if s_row is None:
        s_row = ns <= -gp
    return (ns if s_row else -gp), s_row


def _kkt_system(spec: ChannelSpec, h: np.ndarray, v: np.ndarray, terms) -> np.ndarray:
    """Jacobian of the stationarity system in (v, h_int, s, C).

    `terms` are the ones `_kkt_residual` returned at (h, v).  Masses enter
    linearly so the Newton solution signals superfluous orbits by negative
    masses.  An atom of h_int moves q through its orbit's row, R' = dR/dh,
    and s through the centre orbit's, R_s = dR/ds.
    """
    P, R, q, Pp, ip, ipp, Rs, gp, gpp, s_row = terms
    K = len(h)
    m = K - 2
    Rq = R / q
    Rpq = _mirror_mix(Pp) / q
    Rsq = Rs / q
    vi, vc = v[1:-1], v[-1]
    diag = K + np.arange(m)
    J = np.zeros((2 * K, 2 * K))
    J[:K, :K] = -(P @ Rq.T)
    J[:K, K:K + m] = -(P @ Rpq.T) * vi
    J[1 + np.arange(m), diag] += ip
    J[:K, K + m] = -(P @ Rsq) * vc
    J[K - 1, K + m] += gp
    J[:K, K + m + 1] = -1.0
    J[K:K + m, :K] = -(Pp @ Rq.T)
    J[K:K + m, K:K + m] = -(Pp @ Rpq.T) * vi
    J[diag, diag] += ipp
    J[K:K + m, K + m] = -(Pp @ Rsq) * vc
    if s_row:
        J[K + m, K + m] = spec.n ** 2
    else:
        J[K + m, :K] = Rq @ Rs
        J[K + m, K:K + m] = (Rpq @ Rs) * vi
        J[K + m, K + m] = vc * (Rs @ Rsq) - gpp
    J[K + m + 1, :K] = 1.0
    return J


def _information(v: np.ndarray, ival: np.ndarray) -> float:
    """I(X; Y) of v / sum(v) from i(h_k) against q = v @ R; -inf unless v > 0."""
    if not np.all(v > 0.0):
        return -np.inf
    total = float(v.sum())
    return float(v @ ival) / total + math.log(total)


def _kkt_newton(spec: ChannelSpec, h0: np.ndarray, v0: np.ndarray,
                max_iter: int = 60, tol: float = 1e-13):
    """Damped semismooth Newton on the stationarity system.

    Returns (h, v, status, residual): 'ok' (solved, all masses positive),
    'neg' (solved, some mass nonpositive: drop that orbit) or 'stall'.  The
    atoms of h_int stay between the midpoints to their neighbours, the
    centre orbit between that midpoint and 1/2.  A run keeps the centre
    row's branch that its start selects and takes a damped step if it lowers
    the largest residual or raises I; it stops below tol or once the
    residual has not halved in ten steps.  If it leaves the system unsolved
    (above 1e-10), a second run from the start takes the other branch and a
    third the start's branch in full steps, which both tests can reject in
    the flat valley of a pair near the centre (n = 122 and 143).
    """
    K = len(h0)
    if K < 2:
        return h0.copy(), v0.copy(), "ok", 0.0
    F0, ival, terms0 = _kkt_residual(spec, h0, v0, 0.0)
    if F0 is None:
        return h0.copy(), v0.copy(), "stall", np.inf
    best = None
    damped = (1.0, 0.5, 0.25, 0.1, 0.03, 0.01, 0.003)
    *_, gp0, _, smaller = terms0
    for s_row, damps in ((smaller, damped), (not smaller, damped), (smaller, (1.0,))):
        # the residual at the start, on this branch: only C and the centre row change
        h, v, C, s = h0, v0, float(v0 @ ival), (0.5 - h0[-1]) ** 2
        F = F0.copy()
        F[:K] = ival - C
        F[-2] = _centre_row(spec, h0, gp0, s_row)[0]
        terms = (*terms0[:-1], s_row)
        info = _information(v, ival)
        seen = []
        for _ in range(max_iter):
            seen.append(fn := float(np.abs(F).max()))
            if fn <= tol or len(seen) > 10 and fn > 0.5 * seen[-11]:
                break
            J = _kkt_system(spec, h, v, terms)
            try:
                step = np.linalg.solve(J, -F)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(J, -F, rcond=None)[0]
            mid = 0.5 * (h[:-1] + h[1:])
            for damp in damps:
                nv = v + damp * step[:K]
                nh = h.copy()
                nh[1:-1] = np.clip(h[1:-1] + damp * step[K:2 * K - 2], mid[:-1], mid[1:])
                ns = min(max(s + damp * step[-2], 0.0), (0.5 - mid[-1]) ** 2)
                nh[-1] = 0.5 - math.sqrt(ns)
                nC = C + damp * step[-1]
                F2, ival2, terms2 = _kkt_residual(spec, nh, nv, nC, s_row)
                if F2 is None:
                    continue
                info2 = _information(nv, ival2)
                if np.abs(F2).max() < fn or info2 > info or len(damps) == 1:
                    break
            else:
                break
            h, v, s, C, F, terms, info = nh, nv, ns, nC, F2, terms2, info2
        # the residual at (h, v, C) on the smaller centre branch
        *_, gp, _, _ = terms
        F[-2] = _centre_row(spec, h, gp, None)[0]
        fn = float(np.abs(F).max())
        if best is None or fn < best[2]:
            best = h, v, fn
        if fn <= 1e-10:
            break
    h, v, fn = best
    status = "stall" if fn > 1e-10 else "ok" if np.all(v > 0) else "neg"
    return h, v, status, fn


def _ascend_information(spec: ChannelSpec, h: np.ndarray, v: np.ndarray):
    """Directly maximize I over orbit positions and masses (L-BFGS-B).

    Monotone where the Newton system is singular, near support-splitting
    transitions.  Masses enter as v >= 0, normalized, so a light orbit's
    gradient i(h) - I does not vanish with its mass; the atoms of h_int move
    as h = sigmoid(z), z <= 0, and the centre orbit by n s >= 0.
    """
    K, n = len(h), spec.n

    def unpack(z):
        x = h.copy()
        x[1:-1] = 1.0 / (1.0 + np.exp(-z[K:-1]))
        x[-1] = 0.5 - math.sqrt(z[-1] / n)
        return z[:K] / z[:K].sum(), x

    def neg_info(z):
        w, x = unpack(z)
        logP = log_pmf_matrix(spec, x)
        P = np.exp(logP)
        logq = np.log(np.maximum(w @ _mirror_mix(P), _TINY_Q))
        ival, _, ip = _info_terms(spec, x, logP, P, logq, np.arange(1, K), second=False)
        d = 0.5 - x[-1]
        gp = -ip[-1] / (2.0 * d) if d > 0.0 else \
            _centre_terms(spec, P[-1], logP[-1] - logq)[1]
        I = float(w @ ival)
        xi = x[1:-1]
        return -I, -np.concatenate([(ival - I) / z[:K].sum(),
                                    w[1:-1] * ip[:-1] * xi * (1.0 - xi), [w[-1] * gp / n]])

    hi = h[1:-1]
    z0 = np.concatenate([v, np.log(hi / (1.0 - hi)), [n * (0.5 - h[-1]) ** 2]])
    res = minimize(neg_info, z0, jac=True, method="L-BFGS-B",
                   bounds=[(0.0, None)] * K + [(None, 0.0)] * len(hi) + [(0.0, None)],
                   options=dict(maxiter=20000, maxfun=40000, ftol=1e-18, gtol=1e-14,
                                maxcor=100))
    w, x = unpack(res.x)
    order = np.argsort(x)
    return x[order], w[order]


def _clean_structure(h, v, drop_w: float):
    """Prune near-dead orbits (never the endpoint one) and merge collisions."""
    keep = v > drop_w
    keep[0] = True
    nh, nv = _merge_half(h[keep], v[keep], _MERGE_RADIUS)
    # snapping an atom onto 1/2 alone is no change of structure
    return nh, nv, len(nh) != len(h)


def _polish(spec: ChannelSpec, h: np.ndarray, v: np.ndarray):
    """Fixed-structure solve: Newton, the ascent where it stalls, Newton
    again; an orbit whose Newton mass goes negative is dropped.  Newton
    splits or merges the centre by itself (the centre orbit's s), so the
    ascent only has to bring a stalled start within its reach.
    """
    nh, nv, status, fn = _kkt_newton(spec, h, v)
    for _ in range(12):
        if status == "ok":
            return nh, nv / nv.sum()
        if status == "neg":
            j = int(np.argmin(nv))
            if j == 0:
                break
            log.debug("polish: dropping atom %.6f (mass %.2e)", nh[j], nv[j])
            h, v = np.delete(nh, j), np.maximum(np.delete(nv, j), _PRUNE_WEIGHT)
            v = v / v.sum()
        else:
            log.debug("polish: Newton stalled (residual %.1e); direct ascent", fn)
            h, v = _ascend_information(spec, h, v)
            h, v, changed = _clean_structure(h, v, drop_w=1e-7)
            if not changed:
                nh, nv, status, fn = _kkt_newton(spec, h, v)
                return (nh, nv / nv.sum()) if status == "ok" else (h, v)
        nh, nv, status, fn = _kkt_newton(spec, h, v)
    return h, v


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

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
    bisection, the bracket shrinking by the sign of i'.  `best` holds i at
    x; returns the point of each bracket with the largest i evaluated, and
    that i.  Overwrites x, lo, hi and best.

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
        nx = np.where(newton, nx, 0.5 * (lo[todo] + hi[todo]))
        x[todo] = nx
        todo = todo[np.abs(nx - xt) > 1e-12]
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
    if not tol > 0.0:
        raise ValueError(f"KKT tolerance must be positive, got {tol}")
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

    pts, wts = dist.points, dist.weights
    sym_defect = 0.0
    for xk, wk in zip(pts, wts):
        j = int(np.argmin(np.abs(pts - (1.0 - xk))))
        if abs(pts[j] - (1.0 - xk)) > 1e-9:
            sym_defect = max(sym_defect, wk)
        else:
            sym_defect = max(sym_defect, abs(wk - wts[j]))

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
    summary = KktSummary(
        capacity_nats=cap,
        slack=slack,
        equality_defect=defect,
        active_set=active,
        symmetry_defect=sym_defect,
        flags=flags,
        grid_points=len(xs),
    )
    return summary, peak_x, peak_i, logq


def kkt_verify(report: SolveReport, spec: ChannelSpec, tol: float = 1e-8) -> KktSummary:
    """Re-certify a solve report (or any user distribution wrapped in one).

    Recomputes the information density and its peaks, and re-derives
    capacity, slack, equality defect, the active set, and all structural
    flags.
    """
    return _certify(report.input, spec, tol)[0]


def report_for_distribution(dist: DiscreteInput, spec: ChannelSpec, tol: float = 1e-8,
                            iterations: int = 0, converged: bool | None = None) -> SolveReport:
    """Build a SolveReport around an externally supplied distribution."""
    summary, _, _, logq = _certify(dist, spec, tol)
    ok = _certified(summary, tol) if converged is None else converged
    return _report(spec, dist, summary, logq, iterations, ok)


def _report(spec: ChannelSpec, dist: DiscreteInput, summary: KktSummary, logq: np.ndarray,
            iterations: int, converged: bool) -> SolveReport:
    """SolveReport of a distribution from its certification summary and its
    log output pmf."""
    flags = dict(summary.flags)
    flags["equality_defect"] = summary.equality_defect
    flags["symmetry_defect"] = summary.symmetry_defect
    flags["active_set_size"] = len(summary.active_set)
    return SolveReport(
        input=dist,
        output=OutputPmf(np.exp(logq), spec.n),
        capacity_nats=summary.capacity_nats,
        kkt_slack=summary.slack,
        equality_defect=summary.equality_defect,
        support_size=len(dist),
        active_set_estimate=summary.active_set,
        iterations=iterations,
        converged=converged,
        flags=flags,
        n=spec.n,
    )


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------

def solve_capacity(spec: ChannelSpec, config: SolverConfig | None = None) -> SolveReport:
    """Compute the capacity and the capacity-achieving input distribution.

    Alternates weight optimization (Blahut-Arimoto) with support refinement
    until the certification (`_certify`) shows both KKT conditions holding to
    config.kkt_tol; an escape atom goes in at the largest peak of the
    information density that still exceeds the capacity estimate.  The solve
    state is a half support (module docstring); it becomes an input on
    [0, 1] only for certification and the report.  For n = 1 the known
    two-point solution is returned.
    """
    return _solve(spec, config or SolverConfig())[0]


def sweep_capacity(n_max: int, config: SolverConfig | None = None):
    """Yield the SolveReport of every n = 1..n_max.  The support moves
    continuously in n between structural events, so the half support
    certified at n - 1 is polished and certified at n (iterations=1).  Where
    that does not certify, an escape atom goes in as in an outer iteration
    of the cold solve and the polish runs once more (iterations=2), which
    crosses the birth of a centre atom.  Where that does not certify either,
    for n <= 2 and after an uncertified n, the report is solve_capacity's."""
    config = config or SolverConfig()
    tol = config.kkt_tol
    half = None
    for n in range(1, n_max + 1):
        spec = ChannelSpec(n)
        if half is not None:
            step, iterations = _polish_certify(spec, *half, tol), 1
            grown = None if _certified(step[3], tol) else _with_escape_atom(step, tol)
            if grown is not None:
                step, iterations = _polish_certify(spec, *grown, tol), 2
            h, v, dist, summary, _, _, logq = step
            if _certified(summary, tol):
                half = h, v
                yield _report(spec, dist, summary, logq, iterations, converged=True)
                continue
        report, half = _solve(spec, config)
        yield report


def _certified(summary: KktSummary, tol: float) -> bool:
    """The gate of a certified solve: both KKT conditions hold to tol."""
    return summary.slack <= tol and summary.equality_defect <= tol


def _polish_certify(spec: ChannelSpec, h: np.ndarray, v: np.ndarray, tol: float):
    """The tail of an outer iteration: polish the half support, clean its
    structure and certify its input.  Returns (h, v, input, summary, peak_x,
    peak_i, log q)."""
    h, v = _polish(spec, h, v)
    h, v, _ = _clean_structure(h, v, drop_w=_PRUNE_WEIGHT)
    dist = _full_input(h, v)
    return (h, v, dist, *_certify(dist, spec, tol))


def _with_escape_atom(step, tol: float):
    """The half support of a `_polish_certify` step with an atom of mass 1e-3
    at its escape candidate, or None where there is none."""
    h, v, dist, summary, peak_x, peak_i, _ = step
    new = _escape_candidates(peak_x, peak_i, summary.capacity_nats, dist.points, tol)
    if not len(new):
        return None
    return _merge_half(np.append(h, new), np.append(v, 1e-3), _MERGE_RADIUS)


def _solve(spec: ChannelSpec, config: SolverConfig):
    """solve_capacity, and the half support (h, v) it certified (None where
    it did not certify, and for n = 1)."""
    n = spec.n
    if n == 1:
        dist = DiscreteInput(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        return report_for_distribution(dist, spec, config.kkt_tol, iterations=0,
                                       converged=True), None

    h, v = _seed_support(spec)
    stall = 0
    for outer in range(1, config.max_outer_iters + 1):
        v2, lo, hi, _, D, _ = _ba_core(spec, h, _BA_TOL, max_iters=3000,
                                       defect_tol=config.kkt_tol / 2, orbits=True)
        drop = ((v2 < 1e-6) & (D < lo - 10 * max(hi - lo, config.kkt_tol))) \
            | (v2 < _PRUNE_WEIGHT)
        drop[0] = False
        h, v = h[~drop], v2[~drop] / v2[~drop].sum()

        step = _polish_certify(spec, h, v, config.kkt_tol)
        h, v, dist, summary, _, _, logq = step
        if _certified(summary, config.kkt_tol):
            return _report(spec, dist, summary, logq, outer, converged=True), (h, v)
        grown = _with_escape_atom(step, config.kkt_tol)
        stall = 0 if grown is not None else stall + 1
        if stall >= 5:
            break
        if grown is not None:
            h, v = grown

    log.warning("solve_capacity(n=%d): not certified after %d outer iterations "
                "(slack %.2e, defect %.2e): %s", n, outer, summary.slack,
                summary.equality_defect,
                "no peak away from the atoms for 5 outer iterations" if stall >= 5
                else "outer-iteration budget spent")
    return _report(spec, dist, summary, logq, outer, converged=False), None


def _escape_candidates(peak_x, peak_i, cap, pts, tol) -> np.ndarray:
    """Where the density still exceeds capacity: the next atom in [0, 1/2].

    i is even about 1/2, so the peaks in [0, 1/2] are all of them.  Takes
    the largest one more than tol above cap that is not a copy of one of the
    atoms pts on [0, 1]: where the polish ends off a Newton solution, the
    atoms' own bumps can top a peak that marks a missing atom.
    """
    radius = max(5 * _MERGE_RADIUS, 0.25 * float(np.diff(pts).min()))
    far = np.min(np.abs(peak_x[:, None] - pts[None, :]), axis=1) > radius
    s = np.where(far & (peak_x <= 0.5), peak_i - cap, -np.inf)
    return peak_x[[np.argmax(s)]] if s.max() > tol else np.array([])
