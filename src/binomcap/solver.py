"""Capacity solver: a seed at the optimum's edge gap, support refinement,
and KKT certification.

The capacity-achieving input is unique, hence mirror-symmetric, so the solve
state is a half support: atoms 0 = h_0 < ... <= 1/2 with one mass v per
orbit {h, 1 - h}.  As P(y | 1 - x) = P(n - y | x), an orbit's channel row is
the mean of P(.|h) and its reverse: one form for the endpoint orbit {0, 1},
interior pairs and a centre atom.  The solve works in three layers:

1. the gap law of certified supports seeds the solve: in phi = 2 arcsin
   sqrt(x), the edge gap pi / sqrt(n), then gaps that shrink as a power of
   their index, stretched to end at 1/2 at a centre atom or a pair; one
   Blahut-Arimoto update sets the masses of the two best such structures,
   and Newton (layer 2) runs from them before any ascent;
2. a damped semismooth Newton iteration on the optimality conditions
   polishes masses and positions; the last orbit sits at 1/2 - sqrt(s), so
   one regular unknown covers a centre atom (s = 0) and a pair, and Newton
   splits or merges the centre by itself; where Newton leaves the system
   unsolved or a mass nonpositive, a trust-region Newton ascent of I over
   the same unknowns, on the same derivatives, drops the orbits it leaves
   at mass 0 and brings Newton in range;
3. the half support becomes an input on [0, 1], and `certificate`
   certifies it: the information density on an arcsine grid, its peaks
   refined; where a peak still exceeds the capacity an atom is added
   there.

Layers 2 and 3 form the outer-iteration loop, `_refine`.  `sweep_capacity`
is the same solve with one more start: the half support certified at n - 1,
taken ahead of the seeds with two outer iterations.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .certificate import KKT_TOL, SolveReport, _certify, _report, report_for_distribution
from .distributions import DiscreteInput, _info_terms
from .kernel import ChannelSpec, check_count, check_tol, floored_exp, log_pmf_matrix

log = logging.getLogger(__name__)

_TINY_Q = 1e-300
_DEAD_WEIGHT = 1e-40   # Blahut-Arimoto weight floor: no weight goes subnormal
_MERGE_RADIUS = 1e-4   # half-support atoms at most this far apart merge


@dataclass(frozen=True)
class SolverConfig:
    """The KKT slack and equality defect a solve must reach to certify, and
    its budget of outer iterations."""

    kkt_tol: float = KKT_TOL
    max_outer_iters: int = 200

    def __post_init__(self):
        check_tol(self.kkt_tol, "kkt_tol")
        check_count(self.max_outer_iters, "max_outer_iters")


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


# ---------------------------------------------------------------------------
# Blahut-Arimoto
# ---------------------------------------------------------------------------

def _mirror_mix(P: np.ndarray) -> np.ndarray:
    """Rows of the orbits {x, 1 - x} from the rows P(.|x): P(y | 1 - x) =
    P(n - y | x), so each is the mean of a row and its reverse."""
    return 0.5 * (P + P[:, ::-1])


def _ba_core(spec: ChannelSpec, xs: np.ndarray, tol: float, max_iters: int,
             orbits: bool = False):
    """Plain BA update w <- w exp(D - max D), renormalised and floored at
    1e-40 so that no weight goes subnormal (which slows a fine grid to a
    crawl; a solver support never nears the floor).  Stops once max D - w.D
    <= tol.  At the cap, w is one update past the iterate that capacity_low
    and capacity_high describe.

    With orbits=True each x in [0, 1/2] stands for its orbit {x, 1 - x},
    starting from the orbit sums of a uniform start on the points of [0, 1].
    Returns (w, capacity_low, capacity_high, iterations, converged).
    """
    xs = np.asarray(xs, dtype=float)
    logP = log_pmf_matrix(spec, xs)
    P = floored_exp(logP)
    rowH = _info_terms(spec, xs, logP, P, 0.0)
    if orbits:
        P = _mirror_mix(P)
    w = np.where(xs == 0.5, 1.0, 2.0) if orbits else np.ones(len(xs))
    w /= w.sum()
    for it in range(1, max_iters + 1):
        D = rowH - P @ np.log(np.maximum(w @ P, _TINY_Q))
        lo = float(w @ D)
        hi = float(D.max())
        if hi - lo <= tol:
            return w, lo, hi, it, True
        w = np.maximum(w * np.exp(D - hi), _DEAD_WEIGHT)
        w /= w.sum()
    return w, lo, hi, max_iters, False


def blahut_arimoto(spec: ChannelSpec, grid, tol: float,
                   max_iters: int = 200_000) -> BAResult:
    """Optimize input weights on a fixed support by Blahut-Arimoto.

    Stops when the standard duality sandwich max_k D_k - sum_k w_k D_k closes
    below tol.  On hitting the iteration cap it returns converged=False with
    the sandwich of the last iterate checked and the weights one update past
    that iterate.
    """
    grid = np.asarray(grid, dtype=float)
    # NaN fails each comparison
    if not (len(grid) >= 2 and np.all(np.diff(grid) > 0) and 0 <= grid[0] and grid[-1] <= 1):
        raise ValueError("support grid must be two or more finite points, strictly "
                         "increasing within [0, 1]")
    check_tol(tol, "tol")
    check_count(max_iters, "max_iters")
    return BAResult(*_ba_core(spec, grid, tol, max_iters))


# ---------------------------------------------------------------------------
# half supports: atoms 0 = h_0 < ... <= 1/2, one mass per orbit {h, 1 - h}
# ---------------------------------------------------------------------------

def _merge_half(h: np.ndarray, v: np.ndarray):
    """Greedy left-to-right merge of the sorted half-support atoms at most
    _MERGE_RADIUS apart: the first atom stays on 0, others that near 1/2 snap
    onto it; renormalized."""
    order = np.argsort(h, kind="stable")
    out_h, out_v = [h[order[0]]], [v[order[0]]]
    for p, w in zip(h[order[1:]], v[order[1:]]):
        if p - out_h[-1] <= _MERGE_RADIUS:
            tw = out_v[-1] + w
            out_h[-1] = (out_h[-1] * out_v[-1] + p * w) / tw
            out_v[-1] = tw
        else:
            out_h.append(p)
            out_v.append(w)
    h, v = np.asarray(out_h), np.asarray(out_v)
    h[0] = 0.0
    h[1:][0.5 - h[1:] <= _MERGE_RADIUS] = 0.5
    return h, v / v.sum()


def _full_input(h: np.ndarray, v: np.ndarray) -> DiscreteInput:
    """The input on [0, 1] of a half support: each pair {h, 1 - h} splits
    its orbit's mass evenly, a centre atom keeps it whole."""
    pair = h < 0.5
    pts = np.concatenate([h, 1.0 - h[pair][::-1]])
    wts = np.concatenate([np.where(pair, 0.5 * v, v), 0.5 * v[pair][::-1]])
    return DiscreteInput(pts, wts / wts.sum())


def _seed_support(spec: ChannelSpec):
    """The atoms of the two best seed half supports, best first; their
    masses come in `_cold_starts`.  In phi sqrt(n), phi = 2 arcsin sqrt(x),
    the k-th gap of the certified half supports is the same at every n from
    50 to 300 (README, "Solver internals"): an edge layer over an arcsine
    bulk, as in Xie & Barron's modified Jeffreys prior.  A seed keeps the edge gap pi, then
    g_k = 2.24 (k / 2)^-0.283 (a fit over the Newton solutions of
    n = 100..300) stretched by one factor lambda to meet phi = pi / 2 at a
    centre atom or half-way across a pair; |log lambda| ranks them.  For
    n <= 4 the edge gap reaches pi / 2: the seed is {0, 1/2, 1}.
    """
    n = spec.n
    rest = 0.5 * math.pi * math.sqrt(n) - math.pi
    if rest <= 0.0:
        return [np.array([0.0, 0.5])]
    # g_2, g_3, ...: their sum passes 1.68 rest for every n up to 4096
    g = 2.24 * (np.arange(2, 2 * int(rest) + 6) / 2.0) ** -0.283
    ends = np.cumsum(g)
    # run lengths to phi = pi / 2: a pair half-way across gap j + 2, then
    # a centre atom at its end, for j = 0, 1, ...
    runs = np.column_stack([ends - 0.5 * g, ends]).ravel()
    seeds = []
    for r in np.argsort(np.abs(np.log(runs / rest)), kind="stable")[:2]:
        j, centre = divmod(int(r), 2)
        u = np.concatenate([[0.0, math.pi], math.pi + rest / runs[r] * ends[:j + centre]])
        h = np.sin(0.5 * u / math.sqrt(n)) ** 2
        if centre:
            h[-1] = 0.5
        seeds.append(h)
    return seeds


# ---------------------------------------------------------------------------
# joint optimality-system Newton on the half support (internal)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _centre_polys(n: int) -> np.ndarray:
    """Rows t, P''/P, P'''/P, P''''/P of P(y|1/2), t = d log P/dx = 4y - 2n,
    t' = -4n, t'' = 8t, t''' = -96n; cached per n, read-only.  Integers of at
    most 16 n^4 <= 2^52 for n <= 4096, so exact in double."""
    t = 4 * np.arange(n + 1, dtype=np.int64) - 2 * n
    out = np.array([t, t * t - 4 * n, t ** 3 + (8 - 12 * n) * t,
                    t ** 4 + (32 - 24 * n) * t * t + 48 * n * n - 96 * n], dtype=float)
    out.setflags(write=False)
    return out


def _centre_terms(spec: ChannelSpec, P: np.ndarray, d: np.ndarray):
    """(dR/ds, g', g'') of the centre orbit at s = 0, from P = P(.|1/2) and
    d = log P - log q: R_s = P''/2, g' = i''/2 and g'' = i''''/12."""
    polys = _centre_polys(spec.n)
    t = polys[0]
    Pt, Ppp, P3, P4 = P * polys
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
    `s_row` fixes the branch of the centre row (None: the smaller one).  The
    endpoint orbit h_0 = 0 has the row e_0 and i = -log q(0).  Returns
    (F, i(h_k), terms), where terms feed the Jacobian, or (None, None, None)
    when some output is starved of probability.
    """
    K = len(h)
    logP = log_pmf_matrix(spec, h[1:])
    P = np.zeros((K, spec.n + 1))
    P[0, 0] = 1.0
    floored_exp(logP, out=P[1:])
    R = _mirror_mix(P)
    q = v @ R
    if np.any(q <= 0.0):
        return None, None, None
    logq = np.log(q)
    ival = np.empty(K)
    ival[0] = -logq[0]
    ival[1:], Pp, ip, ipp = _info_terms(spec, h[1:], logP, P[1:], logq, np.arange(K - 1))
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


def _rows_dot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B.T.  From m n k = 2^18 OpenBLAS splits a product over threads,
    and a split through a kernel tile or a k block changes its rounding; k
    blocks of 128 on rows padded to a multiple of 16 keep every split out."""
    (m, k), K = A.shape, len(B)
    if m * K * k < 1 << 18:
        return A @ B.T
    a, b = np.zeros((-(-m // 16) * 16, 128)), np.zeros((-(-K // 16) * 16, 128))
    out = np.zeros((len(a), len(b)))
    for j in range(0, k, 128):
        w = min(128, k - j)
        a[:m, :w], b[:K, :w] = A[:, j:j + w], B[:, j:j + w]
        out += a[:, :w] @ b[:, :w].T
    return out[:m, :K]


def _kkt_system(spec: ChannelSpec, h: np.ndarray, v: np.ndarray, terms) -> np.ndarray:
    """Jacobian of the stationarity system in (v, h_int, s, C).

    `terms` are the ones `_kkt_residual` returned at (h, v).  Masses enter
    linearly.  An atom of h_int moves q through its orbit's row,
    R' = dR/dh, and s through the centre orbit's, R_s = dR/ds.
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
    J[:K, :K] = -_rows_dot(P, Rq)
    J[:K, K:K + m] = -_rows_dot(P, Rpq) * vi
    J[1 + np.arange(m), diag] += ip
    J[:K, K + m] = -(P @ Rsq) * vc
    J[K - 1, K + m] += gp
    J[:K, K + m + 1] = -1.0
    J[K:K + m, :K] = -_rows_dot(Pp, Rq)
    J[K:K + m, K:K + m] = -_rows_dot(Pp, Rpq) * vi
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


def _kkt_newton(spec: ChannelSpec, h0: np.ndarray, v0: np.ndarray):
    """Damped semismooth Newton on the stationarity system.

    Returns (h, v, status, residual): 'ok' (residual at most 1e-10, all
    masses positive) or 'stall' (anything else).  The atoms of h_int stay
    between the midpoints to their neighbours, the centre orbit between that
    midpoint and 1/2.  A run keeps the centre row's branch that its start
    selects and takes a damped step if it lowers the largest residual or
    raises I; it stops below 1e-13, once ten steps have not halved the
    residual, or at its rounding floor: one step from at most 1e-10 that does
    not halve it.  A run ends at its lowest-residual iterate; if that leaves
    the system unsolved (above 1e-10), a second run takes the other branch.
    """
    K = len(h0)
    if K < 2:
        return h0.copy(), v0.copy(), "ok", 0.0
    F0, ival, terms0 = _kkt_residual(spec, h0, v0, 0.0)
    if F0 is None:
        return h0.copy(), v0.copy(), "stall", np.inf
    best = None
    *_, gp0, _, smaller = terms0
    for s_row in (smaller, not smaller):
        # the residual at the start, on this branch: only C and the centre row change
        h, v, C, s = h0, v0, float(v0 @ ival), (0.5 - h0[-1]) ** 2
        F = F0.copy()
        F[:K] = ival - C
        F[-2] = _centre_row(spec, h0, gp0, s_row)[0]
        terms = (*terms0[:-1], s_row)
        info = _information(v, ival)
        seen, low = [], None
        for _ in range(60):
            seen.append(fn := float(np.abs(F).max()))
            if low is None or fn < low[0]:
                low = fn, h, v, F, terms
            if (fn <= 1e-13 or len(seen) > 10 and fn > 0.5 * seen[-11]
                    or len(seen) > 1 and seen[-2] <= 1e-10 and fn > 0.5 * seen[-2]):
                break
            J = _kkt_system(spec, h, v, terms)
            try:
                step = np.linalg.solve(J, -F)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(J, -F, rcond=None)[0]
            mid = 0.5 * (h[:-1] + h[1:])
            for damp in (1.0, 0.5, 0.25, 0.1, 0.03, 0.01, 0.003):
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
                if np.abs(F2).max() < fn or info2 > info:
                    break
            else:
                break
            h, v, s, C, F, terms, info = nh, nv, ns, nC, F2, terms2, info2
        # the residual at the run's lowest-residual iterate on the smaller centre branch
        _, h, v, F, terms = low
        *_, gp, _, _ = terms
        F[-2] = _centre_row(spec, h, gp, None)[0]
        fn = float(np.abs(F).max())
        if best is None or fn < best[2]:
            best = h, v, fn
        if fn <= 1e-10:
            break
    h, v, fn = best
    status = "ok" if fn <= 1e-10 and np.all(v > 0) else "stall"
    return h, v, status, fn


def _ascent_model(spec: ChannelSpec, h: np.ndarray, v: np.ndarray, residual=None):
    """(I, gradient, Hessian) of I(X; Y) over z = (v, h_int, s) at a half
    support with sum(v) = 1, or None where some output is starved.

    The gradient is (i(h_k), v_j i'(h_j), v_c g'(s)): the -1 of each mass is
    constant on sum(v) = 1.  The Hessian is `_kkt_system`'s Jacobian of
    (i - C, i', -g') at s_row=False less its C column and normalization row,
    with the rows of i' scaled by v_j and the centre row by -v_c, plus the
    product-rule terms i'(h_j) at (h_j, v_j) and g' at (s, v_c).  `residual`
    is `_kkt_residual(spec, h, v, 0.0, s_row=False)` where the caller has it.
    """
    _, ival, terms = residual or _kkt_residual(spec, h, v, 0.0, s_row=False)
    if ival is None:
        return None
    K = len(h)
    H = _kkt_system(spec, h, v, terms)[:-1, :-1]
    H[K:-1] *= v[1:-1, None]
    H[-1] *= -v[-1]
    H[K + np.arange(K - 2), 1 + np.arange(K - 2)] += terms[4]
    H[-1, K - 1] += terms[7]
    return float(v @ ival), _ascent_gradient(v, ival, terms), 0.5 * (H + H.T)


def _ascent_gradient(v: np.ndarray, ival: np.ndarray, terms) -> np.ndarray:
    """`_ascent_model`'s gradient from `_kkt_residual`'s i(h_k) and terms."""
    return np.concatenate([ival, v[1:-1] * terms[4], [v[-1] * terms[7]]])


def _model_eigen(g: np.ndarray, H: np.ndarray):
    """(lam, Q, Q^T g) with -H = Q diag(lam) Q^T, for `_trust_region_step`."""
    lam, Q = np.linalg.eigh(-H)
    return lam, Q, Q.T @ g


def _trust_region_step(eig, radius: float):
    """Maximizer p of the model g.p + p.H.p / 2 over |p| <= radius, from
    its `_model_eigen(g, H)`, which serves every radius (Moré & Sorensen
    1983).  Returns (p, model gain, whether p is on the boundary).  In the
    hard case, g orthogonal to the eigenvectors of the largest eigenvalue of
    H, p stops inside the ball, an ascent step all the same."""
    lam, Q, a = eig
    if not np.any(a):
        return np.zeros_like(a), 0.0, False
    if lam[0] > 0.0 and np.sum((a / lam) ** 2) <= radius ** 2:
        p, boundary = a / lam, False
    else:
        # |a / (shift + t)| = radius for a shift t > 0 past max(0, -lam_0),
        # by safeguarded Newton on 1 / |p(t)|, which is concave and increasing
        shift = lam + max(0.0, -lam[0])
        t_lo, t_hi = 0.0, math.sqrt(a @ a) / radius
        t = t_hi
        for _ in range(60):
            p = a / (shift + t)
            norm = math.sqrt(p @ p)
            if abs(norm - radius) <= 1e-6 * radius:
                break
            if norm > radius:
                t_lo = t
            else:
                t_hi = t
            t += (norm / radius - 1.0) * norm ** 2 / float(np.sum(p * p / (shift + t)))
            if not t_lo < t < t_hi:
                t = 0.5 * (t_lo + t_hi)
        boundary = True
    return Q @ p, float(a @ p - 0.5 * (lam * p) @ p), boundary


@lru_cache(maxsize=64)
def _sum_zero_basis(k: int) -> np.ndarray:
    """Orthonormal basis (k x (k - 1)) of the vectors of R^k that sum to 0:
    the columns 2..k of the Householder reflection that maps e_1 onto the
    unit vector of ones; cached per k, read-only."""
    if k < 2:
        out = np.zeros((k, 0))
    else:
        w = np.full(k, 1.0 / math.sqrt(k))
        w[0] -= 1.0
        out = (np.eye(k) - 2.0 * np.outer(w, w) / (w @ w))[:, 1:]
    out.setflags(write=False)
    return out


def _hold(held: np.ndarray, stops: np.ndarray, K: int):
    """Hold the variables `stops` of z = (v, h_int, s) at their bound 0, and
    the atom of each mass among them."""
    held[stops] = True
    masses = stops[stops < K]
    held[K - 1 + masses[(masses >= 1) & (masses <= K - 2)]] = True
    held[-1] |= K - 1 in masses


def _ascend_information(spec: ChannelSpec, h: np.ndarray, v: np.ndarray, tol: float = 1e-20):
    """Directly maximize I over the masses v, the atoms h_int and the centre
    orbit's s, by a trust-region Newton ascent on `_ascent_model`.

    Monotone where the Newton system is singular, near support-splitting
    transitions.  sum(v) = 1 is kept on an orthonormal null-space basis; the
    steps are scaled by 1 for v, the kernel width sqrt(h(1 - h)/n) for h and
    1/n for s.  A step that would take a mass or s below 0 stops at the bound
    and holds that variable there (a held mass also holds its atom).  The
    reduced model and its eigendecomposition serve every radius tried until
    a step is taken or the held set changes.  Once the held problem has
    converged (predicted gain at most tol max(1, I); the default 1e-20 is an
    equality defect of about 1e-10, below the 1e-16 rounding of I: steps of
    gains below 1e-12 are judged on the gradients), the held variables whose
    multipliers point inwards are released: a mass whose i exceeds the mean
    i of the free orbits, s where g' > 0.  Returns `_merge_half` of the half
    support less the orbits left at mass 0 (the endpoint orbit always
    stays), or of the start where it starves an output.
    """
    K, n = len(h), spec.n
    h, v = h.copy(), v / v.sum()
    s = (0.5 - h[-1]) ** 2
    model = _ascent_model(spec, h, v)
    if model is None:
        return _merge_half(h, v)
    info, g, H = model
    # held: masses (and the atoms of h_int and s with them) and s at 0
    held = np.concatenate([v <= 0.0, v[1:-1] <= 0.0, [v[-1] <= 0.0 or s <= 0.0]])
    radius, moved, eig = 1.0, True, None
    for _ in range(1000):
        if eig is None:
            # the reduced model, kept until a step is taken or `held` changes
            free = np.flatnonzero(~held)
            fv = free[free < K]
            scale = np.concatenate([np.ones(K), np.sqrt(h[1:-1] * (1.0 - h[1:-1]) / n), [1.0 / n]])
            M = np.zeros((len(free), len(free) - 1))
            M[:len(fv), :len(fv) - 1] = _sum_zero_basis(len(fv))
            M[len(fv):, len(fv) - 1:] = np.eye(len(free) - len(fv))
            M *= scale[free, None]
            Hf = H[np.ix_(free, free)]
            eig = _model_eigen(M.T @ g[free], M.T @ Hf @ M)
        p, gain, boundary = _trust_region_step(eig, radius)
        if gain <= tol * max(1.0, info):
            # the held problem has converged: release the bound variables
            # whose multipliers point inwards, unless the last release led
            # nowhere
            ib = g[fv].mean()
            wants = held & np.concatenate([g[:K] > ib, g[1:K - 1] > ib,
                                           [g[-1] > 0.0 if v[-1] > 0.0 else g[K - 1] > ib]])
            if not moved or not np.any(wants):
                break
            held &= ~wants
            radius, moved, eig = 1.0, False, None
            continue
        dz = M @ p
        z = np.concatenate([v, h[1:-1], [s]])
        bounded = np.flatnonzero((free < K) | (free == 2 * K - 2))
        down = bounded[dz[bounded] < 0.0]
        ratio = -z[free[down]] / dz[down]
        alpha = min(1.0, float(ratio.min())) if len(down) else 1.0
        stops = free[down[ratio <= alpha]] if alpha < 1.0 else np.array([], dtype=int)
        if alpha <= 0.0:
            _hold(held, stops, K)
            eig = None
            continue
        z[free] += alpha * dz
        z[stops] = 0.0
        nv, nh, ns = z[:K] / z[:K].sum(), h.copy(), z[-1]
        nh[1:-1] = z[K:-1]
        nh[-1] = 0.5 - math.sqrt(ns)
        pred = alpha * (g[free] @ dz) + 0.5 * alpha ** 2 * (dz @ Hf @ dz)
        residual = None
        if np.all((nh[1:] > 0.0) & (nh[1:] <= 0.5)):
            residual = _kkt_residual(spec, nh, nv, 0.0, s_row=False)
        if residual is None or residual[0] is None:
            rho = -np.inf
        elif pred > 1e-12 * max(1.0, info):
            rho = (float(nv @ residual[1]) - info) / pred
        else:
            # a gain this small drowns in the rounding of I: take it as the
            # trapezoid rule on the gradients, exact for a quadratic
            delta = np.concatenate([nv - v, nh[1:-1] - h[1:-1], [ns - s]])
            rho = 0.5 * float((g + _ascent_gradient(nv, *residual[1:])) @ delta) / pred
        step = alpha * math.sqrt(p @ p)
        if rho < 0.25:
            radius = 0.25 * step
        elif rho > 0.75 and boundary and alpha == 1.0:
            radius *= 2.0
        if rho > 0.0:
            h, v, s = nh, nv, ns
            info, g, H = _ascent_model(spec, h, v, residual)
            _hold(held, stops, K)
            moved, eig = True, None
    keep = v > 0.0
    keep[0] = True
    return _merge_half(h[keep], v[keep])


def _polish(spec: ChannelSpec, h: np.ndarray, v: np.ndarray):
    """Fixed-structure solve: Newton; where it does not end 'ok', one
    trust-region ascent of I, which drops the orbits it leaves at mass 0,
    and Newton again from the ascent's answer.  Returns Newton's answer
    where it solved, else the ascent's.  Newton splits or merges the centre
    by itself (the centre orbit's s), so the ascent only has to bring a
    stalled start within its reach.
    """
    nh, nv, status, fn = _kkt_newton(spec, h, v)
    if status != "ok":
        log.debug("polish: Newton stalled (residual %.1e); direct ascent", fn)
        h, v = _ascend_information(spec, h, v)
        nh, nv, status, _ = _kkt_newton(spec, h, v)
    return (nh, nv / nv.sum()) if status == "ok" else (h, v)


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------

def solve_capacity(spec: ChannelSpec, config: SolverConfig | None = None) -> SolveReport:
    """Compute the capacity and the capacity-achieving input distribution.

    `_refine` runs from each of `_cold_starts` in turn: an outer iteration
    polishes the half support (`_polish`) and certifies it (`_certify`) to
    config.kkt_tol, else adds an escape atom at the largest peak of the
    information density above the capacity estimate.  The solve stops at
    the first start certified with slack and equality defect at most
    config.kkt_tol / 100, else reports the first one certified.
    config.max_outer_iters bounds the outer iterations of all starts
    together; report.iterations is the reported iterate's number in that
    count.  For n = 1 the known two-point solution is returned.
    """
    return _solve(spec, config or SolverConfig())[0]


def sweep_capacity(n_max: int, config: SolverConfig | None = None):
    """Yield the SolveReport of every n = 1..n_max: `_solve` at n with the
    half support certified at n - 1 as its first start, where there is one.
    An n_max out of ChannelSpec's range raises before the first solve."""
    ChannelSpec(n_max)
    config = config or SolverConfig()
    half = None
    for n in range(1, n_max + 1):
        report, half = _solve(ChannelSpec(n), config, half)
        yield report


def _refine(spec: ChannelSpec, h: np.ndarray, v: np.ndarray, tol: float, outers: range):
    """The outer-iteration loop: polish the half support, certify its input
    and, where that does not certify, add an atom of mass 1e-3 at the escape
    candidate and go round again, numbering the outer iterations by outers.
    Returns (report, (h, v)) of the first certified iterate, or (report of
    the last iterate, None) once outers run out or no escape candidate is
    left."""
    for outer in outers:
        h, v = _merge_half(*_polish(spec, h, v))
        dist = _full_input(h, v)
        summary, peak_x, peak_i, logq = _certify(dist, spec, tol)
        if summary.flags["kkt_equality"]:
            return _report(dist, summary, logq, outer, converged=True), (h, v)
        new = _escape_candidates(peak_x, peak_i, summary.capacity_nats, dist.points, tol)
        if not len(new):
            break
        h, v = _merge_half(np.append(h, new), np.append(v, 1e-3))
    return _report(dist, summary, logq, outer, converged=False), None


def _cold_starts(spec: ChannelSpec):
    """A cold solve's starts: Newton's solution from each `_seed_support`
    seed where it reaches one, then the loose ascent of I from the others.
    A seed's masses are one Blahut-Arimoto update, taken when it is reached."""
    stalled = []
    for h in _seed_support(spec):
        v = _ba_core(spec, h, -np.inf, max_iters=1, orbits=True)[0]
        nh, nv, status, _ = _kkt_newton(spec, h, v)
        if status == "ok":
            yield nh, nv
        else:
            stalled.append((h, v))
    for h, v in stalled:
        # loose: Newton follows, and `_polish` ascends in full where it stalls
        yield _ascend_information(spec, h, v, tol=1e-10)


def _solve(spec: ChannelSpec, config: SolverConfig, carried=None):
    """solve_capacity, and the half support (h, v) it certified (None where
    it did not certify, and for n = 1).  A carried half support, the one
    certified at n - 1 in a sweep, is the first start, with two of the
    config.max_outer_iters outer iterations: the first polishes and
    certifies it, the second adds the escape atom, which crosses the birth
    of a centre atom.  Unless it settles, the cold starts follow, numbered
    on in the same count."""
    n = spec.n
    if n == 1:
        dist = DiscreteInput(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        return report_for_distribution(dist, spec, config.kkt_tol), None

    budget, spent, kept = config.max_outer_iters, 0, None
    last = min(2, budget) if carried else budget
    for h, v in itertools.chain([carried] if carried else [], _cold_starts(spec)):
        report, half = _refine(spec, h, v, config.kkt_tol, range(spent + 1, last + 1))
        spent, last = report.iterations, budget
        # within kkt_tol / 100, 1e-10 by default: the level of Newton solutions,
        # below every certified start that a later start bettered
        settled = half is not None and (max(report.kkt_slack, report.equality_defect)
                                        <= 0.01 * config.kkt_tol)
        if half is not None and kept is None or settled:
            kept = report, half
        if settled or spent == budget:
            break
    report, half = kept or (report, half)
    if half is None:
        log.warning("solve_capacity(n=%d): not certified after %d outer iterations "
                    "(slack %.2e, defect %.2e): %s", n, report.iterations, report.kkt_slack,
                    report.equality_defect,
                    "outer-iteration budget spent" if report.iterations == budget
                    else "no peak away from the atoms")
    return report, half


def _escape_candidates(peak_x, peak_i, cap, pts, tol) -> np.ndarray:
    """Where the density still exceeds capacity: the next atom in [0, 1/2].

    i is even about 1/2, so each peak x stands for min(x, 1 - x) (peak
    refinement can end a hair past 1/2, as at n = 154).  Takes the largest
    one more than tol above cap that is not a copy of one of the
    atoms pts on [0, 1]: where the polish ends off a Newton solution, the
    atoms' own bumps can top a peak that marks a missing atom.
    """
    radius = max(5 * _MERGE_RADIUS, 0.25 * float(np.diff(pts).min()))
    x = np.minimum(peak_x, 1.0 - peak_x)
    far = np.min(np.abs(x[:, None] - pts[None, :]), axis=1) > radius
    s = np.where(far, peak_i - cap, -np.inf)
    return x[[np.argmax(s)]] if s.max() > tol else np.array([])
