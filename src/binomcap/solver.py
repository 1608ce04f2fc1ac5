"""Capacity solver: grid Blahut-Arimoto seeding, support refinement, and
KKT certification.

The solve pipeline works in three layers:

1. a coarse Blahut-Arimoto pass on a uniform grid locates the mass clusters
   of the optimizer (one seed atom per local maximum of the weight profile);
2. the support is polished to the exact optimality conditions: equal
   information density on all atoms, zero density derivative at interior
   atoms.  A damped Newton iteration on that square system (positions,
   weights, capacity) finishes at machine precision; when the structure is
   wrong the Newton weights go negative (atom must be dropped) or the
   iteration stalls near a support-splitting transition, in which case a
   direct quasi-Newton ascent of the mutual information sorts out which
   atoms survive;
3. a fine-grid sweep of the information density certifies the result
   (max slack and per-atom equality defect) and proposes escape atoms where
   the density still pokes above the capacity estimate.

Weights are always re-optimized by Blahut-Arimoto between structure moves,
and the support is kept exactly mirror-symmetric (fold to [0, 1/2], merge,
emit pairs), as the unique optimizer is.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize
from scipy.special import logsumexp

from .distributions import (
    DiscreteInput,
    OutputPmf,
    induce_output,
    log_output_pmf,
    _info_density_against_logq,
    _info_terms,
)
from .kernel import ChannelSpec, log_pmf_matrix

log = logging.getLogger(__name__)

_TINY_Q = 1e-300
_DEAD_WEIGHT = 1e-40


@dataclass(frozen=True)
class SolverConfig:
    """Tunable knobs of the capacity solver."""

    grid_size: int = 2049
    ba_tol: float = 1e-10
    kkt_tol: float = 1e-8
    merge_radius: float = 1e-4
    prune_weight: float = 1e-12
    max_outer_iters: int = 200

    def __post_init__(self):
        if self.grid_size < 3 or self.grid_size % 2 == 0:
            raise ValueError("grid_size must be odd and at least 3")
        for name in ("ba_tol", "kkt_tol", "merge_radius", "prune_weight"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be at least 1")


@dataclass(frozen=True)
class BAResult:
    """Blahut-Arimoto outcome with the certified capacity sandwich."""

    weights: np.ndarray
    capacity_low: float
    capacity_high: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class KktSummary:
    """Optimality certificate measured on a dense grid."""

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

def _ba_core(spec: ChannelSpec, xs: np.ndarray, tol: float, max_iters: int,
             defect_tol: float | None = None):
    """Multiplicative BA update with an active-set speedup.

    Points whose weight collapses below 1e-40 are frozen at zero; the
    capacity_high side of the sandwich is always re-checked against the full
    point set before stopping, and frozen points are revived if their
    information density climbs back above the active maximum.  The active
    rows of P, rowH and w are gathered once per change of the active set
    (freeze or revive) and scattered back into the full w only for the
    full-set check and on return.
    Returns (w, capacity_low, capacity_high, iterations, D_full, converged).
    """
    xs = np.asarray(xs, dtype=float)
    m = len(xs)
    logP = log_pmf_matrix(spec, xs)
    P = np.exp(logP)
    with np.errstate(invalid="ignore"):
        rowH = np.sum(np.where(P > 0, P * logP, 0.0), axis=1)
    del logP  # so that two gathered copies of P fit under the peak above
    idx = np.arange(m)
    Pa, Ha, wa = P, rowH, np.full(m, 1.0 / m)
    refresh = 200
    lo = 0.0
    for it in range(1, max_iters + 1):
        q = wa @ Pa
        logq = np.log(np.maximum(q, _TINY_Q))
        Da = Ha - Pa @ logq
        lo = float(wa @ Da)
        hi_a = float(Da.max())
        candidate = hi_a - lo <= tol
        if candidate or it % refresh == 0 or it == max_iters:
            w = np.zeros(m)
            w[idx] = wa
            D_full = rowH - P @ logq
            hi = float(D_full.max())
            revive = (w == 0.0) & (D_full > hi_a + 0.5 * tol)
            if revive.any():
                w[revive] = _DEAD_WEIGHT
                w /= w.sum()
                idx = np.flatnonzero(w)
                Pa, Ha, wa = P[idx], rowH[idx], w[idx]
                continue
            ok = hi - lo <= tol
            if ok and defect_tol is not None:
                sig = w >= 1e-9
                ok = float(np.abs(D_full[sig] - lo).max()) <= defect_tol
            if ok:
                return w, lo, hi, it, D_full, True
        wa = wa * np.exp(Da - hi_a)
        dead = wa < _DEAD_WEIGHT
        if dead.any():
            keep = ~dead
            idx, Pa, Ha, wa = idx[keep], Pa[keep], Ha[keep], wa[keep]
        wa /= wa.sum()
    w = np.zeros(m)
    w[idx] = wa
    D_full = rowH - P @ logq
    return w, lo, float(D_full.max()), max_iters, D_full, False


def blahut_arimoto(spec: ChannelSpec, grid, tol: float,
                   max_iters: int = 200_000) -> BAResult:
    """Optimize input weights on a fixed support by Blahut-Arimoto.

    Stops when the standard duality sandwich max_k D_k - sum_k w_k D_k closes
    below tol; on hitting the iteration cap the best iterate is returned with
    converged=False.
    """
    grid = np.asarray(grid, dtype=float)
    if len(grid) < 2:
        raise ValueError("support grid needs at least two points")
    if np.any(np.diff(grid) <= 0) or grid[0] < 0 or grid[-1] > 1:
        raise ValueError("support grid must be strictly increasing within [0, 1]")
    w, lo, hi, iters, _, converged = _ba_core(spec, grid, tol, max_iters)
    return BAResult(w, lo, hi, iters, converged)


# ---------------------------------------------------------------------------
# support manipulation helpers
# ---------------------------------------------------------------------------

def _merge_sorted(pts: np.ndarray, ws: np.ndarray, radius: float):
    """Greedy left-to-right merge of sorted atoms closer than radius."""
    out_p, out_w = [pts[0]], [ws[0]]
    for p, w in zip(pts[1:], ws[1:]):
        if p - out_p[-1] <= radius:
            tw = out_w[-1] + w
            out_p[-1] = (out_p[-1] * out_w[-1] + p * w) / tw
            out_w[-1] = tw
        else:
            out_p.append(p)
            out_w.append(w)
    return np.asarray(out_p), np.asarray(out_w)


def _fold_mirror(pts: np.ndarray, ws: np.ndarray, radius: float):
    """Exactly mirror-symmetric copy: fold onto [0, 1/2], merge, emit pairs.

    Folding first makes the merge direction-independent, so the result is
    symmetric as a multiset by construction (no index pairing involved).
    """
    folded = np.minimum(pts, 1.0 - pts)
    order = np.argsort(folded, kind="stable")
    fp, fw = _merge_sorted(folded[order], ws[order], radius)
    out_p, out_w = [], []
    for p, w in zip(fp, fw):
        if p <= radius:
            p = 0.0
        if abs(p - 0.5) <= radius:
            out_p.append(0.5)
            out_w.append(w)
        else:
            out_p.extend([p, 1.0 - p])
            out_w.extend([w / 2.0, w / 2.0])
    out_p = np.asarray(out_p)
    out_w = np.asarray(out_w)
    order = np.argsort(out_p)
    return out_p[order], out_w[order] / out_w.sum()


def _seed_support(spec: ChannelSpec, config: SolverConfig):
    """Initial atoms: one per local maximum of the coarse BA weight profile."""
    grid = np.linspace(0.0, 1.0, config.grid_size)
    w, *_ = _ba_core(spec, grid, 1e-6, max_iters=2000)
    wpad = np.concatenate([[0.0], w, [0.0]])
    is_max = (wpad[1:-1] >= wpad[:-2]) & (wpad[1:-1] >= wpad[2:]) & (w > 1e-5)
    idx = np.flatnonzero(is_max)
    pts, wts = [], []
    for i in idx:
        s = slice(max(0, i - 3), min(len(grid), i + 4))
        win = w[s]
        pts.append(float(np.dot(grid[s], win) / win.sum()))
        wts.append(float(win.sum()))
    pts = np.asarray(pts)
    wts = np.asarray(wts)
    if len(pts) == 0 or pts[0] > 1e-9:
        pts = np.concatenate([[0.0], pts])
        wts = np.concatenate([[1e-2], wts])
    else:
        pts[0] = 0.0
    if pts[-1] < 1.0 - 1e-9:
        pts = np.concatenate([pts, [1.0]])
        wts = np.concatenate([wts, [1e-2]])
    else:
        pts[-1] = 1.0
    pts, wts = _merge_sorted(pts, wts, 3.0 / config.grid_size)
    pts[0], pts[-1] = 0.0, 1.0
    wts = wts / wts.sum()
    return _fold_mirror(pts, wts, config.merge_radius)


# ---------------------------------------------------------------------------
# joint optimality-system Newton (internal)
# ---------------------------------------------------------------------------

def _kkt_residual(spec: ChannelSpec, pts: np.ndarray, w: np.ndarray, C: float):
    """Residual of the stationarity system in (w, x_int, C).

    Rows: i(x_k) - C for every atom, the density derivative at interior
    atoms, and the weight normalization.  Returns (F, i(x_k), terms), where
    terms = (logP, P, q, logq, P', i') feed the Jacobian, or (None, None,
    None) when some output is starved of probability.
    """
    interior = np.flatnonzero((pts > 0.0) & (pts < 1.0))
    logP = log_pmf_matrix(spec, pts)
    P = np.exp(logP)
    q = w @ P
    if np.any(q <= 0.0):
        return None, None, None
    logq = np.log(q)
    ival, Pp, ip = _info_terms(spec, pts, logP, P, logq, interior)
    F = np.concatenate([ival - C, ip, [w.sum() - 1.0]])
    return F, ival, (logP, P, q, logq, Pp, ip)


def _kkt_system(spec: ChannelSpec, pts: np.ndarray, w: np.ndarray, C: float):
    """Residual and Jacobian of the stationarity system in (w, x_int, C).

    Weights enter linearly so the Newton solution signals superfluous atoms
    by negative weights.  Returns (None, ...) when some output is starved of
    probability.
    """
    F, ival, terms = _kkt_residual(spec, pts, w, C)
    if F is None:
        return None, None, None
    logP, P, q, logq, Pp, ip = terms
    n = spec.n
    K = len(pts)
    interior = np.flatnonzero((pts > 0.0) & (pts < 1.0))
    m = len(interior)
    xi = pts[interior]
    y = np.arange(n + 1)

    Pq = P / q
    J = np.zeros((K + m + 1, K + m + 1))
    J[:K, :K] = -(P @ Pq.T)
    cross = P @ (Pp / q[None, :]).T
    J[:K, K:K + m] = -cross * w[interior][None, :]
    for a, j in enumerate(interior):
        J[j, K + a] += ip[a]
    J[:K, K + m] = -1.0
    J[K:K + m, :K] = -(Pp @ Pq.T)
    J[K:K + m, K:K + m] = -(Pp @ (Pp / q[None, :]).T) * w[interior][None, :]
    Ppp = P[interior] * (((y[None, :] - n * xi[:, None]) ** 2
                          - y[None, :] * (1.0 - 2.0 * xi[:, None]) - n * xi[:, None] ** 2)
                         / (xi * (1.0 - xi))[:, None] ** 2)
    with np.errstate(invalid="ignore", divide="ignore"):
        curv = np.where(P[interior] > 0, Pp ** 2 / P[interior], 0.0)
    i2_frozen = np.sum(Ppp * (logP[interior] - logq), axis=1) + np.sum(curv, axis=1)
    J[K + np.arange(m), K + np.arange(m)] += i2_frozen
    J[K + m, :K] = 1.0
    return F, J, ival


def _kkt_newton(spec: ChannelSpec, pts: np.ndarray, w: np.ndarray,
                max_iter: int = 60, tol: float = 1e-13):
    """Damped Newton on the stationarity system.

    Returns (pts, w, status, residual) with status 'ok' (solved, all weights
    positive), 'neg' (solved, some weight nonpositive: drop that atom) or
    'stall' (no progress; caller should fall back to direct ascent).
    """
    pts = pts.copy()
    w = w.copy()
    interior = np.flatnonzero((pts > 0.0) & (pts < 1.0))
    K, m = len(pts), len(interior)
    F, ival, _ = _kkt_residual(spec, pts, w, 0.0)
    if F is None:
        return pts, w, "stall", np.inf
    C = float(w @ ival)
    fn = np.inf
    for _ in range(max_iter):
        F, J, _ = _kkt_system(spec, pts, w, C)
        if F is None:
            return pts, w, "stall", np.inf
        fn = float(np.abs(F).max())
        if fn <= tol:
            break
        try:
            step = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(J, -F, rcond=None)[0]

        def try_step(step):
            for damp in (1.0, 0.5, 0.25, 0.1, 0.03, 0.01, 0.003):
                nw = w + damp * step[:K]
                npts = pts.copy()
                if m:
                    xi = pts[interior] + damp * step[K:K + m]
                    lo_b = 0.5 * (pts[interior - 1] + pts[interior])
                    hi_b = 0.5 * (pts[interior] + pts[interior + 1])
                    npts[interior] = np.minimum(np.maximum(xi, lo_b), hi_b)
                nC = C + damp * step[K + m]
                F2 = _kkt_residual(spec, npts, nw, nC)[0]
                if F2 is not None and np.abs(F2).max() < fn:
                    return npts, nw, nC
            return None

        moved = try_step(step)
        if moved is None:
            # regularized retry for ill-conditioned transition regimes
            JtJ = J.T @ J
            JtF = J.T @ F
            scale = float(np.trace(JtJ)) / JtJ.shape[0]
            for lam in (1e-10, 1e-6, 1e-3, 1e-1):
                try:
                    step = np.linalg.solve(JtJ + lam * scale * np.eye(len(JtF)), -JtF)
                except np.linalg.LinAlgError:
                    continue
                moved = try_step(step)
                if moved is not None:
                    break
        if moved is None:
            break
        pts, w, C = moved
    solved = fn <= 1e-10
    if solved and np.all(w > 0):
        return pts, w, "ok", fn
    if solved:
        return pts, w, "neg", fn
    return pts, w, "stall", fn


def _ascend_information(spec: ChannelSpec, pts: np.ndarray, ws: np.ndarray):
    """Directly maximize I over interior positions and weights (L-BFGS).

    Robust near support-splitting transitions where the Newton system is
    singular: the ascent is monotone and the capacity value converges even
    when individual atom positions are poorly determined.
    """
    pts = pts.copy()
    K = len(pts)
    interior = np.flatnonzero((pts > 0.0) & (pts < 1.0))

    def unpack(z):
        w = np.exp(z[:K] - logsumexp(z[:K]))
        x = pts.copy()
        x[interior] = 1.0 / (1.0 + np.exp(-z[K:]))
        return w, x

    def neg_info(z):
        w, x = unpack(z)
        logP = log_pmf_matrix(spec, x)
        P = np.exp(logP)
        logq = np.log(np.maximum(w @ P, _TINY_Q))
        ival, _, ip = _info_terms(spec, x, logP, P, logq, interior)
        I = float(w @ ival)
        xi = x[interior]
        grad = np.concatenate([w * (ival - I), w[interior] * ip * xi * (1.0 - xi)])
        return -I, -grad

    t0 = np.log(pts[interior] / (1.0 - pts[interior]))
    z0 = np.concatenate([np.log(np.maximum(ws, 1e-300)), t0])
    res = minimize(neg_info, z0, jac=True, method="L-BFGS-B",
                   options=dict(maxiter=20000, maxfun=40000, ftol=1e-18, gtol=1e-14))
    w, x = unpack(res.x)
    order = np.argsort(x)
    return x[order], w[order]


def _drop_atom(pts: np.ndarray, ws: np.ndarray, j: int):
    """Remove atom j together with its mirror image."""
    keep = np.ones(len(pts), dtype=bool)
    keep[j] = False
    if abs(pts[j] - 0.5) > 1e-12:
        jm = int(np.argmin(np.abs(pts - (1.0 - pts[j]))))
        if abs(pts[jm] - (1.0 - pts[j])) < 1e-9:
            keep[jm] = False
    return pts[keep], ws[keep]


def _clean_structure(pts, ws, config: SolverConfig, drop_w: float):
    """Prune near-dead atoms, merge collisions, enforce symmetry."""
    before = len(pts)
    keep = ws > drop_w
    keep[0] = keep[-1] = True
    pts, ws = pts[keep], ws[keep] / ws[keep].sum()
    pts, ws = _fold_mirror(pts, ws, config.merge_radius)
    return pts, ws, len(pts) != before


def _polish(spec: ChannelSpec, pts: np.ndarray, ws: np.ndarray, config: SolverConfig):
    """Fixed-structure solve: Newton fast path, ascent fallback, atom drops.

    A Newton stall that survives the ascent signals a cluster of
    interchangeable atoms at a support-splitting transition; the tightest
    cluster is then collapsed with an escalated merge radius (kept well
    below any legitimate atom spacing) and the solve is retried.
    """
    npts, nw, status, fn = _kkt_newton(spec, pts, ws)
    for _ in range(12):
        if status == "ok":
            return npts, nw / nw.sum()
        if status == "neg":
            j = int(np.argmin(nw))
            if npts[j] in (0.0, 1.0):
                break
            log.debug("polish: dropping atom %.6f (weight %.2e)", npts[j], nw[j])
            pts, ws = _drop_atom(npts, nw, j)
            ws = np.maximum(ws, config.prune_weight)
            ws = ws / ws.sum()
        else:
            log.debug("polish: Newton stalled (residual %.1e); direct ascent", fn)
            pts, ws = _ascend_information(spec, pts, ws)
            pts, ws, changed = _clean_structure(pts, ws, config, drop_w=1e-7)
            if not changed:
                npts, nw, status, fn = _kkt_newton(spec, pts, ws)
                if status == "ok":
                    return npts, nw / nw.sum()
                tight = float(np.diff(pts).min()) if len(pts) > 1 else np.inf
                if tight < max(10 * config.merge_radius, 0.5 / spec.n):
                    log.debug("polish: collapsing cluster at gap %.2e", tight)
                    pts, ws = _fold_mirror(pts, ws, 1.5 * tight)
                else:
                    return pts, ws
        npts, nw, status, fn = _kkt_newton(spec, pts, ws)
    return pts, ws


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

def _certify(dist: DiscreteInput, spec: ChannelSpec, grid_points: int,
             tol: float, merge_radius: float = 1e-4) -> tuple[KktSummary, np.ndarray, np.ndarray]:
    """Grid sweep of the information density plus structural flags.

    A grid of fewer than 3 points holds at most the endpoints; the sweep
    would then see only those and the atoms, and certify non-optimal inputs.
    """
    if grid_points < 3:
        raise ValueError(f"certification grid needs at least 3 points, got {grid_points}")
    if not tol > 0.0:
        raise ValueError(f"KKT tolerance must be positive, got {tol}")
    n = spec.n
    logq = log_output_pmf(dist, spec)
    xs = np.union1d(np.linspace(0.0, 1.0, grid_points), dist.points)
    ivals = _info_density_against_logq(spec, xs, logq)
    atom_idx = np.searchsorted(xs, dist.points)
    cap = float(dist.weights @ ivals[atom_idx])
    slack = float(np.max(ivals) - cap)
    defect = float(np.abs(ivals[atom_idx] - cap).max())

    near = np.abs(ivals - cap) <= tol
    active = []
    if near.any():
        cand = xs[near]
        vals = ivals[near]
        start = 0
        for i in range(1, len(cand) + 1):
            if i == len(cand) or cand[i] - cand[i - 1] > merge_radius:
                seg = slice(start, i)
                active.append(float(cand[seg][np.argmax(vals[seg])]))
                start = i

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
    return summary, xs, ivals


def kkt_verify(report: SolveReport, spec: ChannelSpec,
               grid_size: int = 20_490, tol: float = 1e-8) -> KktSummary:
    """Re-certify a solve report (or any user distribution wrapped in one).

    Recomputes the information density on a fresh grid of `grid_size` points
    plus the atoms, and re-derives capacity, slack, equality defect, the
    estimated active set, and all structural flags.
    """
    summary, _, _ = _certify(report.input, spec, grid_size, tol)
    return summary


def report_for_distribution(dist: DiscreteInput, spec: ChannelSpec,
                            grid_size: int = 20_490, tol: float = 1e-8,
                            iterations: int = 0, converged: bool | None = None) -> SolveReport:
    """Build a SolveReport around an externally supplied distribution."""
    summary, _, _ = _certify(dist, spec, grid_size, tol)
    ok = (summary.slack <= tol and summary.equality_defect <= tol) \
        if converged is None else converged
    return _report(spec, dist, summary, iterations, ok)


def _report(spec: ChannelSpec, dist: DiscreteInput, summary: KktSummary,
            iterations: int, converged: bool) -> SolveReport:
    """SolveReport of a distribution from its certification summary."""
    flags = dict(summary.flags)
    flags["equality_defect"] = summary.equality_defect
    flags["symmetry_defect"] = summary.symmetry_defect
    flags["active_set_size"] = len(summary.active_set)
    return SolveReport(
        input=dist,
        output=induce_output(dist, spec),
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
    until a dense certification grid shows both KKT conditions holding to
    config.kkt_tol; escape atoms are inserted where the information density
    still exceeds the capacity estimate.  For n = 1 the known two-point
    solution is returned immediately.
    """
    config = config or SolverConfig()
    n = spec.n
    if n == 1:
        dist = DiscreteInput(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        return report_for_distribution(dist, spec, 10 * config.grid_size,
                                       config.kkt_tol, iterations=0, converged=True)

    pts, ws = _seed_support(spec, config)
    stall = 0
    best = None
    for outer in range(1, config.max_outer_iters + 1):
        w2, lo, hi, _, D, _ = _ba_core(spec, pts, config.ba_tol, max_iters=3000,
                                       defect_tol=config.kkt_tol / 2)
        gap = hi - lo
        drop = ((w2 < 1e-6) & (D < lo - 10 * max(gap, config.kkt_tol))) \
            | (w2 < config.prune_weight)
        drop[0] = drop[-1] = False
        pts, ws = pts[~drop], w2[~drop] / w2[~drop].sum()

        pts, ws = _polish(spec, pts, ws, config)
        pts, ws, _ = _clean_structure(pts, ws, config, drop_w=config.prune_weight)

        dist = DiscreteInput(pts, ws)
        summary, xs, ivals = _certify(dist, spec, 10 * config.grid_size,
                                      config.kkt_tol, config.merge_radius)
        best = (dist, summary, outer)
        if summary.slack <= config.kkt_tol and summary.equality_defect <= config.kkt_tol:
            return _report(spec, dist, summary, outer, converged=True)

        new_pts = _escape_candidates(xs, ivals, summary.capacity_nats, pts,
                                     config)
        if len(new_pts) == 0:
            stall += 1
            if stall >= 5:
                break
        else:
            stall = 0
            pts = np.concatenate([pts, new_pts])
            ws = np.concatenate([ws, np.full(len(new_pts), 1e-3)])
            order = np.argsort(pts)
            pts, ws = pts[order], ws[order] / ws[order].sum()

    dist, summary, outer = best
    log.warning("solve_capacity(n=%d): not certified after %d outer iterations "
                "(slack %.2e, defect %.2e)", n, outer, summary.slack,
                summary.equality_defect)
    return _report(spec, dist, summary, outer, converged=False)


def _escape_candidates(xs, ivals, cap, pts, config: SolverConfig) -> np.ndarray:
    """Positions where the density still exceeds capacity: next support atoms.

    Takes the single largest strict local maximum of the slack together with
    its mirror, ignoring peaks that are just unconverged copies of existing
    atoms.
    """
    s = ivals - cap
    if not np.all(np.isfinite(s)):
        bad = np.flatnonzero(~np.isfinite(s))
        new = np.array([xs[bad[len(bad) // 2]]])
    else:
        loc = np.flatnonzero((s[1:-1] > s[:-2]) & (s[1:-1] >= s[2:])
                             & (s[1:-1] > config.kkt_tol)) + 1
        if len(loc) == 0:
            return np.array([])
        new = np.array([xs[loc[np.argmax(s[loc])]]])
    gap_min = float(np.diff(pts).min()) if len(pts) > 1 else 0.1
    radius = max(5 * config.merge_radius, 0.25 * gap_min)
    new = np.unique(np.concatenate([new, 1.0 - new]))
    return new[np.min(np.abs(new[:, None] - pts[None, :]), axis=1) > radius]
