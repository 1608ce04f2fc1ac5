"""Workload plans, the operations that drive binomcap, and their output checks.

A plan is the fixed list of operations one pass of a workload runs.  It is a
pure function of (workload, seed, tiny), so the same seed gives the same
inputs.  Operations reach the library only through its public entry points,
looked up at call time (``binomcap.cli.main``, ``binomcap.solve_capacity``,
``binomcap.brute_force_grid_capacity``) so that a traced run can replace
them.  Checks compare each output with references computed here, not by the
code under test: exact rationals for n <= 3, an independent mutual
information, and the closed-form capacity sandwich.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from fractions import Fraction
from functools import lru_cache

import numpy as np

import binomcap
import binomcap.cli
from binomcap.bounds import capacity_lower_bound, capacity_upper_bound

WORKLOADS = ("sweep", "hard-n", "verify", "oracle")

KKT_TOL = 1e-8          # a certified result has slack at most this
CLEAR_SLACK = 1e-6      # a random, non-optimal input must show at least this
REF_TOL = 1e-9          # agreement with the independent mutual information
EXACT_TOL = 1e-10       # agreement of a solver result with an exact rational
ORACLE_GAP = 1e-5       # criterion 12's agreement bound for the grid oracle

# Optimal inputs for n = 1, 2, 3 as exact rationals: e^C, points, weights.
EXACT = {
    1: (Fraction(2), (0, 1), (Fraction(1, 2), Fraction(1, 2))),
    2: (Fraction(17, 8), (0, Fraction(1, 2), 1),
        (Fraction(15, 34), Fraction(2, 17), Fraction(15, 34))),
    3: (Fraction(19, 8), (0, Fraction(1, 2), 1),
        (Fraction(15, 38), Fraction(4, 19), Fraction(15, 38))),
}

# sweep: n = 1..SWEEP_N_MAX lies inside the range where every n certifies; n = 24
# is the first n whose solve calls L-BFGS.
SWEEP_N_MAX = 24
# A pass of hard-n and verify repeats its middle-cost op, spread over the pass,
# and puts as many cheaper ops below that group as costlier ops above it, so
# that op_p50_s is the middle sample of the group and not one op measured in
# one stretch of host speed (README.md, "Why the median op repeats").
# hard-n: n = 80 (band 75..110), three solves at 128 (111..150) and one at 256
# (192..256).  The panel is fixed because cost and certification jump between
# neighbouring n (README.md).
HARD_N_PASS = (128, 80, 128, 256, 128)
# verify: the exact n = 1..3 fixtures and random inputs on a ladder up to
# MAX_TRIALS = 4096: four n = 256 verifications, with five ops below them in
# cost (n = 1, 2, 3 and two at 64) and five above (four at 1024, one at 4096).
# Over three passes op_tail_s then falls near the middle of the twelve n = 1024
# verifications.  Powers of 4: the seed's large-n rejection (README.md, defect
# 1) hits every input at 4096 and none at 1024 or below, so the count of failed
# ops does not depend on the draw; at 2048 it hits 86 % of draws.
VERIFY_PASS = (1, 256, 1024, 64, 256, 1024, 2, 4096, 256, 1024, 64, 256, 1024, 3)
# oracle: one n from each stratum.  The oracle runs about 100k iterations at
# every n in 2..16; within a stratum the grid rows it sweeps differ by at most
# a fifth (README.md).
ORACLE_STRATA = ((2, 3, 4), (14, 15, 16))
ORACLE_GRID, ORACLE_TOL, ORACLE_ITERS = 4097, 5e-6, 600_000

# About the seconds one pass takes at the seed commit (2-core x86-64 VM).  A
# run makes seconds // PASS_S passes, at least one: a count fixed by --seconds,
# so the number of ops behind op_p50_s and op_tail_s does not depend on host
# speed.  At --seconds 30 that is three passes of sweep and verify and one of
# hard-n and oracle.
PASS_S = {"sweep": 9.0, "hard-n": 28.0, "verify": 10.0, "oracle": 22.0}


def passes(workload: str, seconds: float) -> int:
    return max(1, int(seconds // PASS_S[workload]))


def exact_capacity(n: int) -> float:
    return math.log(EXACT[n][0])


def exact_input(n: int) -> dict:
    _, pts, wts = EXACT[n]
    return {"points": [float(p) for p in pts], "weights": [float(w) for w in wts]}


def random_symmetric_input(rng: np.random.Generator) -> dict:
    """Mirror-symmetric input with both endpoints, 1-4 interior pairs and
    maybe a centre atom; positions and weights are random, so it is not
    optimal for any n."""
    k = int(rng.integers(1, 5))
    half = np.sort(rng.uniform(0.02, 0.48, k))
    centre = [0.5] if rng.integers(0, 2) else []
    pts = [0.0, *half, *centre, *(1.0 - half[::-1]), 1.0]
    w_half = rng.uniform(0.5, 1.5, k + 1)
    w_centre = list(rng.uniform(0.5, 1.5, 1)) if centre else []
    wts = np.array([*w_half, *w_centre, *w_half[::-1]])
    return {"points": [float(p) for p in pts],
            "weights": [float(w) for w in wts / wts.sum()]}


def make_plan(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The ordered operations of one pass."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "sweep":
        return [{"kind": "sweep", "n": 4 if tiny else SWEEP_N_MAX}]
    if workload == "hard-n":
        panel = (5, 6, 7) if tiny else HARD_N_PASS
        return [{"kind": "solve", "n": n} for n in panel]
    if workload == "verify":
        ladder = (1, 64, 2, 256, 3) if tiny else VERIFY_PASS
        return [{"kind": "verify", "n": n, "dist": exact_input(n), "exact": True}
                if n in EXACT else
                {"kind": "verify", "n": n, "dist": random_symmetric_input(rng), "exact": False}
                for n in ladder]
    if workload == "oracle":
        grid, tol, gap = (401, 1e-4, 1e-3) if tiny else (ORACLE_GRID, ORACLE_TOL, ORACLE_GAP)
        return [{"kind": "oracle", "n": int(rng.choice(s)), "grid": grid, "tol": tol,
                 "gap": gap} for s in ORACLE_STRATA]
    raise ValueError(f"unknown workload {workload!r}")


def write_inputs(plan: list[dict], workdir: str) -> None:
    """Give every operation its input file (verify) and output path (CLI)."""
    for i, op in enumerate(plan):
        if op["kind"] in ("sweep", "verify"):
            op["out"] = os.path.join(workdir, f"out{i}")
        if op["kind"] == "verify":
            op["dist_file"] = os.path.join(workdir, f"dist{i}.json")
            with open(op["dist_file"], "w") as fh:
                json.dump(op["dist"], fh)


# ---------------------------------------------------------------------------
# operations: each returns the program's result as plain data, or raises
# ---------------------------------------------------------------------------

class OpError(Exception):
    """The program raised or its CLI exited nonzero."""


def _cli(argv: list[str]) -> None:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = binomcap.cli.main(argv)
    if rc != 0:
        msg = err.getvalue().strip().splitlines()
        raise OpError(f"exit {rc}: {msg[-1] if msg else ''}")


def run_op(op: dict):
    kind, n = op["kind"], op["n"]
    if kind == "sweep":
        _cli(["sweep", "--n-max", str(n), "--output", op["out"]])
        return op["out"]
    if kind == "verify":
        _cli(["verify", "--n", str(n), "--dist", op["dist_file"], "--output", op["out"]])
        return op["out"]
    if kind == "solve":
        return binomcap.solve_capacity(binomcap.ChannelSpec(n))
    if kind == "oracle":
        return binomcap.brute_force_grid_capacity(
            binomcap.ChannelSpec(n), op["grid"], op["tol"], max_iters=ORACLE_ITERS)
    raise ValueError(kind)


def read_output(op: dict, raw):
    """Turn what an operation returned into plain data for the checks."""
    kind = op["kind"]
    if kind == "sweep":
        with open(raw) as fh:
            return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]
    if kind == "verify":
        with open(raw) as fh:
            return json.load(fh)
    if kind == "solve":
        return {"capacity_nats": raw.capacity_nats, "kkt_slack": raw.kkt_slack,
                "converged": raw.converged, "points": list(raw.input.points),
                "weights": list(raw.input.weights), "output_pmf": list(raw.output.probs)}
    return {"capacity_nats": float(raw)}


def corrupt(op: dict, out):
    """Damage one capacity value, for the harness self-test."""
    target = out[0] if op["kind"] == "sweep" else out
    target["capacity_nats"] += 1.0
    return out


# ---------------------------------------------------------------------------
# references and checks
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _log_binom(n: int) -> np.ndarray:
    """log C(n, y), y = 0..n, from exact integers."""
    return np.array([math.log(math.comb(n, y)) for y in range(n + 1)])


def ref_mutual_information(n: int, points, weights) -> float:
    """I(X;Y) of a discrete input through the n-trial binomial channel."""
    x = np.asarray(points, dtype=float)[:, None]
    w = np.asarray(weights, dtype=float)
    y = np.arange(n + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = (_log_binom(n) + np.where(y == 0, 0.0, y * np.log(x))
                + np.where(y == n, 0.0, (n - y) * np.log1p(-x)))
        # log q(y) = log sum_k w_k p(y|x_k), shifted so that no term underflows
        lw_p = np.log(w)[:, None] + logp
        top = lw_p.max(axis=0)
        logq = top + np.log(np.exp(lw_p - top).sum(axis=0))
        p = np.exp(logp)
        terms = np.where(p > 0, p * (logp - logq), 0.0)
    return float(w @ terms.sum(axis=1))


def _sandwich(n: int, c: float) -> str | None:
    lo, hi = capacity_lower_bound(n), capacity_upper_bound(n)
    if not lo - 1e-12 <= c <= hi + 1e-12:
        return f"n={n}: capacity {c!r} outside [{lo!r}, {hi!r}]"
    return None


def check(op: dict, out) -> tuple[str, str]:
    """('ok' | 'fail' | 'wrong', reason).  'fail' is an honest non-answer
    (uncertified); 'wrong' contradicts a reference."""
    kind, n = op["kind"], op["n"]
    if kind == "sweep":
        prev = -math.inf
        for row in out:
            m, c = int(row["n"]), row["capacity_nats"]
            bad = _sandwich(m, c)
            if bad:
                return "wrong", bad
            if m in EXACT and abs(c - exact_capacity(m)) > EXACT_TOL:
                return "wrong", f"n={m}: capacity {c!r} != log {EXACT[m][0]}"
            if c < prev - 1e-12:
                return "wrong", f"n={m}: capacity decreased along the sweep"
            if row["kkt_slack"] > KKT_TOL:
                return "fail", f"n={m}: slack {row['kkt_slack']:.2e}"
            prev = c
        if [int(r["n"]) for r in out] != list(range(1, n + 1)):
            return "wrong", "sweep rows do not cover 1..n-max"
        return "ok", ""
    c = out["capacity_nats"]
    if kind == "oracle":
        bad = _sandwich(n, c)
        if bad:
            return "wrong", bad
        if n in EXACT and not exact_capacity(n) - op["gap"] <= c <= exact_capacity(n) + 1e-12:
            return "wrong", f"n={n}: oracle {c!r} not within {op['gap']} below the exact value"
        return "ok", ""
    if kind == "verify":
        ref = ref_mutual_information(n, op["dist"]["points"], op["dist"]["weights"])
        if abs(c - ref) > REF_TOL:
            return "wrong", f"n={n}: capacity {c!r} != reference I(X;Y) {ref!r}"
        if c > capacity_upper_bound(n) + 1e-12:
            return "wrong", f"n={n}: I(X;Y) above the capacity upper bound"
        slack = out["kkt_slack"]
        if c + slack < capacity_lower_bound(n) - 1e-12:
            return "wrong", f"n={n}: max density below the capacity lower bound"
        if op["exact"]:
            if abs(c - exact_capacity(n)) > EXACT_TOL:
                return "wrong", f"n={n}: capacity {c!r} != log {EXACT[n][0]}"
            if slack > KKT_TOL:
                return "wrong", f"n={n}: optimal input reported with slack {slack:.2e}"
        elif slack <= CLEAR_SLACK:
            return "wrong", f"n={n}: non-optimal input reported with slack {slack:.2e}"
        return "ok", ""
    # solve
    bad = _sandwich(n, c)
    if bad:
        return "wrong", bad
    ref = ref_mutual_information(n, out["points"], out["weights"])
    if abs(c - ref) > REF_TOL:
        return "wrong", f"n={n}: capacity {c!r} != reference I(X;Y) {ref!r}"
    if abs(sum(out["output_pmf"]) - 1.0) > 1e-12:
        return "wrong", f"n={n}: output pmf does not sum to 1"
    if not out["converged"] or out["kkt_slack"] > KKT_TOL:
        return "fail", (f"n={n}: uncertified (converged={out['converged']}, "
                        f"slack {out['kkt_slack']:.2e})")
    return "ok", ""
