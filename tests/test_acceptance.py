"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
import time

import numpy as np
import pytest

from binomcap import (
    ChannelSpec,
    SolverConfig,
    binomial_entropy_exact,
    binomial_entropy_lower,
    binomial_entropy_upper,
    brute_force_grid_capacity,
    capacity_lower_bound,
    capacity_upper_bound,
    channel_matrix_logdet,
    crest_factor,
    crest_factor_lower_endpoints,
    crest_factor_lower_mirror,
    dual_bound_term,
    dual_bound_term_max,
    exact_solution,
    induce_output,
    info_density,
    info_density_prime,
    info_density_second,
    posterior_mean,
    solve_capacity,
    support_count_identity,
)
from binomcap.distributions import DiscreteInput, UndefinedPosteriorError
from conditional_means import (
    iprime_reduced_trial_form,
    isecond_first_derivative_form,
    isecond_moment_ratio_form,
    isecond_reduced_trial_form,
)


def check(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:2d}] {status}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def fd1(dist, spec, x, h=1e-6):
    out = induce_output(dist, spec)
    return (info_density(x + h, out, spec) - info_density(x - h, out, spec)) / (2 * h)


def fd2(dist, spec, x, h=1e-4):
    out = induce_output(dist, spec)
    return (info_density(x + h, out, spec) - 2 * info_density(x, out, spec)
            + info_density(x - h, out, spec)) / h**2


def test_criterion_01_table_reproduction(solved):
    worst_cap = worst_pos = worst_w = worst_t = 0.0
    targets = {
        1: (math.log(2), [0.0, 1.0], [0.5, 0.5]),
        2: (math.log(17 / 8), [0.0, 0.5, 1.0], [15 / 34, 2 / 17, 15 / 34]),
        3: (math.log(19 / 8), [0.0, 0.5, 1.0], [15 / 38, 4 / 19, 15 / 38]),
    }
    for n, (cap, pts, wts) in targets.items():
        t0 = time.time()
        report = solve_capacity(ChannelSpec(n))
        worst_t = max(worst_t, time.time() - t0)
        solved.put(n, report)
        worst_cap = max(worst_cap, abs(report.capacity_nats - cap))
        worst_pos = max(worst_pos, float(np.abs(report.input.points - pts).max()))
        worst_w = max(worst_w, float(np.abs(report.input.weights - wts).max()))
    ok = worst_cap <= 1e-9 and worst_pos <= 1e-7 and worst_w <= 1e-7 and worst_t < 1.0
    check(1, "n=1..3 capacities, supports and weights reproduce the known table",
          ok, f"cap err {worst_cap:.1e}, weight err {worst_w:.1e}, "
              f"slowest {worst_t:.2f}s")


def test_criterion_02_kkt_certification(solved, uniform_sweep):
    t0 = time.time()
    worst_slack = worst_defect = 0.0
    all_converged = True
    for n in range(1, 33):
        report = solve_capacity(ChannelSpec(n))
        solved.put(n, report)
        all_converged &= report.converged
        worst_slack = max(worst_slack, report.kkt_slack)
        worst_defect = max(worst_defect, report.equality_defect)
    elapsed = time.time() - t0
    # the solver certifies on refined peaks; the uniform grid checks it
    worst_grid = max(uniform_sweep(solved(n).input, ChannelSpec(n))[0] for n in range(1, 33))
    ok = all_converged and worst_slack <= 1e-8 and worst_defect <= 1e-8 and elapsed < 60 \
        and worst_grid <= 1e-8
    check(2, "n=1..32 certified on a 20490-point grid",
          ok, f"max slack {worst_slack:.1e} (grid {worst_grid:.1e}), "
              f"max defect {worst_defect:.1e}, {elapsed:.1f}s total")


def test_criterion_03_bound_sandwich(solved):
    worst_margin = math.inf
    ok = True
    for n in list(range(1, 33)) + [64, 128]:
        report = solved(n)
        lo, hi = capacity_lower_bound(n), capacity_upper_bound(n)
        ok &= lo - 1e-8 <= report.capacity_nats <= hi + max(report.kkt_slack, 1e-8)
        worst_margin = min(worst_margin, report.capacity_nats - lo,
                           hi - report.capacity_nats)
    # larger trial counts: solver run with a bounded iteration budget; the
    # certified slack widens the allowance exactly as the sandwich permits
    for n in (256, 512, 1024):
        report = solved(n, max_outer_iters=16)
        lo, hi = capacity_lower_bound(n), capacity_upper_bound(n)
        ok &= lo - 1e-8 <= report.capacity_nats <= hi + max(report.kkt_slack, 1e-8)
    check(3, "closed-form bounds sandwich the solved capacity up to n=1024",
          ok, f"tightest margin {worst_margin:.3f} nats")


def test_criterion_04_half_log_scaling(solved):
    ok = True
    worst_dev = 0.0
    for n in list(range(1, 33)) + [64, 128]:
        dev = abs(solved(n).capacity_nats - 0.5 * math.log(n))
        worst_dev = max(worst_dev, dev)
        ok &= dev <= 4.0
    for n in (256, 512, 1024):
        dev = abs(solved(n, max_outer_iters=16).capacity_nats - 0.5 * math.log(n))
        worst_dev = max(worst_dev, dev)
        ok &= dev <= 4.0
    worst_gap = 0.0
    for n in range(1, 4097):
        gap = capacity_upper_bound(n) - capacity_lower_bound(n)
        worst_gap = max(worst_gap, gap)
        ok &= gap <= 8.0
    check(4, "capacity tracks half log n; closed-form gap bounded to n=4096",
          ok, f"max |C - 0.5 log n| {worst_dev:.2f}, max bound gap {worst_gap:.2f}")


def test_criterion_05_structural_flags(solved):
    ok = True
    for n in range(1, 33):
        report = solved(n)
        cap = report.capacity_nats
        pts = report.input.points
        wts = report.input.weights
        out = report.output.probs
        ok &= pts[0] == 0.0 and pts[-1] == 1.0
        ok &= abs(cap + math.log(out[0])) <= 1e-8
        ok &= abs(cap + math.log(out[-1])) <= 1e-8
        ok &= int(np.sum((pts > 0) & (pts <= 1 / n))) <= 1
        ok &= int(np.sum((pts >= 1 - 1 / n) & (pts < 1))) <= 1
        ok &= report.symmetry_defect <= 1e-9
        ok &= math.ceil(math.exp(cap) - 1e-9) <= len(pts) <= 2 + n // 2
        ok &= float(wts.max()) <= math.exp(-cap) + 1e-9
        ok &= len(report.active_set) <= n + 1
    check(5, "all structural facts hold for every solved n <= 32", ok)


def test_criterion_06_derivative_correctness(solved, rng):
    cases = [(n, exact_solution(n).input) for n in (1, 2, 3)]
    cases += [(n, solved(n).input) for n in (5, 10, 20)]
    ok = True
    worst1 = worst2 = worst_alt = 0.0
    # margin 2.5e-3: close enough in that the h=1e-4 second difference's
    # truncation term stays below the 1e-3 tolerance for every case
    for n, dist in cases:
        spec = ChannelSpec(n)
        xs = rng.uniform(2.5e-3, 1 - 2.5e-3, size=50)
        for x in xs:
            x = float(x)
            ip = info_density_prime(x, dist, spec)
            e1 = abs(ip - fd1(dist, spec, x)) / (1 + abs(ip))
            worst1 = max(worst1, e1)
            ipp = info_density_second(x, dist, spec)
            e2 = abs(ipp - fd2(dist, spec, x)) / (1 + abs(ipp))
            worst2 = max(worst2, e2)
            alt = iprime_reduced_trial_form(x, dist, spec)[0]
            worst_alt = max(worst_alt, abs(alt - ip) / (1 + abs(ip)))
            alts = [isecond_moment_ratio_form(x, dist, spec)[0]]
            if n >= 2:
                alts.append(isecond_first_derivative_form(x, dist, spec, ip))
            if n >= 3:
                alts.append(isecond_reduced_trial_form(x, dist, spec))
            for alt in alts:
                worst_alt = max(worst_alt, abs(alt - ipp) / (1 + abs(ipp)))
    ok = worst1 <= 1e-5 and worst2 <= 1e-3 and worst_alt <= 1e-9
    check(6, "derivatives match finite differences and the alternative forms",
          ok, f"fd1 {worst1:.1e}, fd2 {worst2:.1e}, alt {worst_alt:.1e}")


def test_criterion_07_crest_factor_suite(solved):
    two = solved(2)
    ok = abs(crest_factor(two, 0.5) - math.log(4)) <= 1e-8
    ok &= abs(crest_factor(two, 0.5) - crest_factor_lower_endpoints(2, 0.5)) <= 1e-8
    ok &= abs(crest_factor(two, 0.0) - math.log(16 / 15)) <= 1e-8
    worst_count = 0.0
    for n in range(1, 33):
        report = solved(n)
        count = support_count_identity(report)
        worst_count = max(worst_count,
                          abs(count - report.support_size) / report.support_size)
        ok &= abs(count - report.support_size) <= 1e-6 * report.support_size
        for x in report.input.points:
            x = float(x)
            if not 0 < x < 1:
                continue
            actual = crest_factor(report, x)
            ok &= actual >= crest_factor_lower_endpoints(n, x) - 1e-8
            if not math.isclose(x, 0.5):
                ok &= actual >= crest_factor_lower_mirror(n, x) - 1e-8
    check(7, "crest factors: exact n=2 values, count identity, bound dominance",
          ok, f"worst count mismatch {worst_count:.1e}")


def test_criterion_08_entropy_bounds():
    from binomcap.kernel import log_pmf_matrix
    from scipy.special import xlogy
    xs = np.linspace(0.0, 1.0, 201)
    ok = True
    for n in range(1, 201):
        spec = ChannelSpec(n)
        rows = np.exp(log_pmf_matrix(spec, xs))
        exact = -np.sum(xlogy(rows, rows), axis=1)
        lower = np.array([binomial_entropy_lower(spec, float(x)) for x in xs])
        upper = np.array([binomial_entropy_upper(spec, float(x)) for x in xs])
        ok &= bool(np.all(lower <= exact + 1e-12) and np.all(exact <= upper + 1e-12))
    spot = ChannelSpec(57)
    ok &= abs(binomial_entropy_exact(spot, xs[101]) -
              (-np.sum(xlogy(r := np.exp(log_pmf_matrix(spot, xs[101:102]))[0], r)))) <= 1e-14
    check(8, "entropy bounds sandwich the exact entropy for n=1..200", ok)


def test_criterion_09_dual_term_uniform_bound():
    xs = np.linspace(0.0, 1.0, 10001)
    worst = -math.inf
    ok = True
    for n in range(1, 101):
        excess = float(np.max(dual_bound_term(xs, n))) - dual_bound_term_max(n)
        worst = max(worst, excess)
        ok &= excess <= 0.0
    check(9, "dual-bound term dominated by its uniform bound for n=1..100",
          ok, f"max excess {worst:.1e}")


def test_criterion_10_monotone_posterior(rng):
    ok = True
    for _ in range(200):
        n = int(rng.integers(1, 51))
        k = int(rng.integers(1, 7))
        pts = np.unique(np.round(rng.uniform(0, 1, size=k), 6))
        if len(pts) < 1 or (len(pts) > 1 and np.any(np.diff(pts) <= 1e-9)):
            continue
        w = rng.uniform(0.05, 1.0, size=len(pts))
        dist = DiscreteInput(pts, w / w.sum())
        prev = None
        for y in range(n + 1):
            try:
                val = posterior_mean(dist, ChannelSpec(n), y)
            except UndefinedPosteriorError:
                continue
            if prev is not None:
                ok &= val >= prev - 1e-12
            prev = val
    check(10, "posterior mean is non-decreasing in the output count", ok)


def test_criterion_11_full_rank_channel_matrix(rng):
    ok = True
    for n in range(1, 16):
        done = 0
        while done < 100:
            pts = np.sort(rng.uniform(0, 1, size=n + 1))
            if n > 0 and np.any(np.diff(pts) < 1e-5):
                continue
            sign, _ = channel_matrix_logdet(ChannelSpec(n), pts)
            ok &= sign != 0
            done += 1
    sign, logabs = channel_matrix_logdet(ChannelSpec(2), [0.0, 0.5, 1.0])
    det = sign * math.exp(logabs)
    ok &= abs(det - 0.5) <= 1e-14
    check(11, "channel matrices nonsingular; n=2 determinant is exactly 1/2",
          ok, f"n=2 det err {abs(det - 0.5):.1e}")


def test_criterion_12_oracle_agreement(solved):
    ok = True
    worst = 0.0
    # n = 1..32 and the centre-atom transition n = 75, 93
    for n in [*range(1, 33), 75, 93]:
        oracle = brute_force_grid_capacity(ChannelSpec(n), 4097, 5e-6,
                                           max_iters=600_000)
        diff = abs(oracle - solved(n).capacity_nats)
        worst = max(worst, diff)
        ok &= diff <= 1e-5
    check(12, "independent grid search agrees with the solver for n=1..32, 75, 93",
          ok, f"worst gap {worst:.1e}")
