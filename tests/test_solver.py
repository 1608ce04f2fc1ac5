import logging
import math

import numpy as np
import pytest

from binomcap import (
    ChannelSpec,
    DiscreteInput,
    SolverConfig,
    blahut_arimoto,
    exact_solution,
    info_density_prime,
    info_density_second,
    kkt_verify,
    mutual_information,
    report_for_distribution,
    solve_capacity,
)
from binomcap import solver
from binomcap.serialize import dumps
from binomcap.solver import _ba_core, _kkt_residual, _kkt_system


def _half(report):
    """Half support of a symmetric report: its atoms in [0, 1/2] and the
    mass of each one's orbit {h, 1 - h}."""
    pts, w = report.input.points, report.input.weights
    h = pts[pts <= 0.5].copy()
    return h, np.where(h < 0.5, 2.0, 1.0) * w[:len(h)]


class TestSolverConfig:
    def test_nonpositive_tolerance_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(kkt_tol=0.0)


class TestBlahutArimoto:
    def test_single_trial_two_points(self):
        res = blahut_arimoto(ChannelSpec(1), [0.0, 1.0], 1e-12)
        np.testing.assert_allclose(res.weights, [0.5, 0.5], atol=1e-12)
        assert res.capacity_low == pytest.approx(math.log(2), abs=1e-12)
        assert res.converged

    def test_two_trials_exact_support(self):
        res = blahut_arimoto(ChannelSpec(2), [0.0, 0.5, 1.0], 1e-10)
        np.testing.assert_allclose(res.weights, [15 / 34, 2 / 17, 15 / 34], atol=1e-9)
        assert res.capacity_low == pytest.approx(math.log(17 / 8), abs=1e-10)
        assert res.capacity_low <= res.capacity_high
        assert res.capacity_high - res.capacity_low <= 1e-10

    def test_two_trials_fine_grid(self):
        grid = np.linspace(0.0, 1.0, 1001)
        res = blahut_arimoto(ChannelSpec(2), grid, 4e-6, max_iters=400_000)
        assert res.converged
        assert res.capacity_low == pytest.approx(math.log(17 / 8), abs=1e-6)
        # mass concentrates around the three true atoms
        near = np.min(np.abs(grid[:, None] - np.array([0.0, 0.5, 1.0])[None, :]), axis=1) < 0.01
        assert res.weights[near].sum() > 0.99

    def test_iteration_cap_flags_nonconvergence(self):
        res = blahut_arimoto(ChannelSpec(4), np.linspace(0, 1, 101), 1e-12, max_iters=5)
        assert not res.converged
        assert res.iterations == 5
        assert res.capacity_low <= res.capacity_high
        assert abs(res.weights.sum() - 1.0) <= 1e-12

    def test_fine_grid_weights_stay_on_the_floor(self):
        grid = np.linspace(0.0, 1.0, 1001)
        res = blahut_arimoto(ChannelSpec(5), grid, 1e-5, max_iters=100_000)
        assert res.converged
        assert abs(res.weights.sum() - 1.0) <= 1e-12
        # floored, never zero or subnormal, though most of the grid is dead
        assert res.weights.min() >= 1e-40
        assert (res.weights < 1e-30).sum() > len(grid) // 2

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            blahut_arimoto(ChannelSpec(2), [0.5], 1e-8)
        with pytest.raises(ValueError):
            blahut_arimoto(ChannelSpec(2), [0.5, 0.2], 1e-8)


class TestSolveCapacity:
    @pytest.mark.parametrize("n,cap", [(1, math.log(2)), (2, math.log(17 / 8)),
                                       (3, math.log(19 / 8))])
    def test_table_capacities(self, solved, n, cap):
        report = solved(n)
        assert report.converged
        assert report.capacity_nats == pytest.approx(cap, abs=1e-9)

    def test_table_supports_and_weights(self, solved):
        for n in (1, 2, 3):
            report = solved(n)
            ex = exact_solution(n)
            np.testing.assert_allclose(report.input.points, ex.input.points, atol=1e-7)
            np.testing.assert_allclose(report.input.weights, ex.input.weights, atol=1e-7)

    def test_report_consistency(self, solved):
        report = solved(6)
        assert report.capacity_nats == pytest.approx(
            mutual_information(report.input, ChannelSpec(6)), abs=1e-12)
        assert report.kkt_slack <= 1e-8
        assert report.equality_defect <= 1e-8
        assert report.support_size == len(report.input)
        assert report.n == 6

    def test_monotone_in_trial_count(self, solved):
        caps = [solved(n).capacity_nats for n in range(1, 66)]
        for a, b in zip(caps, caps[1:]):
            assert b >= a - 1e-8

    def test_weight_cap_and_endpoint_identity(self, solved):
        for n in (4, 9, 17):
            report = solved(n)
            cap = report.capacity_nats
            assert report.input.weights.max() <= math.exp(-cap) + 1e-9
            assert abs(cap + math.log(report.output.probs[0])) <= 1e-8
            assert abs(cap + math.log(report.output.probs[-1])) <= 1e-8

    def test_certified_sandwich(self, solved):
        # reweighting the solved support cannot find more information than
        # the report claims, and the claim is within the certified slack
        for n in (3, 8, 21):
            report = solved(n)
            res = blahut_arimoto(ChannelSpec(n), report.input.points, 1e-12)
            assert res.capacity_low <= report.capacity_nats + 1e-11
            assert report.capacity_nats <= res.capacity_low + max(report.kkt_slack, 1e-11)

    def test_interior_atoms_on_derivative_roots(self, solved):
        # the Newton polish zeroes its own i'; the moment-ratio form in
        # density.py is an independent evaluation of the same derivative
        for n in (10, 20):
            report = solved(n)
            pts = report.input.points
            inner = pts[(pts > 0) & (pts < 1)]
            assert len(inner) > 0
            resid = info_density_prime(inner, report.input, ChannelSpec(n))
            assert np.max(np.abs(resid)) <= 1e-9

    # 75, 93 and 137 did not certify before the half-support solve; 139 and
    # 142 sit where a centre atom is born, between pins that certify; 94,
    # 114, 122, 133 and 136 need the centre orbit to split or merge
    @pytest.mark.parametrize("n", [40, 64, 75, 93, 94, 100, 110, 114, 122, 128, 133, 136,
                                   137, 139, 140, 142])
    def test_certifies_mid_range(self, solved, n):
        report = solved(n)
        assert report.converged
        assert report.kkt_slack <= 1e-8
        assert report.equality_defect <= 1e-8

    @pytest.mark.parametrize("n", [2, 3, 10, 24, 40])
    def test_report_exactly_symmetric(self, solved, n):
        report = solved(n)
        pts, w = report.input.points, report.input.weights
        K = len(pts)
        assert all(w[k] == w[K - 1 - k] for k in range(K))
        # the atoms past 1/2 are formed as 1 - h from the ones in [0, 1/2]
        assert all(pts[K - 1 - k] == 1.0 - pts[k] for k in range((K + 1) // 2))
        assert report.flags["symmetry_defect"] == 0.0

    # the support sizes of the certified optima; a seed or polish that leaves
    # extra atoms behind still certifies but shows here (at n = 122 and 143 a
    # Newton run that stalled from the ascent's answer left two)
    @pytest.mark.parametrize("n,size", [(24, 8), (64, 13), (80, 15), (122, 20), (128, 20),
                                        (143, 22), (150, 22)])
    def test_certified_support_sizes(self, solved, n, size):
        report = solved(n)
        assert report.converged
        assert report.support_size == size

    def test_json_payload_schema(self, solved):
        payload = solved(2).to_dict()
        assert list(payload.keys()) == ["n", "capacity_nats", "kkt_slack", "support",
                                        "weights", "output_pmf", "flags", "iterations",
                                        "converged"]


class TestHalfSupport:
    # centre: True appends a centre atom of mass 0.05, a number s a centre
    # pair of that mass at 1/2 -+ sqrt(s); False keeps the solved last pair
    @pytest.mark.parametrize("n,centre", [(24, True), (128, False), (24, 1e-3), (24, 1e-6)])
    def test_jacobian_matches_central_differences(self, solved, n, centre):
        spec = ChannelSpec(n)
        h, v = _half(solved(n))
        if centre is not False:
            s = 0.0 if centre is True else centre
            h, v = np.append(h, 0.5 - math.sqrt(s)), np.append(v, 0.05)
        rng = np.random.default_rng(n)
        K = len(h)
        m = K - 2
        h[1:-1] += 2e-3 * rng.uniform(-1.0, 1.0, m)
        v = v * rng.uniform(0.8, 1.2, K)
        v /= v.sum()
        s = (0.5 - h[-1]) ** 2

        def resid(z):
            x = h.copy()
            x[1:-1] = z[K:K + m]
            x[-1] = 0.5 - math.sqrt(z[K + m])
            # the g' branch of the centre row: its s row has content
            return _kkt_residual(spec, x, z[:K], z[-1], s_row=False)[0]

        z = np.concatenate([v, h[1:-1], [s, 1.5]])
        J = _kkt_system(spec, h, v, _kkt_residual(spec, h, v, z[-1], s_row=False)[2])
        assert J.shape == (2 * K, 2 * K)
        # s = 0 has no two-sided difference; the limit test below covers it
        cols = [j for j in range(len(z)) if j != K + m or s > 0.0]
        num = np.zeros_like(J)
        for j in cols:
            e = np.zeros(len(z))
            e[j] = 1e-7 if K <= j < K + m else min(1e-6, 0.3 * s) if j == K + m else 1e-6
            num[:, j] = (resid(z + e) - resid(z - e)) / (2 * e[j])
        assert np.max(np.abs(num - J)[:, cols]) <= 1e-6 * np.max(np.abs(J))

    def test_centre_row_limit_is_half_the_curvature(self, solved):
        # g'(s) = -i'(1/2 - sqrt(s)) / (2 sqrt(s)) tends to i''(1/2)/2; the
        # moment-ratio i'' of density.py is an independent evaluation of it
        spec = ChannelSpec(24)
        h, v = _half(solved(24))
        h, v = np.append(h, 0.5), np.append(v, 0.05)
        v /= v.sum()
        half_curv = 0.5 * info_density_second(0.5, solver._full_input(h, v), spec)
        for s in (0.0, 1e-12):
            h[-1] = 0.5 - math.sqrt(s)
            F, _, _ = _kkt_residual(spec, h, v, 0.0, s_row=False)
            assert abs(-F[-2] / half_curv - 1.0) <= 1e-8

    def test_polish_splits_a_centre_atom_by_newton(self, solved, monkeypatch):
        # the solved n = 24 half support ends in a pair near 0.469; started
        # from a centre atom of the same mass, Newton alone must split it
        spec = ChannelSpec(24)
        h, v = _half(solved(24))
        assert 0.46 < h[-1] < 0.5
        start = h.copy()
        start[-1] = 0.5

        def no_ascent(*args):
            raise AssertionError("the ascent must not be needed")

        monkeypatch.setattr(solver, "_ascend_information", no_ascent)
        nh, nv = solver._polish(spec, start, v)
        assert len(nh) == len(h)
        assert np.max(np.abs(nh - h)) <= 1e-9

    def test_polish_ascends_once_when_newton_stalls(self, monkeypatch):
        # the ascent's last atom lands within the merge radius of 1/2 and
        # snaps onto it; that is no change of structure, so a second ascent
        # from the same start would only repeat the first
        ascents = []

        def stalled_newton(spec, h, v):
            return h.copy(), v.copy(), "stall", 1.6e-4

        def ascent(spec, h, v):
            ascents.append(len(h))
            return np.array([0.0, 0.2, 0.5 - 0.5 * solver._MERGE_RADIUS]), np.full(3, 1 / 3)

        monkeypatch.setattr(solver, "_kkt_newton", stalled_newton)
        monkeypatch.setattr(solver, "_ascend_information", ascent)
        h, v = solver._polish(ChannelSpec(24), np.array([0.0, 0.2, 0.45]), np.full(3, 1 / 3))
        assert ascents == [3]
        assert h[-1] == 0.5

    @pytest.mark.parametrize("n", [10, 24, 128])
    def test_orbit_ba_matches_full_grid(self, n):
        spec = ChannelSpec(n)
        full = blahut_arimoto(spec, np.linspace(0.0, 1.0, 2049), 1e-6, max_iters=2000)
        v, lo, *_ = _ba_core(spec, np.linspace(0.0, 0.5, 1025), 1e-6, 2000, orbits=True)
        # orbit {k, 2048 - k} of the full grid; the centre k = 1024 is its own
        summed = full.weights[:1025] + np.append(full.weights[2048:1024:-1], 0.0)
        assert np.max(np.abs(v - summed)) <= 1e-13
        assert abs(lo - full.capacity_low) <= 1e-14


class TestSeedSupport:
    def test_runs_no_blahut_arimoto(self, monkeypatch):
        def no_ba(*args, **kwargs):
            raise AssertionError("the seed must not run Blahut-Arimoto")

        monkeypatch.setattr(solver, "_ba_core", no_ba)
        solver._seed_support(ChannelSpec(128))

    @pytest.mark.parametrize("n", [2, 3, 24, 256, 4096])
    def test_is_a_half_support(self, n):
        h, v = solver._seed_support(ChannelSpec(n))
        assert h[0] == 0.0
        assert np.all(np.diff(h) > 0.0)
        assert h[-1] <= 0.5
        assert np.all(v > 0.0)
        assert abs(v.sum() - 1.0) <= 1e-12

    def test_two_trials_seed_holds_the_centre(self):
        # for n >= 2, e^C >= 17/8 > 2, so the optimum has at least 3 atoms;
        # the endpoint orbit alone would starve the output y = 1
        h, _ = solver._seed_support(ChannelSpec(2))
        assert 0.5 in h
        assert solve_capacity(ChannelSpec(2)).iterations == 1


class TestSolverVariants:
    def test_small_budget_reports_honestly(self):
        # n = 64 takes two outer iterations to certify (n = 24 now takes one)
        report = solve_capacity(ChannelSpec(64), SolverConfig(max_outer_iters=1))
        assert not report.converged
        assert report.kkt_slack > 1e-8

    def test_budget_limited_solve_reports_last_iterate(self, monkeypatch):
        seen = []
        certify = solver._certify

        def spy(dist, *args, **kwargs):
            out = certify(dist, *args, **kwargs)
            seen.append((dist, out[0]))
            return out

        monkeypatch.setattr(solver, "_certify", spy)
        # n = 256 takes four outer iterations (n = 95 takes two)
        report = solve_capacity(ChannelSpec(256), SolverConfig(max_outer_iters=2))
        assert not report.converged
        assert report.iterations == len(seen) == 2
        dist, summary = seen[-1]
        assert np.array_equal(report.input.points, dist.points)
        assert np.array_equal(report.input.weights, dist.weights)
        assert report.kkt_slack == summary.slack
        assert report.equality_defect == summary.equality_defect


    def test_budget_warning_names_the_rule(self, caplog):
        # n = 17 takes two outer iterations
        with caplog.at_level(logging.WARNING, logger="binomcap.solver"):
            report = solve_capacity(ChannelSpec(17), SolverConfig(max_outer_iters=1))
        assert not report.converged
        assert "outer-iteration budget spent" in caplog.text

    def test_stall_warning_names_the_rule(self, caplog):
        # n = 232 stops after 8 outer iterations with no escape atom left
        with caplog.at_level(logging.WARNING, logger="binomcap.solver"):
            report = solve_capacity(ChannelSpec(232))
        assert not report.converged
        assert report.iterations == 8
        assert "no peak away from the atoms for 5 outer iterations" in caplog.text


class TestSweepCapacity:
    def test_matches_cold_solves(self, solved):
        reports = list(solver.sweep_capacity(40))
        assert [r.n for r in reports] == list(range(1, 41))
        for report in reports:
            cold = solved(report.n)
            assert report.converged
            assert report.kkt_slack <= 1e-12
            assert abs(report.capacity_nats - cold.capacity_nats) <= 1e-12
            assert report.support_size == cold.support_size

    def test_failed_warm_step_falls_back_to_the_cold_solve(self, monkeypatch):
        # the warm step at n = 7 keeps the n = 6 solution as it is, which does
        # not certify; n = 7 then gets the cold report, and n = 8 starts warm
        cold = dumps(solve_capacity(ChannelSpec(7)).to_dict())
        polish, seed = solver._polish, solver._seed_support
        polished, seeded = [], []

        def stuck_once_at_7(spec, h, v):
            polished.append(spec.n)
            if polished.count(7) == 1 and spec.n == 7:
                return h, v
            return polish(spec, h, v)

        def spy_seed(spec):
            seeded.append(spec.n)
            return seed(spec)

        monkeypatch.setattr(solver, "_polish", stuck_once_at_7)
        monkeypatch.setattr(solver, "_seed_support", spy_seed)
        reports = list(solver.sweep_capacity(8))
        assert seeded == [2, 7]
        assert dumps(reports[6].to_dict()) == cold
        assert polished.count(8) == 1
        assert reports[7].iterations == 1
        assert reports[7].converged

    def test_warm_step_crosses_a_centre_atom_birth(self, solved, monkeypatch):
        # the n = 8 optimum has 4 atoms and the n = 9 one a centre atom too:
        # the polish from n = 8 does not certify at 9, so the escape atom at
        # 1/2 goes in and a second polish certifies, with no cold solve
        seed = solver._seed_support
        seeded = []

        def spy_seed(spec):
            seeded.append(spec.n)
            return seed(spec)

        monkeypatch.setattr(solver, "_seed_support", spy_seed)
        reports = list(solver.sweep_capacity(9))
        assert seeded == [2]
        assert [r.support_size for r in reports[7:]] == [4, 5]
        assert [r.iterations for r in reports[2:]] == [1] * 6 + [2]
        report = reports[8]
        assert report.converged and report.kkt_slack <= 1e-12
        assert 0.5 in report.input.points
        assert abs(report.capacity_nats - solved(9).capacity_nats) <= 1e-12


class TestKktVerify:
    def test_certifies_known_optimum(self, table_dists):
        report = report_for_distribution(table_dists[2], ChannelSpec(2))
        summary = kkt_verify(report, ChannelSpec(2))
        assert summary.slack <= 1e-10
        assert all(summary.flags.values())
        np.testing.assert_allclose(sorted(summary.active_set), [0.0, 0.5, 1.0], atol=1e-4)

    def test_flags_perturbed_weights(self, table_dists):
        w = np.array([15 / 34 - 0.01, 2 / 17 + 0.01, 15 / 34])
        w = w / w.sum()
        dist = DiscreteInput(table_dists[2].points, w)
        report = report_for_distribution(dist, ChannelSpec(2))
        summary = kkt_verify(report, ChannelSpec(2))
        assert summary.slack > 1e-4
        assert not summary.flags["kkt_equality"]
        assert not report.converged

    def test_rejects_grid_without_interior(self):
        # the endpoints alone would certify this non-optimal n = 2 input
        dist = DiscreteInput([0.0, 1.0], [0.5, 0.5])
        report = report_for_distribution(dist, ChannelSpec(2))
        assert not report.converged
        assert report.kkt_slack > 0.05
        assert kkt_verify(report, ChannelSpec(2)).slack > 0.05

    def test_rejects_nonpositive_tol(self, table_dists):
        for tol in (0.0, -1e-8, float("nan")):
            with pytest.raises(ValueError, match="tolerance must be positive"):
                report_for_distribution(table_dists[2], ChannelSpec(2), tol=tol)

    @pytest.mark.parametrize("n", [2048, 4096])
    @pytest.mark.parametrize("points,weights", [
        ([0, .086, .457, .5, .543, .914, 1], [188, 105, 120, 173, 120, 105, 188]),
        ([0, .062, .157, .296, .395, .605, .704, .843, .938, 1],
         [139, 78, 63, 88, 131, 131, 88, 63, 78, 139]),
        ([0, .151, .257, .392, .5, .608, .743, .849, 1], [87, 140, 143, 86, 87, 86, 143, 140, 87]),
    ], ids=["7-atoms", "10-atoms", "9-atoms"])
    def test_large_n_symmetric_inputs(self, n, points, weights):
        # the pmf sums to 1 within 1e-12 only with near-exact log C(n, y):
        # log-gamma differences, off by up to 1.2e-11 at n = 4096, miss it
        dist = DiscreteInput(points, np.asarray(weights) / sum(weights))
        report = report_for_distribution(dist, ChannelSpec(n))
        assert abs(report.output.probs.sum() - 1.0) <= 1e-12

    def test_solved_twenty_all_flags(self, solved):
        report = solved(20)
        summary = kkt_verify(report, ChannelSpec(20))
        assert all(summary.flags.values())


def _random_symmetric_input(rng):
    """Mirror-symmetric input with both endpoints, 1-4 interior pairs and
    maybe a centre atom, at random positions and weights: optimal for no n."""
    half = np.sort(rng.uniform(0.02, 0.48, int(rng.integers(1, 5))))
    centre = [0.5] if rng.integers(0, 2) else []
    pts = [0.0, *half, *centre, *(1.0 - half[::-1]), 1.0]
    w = rng.uniform(0.5, 1.5, len(half) + 1 + len(centre))
    w = np.concatenate([w, w[:len(half) + 1][::-1]])
    return DiscreteInput(pts, w / w.sum())


class TestCertificate:
    def test_escape_skips_copies_of_atoms(self):
        # the largest peak is an atom's own bump; the next one marks a
        # missing atom
        pts = np.array([0.0, 0.2, 0.8, 1.0])
        peak_x = np.array([0.0, 0.2001, 0.35, 0.5])
        peak_i = np.array([0.0, 1e-6, 1e-7, -1.0])
        new = solver._escape_candidates(peak_x, peak_i, 0.0, pts, 1e-8)
        assert list(new) == [0.35]
        assert len(solver._escape_candidates(peak_x, peak_i, 0.0, pts, 1e-6)) == 0

    @pytest.mark.parametrize("n", [1024, 4096])
    def test_refined_peaks_on_the_window_are_the_full_row_ones(self, n, monkeypatch):
        spec = ChannelSpec(n)
        rng = np.random.default_rng(n + 1)
        widths = []
        window = solver._row_window

        def spy(n, lo, hi):
            start, w = window(n, lo, hi)
            widths.append(w)
            return start, w

        for _ in range(5):
            dist = _random_symmetric_input(rng)
            monkeypatch.setattr(solver, "_row_window", spy)
            _, x, i, _ = solver._certify(dist, spec, 1e-8)
            monkeypatch.setattr(solver, "_row_window", lambda n, lo, hi: (None, 0))
            _, full_x, full_i, _ = solver._certify(dist, spec, 1e-8)
            assert np.array_equal(x, full_x) and np.array_equal(i, full_i)
        assert min(widths) > 0  # every refinement round ran on the window

    # the refined peaks must see at least what the 20490-point uniform sweep
    # saw, up to rounding of i (relative: slacks reach hundreds of nats)
    @pytest.mark.parametrize("kind,n", [("solved", 2), ("solved", 10), ("solved", 75),
                                        ("solved", 137), ("solved", 256), ("random", 64),
                                        ("random", 1024), ("random", 4096),
                                        ("perturbed", 24)])
    def test_slack_never_below_uniform_sweep(self, solved, uniform_sweep, kind, n):
        spec = ChannelSpec(n)
        if kind == "random":
            dist = _random_symmetric_input(np.random.default_rng(n))
        else:
            dist = solved(n).input
        if kind == "perturbed":
            # every interior atom 2e-3 closer to 1/2, mirror symmetry kept
            pts = dist.points.copy()
            inner = (pts > 0.0) & (pts < 1.0)
            pts[inner] += 2e-3 * np.sign(0.5 - pts[inner])
            dist = DiscreteInput(pts, dist.weights)
        ref_slack, max_abs_i = uniform_sweep(dist, spec)
        slack = kkt_verify(report_for_distribution(dist, spec), spec).slack
        assert slack >= ref_slack - 1e-12 * max(1.0, max_abs_i)
        if kind != "solved":
            assert slack > 1e-6
