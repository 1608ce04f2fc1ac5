import dataclasses
import itertools
import logging
import math
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from binomcap import (
    ChannelSpec,
    DiscreteInput,
    KktSummary,
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
from binomcap import certificate, solver
from binomcap.serialize import dumps
from binomcap.distributions import _info_density_against_logq
from binomcap.kernel import _output_counts
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

    def test_nan_tolerance_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(kkt_tol=float("nan"))

    def test_infinite_tolerance_rejected(self):
        # an infinite tolerance would switch the certification gate off
        with pytest.raises(ValueError, match="finite"):
            SolverConfig(kkt_tol=float("inf"))

    @pytest.mark.parametrize("tol", [True, np.True_, "1e-8", None])
    def test_tolerance_must_be_a_real_number(self, tol):
        # True used to pass as a 1-nat gate, and a string to raise TypeError
        with pytest.raises(ValueError, match="kkt_tol"):
            SolverConfig(kkt_tol=tol)

    @pytest.mark.parametrize("budget", [2.5, True, 0, -1, "3"])
    def test_budget_must_be_a_positive_integer(self, budget):
        # 2.5 used to fail later in range(), and True to run as 1
        with pytest.raises(ValueError, match="max_outer_iters"):
            SolverConfig(max_outer_iters=budget)

    def test_numpy_integer_budget_accepted(self):
        assert SolverConfig(max_outer_iters=np.int64(3)).max_outer_iters == 3


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

    def test_non_finite_grid_point_rejected(self):
        # NaN fails every comparison: it passed the increasing check, ran
        # the whole iteration cap and returned NaN weights
        with pytest.raises(ValueError, match="finite"):
            blahut_arimoto(ChannelSpec(2), [0.0, math.nan, 1.0], 1e-8)

    @pytest.mark.parametrize("iters", [0, -3, 2.5, True, "5"])
    def test_max_iters_must_be_a_positive_integer(self, iters):
        # 0 and -3 used to raise UnboundLocalError
        with pytest.raises(ValueError, match="max_iters"):
            blahut_arimoto(ChannelSpec(2), [0.0, 0.5, 1.0], 1e-8, max_iters=iters)

    @pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf, True])
    def test_tol_must_be_positive_and_finite(self, tol):
        # NaN and -1 used to run silently to the iteration cap
        with pytest.raises(ValueError, match="tol must be positive"):
            blahut_arimoto(ChannelSpec(2), [0.0, 0.5, 1.0], tol)


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
        assert report.symmetry_defect == 0.0

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
        # Newton stalls before and after the ascent: one ascent, whose
        # answer, merged by the ascent itself, is the polish's
        ascents = []
        answer = np.array([0.0, 0.2, 0.5]), np.full(3, 1 / 3)

        def stalled_newton(spec, h, v):
            return h.copy(), v.copy(), "stall", 1.6e-4

        def ascent(spec, h, v):
            ascents.append(len(h))
            return answer

        monkeypatch.setattr(solver, "_kkt_newton", stalled_newton)
        monkeypatch.setattr(solver, "_ascend_information", ascent)
        h, v = solver._polish(ChannelSpec(24), np.array([0.0, 0.2, 0.45]), np.full(3, 1 / 3))
        assert ascents == [3]
        assert h is answer[0] and v is answer[1]

    def test_ascent_returns_a_merged_support(self):
        # a start with a starved output returns at once, merged all the
        # same: its last atom lies within the merge radius of 1/2 and snaps
        h = np.array([0.0, 0.5 - 0.5 * solver._MERGE_RADIUS])
        nh, nv = solver._ascend_information(ChannelSpec(4), h, np.array([1.0, 0.0]))
        assert list(nh) == [0.0, 0.5] and list(nv) == [1.0, 0.0]

    def test_merge_half_merges_near_atoms(self):
        # unsorted, with two pairs of atoms within the merge radius and a
        # last atom within it of 1/2; the masses sum to 0.8
        r = solver._MERGE_RADIUS
        h = np.array([0.3, 0.5 * r, 0.5 - 0.5 * r, 0.0, 0.3 + 0.5 * r])
        v = np.array([0.1, 0.1, 0.2, 0.1, 0.3])
        nh, nv = solver._merge_half(h, v)
        assert len(nh) == 3
        # the first pair merges at its mass-weighted position 0.25 r, then
        # is pinned to 0; the second lands at its mass-weighted position
        assert nh[0] == 0.0
        assert nh[1] == pytest.approx((0.3 * 0.1 + (0.3 + 0.5 * r) * 0.3) / 0.4, rel=1e-15)
        assert nh[2] == 0.5
        # summed masses 0.2, 0.4 and 0.2, renormalized
        np.testing.assert_allclose(nv, [0.25, 0.5, 0.25], rtol=1e-15)
        assert abs(nv.sum() - 1.0) <= 1e-15

    def test_polish_ascends_where_newton_leaves_a_negative_mass(self, solved, monkeypatch):
        # a Newton answer with a nonpositive mass is no solution: the ascent
        # holds masses at 0 rather than the orbit being dropped outright, and
        # from the solved start it keeps all 4 orbits
        spec = ChannelSpec(24)
        h, v = _half(solved(24))
        assert len(h) == 4
        newton, ascend = solver._kkt_newton, solver._ascend_information
        newtons, ascents = [], []

        def negative_once(spec, h0, v0):
            newtons.append(len(h0))
            if len(newtons) > 1:
                return newton(spec, h0, v0)
            nv = v0.copy()
            nv[2] = -0.01
            return h0.copy(), nv, "neg", 1e-14

        def spy_ascent(spec, h0, v0):
            ascents.append(len(h0))
            return ascend(spec, h0, v0)

        monkeypatch.setattr(solver, "_kkt_newton", negative_once)
        monkeypatch.setattr(solver, "_ascend_information", spy_ascent)
        nh, nv = solver._polish(spec, h, v)
        assert ascents == [4]
        assert len(nh) == 4
        assert np.all(nv > 0.0)
        assert abs(nv.sum() - 1.0) <= 1e-15

    @pytest.mark.parametrize("n", [24, 256, 4096])
    def test_density_rows_are_the_density_sweeps(self, solved, n):
        # the endpoint row is taken in closed form, -log q(0); every row is
        # the density sweep's i against the same output pmf
        spec = ChannelSpec(n)
        if n < 4096:
            h, v = _half(solved(n))
        else:
            h = solver._seed_support(spec)[0]
            v = np.full(len(h), 1.0 / len(h))
        _, ival, terms = _kkt_residual(spec, h, v, 0.0)
        want = _info_density_against_logq(spec, h, np.log(terms[2]))
        assert np.all(np.abs(ival - want) <= 1e-15 * np.abs(want))

    def test_newton_stops_at_its_rounding_floor(self, solved, monkeypatch):
        # from the certified n = 256 half support the residual starts at the
        # rounding floor; a run used to wait for 1e-13 or ten steps that did
        # not halve it (25 residual evaluations)
        spec = ChannelSpec(256)
        h, v = _half(solved(256))
        calls = []
        residual = solver._kkt_residual

        def spy(*args, **kwargs):
            calls.append(1)
            return residual(*args, **kwargs)

        monkeypatch.setattr(solver, "_kkt_residual", spy)
        nh, nv, status, fn = solver._kkt_newton(spec, h, v)
        assert status == "ok" and fn <= 1e-12
        assert len(calls) <= 8

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

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 9, 24, 80, 128, 256, 4096])
    def test_is_a_half_support(self, n):
        seeds = solver._seed_support(ChannelSpec(n))
        # the count rule: the two structures whose gaps past the edge need
        # the least stretch lambda to meet phi = pi / 2, at a centre atom or
        # half-way across a pair; one seed where the edge gap reaches it
        sizes = {2: [2], 3: [2], 4: [2], 5: [2, 3], 9: [2, 3], 24: [4, 4], 80: [8, 7],
                 128: [10, 10], 256: [16, 15], 4096: [99, 99]}
        assert [len(h) for h in seeds] == sizes[n]
        for h in seeds:
            assert h[0] == 0.0
            assert np.all(np.diff(h) > 0.0)
            assert h[-1] <= 0.5

    @pytest.mark.parametrize("n", [24, 80, 128, 256, 4096])
    def test_gaps_follow_the_law_stretched_by_one_factor(self, n):
        # in phi sqrt(n): the edge gap pi, then g_k = 2.24 (k / 2)^-0.283
        # times one lambda, up to 1/2 or half-way across the pair's gap
        stretch = []
        for h in solver._seed_support(ChannelSpec(n)):
            u = 2.0 * np.arcsin(np.sqrt(h)) * math.sqrt(n)
            k = np.arange(2, len(h) + 1)
            law = 2.24 * (k / 2.0) ** -0.283
            lam = np.diff(u)[1:] / law[:len(h) - 2]
            assert abs(u[1] - math.pi) <= 1e-12
            assert np.ptp(lam) <= 1e-12
            half_gap = (0.5 * math.pi * math.sqrt(n) - u[-1]) / (0.5 * law[-1])
            assert half_gap == pytest.approx(lam[0] if h[-1] < 0.5 else 0.0, rel=1e-12, abs=1e-12)
            stretch.append(abs(math.log(lam[0])))
        assert stretch[0] <= stretch[1]

    def test_two_trials_seed_holds_the_centre(self):
        # for n >= 2, e^C >= 17/8 > 2, so the optimum has at least 3 atoms;
        # the endpoint orbit alone would starve the output y = 1
        h, = solver._seed_support(ChannelSpec(2))
        assert 0.5 in h
        assert solve_capacity(ChannelSpec(2)).iterations == 1

    @pytest.mark.parametrize("n", [5, 24, 80, 128, 4096])
    def test_first_interior_atom_at_the_edge_gap(self, n):
        # certified supports put it at phi = 2 arcsin sqrt(x) = pi / sqrt(n)
        for h in solver._seed_support(ChannelSpec(n)):
            assert abs(h[1] - math.sin(math.pi / (2 * math.sqrt(n))) ** 2) <= 1e-15

    @pytest.mark.parametrize("n", [2, 3, 128])
    def test_cold_solve_runs_one_blahut_arimoto_update(self, solved, n, monkeypatch):
        calls = []
        ba = solver._ba_core

        def spy(spec, xs, tol, max_iters, **kwargs):
            calls.append(max_iters)
            return ba(spec, xs, tol, max_iters, **kwargs)

        monkeypatch.setattr(solver, "_ba_core", spy)
        report = solve_capacity(ChannelSpec(n))
        assert calls == [1]
        # the same answer as the shared `solved` fixture's, at a Newton solution
        assert report.to_dict() == solved(n).to_dict()
        assert report.kkt_slack <= 1e-12 and report.equality_defect <= 1e-12

    @pytest.mark.parametrize("n, atoms, centre", [(80, 15, True), (128, 20, False),
                                                  (256, 31, True)])
    def test_best_seed_has_the_optimums_structure_and_reaches_newton(self, solved, n, atoms,
                                                                      centre):
        # the atom count and centre kind of the certified optimum; Newton
        # solves the optimality system from the seed's one-update masses
        report = solved(n)
        assert report.support_size == atoms and (0.5 in report.input.points) == centre
        spec = ChannelSpec(n)
        h = solver._seed_support(spec)[0]
        assert 2 * len(h) - (h[-1] == 0.5) == atoms and (h[-1] == 0.5) == centre
        v = _ba_core(spec, h, -np.inf, 1, orbits=True)[0]
        assert solver._kkt_newton(spec, h, v)[2] == "ok"

    @pytest.mark.parametrize("n", [288, 292])
    def test_cold_solve_ends_at_a_newton_solution(self, n):
        # Newton used to stall near its rounding floor here and leave the
        # ascent's answer (n = 288: slack 1.8e-11)
        report = solve_capacity(ChannelSpec(n))
        assert report.converged
        assert report.kkt_slack <= 1e-12 and report.equality_defect <= 1e-12

    @pytest.mark.parametrize("n", [80, 128])
    def test_cold_solve_certifies_in_one_outer_iteration(self, solved, n):
        report = solved(n)
        assert report.converged and report.iterations == 1
        # at a Newton solution
        assert report.kkt_slack <= 1e-12 and report.equality_defect <= 1e-12


class TestCachedConstants:
    @pytest.mark.parametrize("n", [1, 2, 128, 4096])
    def test_per_n_arrays_are_read_only_and_equal_their_formulas(self, n):
        y, ny = _output_counts(n)
        assert _output_counts(n) is _output_counts(n)
        assert np.array_equal(y, np.arange(n + 1)) and np.array_equal(ny, n - np.arange(n + 1))
        polys = solver._centre_polys(n)
        assert solver._centre_polys(n) is polys
        # in double, as the formulas were written out per call before
        t = 4.0 * np.arange(n + 1) - 2.0 * n
        assert np.array_equal(polys, [t, t * t - 4.0 * n, t ** 3 + (8.0 - 12.0 * n) * t,
                                      t ** 4 + (32.0 - 24.0 * n) * t * t + 48.0 * n * n - 96.0 * n])
        # and exact: the integers of the polynomials in y
        yi = [int(v) for v in range(n + 1)]
        ti = [4 * v - 2 * n for v in yi]
        assert [int(p) for p in polys[3]] == [u ** 4 + (32 - 24 * n) * u * u + 48 * n * n - 96 * n
                                              for u in ti]
        for arr in (y, ny, polys):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0

    @pytest.mark.parametrize("k", [1, 2, 5, 40])
    def test_sum_zero_basis_is_read_only_and_orthonormal(self, k):
        B = solver._sum_zero_basis(k)
        assert solver._sum_zero_basis(k) is B
        assert not B.flags.writeable
        assert B.shape == (k, k - 1)
        assert np.allclose(B.T @ B, np.eye(k - 1), atol=1e-14)
        assert np.allclose(B.sum(axis=0), 0.0, atol=1e-14)


class TestAscent:
    @pytest.mark.parametrize("s", [0.0, 2.5e-3])
    def test_model_matches_central_differences(self, solved, s):
        # a 5-orbit half support off the optimum, its last orbit a centre
        # atom (s = 0) or a pair
        spec = ChannelSpec(40)
        h, v = _half(solved(40))
        assert len(h) == 5
        rng = np.random.default_rng(40)
        K = len(h)
        h[1:-1] += 3e-3 * rng.uniform(-1.0, 1.0, K - 2)
        h[-1] = 0.5 - math.sqrt(s)
        v = v * rng.uniform(0.8, 1.2, K)
        v /= v.sum()

        def model(z):
            x = h.copy()
            x[1:-1] = z[K:-1]
            x[-1] = 0.5 - math.sqrt(z[-1])
            return solver._ascent_model(spec, x, z[:K])

        z = np.concatenate([v, h[1:-1], [s]])
        info, g, H = model(z)
        assert np.array_equal(H, H.T)
        # off sum(v) = 1 the model is of the unnormalized sum_k v_k i(h_k),
        # whose mass gradient is i(h_k) - 1
        grad = g - np.concatenate([np.ones(K), np.zeros(K - 1)])
        # s = 0 has no two-sided difference
        cols = [j for j in range(len(z)) if j != 2 * K - 2 or s > 0.0]
        num_g, num_H = np.zeros_like(g), np.zeros_like(H)
        for j in cols:
            e = np.zeros(len(z))
            e[j] = 1e-7 if K <= j < 2 * K - 2 else 1e-6
            up, down = model(z + e), model(z - e)
            num_g[j] = (up[0] - down[0]) / (2 * e[j])
            num_H[:, j] = (up[1] - down[1]) / (2 * e[j])
        assert np.max(np.abs(num_g - grad)[cols]) <= 1e-6 * np.max(np.abs(grad))
        assert np.max(np.abs(num_H - H)[:, cols]) <= 1e-6 * np.max(np.abs(H))

    def test_trust_region_step_maximizes_the_model(self, rng):
        for _ in range(20):
            A = rng.normal(size=(6, 6))
            H, g = A + A.T, rng.normal(size=6)
            radius = rng.uniform(0.1, 2.0)
            p, gain, boundary = solver._trust_region_step(solver._model_eigen(g, H), radius)
            assert np.linalg.norm(p) <= radius * (1 + 1e-6)
            assert abs(gain - (g @ p + 0.5 * p @ H @ p)) <= 1e-10 * max(1.0, abs(gain))
            # no point of the ball does better
            u = rng.normal(size=(2000, 6))
            u *= radius * rng.uniform(0, 1, (2000, 1)) ** (1 / 6) / np.linalg.norm(u, axis=1)[:, None]
            assert np.max(u @ g + 0.5 * np.einsum("ij,jk,ik->i", u, H, u)) <= gain + 1e-12
        # concave with the maximizer inside: the Newton step
        H = -np.diag([1.0, 2.0, 4.0])
        p, gain, boundary = solver._trust_region_step(solver._model_eigen(np.ones(3), H), 10.0)
        assert not boundary and np.allclose(p, [1.0, 0.5, 0.25])
        # hard case: g has no part along the most convex direction; the
        # step stops inside the ball, but still ascends
        eig = solver._model_eigen(np.array([0.0, 1.0]), np.diag([1.0, -4.0]))
        p, gain, boundary = solver._trust_region_step(eig, 1.0)
        assert np.linalg.norm(p) <= 1.0 and gain > 0.0

    def test_ascent_from_the_seed_reaches_newton(self):
        # from the seed's masses after one Blahut-Arimoto update, as in a cold solve
        spec = ChannelSpec(128)
        h = solver._seed_support(spec)[0]
        v = _ba_core(spec, h, -np.inf, 1, orbits=True)[0]
        nh, nv = solver._ascend_information(spec, h, v)
        info = solver._information(v, _kkt_residual(spec, h, v, 0.0)[1])
        assert solver._information(nv, _kkt_residual(spec, nh, nv, 0.0)[1]) >= info
        assert solver._kkt_newton(spec, nh, nv)[2] == "ok"

    def test_ascent_reuses_the_model_of_a_rejected_step(self, monkeypatch):
        # after a rejected step only the radius moves, so the ascent from the
        # n = 128 seed needs fewer eigendecompositions than residuals (it
        # used to take one of each per step, 17 and 17)
        spec = ChannelSpec(128)
        h = solver._seed_support(spec)[0]
        v = _ba_core(spec, h, -np.inf, 1, orbits=True)[0]
        calls = {"residual": 0, "eigh": 0}
        residual, eigh = solver._kkt_residual, np.linalg.eigh

        def spy_residual(*args, **kwargs):
            calls["residual"] += 1
            return residual(*args, **kwargs)

        def spy_eigh(*args, **kwargs):
            calls["eigh"] += 1
            return eigh(*args, **kwargs)

        monkeypatch.setattr(solver, "_kkt_residual", spy_residual)
        monkeypatch.setattr(np.linalg, "eigh", spy_eigh)
        solver._ascend_information(spec, h, v)
        assert 0 < calls["eigh"] < calls["residual"]

    def test_scipy_optimize_not_imported(self):
        code = "import binomcap, sys; assert 'scipy.optimize' not in sys.modules"
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})


class TestSolverVariants:
    def test_small_budget_reports_honestly(self):
        # n = 19 takes two outer iterations to certify (n = 64 takes one)
        report = solve_capacity(ChannelSpec(19), SolverConfig(max_outer_iters=1))
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
        # with no escape atom, no start certifies n = 132: it takes one outer
        # iteration per start, two in all, and the budget counts them
        # together (n = 19 certifies in its second)
        monkeypatch.setattr(solver, "_escape_candidates", lambda *args: np.array([]))
        report = solve_capacity(ChannelSpec(132), SolverConfig(max_outer_iters=2))
        assert not report.converged
        assert report.iterations == len(seen) == 2
        dist, summary = seen[-1]
        assert np.array_equal(report.input.points, dist.points)
        assert np.array_equal(report.input.weights, dist.weights)
        assert report.kkt_slack == summary.kkt_slack
        assert report.equality_defect == summary.equality_defect


    def test_budget_warning_names_the_rule(self, caplog):
        # n = 30 takes two outer iterations
        with caplog.at_level(logging.WARNING, logger="binomcap.solver"):
            report = solve_capacity(ChannelSpec(30), SolverConfig(max_outer_iters=1))
        assert not report.converged
        assert "outer-iteration budget spent" in caplog.text

    def test_stall_warning_names_the_rule(self, caplog, monkeypatch):
        # n = 19 needs an escape atom after its first outer iteration; with
        # none found and no other start, the loop stops there
        monkeypatch.setattr(solver, "_escape_candidates", lambda *args: np.array([]))
        starts = solver._cold_starts
        monkeypatch.setattr(solver, "_cold_starts", lambda spec: itertools.islice(starts(spec), 1))
        with caplog.at_level(logging.WARNING, logger="binomcap.solver"):
            report = solve_capacity(ChannelSpec(19))
        assert not report.converged
        assert report.iterations == 1
        assert "no peak away from the atoms" in caplog.text
        assert "outer-iteration budget spent" not in caplog.text

    @staticmethod
    def _stub_starts(monkeypatch, outcomes):
        """Stub `_cold_starts` and `_refine`: start i spends outcomes[i][0]
        outer iterations (as many as the budget leaves) and ends certified at
        slack outcomes[i][1], or uncertified where that is None.  Returns the
        indices of the starts taken, filled in as the solve takes them."""
        taken = []

        def starts(spec):
            for i in range(len(outcomes)):
                taken.append(i)
                yield np.array([float(i)]), np.ones(1)

        def refine(spec, h, v, tol, outers):
            used, slack = outcomes[int(h[0])]
            outer = min(outers.start + used - 1, outers.stop - 1)
            certified = slack is not None and outer == outers.start + used - 1
            report = SimpleNamespace(iterations=outer, kkt_slack=slack if certified else 1e-6,
                                     equality_defect=0.0, converged=certified)
            return report, ((h, v) if certified else None)

        monkeypatch.setattr(solver, "_cold_starts", starts)
        monkeypatch.setattr(solver, "_refine", refine)
        return taken

    def test_off_newton_start_is_kept_over_a_later_uncertified_one(self, monkeypatch):
        # the first start certifies above kkt_tol / 100, so the next one runs;
        # it does not certify, and the solve reports the first
        taken = self._stub_starts(monkeypatch, [(1, 5e-9), (2, None)])
        report, half = solver._solve(ChannelSpec(40), SolverConfig())
        assert taken == [0, 1]
        assert half is not None and report.kkt_slack == 5e-9 and report.iterations == 1

    def test_later_start_at_a_newton_solution_settles_the_solve(self, monkeypatch):
        # slack 1e-12 is within kkt_tol / 100: that start is reported, and no
        # start after it runs; the iteration count runs across the starts
        taken = self._stub_starts(monkeypatch, [(1, 5e-9), (2, 1e-12), (1, 1e-13)])
        report, half = solver._solve(ChannelSpec(40), SolverConfig())
        assert taken == [0, 1]
        assert half is not None and report.kkt_slack == 1e-12 and report.iterations == 3

    def test_settle_bar_follows_kkt_tol(self, monkeypatch):
        # at kkt_tol = 1e-6, slack 5e-9 is within kkt_tol / 100
        taken = self._stub_starts(monkeypatch, [(1, 5e-9), (1, 1e-12)])
        report, _ = solver._solve(ChannelSpec(40), SolverConfig(kkt_tol=1e-6))
        assert taken == [0] and report.kkt_slack == 5e-9

    @pytest.mark.parametrize("outcomes, certified", [([(2, None), (5, None), (1, 1e-12)], False),
                                                     ([(3, 5e-9), (1, 1e-12)], True)])
    def test_spent_budget_ends_the_solve(self, monkeypatch, caplog, outcomes, certified):
        # max_outer_iters = 3 bounds all starts together: the start that
        # reaches it is the last one taken
        taken = self._stub_starts(monkeypatch, outcomes)
        with caplog.at_level(logging.WARNING, logger="binomcap.solver"):
            report, half = solver._solve(ChannelSpec(40), SolverConfig(max_outer_iters=3))
        assert taken == list(range(len(outcomes) - 1))
        assert report.iterations == 3 and (half is not None) == certified
        assert ("outer-iteration budget spent" in caplog.text) == (not certified)

    def test_budgeted_large_n_certify(self, solved):
        # criterion 3's budgeted solves, at a Newton solution
        for n in (512, 1024):
            report = solved(n, max_outer_iters=16)
            assert report.converged
            assert report.kkt_slack <= 1e-10 and report.equality_defect <= 1e-10


class TestRowsDot:
    @pytest.mark.parametrize("m, K, k", [(46, 48, 513), (75, 77, 1025), (195, 197, 4097)])
    def test_equals_the_blas_product_to_rounding(self, m, K, k):
        rng = np.random.default_rng(m)
        A, B = rng.random((m, k)), rng.random((K, k))
        assert m * K * k >= 1 << 18
        ref = A @ B.T
        assert np.max(np.abs(solver._rows_dot(A, B) - ref)) <= 1e-14 * np.abs(ref).max()

    def test_is_the_blas_product_below_two_to_the_eighteen(self):
        # every n <= 300 keeps the plain product's bits (sweep --n-max 300)
        rng = np.random.default_rng(1)
        A, B = rng.random((29, 257)), rng.random((31, 257))
        assert np.array_equal(solver._rows_dot(A, B), A @ B.T)

    def test_same_bits_at_one_and_two_threads(self):
        # shapes where OpenBLAS's own product differs between thread counts
        code = ("import hashlib, numpy as np; from binomcap import solver; "
                "rng = np.random.default_rng(0); h = hashlib.md5(); "
                "[h.update(solver._rows_dot(rng.random((K - 2, k)), rng.random((K, k))).tobytes()) "
                "for K, k in [(48, 513), (78, 1025), (122, 2049), (201, 4097)]]; "
                "print(h.hexdigest())")
        out = [subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                              text=True, env={**os.environ, "OPENBLAS_NUM_THREADS": str(t),
                                              "PYTHONPATH": os.pathsep.join(sys.path)}).stdout
               for t in (1, 2)]
        assert out[0] == out[1]


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
        # not certify; the cold starts then run, numbered after the warm
        # step's outer iterations, and n = 8 starts warm
        cold = solve_capacity(ChannelSpec(7)).to_dict()
        polish, seed, refine = solver._polish, solver._seed_support, solver._refine
        polished, seeded, warm = [], [], []

        def stuck_once_at_7(spec, h, v):
            polished.append(spec.n)
            if polished.count(7) == 1 and spec.n == 7:
                return h, v
            return polish(spec, h, v)

        def spy_seed(spec):
            seeded.append(spec.n)
            return seed(spec)

        def spy_refine(spec, h, v, tol, outers):
            report, half = refine(spec, h, v, tol, outers)
            if spec.n == 7 and outers.start == 1:
                warm.append((report.iterations, half is None))
            return report, half

        monkeypatch.setattr(solver, "_polish", stuck_once_at_7)
        monkeypatch.setattr(solver, "_seed_support", spy_seed)
        monkeypatch.setattr(solver, "_refine", spy_refine)
        reports = list(solver.sweep_capacity(8))
        assert seeded == [2, 7]
        assert len(warm) == 1 and warm[0][1]
        report = reports[6].to_dict()
        assert report.pop("iterations") == cold.pop("iterations") + warm[0][0]
        assert dumps(report) == dumps(cold)
        assert polished.count(8) == 1
        assert reports[7].iterations == 1
        assert reports[7].converged

    def test_sweep_keeps_the_outer_iteration_budget(self, caplog):
        # at n = 9 and 19 the carried start needs its escape atom, a second
        # outer iteration that a budget of one does not leave
        with caplog.at_level(logging.WARNING, logger="binomcap.solver"):
            reports = list(solver.sweep_capacity(20, SolverConfig(max_outer_iters=1)))
        assert all(r.iterations <= 1 for r in reports)

    @pytest.mark.parametrize("n, atoms", [(222, 28), (247, 30)])
    def test_carried_start_hands_off_at_a_birth(self, solved, n, atoms):
        # the n - 1 optimum carried to n certifies one atom short, off a
        # Newton solution; the cold starts then find the optimum with one
        # atom more
        config = SolverConfig()
        prior, half = solver._solve(ChannelSpec(n), config)
        assert prior.support_size == atoms
        report, _ = solver._solve(ChannelSpec(n + 1), config, half)
        assert report.converged and report.support_size == atoms + 1
        assert max(report.kkt_slack, report.equality_defect) <= 1e-12
        assert abs(report.capacity_nats - solved(n + 1).capacity_nats) <= 1e-13

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
        assert summary.kkt_slack <= 1e-10
        assert all(summary.flags.values())
        np.testing.assert_allclose(sorted(summary.active_set), [0.0, 0.5, 1.0], atol=1e-4)

    def test_flags_perturbed_weights(self, table_dists):
        w = np.array([15 / 34 - 0.01, 2 / 17 + 0.01, 15 / 34])
        w = w / w.sum()
        dist = DiscreteInput(table_dists[2].points, w)
        report = report_for_distribution(dist, ChannelSpec(2))
        summary = kkt_verify(report, ChannelSpec(2))
        assert summary.kkt_slack > 1e-4
        assert not summary.flags["kkt_equality"]
        assert not report.converged

    def test_rejects_grid_without_interior(self):
        # the endpoints alone would certify this non-optimal n = 2 input
        dist = DiscreteInput([0.0, 1.0], [0.5, 0.5])
        report = report_for_distribution(dist, ChannelSpec(2))
        assert not report.converged
        assert report.kkt_slack > 0.05
        assert kkt_verify(report, ChannelSpec(2)).kkt_slack > 0.05

    def test_converged_comes_from_the_certificate(self):
        # no caller can stamp an input converged that does not certify
        dist = DiscreteInput([0.0, 1.0], [0.5, 0.5])
        with pytest.raises(TypeError):
            report_for_distribution(dist, ChannelSpec(2), converged=True)

    def test_rejects_nonpositive_tol(self, table_dists):
        for tol in (0.0, -1e-8, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="tolerance must be positive"):
                report_for_distribution(table_dists[2], ChannelSpec(2), tol=tol)

    @pytest.mark.parametrize("tol", [True, np.True_, "1e-8"])
    def test_rejects_non_real_tol(self, tol):
        # with tol=True this non-optimal input (slack 0.28, equality defect
        # 0.42) used to certify
        dist = DiscreteInput([0.0, 0.5, 1.0], [0.3, 0.4, 0.3])
        with pytest.raises(ValueError, match="tolerance must be positive"):
            report_for_distribution(dist, ChannelSpec(2), tol=tol)

    def test_report_is_its_certificate(self, solved):
        # a SolveReport is a KktSummary plus the solve: the certificate
        # fields are kkt_verify's, and only the JSON adds numbers to flags
        report, spec = solved(64), ChannelSpec(64)
        assert isinstance(report, KktSummary)
        summary = kkt_verify(report, spec)
        for f in dataclasses.fields(KktSummary):
            assert getattr(report, f.name) == getattr(summary, f.name), f.name
        assert len(report.flags) == 9
        assert all(type(v) is bool for v in report.flags.values())
        assert list(report.to_dict()["flags"].items())[-3:] == [
            ("equality_defect", report.equality_defect),
            ("symmetry_defect", report.symmetry_defect),
            ("active_set_size", len(report.active_set))]

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

    def test_rejects_a_spec_of_another_n(self, solved):
        # a solved n = 4 report checked against n = 6 used to return a
        # certificate for n = 6 (capacity 1.04)
        with pytest.raises(ValueError, match="n = 4"):
            kkt_verify(solved(4), ChannelSpec(6))

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
    def test_escape_folds_a_centre_peak_refined_past_half(self):
        # peak refinement can end a hair above 1/2 (n = 154); i is even
        # about 1/2, so that peak is the one at 1/2 - 1e-11
        pts = np.array([0.0, 0.2, 0.8, 1.0])
        peak_x = np.array([0.0, 0.35, 0.5 + 1e-11])
        peak_i = np.array([0.0, 1e-7, 1e-6])
        new = solver._escape_candidates(peak_x, peak_i, 0.0, pts, 1e-8)
        assert len(new) == 1
        assert 0.5 - 2e-11 <= new[0] <= 0.5

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
        window = certificate._row_window

        def spy(n, lo, hi):
            start, w = window(n, lo, hi)
            widths.append(w)
            return start, w

        for _ in range(5):
            dist = _random_symmetric_input(rng)
            monkeypatch.setattr(certificate, "_row_window", spy)
            _, x, i, _ = certificate._certify(dist, spec, 1e-8)
            monkeypatch.setattr(certificate, "_row_window", lambda n, lo, hi: (None, 0))
            _, full_x, full_i, _ = certificate._certify(dist, spec, 1e-8)
            assert np.array_equal(x, full_x) and np.array_equal(i, full_i)
        assert min(widths) > 0  # every refinement round ran on the window

    def test_refinement_stops_at_the_rounding_of_i(self, solved, monkeypatch):
        # at the n = 256 optimum every peak is an atom of the grid, where
        # Newton's model gain is rounding noise; bisecting on the sign of i'
        # there took 17 rounds
        spec, dist = ChannelSpec(256), solved(256).input
        rounds = []
        kernel = certificate.log_pmf_matrix

        def spy(*args):
            rounds.append(1)
            return kernel(*args)

        monkeypatch.setattr(certificate, "log_pmf_matrix", spy)
        summary = certificate._certify(dist, spec, 1e-8)[0]
        assert len(rounds) <= 5
        assert summary.kkt_slack <= 1e-12

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
        slack = kkt_verify(report_for_distribution(dist, spec), spec).kkt_slack
        assert slack >= ref_slack - 1e-12 * max(1.0, max_abs_i)
        if kind != "solved":
            assert slack > 1e-6
