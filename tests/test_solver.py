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
    kkt_verify,
    mutual_information,
    report_for_distribution,
    solve_capacity,
)
from binomcap.kernel import log_pmf_matrix


def _mask_indexed_ba(spec, xs, tol, max_iters):
    """Reference BA loop that re-gathers the active rows by boolean mask on
    every iteration; the gathered loop in the solver must match it exactly."""
    m = len(xs)
    logP = log_pmf_matrix(spec, xs)
    P = np.exp(logP)
    with np.errstate(invalid="ignore"):
        rowH = np.sum(np.where(P > 0, P * logP, 0.0), axis=1)
    w = np.full(m, 1.0 / m)
    active = np.ones(m, dtype=bool)
    for it in range(1, max_iters + 1):
        Pa = P[active]
        q = w[active] @ Pa
        logq = np.log(np.maximum(q, 1e-300))
        Da = rowH[active] - Pa @ logq
        lo = float(w[active] @ Da)
        hi_a = float(Da.max())
        if hi_a - lo <= tol or it % 200 == 0 or it == max_iters:
            D_full = rowH - P @ logq
            revive = (~active) & (D_full > hi_a + 0.5 * tol)
            if revive.any():
                w[revive] = 1e-40
                active |= revive
                w /= w.sum()
                continue
            if float(D_full.max()) - lo <= tol:
                return w, it
        w[active] = w[active] * np.exp(Da - hi_a)
        dead = active & (w < 1e-40)
        if dead.any():
            w[dead] = 0.0
            active &= ~dead
        w[active] /= w[active].sum()
    return w, max_iters


class TestSolverConfig:
    def test_even_grid_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(grid_size=2048)

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
        assert abs(res.weights.sum() - 1.0) <= 1e-12

    def test_gathered_loop_matches_mask_indexed_reference(self):
        spec = ChannelSpec(5)
        grid = np.linspace(0.0, 1.0, 1001)
        ref_w, ref_iters = _mask_indexed_ba(spec, grid, 1e-5, 100_000)
        res = blahut_arimoto(spec, grid, 1e-5, max_iters=100_000)
        assert res.converged
        assert res.iterations == ref_iters
        assert np.array_equal(res.weights, ref_w)
        frozen = ref_w == 0.0
        assert frozen.sum() > len(grid) // 2
        assert np.all(res.weights[frozen] == 0.0)
        assert abs(res.weights.sum() - 1.0) <= 1e-12

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

    def test_json_payload_schema(self, solved):
        payload = solved(2).to_dict()
        assert list(payload.keys()) == ["n", "capacity_nats", "kkt_slack", "support",
                                        "weights", "output_pmf", "flags", "iterations",
                                        "converged"]


class TestSolverVariants:
    def test_small_budget_reports_honestly(self):
        report = solve_capacity(ChannelSpec(24), SolverConfig(max_outer_iters=1))
        assert not report.converged
        assert report.kkt_slack > 1e-8

    def test_small_grid(self):
        report = solve_capacity(ChannelSpec(4), SolverConfig(grid_size=257))
        assert report.converged


class TestKktVerify:
    def test_certifies_known_optimum(self, table_dists):
        report = report_for_distribution(table_dists[2], ChannelSpec(2), grid_size=10001)
        summary = kkt_verify(report, ChannelSpec(2), grid_size=10001)
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

    def test_solved_twenty_all_flags(self, solved):
        report = solved(20)
        summary = kkt_verify(report, ChannelSpec(20))
        assert all(summary.flags.values())
