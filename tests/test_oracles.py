import math
from fractions import Fraction

import numpy as np
import pytest

from binomcap import oracles
from binomcap import (
    ChannelSpec,
    brute_force_grid_capacity,
    exact_solution,
    kkt_verify,
    report_for_distribution,
)


class TestExactSolutions:
    def test_single_trial(self):
        sol = exact_solution(1)
        assert sol.capacity_nats == math.log(2)
        np.testing.assert_array_equal(sol.input.points, [0.0, 1.0])
        np.testing.assert_array_equal(sol.input.weights, [0.5, 0.5])

    def test_two_trials(self):
        sol = exact_solution(2)
        assert sol.capacity_exp == Fraction(17, 8)
        assert sol.weights_exact == (Fraction(15, 34), Fraction(2, 17), Fraction(15, 34))
        np.testing.assert_allclose(sol.output.probs, [8 / 17, 1 / 17, 8 / 17], atol=1e-16)

    def test_three_trials(self):
        sol = exact_solution(3)
        assert sol.capacity_exp == Fraction(19, 8)
        assert sol.points_exact == (Fraction(0), Fraction(1, 2), Fraction(1))
        assert sol.weights_exact == (Fraction(15, 38), Fraction(4, 19), Fraction(15, 38))

    def test_unknown_n_rejected(self):
        with pytest.raises(ValueError):
            exact_solution(4)

    def test_center_weight_identities(self):
        # the center weight satisfies p = 2(1 - 2 e^{-C}) at n=2
        # and p = (4/3)(1 - 2 e^{-C}) at n=3, exactly in rational arithmetic
        two = exact_solution(2)
        p2 = 2 * (1 - 2 / two.capacity_exp)
        assert p2 == Fraction(2, 17) == two.weights_exact[1]
        three = exact_solution(3)
        p3 = Fraction(4, 3) * (1 - 2 / three.capacity_exp)
        assert p3 == Fraction(4, 19) == three.weights_exact[1]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_fixtures_satisfy_kkt(self, n):
        sol = exact_solution(n)
        report = report_for_distribution(sol.input, ChannelSpec(n), grid_size=10001)
        summary = kkt_verify(report, ChannelSpec(n), grid_size=10001)
        assert summary.slack <= 1e-10
        assert summary.equality_defect <= 1e-10

    @pytest.mark.parametrize("n", [2, 3])
    def test_fixture_outputs_induced(self, n):
        from binomcap import induce_output
        sol = exact_solution(n)
        out = induce_output(sol.input, ChannelSpec(n))
        np.testing.assert_allclose(out.probs, sol.output.probs, atol=1e-15)


class TestGridOracle:
    def test_single_trial(self):
        got = brute_force_grid_capacity(ChannelSpec(1), 101, 1e-10)
        assert got == pytest.approx(math.log(2), abs=1e-9)

    def test_two_trials_fine_grid(self):
        got = brute_force_grid_capacity(ChannelSpec(2), 1001, 4e-6, max_iters=400_000)
        assert got == pytest.approx(math.log(17 / 8), abs=1e-5)

    def test_never_exceeds_solver(self, solved):
        # a grid-restricted maximum cannot beat the true capacity
        for n in (1, 2, 5, 9):
            report = solved(n)
            got = brute_force_grid_capacity(ChannelSpec(n), 501, 1e-5, max_iters=200_000)
            assert got <= report.capacity_nats + report.kkt_slack + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            brute_force_grid_capacity(ChannelSpec(2), 100, 1e-6)
        with pytest.raises(ValueError):
            brute_force_grid_capacity(ChannelSpec(2), 99, 1e-6)
        with pytest.raises(ValueError):
            brute_force_grid_capacity(ChannelSpec(2), 101, 0.0)

    def test_iteration_cap_raises(self):
        with pytest.raises(RuntimeError):
            brute_force_grid_capacity(ChannelSpec(3), 101, 1e-12, max_iters=10)

    def test_criterion_12_settings_three_trials(self):
        got = brute_force_grid_capacity(ChannelSpec(3), 4097, 5e-6, max_iters=600_000)
        assert math.log(19 / 8) - 1e-5 <= got <= math.log(19 / 8)

    def test_fallback_to_plain_step_keeps_bound(self, monkeypatch):
        mus = []
        step = oracles._step

        def spy(wa, Da, hi, mu):
            mus.append(mu)
            return step(wa, Da, hi, mu)

        monkeypatch.setattr(oracles, "_OVER_RELAX", 8.0)
        monkeypatch.setattr(oracles, "_step", spy)
        gap = 1e-6
        got = brute_force_grid_capacity(ChannelSpec(3), 1001, gap, max_iters=200_000)
        assert 1.0 in mus and 8.0 in mus
        # 0, 1/2 and 1 are grid points, so the grid capacity is the true one
        assert math.log(19 / 8) - gap <= got <= math.log(19 / 8)
