import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from binomcap import oracles
from binomcap.kernel import log_pmf_matrix
from binomcap import (
    ChannelSpec,
    brute_force_grid_capacity,
    exact_solution,
    kkt_verify,
    report_for_distribution,
)
from grid_reference import full_grid_capacity, full_grid_channel, full_grid_densities


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
        report = report_for_distribution(sol.input, ChannelSpec(n))
        summary = kkt_verify(report, ChannelSpec(n))
        assert summary.kkt_slack <= 1e-10
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
        # 99 and 100 fail the >= 101 check first: only 102 reaches the odd check
        with pytest.raises(ValueError, match="odd"):
            brute_force_grid_capacity(ChannelSpec(2), 102, 1e-6)
        with pytest.raises(ValueError):
            brute_force_grid_capacity(ChannelSpec(2), 101, 0.0)
        # NaN fails every comparison, so it would otherwise run the whole
        # iteration cap and report a gap of nan
        with pytest.raises(ValueError, match="tol"):
            brute_force_grid_capacity(ChannelSpec(2), 101, math.nan)
        # an infinite tol would certify the uniform start (I = 0.337 at
        # n = 2, where C = 0.754)
        for tol in (math.inf, -math.inf, -1e-6, True, "1e-6", None):
            with pytest.raises(ValueError, match="tol"):
                brute_force_grid_capacity(ChannelSpec(2), 101, tol)
        for grid in (101.0, 10.5, True, "101", None):
            with pytest.raises(ValueError, match="grid_points"):
                brute_force_grid_capacity(ChannelSpec(2), grid, 1e-6)
        for iters in (-1, 10.5, 100.0, True, False, "10"):
            with pytest.raises(ValueError, match="max_iters"):
                brute_force_grid_capacity(ChannelSpec(2), 101, 1e-6, max_iters=iters)

    def test_numpy_arguments_accepted(self):
        got = brute_force_grid_capacity(ChannelSpec(1), np.int64(101), np.float64(1e-10),
                                        max_iters=np.int32(1000))
        assert got == pytest.approx(math.log(2), abs=1e-9)

    def test_iteration_cap_raises(self):
        with pytest.raises(RuntimeError):
            brute_force_grid_capacity(ChannelSpec(3), 101, 1e-12, max_iters=10)

    def test_criterion_12_settings_three_trials(self):
        got = brute_force_grid_capacity(ChannelSpec(3), 4097, 5e-6, max_iters=600_000)
        assert math.log(19 / 8) - 1e-5 <= got <= math.log(19 / 8)

    def test_fallback_to_plain_step_keeps_bound(self, monkeypatch):
        # The spy reports each of the first 40 information values 10 nats
        # lower than the one before, so every accelerated candidate in that
        # window reads as a loss and must give way to a plain Blahut-Arimoto
        # step from the previous iterate.
        information_value, plain_step = oracles._information_value, oracles._plain_step
        seen, plain = [], []

        def spy_information_value(*args):
            info = information_value(*args)
            seen.append(info)
            return info - 10.0 * len(seen) if len(seen) <= 40 else info

        def spy_plain_step(*args):
            out = plain_step(*args)
            plain.append(seen[-1])  # the true I of the plain step's result
            return out

        monkeypatch.setattr(oracles, "_information_value", spy_information_value)
        monkeypatch.setattr(oracles, "_plain_step", spy_plain_step)
        gap = 1e-6
        got = brute_force_grid_capacity(ChannelSpec(3), 1001, gap)
        assert len(plain) >= 10
        assert np.all(np.diff(plain) > 0)
        # 0, 1/2 and 1 are grid points, so the grid capacity is the true one
        assert math.log(19 / 8) - gap <= got <= math.log(19 / 8)

    @pytest.mark.parametrize("n", [1, 16, 93])
    def test_information_value_matches_densities(self, n):
        # I(w) = w.H - q.log q needs no channel product; it must agree with
        # the density form w.D on the orbit rows, also where weights are
        # exactly zero
        RT, c, H = oracles._orbit_channel(ChannelSpec(n), 4097)
        assert RT.shape == (n // 2 + 1, 2049)
        assert RT.flags.c_contiguous
        rng = np.random.default_rng(n)
        for zeros in (0, 100, 2000):
            w = rng.random(2049)
            w[rng.choice(2049, zeros, replace=False)] = 0.0
            w /= w.sum()
            q = RT @ w
            info, _ = oracles._information(w, q, RT, c, H)
            assert abs(oracles._information_value(w, q, c, H) - info) <= 1e-14

    @pytest.mark.parametrize("n", [1, 2, 15, 16])
    def test_output_orbits_lose_nothing(self, n):
        # the orbit rows take equal values at y and n - y, so keeping one
        # row per output orbit {y, n - y} drops only copies, and the orbit
        # sizes c count every output once
        xs = np.linspace(0.0, 1.0, 4097)[:2049]
        P = np.exp(log_pmf_matrix(ChannelSpec(n), xs))
        R = (P + P[:, ::-1]) / 2
        np.testing.assert_array_equal(R, R[:, ::-1])
        RT, c, _ = oracles._orbit_channel(ChannelSpec(n), 4097)
        np.testing.assert_array_equal(RT, R[:, : n // 2 + 1].T)
        assert c.sum() == n + 1
        rng = np.random.default_rng(200 + n)
        for _ in range(5):
            u = rng.random(2049)
            u /= u.sum()
            assert abs(c @ (RT @ u) - 1.0) <= 1e-15

    @pytest.mark.parametrize("n", [1, 16, 93])
    def test_orbit_densities_are_full_grid_densities(self, n):
        # random orbit weights split evenly over each pair {x, 1 - x} give
        # the same output pmf, stored once per output orbit {y, n - y}, and
        # against it the orbit-row densities are the full-grid densities at
        # both x and 1 - x: the orbit certificate is the full-grid certificate
        spec = ChannelSpec(n)
        RT, c, H = oracles._orbit_channel(spec, 4097)
        P, H_full = full_grid_channel(spec, 4097)
        rng = np.random.default_rng(100 + n)
        u = rng.random(2049)
        u /= u.sum()
        w = np.concatenate([u[:-1] / 2, u[-1:], u[-2::-1] / 2])
        q = RT @ u
        np.testing.assert_allclose(q, (w @ P)[: n // 2 + 1], rtol=0, atol=1e-15)
        D = oracles._densities(q, RT, c, H)
        D_full = full_grid_densities(w @ P, P, H_full)
        # relative to max(1, |D|): the full grid evaluates the kernel at x and
        # at 1 - x separately, so its own D is even only to rounding (1.3e-14
        # apart at n = 93, where D = 1.65)
        scale = 1e-14 * np.maximum(1.0, np.abs(D))
        assert np.all(np.abs(D_full[:2049] - D) <= scale)
        assert np.all(np.abs(D_full[::-1][:2049] - D) <= scale)

    @pytest.mark.parametrize("n", [3, 16])
    def test_orbit_ascent_is_the_full_grid_ascent(self, monkeypatch, n):
        # the same scheme on every grid weight returns the same value after
        # the same number of density products
        densities = oracles._densities
        products = []

        def spy(q, RT, c, H):
            products.append(RT.shape)
            return densities(q, RT, c, H)

        monkeypatch.setattr(oracles, "_densities", spy)
        got = brute_force_grid_capacity(ChannelSpec(n), 1001, 5e-6)
        want, want_products = full_grid_capacity(ChannelSpec(n), 1001, 5e-6)
        assert abs(got - want) <= 2e-15
        assert len(products) == want_products
        assert set(products) == {(n // 2 + 1, 501)}

    def test_densities_formed_only_at_certificates_and_plain_steps(self, monkeypatch):
        # an iteration takes two products with the (n // 2 + 1) x 501 orbit
        # matrix (the look-ahead densities and RT z); the candidate's I and
        # the certificate's I(z) come from _information_value, and the
        # density form runs once per certificate (the densities of x) and
        # when a plain step is taken
        information = oracles._information
        information_value = oracles._information_value
        plain_step = oracles._plain_step
        densities = oracles._densities
        calls = {"information": 0, "value": 0, "plain": 0, "densities": 0}
        shapes = set()

        def count(name, f):
            def spy(*args):
                calls[name] += 1
                shapes.update(a.shape for a in args if isinstance(a, np.ndarray) and a.ndim == 2)
                return f(*args)
            return spy

        monkeypatch.setattr(oracles, "_information", count("information", information))
        monkeypatch.setattr(oracles, "_information_value", count("value", information_value))
        monkeypatch.setattr(oracles, "_plain_step", count("plain", plain_step))
        monkeypatch.setattr(oracles, "_densities", count("densities", densities))
        brute_force_grid_capacity(ChannelSpec(3), 1001, 1e-6)
        certificates = calls["information"]
        candidates = calls["value"] - calls["plain"] - certificates
        assert candidates > 0
        assert certificates == candidates // 50 + 1
        # one look-ahead per candidate, one per certificate and plain step
        assert calls["densities"] == candidates + certificates + calls["plain"]
        # n = 3: the output orbits {0, 3} and {1, 2}
        assert shapes == {(2, 501)}

    @pytest.mark.parametrize("tol", [1e-5, 1e-6])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_certificate_on_exact_fixtures(self, n, tol):
        # the 1001-point grid holds 0, 1/2 and 1, so its capacity is the true one
        exact = math.log(exact_solution(n).capacity_exp)
        got = brute_force_grid_capacity(ChannelSpec(n), 1001, tol)
        assert exact - tol <= got <= exact

    def test_single_trial_needs_no_long_tail(self):
        # without the periodic swap to the mirror iterate, the averaged
        # iterate keeps a 1/t^2 tail of the uniform start and needs about
        # 316 000 iterations here
        got = brute_force_grid_capacity(ChannelSpec(1), 101, 1e-10, max_iters=1000)
        assert got == pytest.approx(math.log(2), abs=1e-9)


def test_oracle_shares_only_the_pmf_with_the_library():
    # the oracle is an independent cross-check: it may take the channel and
    # its pmf from the kernel, and nothing from the solver
    tree = ast.parse((Path(oracles.__file__)).read_text())
    kernel_names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[-1] not in ("solver", "kernel"), alias.name
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[-1]
            names = {alias.name for alias in node.names}
            assert module != "solver" and "solver" not in names, ast.dump(node)
            assert "kernel" not in names, ast.dump(node)
            if module == "kernel":
                kernel_names |= names
    assert kernel_names <= {"ChannelSpec", "log_pmf_matrix"}
    assert "log_pmf_matrix" in kernel_names
