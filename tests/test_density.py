import math

import numpy as np
import pytest

from binomcap import (
    ChannelSpec,
    DiscreteInput,
    bregman_binomial,
    cardinality_upper_via_second_derivative,
    count_sign_changes,
    density_curve,
    induce_output,
    info_density,
    info_density_prime,
    info_density_second,
)
from binomcap import density, distributions
from binomcap.distributions import _CHUNK_CELLS
from binomcap.kernel import log_pmf_matrix
from conditional_means import (
    iprime_full_trial_form,
    iprime_reduced_trial_form,
    isecond_first_derivative_form,
    isecond_moment_ratio_form,
    isecond_reduced_trial_form,
)


def fd_first(dist, spec, x, h=1e-6):
    out = induce_output(dist, spec)
    return (info_density(x + h, out, spec) - info_density(x - h, out, spec)) / (2 * h)


def fd_second(dist, spec, x, h=1e-4):
    out = induce_output(dist, spec)
    return (info_density(x + h, out, spec) - 2 * info_density(x, out, spec)
            + info_density(x - h, out, spec)) / h**2


class TestBregman:
    def test_zero_on_diagonal(self):
        assert bregman_binomial(0.3, 0.3) == 0.0

    def test_point_values(self):
        assert bregman_binomial(0.5, 0.25) == pytest.approx(
            0.5 * math.log(3) - 1 / 3, abs=1e-15)
        assert bregman_binomial(0.25, 0.5) == pytest.approx(
            0.25 * math.log(1 / 3) + 0.5, abs=1e-15)

    def test_asymmetric(self):
        assert bregman_binomial(0.5, 0.25) != pytest.approx(bregman_binomial(0.25, 0.5))

    def test_endpoints_rejected(self):
        for x, xhat in [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0)]:
            with pytest.raises(ValueError):
                bregman_binomial(x, xhat)

    def test_nonnegative_grid(self):
        xs = np.linspace(0.005, 0.995, 100)
        for x in xs:
            for xhat in xs:
                v = bregman_binomial(x, xhat)
                assert v >= -1e-15
                if abs(x - xhat) > 1e-12:
                    assert v > 0.0
                else:
                    assert abs(v) <= 1e-12


class TestFirstDerivative:
    def test_zero_at_half_for_symmetric_input(self, table_dists):
        for n in (2, 3):
            assert abs(info_density_prime(0.5, table_dists[n], ChannelSpec(n))) <= 1e-12

    @pytest.mark.parametrize("n,x", [(2, 0.3), (3, 0.1)])
    def test_matches_finite_difference(self, table_dists, n, x):
        got = info_density_prime(x, table_dists[n], ChannelSpec(n))
        want = fd_first(table_dists[n], ChannelSpec(n), x)
        assert abs(got - want) <= 1e-5 * (1 + abs(got))

    def test_two_forms_agree(self, rng, table_dists):
        # the kernel's i' vs the reduced- and full-trial-count
        # conditional-mean forms
        for n in range(2, 51, 3):
            dist = table_dists[3] if n % 2 else table_dists[2]
            for x in rng.uniform(0.05, 0.95, size=4):
                a = info_density_prime(float(x), dist, ChannelSpec(n))
                for form in (iprime_reduced_trial_form, iprime_full_trial_form):
                    b = float(np.squeeze(form(float(x), dist, ChannelSpec(n))))
                    assert abs(a - b) <= 1e-9 * (1 + abs(a))

    def test_single_trial(self):
        d = DiscreteInput(np.array([0.2, 0.8]), np.array([0.5, 0.5]))
        spec = ChannelSpec(1)
        got = info_density_prime(0.3, d, spec)
        assert abs(got - fd_first(d, spec, 0.3)) <= 1e-5 * (1 + abs(got))
        assert got == pytest.approx(iprime_reduced_trial_form(0.3, d, spec)[0], abs=1e-14)

    def test_endpoint_rejected(self, table_dists):
        with pytest.raises(ValueError):
            info_density_prime(0.0, table_dists[2], ChannelSpec(2))

    @pytest.mark.parametrize("x", [math.nan, np.array([0.3, math.nan])])
    def test_nan_rejected(self, table_dists, x):
        # NaN fails every comparison, so a test for x <= 0 or x >= 1 lets it
        # through to an IndexError (scalar) or a NaN derivative (array)
        for f in (info_density_prime, info_density_second):
            with pytest.raises(ValueError, match="strictly inside"):
                f(x, table_dists[2], ChannelSpec(2))


class TestSecondDerivative:
    @pytest.mark.parametrize("n,x", [(2, 0.2), (3, 0.5)])
    def test_matches_finite_difference(self, table_dists, n, x):
        got = info_density_second(x, table_dists[n], ChannelSpec(n))
        want = fd_second(table_dists[n], ChannelSpec(n), x)
        assert abs(got - want) <= 1e-3 * (1 + abs(got))

    def test_single_trial_reduces_to_base_term(self):
        d = DiscreteInput(np.array([0.2, 0.8]), np.array([0.5, 0.5]))
        assert info_density_second(0.3, d, ChannelSpec(1)) == pytest.approx(
            1 / (0.3 * 0.7), abs=1e-12)

    def test_scaled_limit_near_zero(self, table_dists):
        # x(1-x) i''(x) tends to n at the left edge
        for n in (2, 3):
            x = 1e-8
            v = x * (1 - x) * info_density_second(x, table_dists[n], ChannelSpec(n))
            assert v == pytest.approx(n, rel=1e-5)
            assert v > 0

    def test_alternative_forms_agree(self, rng, table_dists):
        for n, dist in [(2, table_dists[2]), (3, table_dists[3])]:
            spec = ChannelSpec(n)
            for x in rng.uniform(0.05, 0.95, size=8):
                x = float(x)
                a = info_density_second(x, dist, spec)
                b = isecond_first_derivative_form(x, dist, spec,
                                                  info_density_prime(x, dist, spec))
                assert abs(a - b) <= 1e-9 * (1 + abs(a))
                b = isecond_moment_ratio_form(x, dist, spec)[0]
                assert abs(a - b) <= 1e-9 * (1 + abs(a))
                if n >= 3:
                    c = isecond_reduced_trial_form(x, dist, spec)
                    assert abs(a - c) <= 1e-9 * (1 + abs(a))


class TestChunkedSweep:
    def test_kernel_calls_stay_within_one_chunk(self, monkeypatch):
        # 10001 interior points at n = 4096: each kernel call holds at most
        # one chunk of cells (or one full row), never a (points x n) matrix
        n = 4096
        largest = []

        def spy(spec, xs, lo=None, width=0):
            largest.append(len(xs) * (width if lo is not None else n + 1))
            return log_pmf_matrix(spec, xs, lo, width)

        monkeypatch.setattr(distributions, "log_pmf_matrix", spy)
        monkeypatch.setattr(density, "log_pmf_matrix", spy, raising=False)
        dist = DiscreteInput([0.0, 0.2, 0.5, 0.8, 1.0], [0.3, 0.15, 0.1, 0.15, 0.3])
        xs = np.linspace(0.0, 1.0, 10003)[1:-1]
        vals = info_density_second(xs, dist, ChannelSpec(n))
        assert np.all(np.isfinite(vals))
        assert max(largest) <= max(_CHUNK_CELLS, n + 1)


class TestSignChanges:
    def test_monotone_has_none(self):
        assert count_sign_changes([1, 2, 3]) == 0

    def test_alternating(self):
        assert count_sign_changes([1, -1, 1]) == 2

    def test_zero_crossing_counts_once(self):
        assert count_sign_changes([1, 0, -1]) == 1

    def test_zero_between_same_signs_ignored(self):
        assert count_sign_changes([1, 0, 1]) == 0

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            count_sign_changes([1.0, float("nan")])


class TestCardinalityViaCurvature:
    def test_small_grid_rejected(self, table_dists):
        with pytest.raises(ValueError):
            cardinality_upper_via_second_derivative(table_dists[2], ChannelSpec(2), 10)

    @pytest.mark.parametrize("n", [2, 3])
    def test_table_solutions(self, table_dists, n):
        bound = cardinality_upper_via_second_derivative(table_dists[n], ChannelSpec(n))
        assert len(table_dists[n]) <= bound <= 2 + n // 2

    def test_solved_ten(self, solved):
        report = solved(10)
        bound = cardinality_upper_via_second_derivative(report.input, ChannelSpec(10))
        assert bound >= report.support_size


class TestEdgeMonotonicity:
    def test_scaled_curvature_non_increasing_near_zero(self, solved):
        # x(1-x) i'' may only fall on (0, 1/n] at the optimum
        for n in (5, 10, 16):
            report = solved(n)
            xs = np.linspace(1e-6, 1.0 / n, 60)
            g = xs * (1 - xs) * info_density_second(xs, report.input, ChannelSpec(n))
            assert np.all(np.diff(g) <= 1e-9)


class TestDensityCurve:
    def test_csv_shape(self, table_dists):
        curve = density_curve(table_dists[2], ChannelSpec(2), grid_size=11)
        text = curve.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "x,info_density,first_derivative,second_derivative"
        assert len(lines) == 12
        first = lines[1].split(",")
        assert first[2] == "" and first[3] == ""  # derivatives blank at x=0
        assert math.isnan(curve.d1[0]) and math.isnan(curve.d2[-1])
        assert np.all(np.isfinite(curve.values))
