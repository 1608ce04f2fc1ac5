import math
import warnings
from decimal import Decimal, getcontext
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import xlog1py, xlogy

from binomcap import (
    ChannelSpec,
    binary_entropy,
    binomial_entropy_exact,
    binomial_entropy_lower,
    binomial_entropy_upper,
    log_pmf,
    pmf_row,
)
import binomcap as bc
from binomcap.kernel import floored_exp, log_binom_coeffs, log_pmf_matrix


def direct_pmf(n, y, x):
    """Oracle: plain product form, no log-gamma."""
    return math.comb(n, y) * x**y * (1 - x) ** (n - y)


def entropy_highprec(n, x):
    """Oracle: binomial entropy at 50-digit precision via exact rationals."""
    getcontext().prec = 50
    fx = Fraction(x)
    h = Decimal(0)
    for y in range(n + 1):
        p = Fraction(math.comb(n, y)) * fx**y * (1 - fx) ** (n - y)
        if p > 0:
            d = Decimal(p.numerator) / Decimal(p.denominator)
            h -= d * d.ln()
    return float(h)


def per_cell_log_pmf_matrix(n, xs):
    """Reference: log C(n,y) + xlogy(y, x) + xlog1py(n-y, -x), one scipy call per cell."""
    y = np.arange(n + 1)
    return log_binom_coeffs(n) + xlogy(y, xs[:, None]) + xlog1py(n - y, -xs[:, None])


class TestChannelSpec:
    def test_rejects_bad_n(self):
        for bad in (0, -1, 1.5, True):
            with pytest.raises(ValueError):
                ChannelSpec(bad)

    def test_rejects_huge_n(self):
        with pytest.raises(ValueError):
            ChannelSpec(5000)


class TestLogPmf:
    def test_fair_coin(self):
        assert log_pmf(ChannelSpec(2), 1, 0.5) == pytest.approx(math.log(0.5), abs=1e-15)

    def test_degenerate_endpoint(self):
        assert log_pmf(ChannelSpec(3), 0, 0.0) == 0.0
        assert log_pmf(ChannelSpec(3), 3, 1.0) == 0.0
        assert log_pmf(ChannelSpec(3), 1, 0.0) == -math.inf

    def test_matches_direct_product(self):
        got = math.exp(log_pmf(ChannelSpec(10), 3, 0.2))
        want = direct_pmf(10, 3, 0.2)
        assert got == pytest.approx(want, rel=1e-14)

    def test_domain_errors(self):
        spec = ChannelSpec(4)
        with pytest.raises(ValueError):
            log_pmf(spec, 5, 0.5)
        with pytest.raises(ValueError):
            log_pmf(spec, -1, 0.5)
        with pytest.raises(ValueError):
            log_pmf(spec, 2, 1.5)
        with pytest.raises(ValueError):
            log_pmf(spec, 1.0, 0.5)


class TestLogBinomCoeffs:
    @pytest.mark.parametrize("n", [10, 257, 4096, pytest.param(np.int64(257), id="int64-257")])
    def test_matches_exact_integers(self, n):
        # uncached: the cache would answer np.int64(257) with the entry for 257
        got = log_binom_coeffs.__wrapped__(n)
        want = [math.log(math.comb(n, y)) for y in range(n + 1)]
        assert got.tolist() == want

    def test_read_only(self):
        coeffs = log_binom_coeffs(10)
        assert not coeffs.flags.writeable
        with pytest.raises(ValueError):
            coeffs[0] = 1.0


class TestLogPmfMatrix:
    XS = np.concatenate([[0.0, 1.0, 5e-324, 1e-300, 0.5, 1.0 - 2.0**-53],
                         np.linspace(0.0, 1.0, 1001)])

    @pytest.mark.parametrize("n", [1, 2, 24, 257, 4096])
    def test_bit_identical_to_per_cell_form(self, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = log_pmf_matrix(ChannelSpec(n), self.XS)
            want = per_cell_log_pmf_matrix(n, self.XS)
        assert np.array_equal(got, want)
        assert not np.isnan(got).any()

    @pytest.mark.parametrize("n, width", [(1, 1), (24, 7), (4096, 300)])
    def test_window_is_a_slice_of_the_full_rows(self, n, width):
        rng = np.random.default_rng(n)
        lo = rng.integers(0, n + 2 - width, len(self.XS))
        lo[:2] = (0, n + 1 - width)  # x = 0 and x = 1 see their certain output
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = log_pmf_matrix(ChannelSpec(n), self.XS, lo, width)
            full = log_pmf_matrix(ChannelSpec(n), self.XS)
        assert got.shape == (len(self.XS), width)
        assert np.array_equal(got, np.take_along_axis(full, lo[:, None] + np.arange(width), 1))

    def test_endpoint_rows(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = log_pmf_matrix(ChannelSpec(3), [0.0, 1.0])
        np.testing.assert_array_equal(rows, [[0.0, -np.inf, -np.inf, -np.inf],
                                             [-np.inf, -np.inf, -np.inf, 0.0]])


class TestFlooredExp:
    def test_zero_below_the_floor_exp_elsewhere(self):
        # at n = 300, x = 0.05 reaches log P = -899 at y = n and x = 0.95 at
        # y = 0; x = 0.3 stays above -700
        full = log_pmf_matrix(ChannelSpec(300), [0.05, 0.3, 0.95, 0.0])
        for rows in ([0, 1], [1, 2], [0, 1, 2, 3]):
            logP = full[rows]
            band = (logP > -745.0) & (logP < -700.0)
            assert band.any() and not (logP[rows.index(1)] < -700.0).any()
            assert np.all(np.exp(logP[band]) > 0.0)
            keep = logP >= -700.0
            for out in (None, np.full(logP.shape, np.nan)):
                P = floored_exp(logP, out)
                assert out is None or P is out
                assert np.all(P[~keep] == 0.0)
                assert np.array_equal(P[keep], np.exp(logP[keep]))

    def test_rows_above_the_floor_are_plain_exp(self):
        logP = log_pmf_matrix(ChannelSpec(300), np.linspace(0.1, 0.9, 9))
        assert logP.min() >= -700.0
        assert np.array_equal(floored_exp(logP), np.exp(logP))


class TestPmfRow:
    def test_fair_two_trials(self):
        np.testing.assert_allclose(pmf_row(ChannelSpec(2), 0.5), [0.25, 0.5, 0.25],
                                   rtol=0, atol=1e-15)

    def test_certain_success(self):
        np.testing.assert_array_equal(pmf_row(ChannelSpec(1), 1.0), [0.0, 1.0])

    def test_matches_brute_force_expansion(self):
        row = pmf_row(ChannelSpec(5), 0.3)
        want = [direct_pmf(5, y, 0.3) for y in range(6)]
        np.testing.assert_allclose(row, want, rtol=1e-13)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            pmf_row(ChannelSpec(2), -0.1)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 31, 64, 128, 333, 1000])
    def test_rows_normalized_on_grid(self, n):
        xs = np.linspace(0.0, 1.0, 1001)
        rows = np.exp(log_pmf_matrix(ChannelSpec(n), xs))
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("n", [1, 4, 17, 60])
    def test_channel_symmetry(self, n):
        xs = np.linspace(0.0, 1.0, 101)
        logp = log_pmf_matrix(ChannelSpec(n), xs)
        mirrored = log_pmf_matrix(ChannelSpec(n), 1.0 - xs)[:, ::-1]
        finite = np.isfinite(logp) & np.isfinite(mirrored)
        assert np.all(np.abs(logp[finite] - mirrored[finite]) <= 1e-13)
        assert np.array_equal(np.isfinite(logp), np.isfinite(mirrored))


class TestBinaryEntropy:
    def test_half_gives_log2(self):
        assert binary_entropy(0.5) == pytest.approx(math.log(2), abs=1e-15)

    def test_endpoint(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_point_value(self):
        want = -0.1 * math.log(0.1) - 0.9 * math.log(0.9)
        assert binary_entropy(0.1) == pytest.approx(want, abs=1e-15)
        assert want == pytest.approx(0.325083, abs=1e-6)

    def test_symmetry(self):
        for x in np.linspace(0.0, 1.0, 41):
            assert binary_entropy(x) == pytest.approx(binary_entropy(1 - x), abs=1e-15)


class TestBinomialEntropy:
    def test_single_trial(self):
        assert binomial_entropy_exact(ChannelSpec(1), 0.5) == pytest.approx(math.log(2))
        assert binomial_entropy_exact(ChannelSpec(1), 0.0) == 0.0

    def test_matches_high_precision_sum(self):
        got = binomial_entropy_exact(ChannelSpec(20), 0.3)
        assert got == pytest.approx(entropy_highprec(20, 0.3), abs=1e-12)

    def test_upper_bound_values(self):
        v = binomial_entropy_upper(ChannelSpec(1), 0.5)
        assert v == pytest.approx(0.5 * math.log(2 * math.pi * math.e * (0.25 + 1 / 12)))
        assert v == pytest.approx(0.8696324, abs=1e-6)
        assert v >= math.log(2)
        v0 = binomial_entropy_upper(ChannelSpec(4), 0.0)
        assert v0 == pytest.approx(0.5 * math.log(2 * math.pi * math.e / 12))
        assert v0 == pytest.approx(0.1764852, abs=1e-6)
        assert v0 >= 0.0
        assert binomial_entropy_upper(ChannelSpec(100), 0.5) >= \
            binomial_entropy_exact(ChannelSpec(100), 0.5)

    def test_lower_bound_values(self):
        v = binomial_entropy_lower(ChannelSpec(1), 0.5)
        assert v == pytest.approx(0.5 * math.log(0.5) - 1.0, abs=1e-15)
        assert v == pytest.approx(-1.346574, abs=1e-6)
        assert v <= math.log(2)
        assert binomial_entropy_lower(ChannelSpec(100), 0.5) <= \
            binomial_entropy_exact(ChannelSpec(100), 0.5)
        assert binomial_entropy_lower(ChannelSpec(10), 0.99) <= \
            binomial_entropy_exact(ChannelSpec(10), 0.99)

    def test_lower_bound_endpoint_limit(self):
        assert binomial_entropy_lower(ChannelSpec(7), 0.0) == -1.0
        assert binomial_entropy_lower(ChannelSpec(7), 1.0) == -1.0

    @pytest.mark.parametrize("n", [1, 2, 5, 13, 40, 90, 200])
    def test_entropy_sandwich(self, n):
        spec = ChannelSpec(n)
        for x in np.linspace(0.0, 1.0, 201):
            exact = binomial_entropy_exact(spec, x)
            assert binomial_entropy_lower(spec, x) <= exact + 1e-12
            assert exact <= binomial_entropy_upper(spec, x) + 1e-12


# The argument rules, one bad input per public entry point.  The rules are
# written once, in kernel: a count is an integer >= its least value (a bool
# is not one), a tolerance a real number in (0, inf), a point in [0, 1] or,
# where derivatives are taken, in (0, 1) (NaN fails both), and an output y
# an integer in 0..n.  The rows marked "was accepted" took the input, or
# failed with another error, before the checks had one owner.
_SPEC2 = ChannelSpec(2)
_DIST2 = bc.exact_solution(2).input
_BAD_ARGUMENTS = {
    # counts
    "ChannelSpec n = 0": lambda: ChannelSpec(0),
    "ChannelSpec n = 2.5": lambda: ChannelSpec(2.5),
    "capacity_upper_bound n = 2.5 (was accepted)": lambda: bc.capacity_upper_bound(2.5),
    "capacity_lower_bound n = True (was accepted)": lambda: bc.capacity_lower_bound(True),
    "bounds_report n = 2.5 (was accepted)": lambda: bc.bounds_report(2.5),
    "dual_bound_term_max n = 0": lambda: bc.dual_bound_term_max(0),
    "crest_factor_lower_mirror n = 2.5 (was accepted)":
        lambda: bc.crest_factor_lower_mirror(2.5, 0.3),
    "crest_factor_lower_endpoints n = True (was accepted)":
        lambda: bc.crest_factor_lower_endpoints(True, 0.3),
    "cardinality_upper_via_second_derivative grid_size = 1000.5 (was TypeError)":
        lambda: bc.cardinality_upper_via_second_derivative(_DIST2, _SPEC2, grid_size=1000.5),
    "density_curve grid_size = 2": lambda: bc.density_curve(_DIST2, _SPEC2, grid_size=2),
    "crest_bound_csv grid_size = 2.5 (was TypeError)": lambda: bc.bounds.crest_bound_csv(4, 2.5),
    "OutputPmf n = True (was accepted)": lambda: bc.OutputPmf([0.5, 0.5], n=True),
    "exact_solution n = True (was accepted)": lambda: bc.exact_solution(True),
    "SolverConfig max_outer_iters = 0": lambda: bc.SolverConfig(max_outer_iters=0),
    "blahut_arimoto max_iters = True":
        lambda: bc.blahut_arimoto(_SPEC2, [0.0, 0.5, 1.0], 1e-8, max_iters=True),
    "sweep_capacity n_max = 2.5": lambda: next(bc.sweep_capacity(2.5)),
    # tolerances
    "SolverConfig kkt_tol = 0": lambda: bc.SolverConfig(kkt_tol=0.0),
    "blahut_arimoto tol = nan": lambda: bc.blahut_arimoto(_SPEC2, [0.0, 1.0], math.nan),
    "report_for_distribution tol = True":
        lambda: bc.report_for_distribution(_DIST2, _SPEC2, tol=True),
    "kkt_verify tol = inf": lambda: bc.kkt_verify(
        bc.report_for_distribution(_DIST2, _SPEC2), _SPEC2, tol=math.inf),
    "brute_force_grid_capacity grid_points = 101.0":
        lambda: bc.brute_force_grid_capacity(_SPEC2, 101.0, 1e-6),
    "cardinality_bounds capacity = nan (was accepted)":
        lambda: bc.cardinality_bounds(4, math.nan),
    # points in [0, 1]
    "pmf_row x = 1.5": lambda: pmf_row(_SPEC2, 1.5),
    "log_pmf x = nan": lambda: log_pmf(_SPEC2, 1, math.nan),
    "binary_entropy x = -0.1": lambda: binary_entropy(-0.1),
    "binomial_entropy_exact x = nan": lambda: binomial_entropy_exact(_SPEC2, math.nan),
    "binomial_entropy_upper x = 2": lambda: binomial_entropy_upper(_SPEC2, 2.0),
    "binomial_entropy_lower x = nan": lambda: binomial_entropy_lower(_SPEC2, math.nan),
    "info_density x = nan": lambda: bc.info_density(
        math.nan, bc.induce_output(_DIST2, _SPEC2), _SPEC2),
    "dual_bound_term x = nan (was accepted)": lambda: bc.dual_bound_term(math.nan, 4),
    "channel_matrix_logdet support with nan (was accepted)":
        lambda: bc.channel_matrix_logdet(_SPEC2, [0.0, math.nan, 1.0]),
    "OutputPmf probs nan (was accepted)": lambda: bc.OutputPmf([math.nan, math.nan]),
    "crest_factor x_star = nan (was accepted)": lambda: bc.crest_factor(
        bc.report_for_distribution(_DIST2, _SPEC2), math.nan),
    # points in (0, 1)
    "info_density_prime x = 0": lambda: bc.info_density_prime(0.0, _DIST2, _SPEC2),
    "info_density_second x = nan": lambda: bc.info_density_second(math.nan, _DIST2, _SPEC2),
    "bregman_binomial xhat = 1": lambda: bc.bregman_binomial(0.3, 1.0),
    "crest_factor_lower_endpoints x = 0": lambda: bc.crest_factor_lower_endpoints(4, 0.0),
    "crest_factor_lower_mirror x = nan": lambda: bc.crest_factor_lower_mirror(4, math.nan),
    # outputs y in 0..n
    "log_pmf y = 3 at n = 2": lambda: log_pmf(_SPEC2, 3, 0.5),
    "posterior_mean y = True": lambda: bc.posterior_mean(_DIST2, _SPEC2, True),
}


@pytest.mark.parametrize("call", _BAD_ARGUMENTS.values(), ids=_BAD_ARGUMENTS.keys())
def test_argument_rules_reject(call):
    with pytest.raises(ValueError):
        call()
