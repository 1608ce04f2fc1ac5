import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import logsumexp, xlog1py, xlogy

from binomcap import (
    ChannelSpec,
    DiscreteInput,
    OutputPmf,
    UndefinedPosteriorError,
    binomial_entropy_exact,
    channel_matrix_logdet,
    induce_output,
    info_density,
    kl_divergence,
    mutual_information,
    posterior_mean,
)
from binomcap import distributions
from binomcap.density import info_density_second
from binomcap.distributions import (
    _CHUNK_CELLS,
    _bernstein_window,
    _info_density_against_logq,
    _info_terms,
    _logsumexp,
    log_output_pmf,
)
from binomcap.kernel import log_binom_coeffs, log_pmf_matrix
from binomcap.solver import _cert_grid


def rational_det(matrix):
    """Oracle: exact determinant by fraction-arithmetic Gaussian elimination."""
    m = [row[:] for row in matrix]
    size = len(m)
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = Fraction(1) / m[col][col]
        for r in range(col + 1, size):
            factor = m[r][col] * inv
            m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


def random_dist(rng, max_atoms=6):
    k = rng.integers(2, max_atoms + 1)
    pts = np.sort(rng.uniform(0.0, 1.0, size=k))
    while np.any(np.diff(pts) < 1e-6):
        pts = np.sort(rng.uniform(0.0, 1.0, size=k))
    w = rng.uniform(0.1, 1.0, size=k)
    return DiscreteInput(pts, w / w.sum())


class TestDiscreteInput:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            DiscreteInput(np.array([0.5, 0.2]), np.array([0.5, 0.5]))

    def test_rejects_near_duplicate_atoms(self):
        with pytest.raises(ValueError):
            DiscreteInput(np.array([0.3, 0.3 + 5e-13]), np.array([0.5, 0.5]))

    def test_rejects_zero_weight(self):
        with pytest.raises(ValueError):
            DiscreteInput(np.array([0.2, 0.8]), np.array([1.0, 0.0]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            DiscreteInput(np.array([0.2, 0.8]), np.array([0.6, 0.5]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            DiscreteInput(np.array([-0.1, 0.5]), np.array([0.5, 0.5]))

    def test_immutable(self):
        d = DiscreteInput(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            d.points[0] = 0.3

    def test_from_dict_accepts_both_keys(self):
        d1 = DiscreteInput.from_dict({"points": [0.0, 1.0], "weights": [0.5, 0.5]})
        d2 = DiscreteInput.from_dict({"support": [0.0, 1.0], "weights": [0.5, 0.5]})
        assert np.array_equal(d1.points, d2.points)


class TestInduceOutput:
    def test_single_trial_fair(self, table_dists):
        out = induce_output(table_dists[1], ChannelSpec(1))
        np.testing.assert_allclose(out.probs, [0.5, 0.5], atol=1e-15)

    def test_two_trials(self, table_dists):
        out = induce_output(table_dists[2], ChannelSpec(2))
        np.testing.assert_allclose(out.probs, [8 / 17, 1 / 17, 8 / 17], atol=1e-15)

    def test_three_trials(self, table_dists):
        out = induce_output(table_dists[3], ChannelSpec(3))
        np.testing.assert_allclose(out.probs, [8 / 19, 3 / 38, 3 / 38, 8 / 19], atol=1e-15)

    def test_output_pmf_validation(self):
        with pytest.raises(ValueError):
            OutputPmf(np.array([0.5, 0.6]), 1)
        with pytest.raises(ValueError):
            OutputPmf(np.array([0.5, 0.5]), 2)



def output_terms(dist, n):
    """The (n + 1) x K terms log w + log P(y|x_k) - log C(n, y) that
    log_output_pmf combines over the atoms."""
    y = np.arange(n + 1)[:, None]
    return np.log(dist.weights) + xlogy(y, dist.points) + xlogy(n - y, 1.0 - dist.points)


@pytest.mark.filterwarnings("error")
class TestLogSumExp:
    @pytest.mark.parametrize("n", [1, 2, 5, 64, 256, 4096])
    def test_scipy_bit_for_bit_on_symmetric_inputs(self, n, rng):
        # a symmetric input ties the largest terms at y = n/2 (n even)
        for _ in range(20):
            half = np.sort(rng.uniform(0.02, 0.48, rng.integers(1, 5)))
            centre = [0.5] if rng.integers(0, 2) else []
            pts = np.array([0.0, *half, *centre, *(1.0 - half[::-1]), 1.0])
            w = rng.uniform(0.5, 1.5, len(half) + 1 + len(centre))
            w = np.concatenate([w, w[:len(half) + 1][::-1]])
            terms = output_terms(DiscreteInput(pts, w / w.sum()), n)
            assert np.array_equal(_logsumexp(terms), logsumexp(terms, axis=1))

    @pytest.mark.parametrize("pts,w", [([0.0, 1.0], [0.5, 0.5]),
                                       ([0.0, 0.3, 1.0], [0.2, 0.5, 0.3]),
                                       ([0.0], [1.0])],
                             ids=["endpoints", "endpoints-and-interior", "one-atom-at-0"])
    @pytest.mark.parametrize("n", [1, 4, 100])
    def test_scipy_bit_for_bit_with_endpoint_atoms(self, pts, w, n):
        terms = output_terms(DiscreteInput(pts, w), n)
        got = _logsumexp(terms)
        assert np.array_equal(got, logsumexp(terms, axis=1))
        if len(pts) == 1:  # only y = 0 has mass; every other row is all -inf
            assert got[0] == 0.0 and np.all(got[1:] == -np.inf)

    def test_scalar_rows_as_scipy(self, rng):
        terms = rng.normal(size=5)
        got = _logsumexp(terms)
        assert np.ndim(got) == 0 and got == logsumexp(terms, axis=-1)


class TestKlDivergence:
    def test_identical_is_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        assert kl_divergence(p, p) == 0.0

    def test_point_mass_vs_uniform(self):
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2))

    def test_table_two_value(self):
        got = kl_divergence([0.25, 0.5, 0.25], [8 / 17, 1 / 17, 8 / 17])
        assert got == pytest.approx(math.log(17 / 8), abs=1e-14)
        assert got == pytest.approx(0.753772, abs=1e-6)

    def test_infinite_when_support_escapes(self):
        assert kl_divergence([0.5, 0.5], [1.0, 0.0]) == math.inf

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            kl_divergence([1.0], [0.5, 0.5])


class TestInfoDensity:
    def test_endpoint_equals_capacity_n2(self, table_dists):
        out = induce_output(table_dists[2], ChannelSpec(2))
        assert info_density(0.0, out, ChannelSpec(2)) == pytest.approx(
            math.log(17 / 8), abs=1e-14)

    def test_zero_against_own_row(self):
        spec = ChannelSpec(6)
        from binomcap import pmf_row
        out = OutputPmf(pmf_row(spec, 0.37), 6)
        assert info_density(0.37, out, spec) == pytest.approx(0.0, abs=1e-13)

    def test_half_equals_capacity_n3(self, table_dists):
        out = induce_output(table_dists[3], ChannelSpec(3))
        assert info_density(0.5, out, ChannelSpec(3)) == pytest.approx(
            math.log(19 / 8), abs=1e-14)


def where_form_density(n, xs, logq):
    """Reference: the density sweep over all rows at once, masked with np.where."""
    y = np.arange(n + 1)
    logP = log_binom_coeffs(n) + xlogy(y, xs[:, None]) + xlog1py(n - y, -xs[:, None])
    P = np.exp(logP)
    with np.errstate(invalid="ignore"):
        return np.sum(np.where(P > 0, P * (logP - logq), 0.0), axis=1)


@pytest.mark.filterwarnings("error")
class TestDensitySweep:
    @pytest.mark.parametrize("n", [24, 1024, 4096])
    def test_bit_identical_to_where_form(self, n, rng, monkeypatch):
        spec = ChannelSpec(n)
        logq = log_output_pmf(random_dist(rng), spec)
        step = _CHUNK_CELLS // (n + 1)
        # shorter than one chunk; three whole chunks and a ragged tail
        for size in (step // 3, 3 * step + 7):
            assert 0 < size % step < step
            xs = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, size - 2)])
            chunks = []

            def spy(spec, x, lo=None, width=0):
                chunks.append(((x.ctypes.data - xs.ctypes.data) // 8, len(x), width))
                return log_pmf_matrix(spec, x, lo, width)

            monkeypatch.setattr(distributions, "log_pmf_matrix", spy)
            got = _info_density_against_logq(spec, xs, logq)
            assert np.array_equal(got, where_form_density(n, xs, logq))
            # one kernel call per chunk of rows; at n = 24 the windows cover
            # the row and every chunk is swept in full, at n >= 1024 each
            # chunk on the widest window of its rows
            assert [c[:2] for c in chunks] == [(s, min(step, size - s))
                                               for s in range(0, size, step)]
            lo, hi = _bernstein_window(n, xs)
            widths = [int((hi[s:s + k] - lo[s:s + k]).max()) + 1 for s, k, _ in chunks]
            assert [c[2] for c in chunks] == ([0] * len(chunks) if n == 24 else widths)

    @pytest.mark.parametrize("n", [64, 1024, 4096])
    def test_window_holds_every_cell_above_e_minus_60(self, n):
        xs = np.array([0.0, 1e-6, 1e-4, 1e-3, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99,
                       1 - 1e-3, 1 - 1e-4, 1 - 1e-6, 1.0])
        logP = log_pmf_matrix(ChannelSpec(n), xs)
        lo, hi = _bernstein_window(n, xs)
        y = np.arange(n + 1)
        outside = (y < lo[:, None]) | (y > hi[:, None])
        assert outside.any()
        assert np.all(logP[outside] <= -60.0)

    def test_matches_40_digit_reference_at_max_trials(self, rng):
        # i(x) on the n = 4096 certificate grid against a random symmetric
        # input with both endpoints, summed over every output in 40 digits;
        # the double sum is within about 1e-14 relative
        mp = pytest.importorskip("mpmath").mp
        n = 4096
        half = np.sort(rng.uniform(0.02, 0.48, 3))
        pts = np.concatenate([[0.0], half, [0.5], 1.0 - half[::-1], [1.0]])
        w = rng.uniform(0.5, 1.5, 5)
        w = np.concatenate([w, w[-2::-1]])
        dist = DiscreteInput(pts, w / w.sum())
        xs = _cert_grid(n)[[1, 100, 250, 403]]
        got = _info_density_against_logq(ChannelSpec(n), xs, log_output_pmf(dist, ChannelSpec(n)))
        with mp.workdps(40):
            logc = [mp.log(mp.binomial(n, y)) for y in range(n + 1)]

            def log_row(x):
                x = mp.mpf(float(x))
                if x == 0 or x == 1:
                    return [0 if y == n * x else -mp.inf for y in range(n + 1)]
                lx, l1x = mp.log(x), mp.log(1 - x)
                return [logc[y] + y * lx + (n - y) * l1x for y in range(n + 1)]

            rows = [log_row(p) for p in dist.points]
            q = [mp.fsum(mp.mpf(float(wk)) * mp.exp(r[y]) for wk, r in zip(dist.weights, rows))
                 for y in range(n + 1)]
            for x, g in zip(xs, got):
                ref = mp.fsum(mp.exp(lp) * (lp - mp.log(qy))
                              for lp, qy in zip(log_row(x), q) if lp != -mp.inf)
                assert abs(g - ref) <= 1e-12 * abs(ref)

    def test_starved_output(self):
        spec = ChannelSpec(4)
        logq = log_output_pmf(DiscreteInput([0.0, 1.0], [0.5, 0.5]), spec)
        xs = np.linspace(0.0, 1.0, 9)
        got = _info_density_against_logq(spec, xs, logq)
        assert np.array_equal(got, where_form_density(4, xs, logq))
        assert not np.isnan(got).any()
        assert np.all(got[1:-1] == np.inf)
        assert got[0] == got[-1] == pytest.approx(math.log(2), abs=1e-15)


class TestInfoTerms:
    @pytest.mark.parametrize("n", [10, 75, 256])
    def test_second_derivative_matches_moment_ratio_form(self, solved, n):
        # i'' from the frozen-output channel rows against the independent
        # posterior-mean form of density.py, at the interior atoms of a solve.
        # At an atom i'' is a small difference of terms of size n / (x(1-x)),
        # at n = 256 down to 1e-8 of it, so the error is measured on that
        # scale: there both forms are within 3e-13 of a 40-digit evaluation,
        # while relative to i'' they differ by up to 4e-5.
        report = solved(n) if n < 256 else solved(n, max_outer_iters=16)
        spec = ChannelSpec(n)
        pts = report.input.points
        xs = pts[(pts > 0) & (pts < 1)]
        logP = log_pmf_matrix(spec, xs)
        ipp = _info_terms(spec, xs, logP, np.exp(logP), log_output_pmf(report.input, spec),
                          slice(None))[3]
        ref = info_density_second(xs, report.input, spec)
        assert np.max(np.abs(ipp - ref) * xs * (1 - xs) / n) <= 1e-11

    def test_derivatives_only_on_interior_rows(self):
        spec = ChannelSpec(6)
        xs = np.array([0.0, 0.3, 0.5, 1.0])
        logP = log_pmf_matrix(spec, xs)
        logq = np.log(np.full(7, 1.0 / 7))
        ival, Pp, ip, ipp = _info_terms(spec, xs, logP, np.exp(logP), logq, [1, 2])
        assert ival.shape == (4,) and Pp.shape == (2, 7)
        assert ip.shape == ipp.shape == (2,)
        assert ip[1] == pytest.approx(0.0, abs=1e-12)  # uniform q: i is even about 1/2
        assert np.array_equal(_info_terms(spec, xs, logP, np.exp(logP), logq), ival)


class TestMutualInformation:
    def test_single_trial(self, table_dists):
        assert mutual_information(table_dists[1], ChannelSpec(1)) == pytest.approx(
            math.log(2), abs=1e-15)

    def test_point_mass_carries_nothing(self):
        d = DiscreteInput(np.array([0.3]), np.array([1.0]))
        assert mutual_information(d, ChannelSpec(5)) == pytest.approx(0.0, abs=1e-14)

    def test_table_two(self, table_dists):
        assert mutual_information(table_dists[2], ChannelSpec(2)) == pytest.approx(
            math.log(17 / 8), abs=1e-12)

    def test_entropy_identity_chain(self, rng):
        # sum_k w_k i(x_k) must equal H(Y) - sum_k w_k H(Y|X=x_k)
        for _ in range(10):
            n = int(rng.integers(1, 20))
            spec = ChannelSpec(n)
            dist = random_dist(rng)
            mi = mutual_information(dist, spec)
            out = induce_output(dist, spec)
            hy = float(-np.sum(np.where(out.probs > 0,
                                        out.probs * np.log(out.probs), 0.0)))
            hyx = sum(w * binomial_entropy_exact(spec, float(x))
                      for x, w in zip(dist.points, dist.weights))
            assert mi == pytest.approx(hy - hyx, abs=1e-10)

    def test_data_processing_caps(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 15))
            dist = random_dist(rng)
            mi = mutual_information(dist, ChannelSpec(n))
            assert mi <= math.log(len(dist)) + 1e-12
            assert mi <= math.log(n + 1) + 1e-12

    def test_symmetric_input_gives_symmetric_output(self):
        d = DiscreteInput(np.array([0.1, 0.4, 0.6, 0.9]),
                          np.array([0.3, 0.2, 0.2, 0.3]))
        out = induce_output(d, ChannelSpec(9))
        np.testing.assert_allclose(out.probs, out.probs[::-1], atol=1e-12)


class TestPosteriorMean:
    def test_symmetry_forces_half(self, table_dists):
        assert posterior_mean(table_dists[2], ChannelSpec(2), 1) == pytest.approx(
            0.5, abs=1e-15)

    def test_certain_source(self):
        d = DiscreteInput(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        assert posterior_mean(d, ChannelSpec(3), 3) == pytest.approx(1.0, abs=1e-15)

    def test_table_three_direct_ratio(self, table_dists):
        # oracle: direct moment-ratio evaluation over the three atoms
        d = table_dists[3]
        n = 3

        def moment(a, b):
            return sum(w * x**a * (1 - x) ** b for x, w in zip(d.points, d.weights))

        for y in range(4):
            want = moment(y + 1, n - y) / moment(y, n - y)
            assert posterior_mean(d, ChannelSpec(n), y) == pytest.approx(want, rel=1e-13)
        vals = [posterior_mean(d, ChannelSpec(n), y) for y in range(4)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_undefined_posterior_raises(self):
        d = DiscreteInput(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        with pytest.raises(UndefinedPosteriorError):
            posterior_mean(d, ChannelSpec(3), 1)

    def test_monotone_in_y(self, rng):
        # conditional mean never decreases as the observed count grows
        for _ in range(40):
            n = int(rng.integers(1, 30))
            dist = random_dist(rng)
            vals = []
            for y in range(n + 1):
                try:
                    vals.append(posterior_mean(dist, ChannelSpec(n), y))
                except UndefinedPosteriorError:
                    vals.append(None)
            defined = [v for v in vals if v is not None]
            assert all(b >= a - 1e-12 for a, b in zip(defined, defined[1:]))


class TestChannelMatrix:
    def test_identity_for_single_trial(self):
        sign, logabs = channel_matrix_logdet(ChannelSpec(1), [0.0, 1.0])
        assert sign == 1
        assert logabs == pytest.approx(0.0, abs=1e-15)

    def test_exact_half_determinant(self):
        sign, logabs = channel_matrix_logdet(ChannelSpec(2), [0.0, 0.5, 1.0])
        assert sign == 1
        assert sign * math.exp(logabs) == pytest.approx(0.5, abs=1e-14)

    def test_equispaced_against_rational_oracle(self):
        n = 6
        pts = [Fraction(k, 6) for k in range(7)]
        matrix = [[Fraction(math.comb(n, y)) * x**y * (1 - x) ** (n - y)
                   for x in pts] for y in range(n + 1)]
        want = rational_det(matrix)
        assert want != 0
        sign, logabs = channel_matrix_logdet(ChannelSpec(n), [float(p) for p in pts])
        assert sign == (1 if want > 0 else -1)
        assert sign * math.exp(logabs) == pytest.approx(float(want), rel=1e-10)

    def test_random_supports_nonsingular(self, rng):
        for n in range(1, 16):
            for _ in range(20):
                pts = np.sort(rng.uniform(0.0, 1.0, size=n + 1))
                if np.any(np.diff(pts) < 1e-4):
                    continue
                sign, _ = channel_matrix_logdet(ChannelSpec(n), pts)
                assert sign != 0

    def test_wrong_point_count(self):
        with pytest.raises(ValueError):
            channel_matrix_logdet(ChannelSpec(3), [0.0, 0.5, 1.0])
