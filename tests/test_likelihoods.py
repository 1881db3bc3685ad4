import math

import numpy as np
import pytest

from crbayes.data import CaptureHistory, SufficientStats, simulate_mh, summarize
from crbayes.likelihoods import BetaParams, kahn_log_prob, york_madigan_log_kernel
from crbayes.posterior import GammaPriors, MhMarginalKernel, m0_marginal_log_kernel

from oracles import (
    NoFiniteMLEError,
    enumerate_kahn_log_prob,
    enumerate_m0_log_prob,
    m0_log_prob,
    m0_profile_log_lik,
    m0_profile_mle,
    mh_complete_log_lik,
    mh_summary_log_prob,
    quad_mh_complete_log_lik,
)

TWO_ANIMALS = summarize(CaptureHistory(k=2, rows=((1, 0), (1, 1))))
THREE_ANIMALS = summarize(CaptureHistory(k=3, rows=((1, 0, 0), (1, 1, 0), (0, 1, 1))))


def stats_from(m_k1, k, n_dot, n_j, f_j):
    return SufficientStats(m_k1, k, n_dot, tuple(n_j), tuple(f_j))


class TestKahn:
    def test_single_bernoulli(self):
        assert kahn_log_prob([1], 1, 0.5) == pytest.approx(math.log(0.5))

    def test_certain_capture_probability_one(self):
        assert kahn_log_prob([3, 3, 3], 3, 1.0) == pytest.approx(0.0)

    def test_matches_exhaustive_enumeration(self):
        expected = enumerate_kahn_log_prob([2, 1], 3, 0.4)
        assert kahn_log_prob([2, 1], 3, 0.4) == pytest.approx(expected, rel=1e-12)

    def test_rejects_n_below_max_count(self):
        with pytest.raises(ValueError, match="max"):
            kahn_log_prob([2, 1], 1, 0.4)

    def test_zero_probability_edges(self):
        assert kahn_log_prob([1, 0], 2, 0.0) == -np.inf
        assert kahn_log_prob([0, 0], 2, 0.0) == pytest.approx(0.0)
        assert kahn_log_prob([1, 0], 2, 1.0) == -np.inf


class TestM0:
    def test_two_animal_one_occasion(self):
        stats = stats_from(1, 1, 1, [1], [1])
        assert m0_log_prob(stats, 2, 0.5) == pytest.approx(math.log(0.5))

    def test_nothing_observed(self):
        stats = stats_from(0, 2, 0, [0, 0], [0, 0])
        for n_val in [0, 3, 10]:
            assert m0_log_prob(stats, n_val, 0.3) == pytest.approx(
                2 * n_val * math.log(0.7)
            )

    def test_below_support_is_neg_inf_not_error(self):
        assert m0_log_prob(TWO_ANIMALS, 1, 0.4) == -np.inf

    def test_matches_latent_matrix_enumeration(self):
        expected = enumerate_m0_log_prob([(1, 0), (1, 1)], 3, 0.4)
        assert m0_log_prob(TWO_ANIMALS, 3, 0.4) == pytest.approx(expected, rel=1e-12)

    def test_vectorized_over_n(self):
        grid = np.array([1.0, 2.0, 5.0])
        vals = m0_log_prob(TWO_ANIMALS, grid, 0.4)
        assert vals[0] == -np.inf
        assert vals[1] == pytest.approx(m0_log_prob(TWO_ANIMALS, 2, 0.4))

    def test_shares_detection_powers_with_count_model(self):
        # same (n., K, N): the p-dependence of both likelihoods is identical,
        # so their difference is constant in p
        stats = TWO_ANIMALS
        diffs = [
            kahn_log_prob(stats.n_j, 5, p) - m0_log_prob(stats, 5, p)
            for p in (0.1, 0.35, 0.62, 0.9)
        ]
        assert np.ptp(diffs) < 1e-10


class TestProfileMLE:
    def test_small_example(self):
        n_hat, p_hat = m0_profile_mle(TWO_ANIMALS)
        assert (n_hat, p_hat) == (2, 0.75)

    def test_matches_exhaustive_scan(self):
        grid = np.arange(2, 101, dtype=float)
        vals = m0_profile_log_lik(TWO_ANIMALS, grid)
        assert int(grid[np.argmax(vals)]) == 2

    def test_profile_value_ratio(self):
        # likelihood at N=2 over N=3 with plug-in rates: 0.2109375 / 0.09375
        ratio = math.exp(
            m0_profile_log_lik(TWO_ANIMALS, 2) - m0_profile_log_lik(TWO_ANIMALS, 3)
        )
        assert ratio == pytest.approx(0.2109375 / 0.09375, rel=1e-12)

    def test_everyone_caught_every_time(self):
        stats = summarize(CaptureHistory(k=3, rows=((1, 1, 1), (1, 1, 1))))
        n_hat, p_hat = m0_profile_mle(stats)
        assert n_hat == stats.m_k1
        assert p_hat == pytest.approx(1.0)

    def test_no_recaptures_is_an_error(self):
        stats = summarize(CaptureHistory(k=2, rows=((1, 0), (0, 1))))
        with pytest.raises(NoFiniteMLEError, match="recapture"):
            m0_profile_mle(stats)


class TestMhIntegrated:
    def test_one_seen_one_missed_uniform_mixing(self):
        stats = stats_from(1, 1, 1, [1], [1])
        value = mh_complete_log_lik(stats, 2, BetaParams(1.0, 1.0))
        assert value == pytest.approx(math.log(0.5), rel=1e-12)

    def test_nothing_observed_reduces_to_zero_cell_power(self):
        stats = stats_from(0, 2, 0, [0, 0], [0, 0])
        params = BetaParams(2.0, 3.0)
        zero_cell = (3.0 / 5.0) * (4.0 / 6.0)  # prod (beta+j)/(alpha+beta+j), K=2
        assert mh_complete_log_lik(stats, 4, params) == pytest.approx(
            4 * math.log(zero_cell)
        )

    def test_rejects_nonpositive_shapes(self):
        for shapes in ((0.0, 1.0), (math.nan, 1.0), (1.0, math.nan)):
            with pytest.raises(ValueError):
                BetaParams(*shapes)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_matches_per_animal_quadrature(self, alpha, beta):
        history = CaptureHistory(k=3, rows=((1, 0, 0), (1, 1, 0), (0, 1, 1)))
        stats = summarize(history)
        params = BetaParams(alpha, beta)
        for n_val in (3, 5, 12):
            expected = quad_mh_complete_log_lik(stats, n_val, alpha, beta)
            assert mh_complete_log_lik(stats, n_val, params) == pytest.approx(
                expected, rel=1e-10
            )

    @pytest.mark.parametrize("k", range(2, 9))
    @pytest.mark.parametrize("a, b", [(1, 1000), (1000, 1), (1000, 1000), (37, 613), (500, 3)])
    def test_zero_cell_factor_does_not_drift_with_n(self, k, a, b):
        # each of the N - M unseen animals contributes prod_{j<K} (b+j)/(a+b+j);
        # its rounding is multiplied by N - M, so compare against exact integer products.
        # Both kernels are checked here rather than by one more parametrize, which
        # would rename every case of this test.
        rows = tuple(tuple(int(j <= i) for j in range(k)) for i in range(k))
        stats = summarize(CaptureHistory(k=k, rows=rows))
        m, d = stats.m_k1, 500
        params = BetaParams(float(a), float(b))
        num = math.prod(range(b, b + k))
        den = math.prod(range(a + b, a + b + k))
        want = d * (math.log(num) - math.log(den))
        kernels = {
            "integrated": lambda n: mh_complete_log_lik(stats, n, params),
            "summary": lambda n: mh_summary_log_prob(stats.f_j, m, n, k, params),
        }
        for name, kernel in kernels.items():
            got = kernel(m + d) - kernel(m) - math.log(math.comb(m + d, m))
            assert abs(got - want) <= 1e-13 * d, name


class TestMhSummary:
    def test_single_occasion_uniform_mixing(self):
        value = mh_summary_log_prob([1], 1, 2, 1, BetaParams(1.0, 1.0))
        assert value == pytest.approx(math.log(0.5), rel=1e-12)

    def test_no_captures_reduces_to_zero_cell_power(self):
        params = BetaParams(2.0, 3.0)
        pi0 = (3.0 / 5.0) * (4.0 / 6.0)
        assert mh_summary_log_prob([0, 0], 0, 7, 2, params) == pytest.approx(
            7 * math.log(pi0)
        )

    def test_rejects_inconsistent_frequencies(self):
        with pytest.raises(ValueError, match="sum"):
            mh_summary_log_prob([1, 1], 3, 5, 2, BetaParams(1.0, 1.0))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_posterior_as_integrated_form(self, seed):
        # the two likelihood forms differ by a factor constant in N, so the
        # normalized posteriors over N agree
        history = simulate_mh(8, 1.5, 2.5, 3, seed=seed)
        stats = summarize(history)
        if stats.m_k1 == 0:
            pytest.skip("degenerate draw")
        params = BetaParams(1.5, 2.5)
        grid = np.arange(stats.m_k1, 200, dtype=float)
        via_summary = mh_summary_log_prob(stats.f_j, stats.m_k1, grid, stats.k, params)
        via_integrated = mh_complete_log_lik(stats, grid, params)
        diff = via_summary - via_integrated
        assert np.ptp(diff) < 1e-9


class TestYorkMadigan:
    def test_integer_gamma_arithmetic(self):
        assert york_madigan_log_kernel(1, 1, 2, 1.0) == pytest.approx(math.log(0.5))

    def test_no_observations_monotone_decreasing(self):
        grid = np.arange(1.0, 200.0)
        vals = york_madigan_log_kernel(grid, 0, 3, 0.7)
        assert np.all(np.diff(vals) < 0)

    def test_local_exponent_approaches_cells_times_delta(self):
        n_val = 1e6
        vals = york_madigan_log_kernel(np.array([n_val, 2 * n_val]), 4, 6, 0.25)
        slope = -(vals[1] - vals[0]) / math.log(2.0)
        assert slope == pytest.approx((6 - 1) * 0.25, abs=1e-3)

    def test_below_support(self):
        assert york_madigan_log_kernel(2, 3, 2, 1.0) == -np.inf

    def test_validation(self):
        with pytest.raises(ValueError):
            york_madigan_log_kernel(5, 1, 1, 1.0)
        with pytest.raises(ValueError):
            york_madigan_log_kernel(5, 1, 3, 0.0)

    def test_rejects_nan_delta(self):
        with pytest.raises(ValueError, match="delta"):
            york_madigan_log_kernel([10, 20], 4, 6, math.nan)


@pytest.mark.parametrize(
    "kernel",
    [
        lambda n: m0_log_prob(TWO_ANIMALS, n, 0.4),
        lambda n: mh_complete_log_lik(TWO_ANIMALS, n, BetaParams(1.0, 2.0)),
        lambda n: york_madigan_log_kernel(n, 3, 4, 0.5),
    ],
)
def test_kernels_finite_then_eventually_decreasing(kernel):
    grid = np.arange(3.0, 5000.0)
    vals = kernel(grid)
    assert np.isfinite(vals).all()
    peak = int(np.argmax(vals))
    assert np.all(np.diff(vals[peak:]) <= 0)


@pytest.mark.parametrize(
    "kernel, lo",
    [
        (lambda n: m0_log_prob(THREE_ANIMALS, n, 0.4), 3),
        (lambda n: m0_profile_log_lik(THREE_ANIMALS, n), 3),
        (lambda n: m0_profile_log_lik(stats_from(0, 2, 0, [0, 0], [0, 0]), n), 1),
        (lambda n: mh_complete_log_lik(THREE_ANIMALS, n, BetaParams(1.0, 2.0)), 3),
        (lambda n: mh_summary_log_prob(THREE_ANIMALS.f_j, 3, n, 3, BetaParams(1.0, 2.0)), 3),
        (lambda n: york_madigan_log_kernel(n, 4, 3, 0.5), 4),
        (lambda n: m0_marginal_log_kernel(n, THREE_ANIMALS, BetaParams(1.0, 1.0)), 3),
        (MhMarginalKernel(THREE_ANIMALS, GammaPriors(2.0, 2.0, 1.0)).log_kernel, 3),
    ],
    ids=[
        "m0_log_prob",
        "m0_profile_log_lik",
        "m0_profile_log_lik-empty",
        "mh_integrated_log_prob",
        "mh_summary_log_prob",
        "york_madigan_log_kernel",
        "m0_marginal_log_kernel",
        "MhMarginalKernel",
    ],
)
def test_kernels_are_neg_inf_exactly_below_support(kernel, lo):
    below, on = kernel(lo - 1), kernel(lo)
    assert type(below) is float and below == -math.inf
    assert type(on) is float and math.isfinite(on)
    grid = np.array([lo - 3, lo - 1, lo - 0.5, lo, lo + 0.5, lo + 1, lo + 40], dtype=float)
    vals = kernel(grid)
    assert isinstance(vals, np.ndarray) and vals.shape == grid.shape
    assert (vals[grid < lo] == -np.inf).all()
    assert np.isfinite(vals[grid >= lo]).all()
