import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betaln, gammaln

from crbayes.data import CaptureHistory, SufficientStats, simulate_m0, simulate_mh, summarize
from crbayes.likelihoods import BetaParams, log_falling
from crbayes.posterior import (
    GammaPriors,
    MhMarginalKernel,
    QuadratureConvergenceError,
    m0_marginal_log_kernel,
    posterior_table,
)
from crbayes.propriety import propriety_report

from oracles import (
    box_mh_marginal_log_kernel,
    mc_beta_expectation,
    mc_mh_marginal_log_kernel,
    mh_log_integrand,
    per_n_centred_hermite_log_expectation,
    quad_m0_marginal_log_kernel,
)

TWO_ANIMALS = summarize(CaptureHistory(k=2, rows=((1, 0), (1, 1))))
EMPTY_K1 = SufficientStats(0, 1, 0, (0,), (0,))


def test_m0_marginal_small_case_closed_form():
    # 5!/3! * Gamma(8)/Gamma(12) = 20/7920
    value = m0_marginal_log_kernel(5, TWO_ANIMALS, BetaParams(1.0, 1.0))
    assert value == pytest.approx(math.log(20.0 / 7920.0), rel=1e-12)


def test_m0_marginal_empty_dataset_single_occasion():
    value = m0_marginal_log_kernel(1, EMPTY_K1, BetaParams(1.0, 1.0))
    assert value == pytest.approx(math.log(0.5), rel=1e-12)


def test_m0_marginal_matches_adaptive_quadrature():
    beta = BetaParams(1.5, 2.5)
    for n_val in (2, 7, 40, 300, 5000):
        expected = quad_m0_marginal_log_kernel(TWO_ANIMALS, n_val, 1.5, 2.5)
        got = m0_marginal_log_kernel(float(n_val), TWO_ANIMALS, beta)
        assert got == pytest.approx(expected, abs=1e-9)


def test_m0_marginal_tail_ratio_matches_exponent():
    # one recapture and a = 1 give kernel ~ N^-2, so doubling N quarters it
    n_val = 1e6
    vals = m0_marginal_log_kernel(np.array([n_val, 2 * n_val]), TWO_ANIMALS, BetaParams(1.0, 1.0))
    assert math.exp(vals[1] - vals[0]) == pytest.approx(0.25, rel=1e-5)


def test_m0_marginal_below_support():
    assert m0_marginal_log_kernel(1, TWO_ANIMALS, BetaParams(1.0, 1.0)) == -np.inf


def one_occasion_stats(m: int) -> SufficientStats:
    """M animals, each caught on the single occasion."""
    return SufficientStats(m, 1, m, (m,), (m,))


def one_occasion_beta_moment(n, m: int, a: float, b: float):
    """log E[(1-X)^(N-M) X^M] for X ~ Beta(a, b), read off the m0 kernel.

    With one occasion the kernel is log N!/(N-M)! + log Gamma(N-M+b)
    - log Gamma(N+a+b); dropping the falling factorial and adding the N-free
    log Gamma(M+a) - log B(a, b) leaves the Beta moment.
    """
    kernel = m0_marginal_log_kernel(n, one_occasion_stats(m), BetaParams(a, b))
    return kernel - log_falling(n, m) + gammaln(m + a) - betaln(a, b)


class TestBetaExpectation:
    def test_mean_of_uniform(self):
        assert math.exp(one_occasion_beta_moment(1, 0, 1.0, 1.0)) == pytest.approx(0.5)
        assert math.exp(one_occasion_beta_moment(1, 1, 1.0, 1.0)) == pytest.approx(0.5)

    def test_matches_monte_carlo(self):
        est, se = mc_beta_expectation(100, 5, 2.0, 3.0, draws=10**7, seed=404)
        exact = math.exp(one_occasion_beta_moment(100, 5, 2.0, 3.0))
        assert abs(exact - est) <= 3.0 * se

    def test_validation(self):
        with pytest.raises(ValueError):
            one_occasion_beta_moment(5, 0, -1.0, 1.0)
        # below N = M the kernel carries no mass
        assert m0_marginal_log_kernel(2, one_occasion_stats(3), BetaParams(1.0, 1.0)) == -np.inf

    @pytest.mark.parametrize("shapes", [(math.nan, 1.0), (1.0, math.nan)])
    def test_rejects_nan_shape(self, shapes):
        with pytest.raises(ValueError, match="positive"):
            one_occasion_beta_moment(5, 0, *shapes)


class TestMhMarginal:
    @pytest.mark.parametrize("shapes", [(1.5, 2.0), (0.5, 1.0), (3.0, 1.0), (2.5, 3.0)])
    def test_empty_dataset_single_occasion_closed_form(self, shapes):
        # with one occasion the zero-cell factor is beta/(alpha+beta) = 1 - X
        # and X = alpha/(alpha+beta) ~ Beta(a, b) under common-scale Gammas
        a, b = shapes
        kern = MhMarginalKernel(EMPTY_K1, GammaPriors(a, b, 1.0), rtol=1e-5)
        for n_val in (0, 1, 5, 100, 10_000, 10**6):
            got = kern.log_kernel(float(n_val))
            expected = betaln(a, b + n_val) - betaln(a, b)  # log E[(1 - X)^N]
            assert got == pytest.approx(expected, abs=1e-7)

    def test_observed_animals_single_occasion_closed_form(self):
        stats = summarize(CaptureHistory(k=1, rows=((1,), (1,))))
        kern = MhMarginalKernel(stats, GammaPriors(1.5, 2.0, 1.0), rtol=1e-5)
        comb = {2: 1.0, 3: 3.0, 12: 66.0}  # C(N, 2)
        for n_val, c in comb.items():
            got = kern.log_kernel(n_val)
            # log E[X^2 (1 - X)^(N - 2)] for X ~ Beta(1.5, 2)
            expected = math.log(c) + betaln(1.5 + 2, 2.0 + n_val - 2) - betaln(1.5, 2.0)
            assert got == pytest.approx(expected, abs=1e-8)

    def test_all_observed_has_no_zero_cell(self):
        stats = summarize(CaptureHistory(k=3, rows=((1, 0, 0), (1, 1, 0))))
        got = MhMarginalKernel(stats, GammaPriors(2.0, 2.0, 1.0)).log_kernel(stats.m_k1)
        est, se, log_comb = mc_mh_marginal_log_kernel(stats, stats.m_k1, 2.0, 2.0, 1.0, 10**6, 7)
        assert abs(math.exp(got - log_comb) - est) <= 3.0 * se

    def test_matches_monte_carlo_expectation(self):
        stats = summarize(CaptureHistory(k=2, rows=((1, 0), (1, 1))))
        kern = MhMarginalKernel(stats, GammaPriors(2.0, 2.0, 1.0))
        for n_val in (4, 17):
            got = kern.log_kernel(n_val)
            est, se, log_comb = mc_mh_marginal_log_kernel(stats, n_val, 2.0, 2.0, 1.0, 10**6, 99)
            assert abs(math.exp(got - log_comb) - est) <= 3.0 * se

    def test_symmetry_under_role_swap(self):
        # with every animal observed, swapping a <-> b and y <-> K - y leaves
        # the kernel unchanged (Beta symmetry)
        k = 3
        fwd = summarize(CaptureHistory(k=k, rows=((1, 0, 0), (1, 1, 0))))
        rev = summarize(CaptureHistory(k=k, rows=((1, 1, 0), (1, 0, 0))))  # y: 2,1
        lhs = MhMarginalKernel(fwd, GammaPriors(1.3, 2.6, 1.0)).log_kernel(2)
        rhs = MhMarginalKernel(rev, GammaPriors(2.6, 1.3, 1.0)).log_kernel(2)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_below_support(self):
        stats = summarize(CaptureHistory(k=2, rows=((1, 1),)))
        assert MhMarginalKernel(stats, GammaPriors(2.0, 2.0, 1.0)).log_kernel(0) == -np.inf

    def test_unconverged_quadrature_raises_with_both_values(self):
        stats = summarize(CaptureHistory(k=2, rows=((1, 0), (1, 1))))
        kern = MhMarginalKernel(stats, GammaPriors(0.5, 0.5, 1.0), nodes=4, check_nodes=8, rtol=1e-12)
        with pytest.raises(QuadratureConvergenceError) as info:
            kern.log_kernel(np.array([1.0, 10.0, 50.0]))  # N = 1 lies below M = 2
        err = info.value
        assert err.max_rel_change > 1e-12
        for values in (err.log_coarse, err.log_fine):
            assert values[0] == -np.inf and np.isfinite(values[1:]).all()
        rel = np.abs(np.expm1(err.log_coarse[1:] - err.log_fine[1:]))
        assert err.max_rel_change == rel.max()

    def test_nan_quadrature_raises_instead_of_returning(self, monkeypatch):
        # shapes 2/2 give the Hermite rule on these two animals, 0.5/0.5 the Laguerre rule
        for shapes, rule in (((2.0, 2.0), "hermite"), ((0.5, 0.5), "laguerre")):
            kern = MhMarginalKernel(TWO_ANIMALS, GammaPriors(*shapes, 1.0))
            assert kern.rule == rule
            real = kern._log_expectation

            def nan_at_ten(grid, *rule_args):
                out = real(grid, *rule_args)
                return np.where(grid == 10.0, np.nan, out)

            monkeypatch.setattr(kern, "_log_expectation", nan_at_ten)
            with pytest.raises(QuadratureConvergenceError) as info:
                kern.log_kernel(np.array([1.0, 5.0, 10.0, 50.0]))
            assert np.isnan(info.value.max_rel_change)
            assert np.isnan(info.value.log_fine[2])
            message = str(info.value)
            assert f"{rule} quadrature returned NaN" in message
            assert "(first at N = 10)" in message
            assert "changed by nan" not in message

    @pytest.mark.parametrize("rtol", [math.inf, math.nan, 0.0])
    def test_rejects_rtol_that_is_not_finite_and_positive(self, rtol):
        # rtol = inf would let any finite change through: an unchecked quadrature
        with pytest.raises(ValueError, match="rtol"):
            MhMarginalKernel(TWO_ANIMALS, GammaPriors(2.0, 2.0, 1.0), rtol=rtol)

    @pytest.mark.parametrize("params", [(math.nan, 1.0), (1.0, math.nan), (1.0, 1.0, math.nan), (0.0, 1.0)])
    def test_gamma_priors_reject_nan_and_nonpositive(self, params):
        with pytest.raises(ValueError, match="positive"):
            GammaPriors(*params)

    def test_log_kernel_pinned_on_each_branch(self):
        # recorded reference values, one set for each of the Hermite, mixing
        # and rescaled branches
        rich = summarize(simulate_mh(50, 2.0, 4.0, 8, seed=6))
        one = summarize(CaptureHistory(k=4, rows=((0, 1, 0, 0),)))
        cases = [
            ("hermite", rich, GammaPriors(2.0, 2.0, 1.0), [0.0, 7.0, 60.0, 1e3, 1e6], [
                -218.80562725123326, -217.39538148867226, -224.48588770734446,
                -232.560124949825, -246.58819876120776]),
            ("mixing", TWO_ANIMALS, GammaPriors(0.5, 0.5, 1.0), [0.0, 1.0, 10.0, 50.0, 128.0], [
                -3.8979246672790175, -4.175892403386783, -5.164553809846945,
                -6.0010701568839515, -6.47894140604409]),
            ("rescaled", one, GammaPriors(1.0, 0.8, 2.0), [129.0, 500.0, 1e4, 1e6], [
                -7.907427533650598, -9.254423321956637, -12.247566969862621, -16.85260210843039]),
        ]
        for branch, stats, gammas, excess, want in cases:
            kern = MhMarginalKernel(stats, gammas)
            assert kern.rule == ("hermite" if branch == "hermite" else "laguerre")
            got = kern.log_kernel(stats.m_k1 + np.array(excess))
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=branch)

    @pytest.mark.parametrize("entry", range(5), ids=["u", "v", "l11", "l21", "l22"])
    @pytest.mark.parametrize("role", ["opens-block", "inside-block"])
    def test_non_finite_centre_neither_joins_nor_lends_a_block(self, entry, role):
        # a Newton search stopped on a saddle can leave a non-finite centre;
        # that N must still read NaN and fail the check, and no other N may
        # share its nodes or lend it theirs
        stats = summarize(simulate_mh(50, 2.0, 4.0, 8, seed=6))
        gammas = GammaPriors(2.0, 2.0, 1.0)
        grid = np.arange(stats.m_k1, stats.m_k1 + 60, dtype=float)
        clean = MhMarginalKernel(stats, gammas)
        block = clean._hermite_blocks(grid)[1][0]
        assert block.stop - block.start >= 3
        poisoned = grid[block.start + (role == "inside-block")]

        class Poisoned(MhMarginalKernel):
            def _hermite_centre(self, grid):
                centre = super()._hermite_centre(grid)
                centre[entry][grid == poisoned] = np.nan
                return centre

        with pytest.raises(QuadratureConvergenceError) as info:
            Poisoned(stats, gammas).log_kernel(grid)
        assert f"hermite quadrature returned NaN at 64^2 and 96^2 nodes (first at N = {poisoned:g})" in str(info.value)
        for values in (info.value.log_coarse, info.value.log_fine):
            np.testing.assert_array_equal(np.isnan(values), grid == poisoned)
        np.testing.assert_allclose(
            info.value.log_fine[grid != poisoned], clean.log_kernel(grid)[grid != poisoned], rtol=1e-10, atol=0
        )

    def test_diagnostics_count_shared_centres(self):
        stats = summarize(simulate_mh(50, 2.0, 4.0, 8, seed=6))
        kern = MhMarginalKernel(stats, GammaPriors(2.0, 2.0, 1.0))
        assert list(kern.diagnostics) == ["rule", "nodes", "check_nodes", "max_rel_change", "centres"]
        assert kern.diagnostics["centres"] is None
        grid = np.arange(stats.m_k1, stats.m_k1 + 141, dtype=float)
        kern.log_kernel(grid)
        assert 1 < kern.diagnostics["centres"] < grid.size // 2  # nearby N share centres
        kern.log_kernel(grid[0])
        assert kern.diagnostics["centres"] == 1
        laguerre = MhMarginalKernel(TWO_ANIMALS, GammaPriors(0.5, 0.5, 1.0))
        laguerre.log_kernel(grid)
        assert laguerre.diagnostics["centres"] == 0

    def test_node_counts_capped_at_363(self):
        # scipy's Gauss-Laguerre rule returns NaN from 364 nodes on
        gammas = GammaPriors(2.0, 2.0, 1.0)
        for nodes, check_nodes in ((364, 400), (64, 364)):
            with pytest.raises(ValueError, match="363"):
                MhMarginalKernel(TWO_ANIMALS, gammas, nodes=nodes, check_nodes=check_nodes)
        MhMarginalKernel(TWO_ANIMALS, gammas, nodes=64, check_nodes=363)

    def test_diagnostics_recorded(self):
        kern = MhMarginalKernel(TWO_ANIMALS, GammaPriors(2.0, 2.0, 1.0))
        kern.log_kernel(np.array([5.0, 50.0, 1e4]))
        assert kern.diagnostics["max_rel_change"] < 1e-6

    def test_large_dataset_converges_at_default_nodes(self):
        # with many observed animals the integrand concentrates like a
        # posterior; the mode-centred rule follows it at the default nodes
        stats = summarize(simulate_mh(60, 2.0, 3.0, 4, seed=5))
        assert stats.m_k1 >= 40
        grid = np.arange(stats.m_k1, 201, dtype=float)
        gammas = GammaPriors(2.0, 2.0, 1.0)
        kern = MhMarginalKernel(stats, gammas)
        got = kern.log_kernel(grid)
        assert kern.diagnostics["rule"] == "hermite"
        assert kern.diagnostics["max_rel_change"] < 1e-10
        want = LaguerreKernel(stats, gammas, nodes=128, check_nodes=192).log_kernel(grid)
        assert np.abs(np.expm1(got - want)).max() <= 1e-6

    def test_heavy_left_tail_keeps_laguerre_rule_and_needs_more_nodes(self):
        # every animal caught on both occasions and b = 0.13: b + M - f_K is
        # below the Hermite threshold, so the prior-matched rule runs, and the
        # remedy its error advises works
        stats = summarize(CaptureHistory(k=2, rows=((1, 1),) * 8))
        gammas = GammaPriors(2.0, 0.13, 1.0)
        grid = np.arange(stats.m_k1, stats.m_k1 + 201, dtype=float)
        coarse = MhMarginalKernel(stats, gammas)
        assert coarse.rule == "laguerre"
        with pytest.raises(QuadratureConvergenceError, match="raise nodes"):
            coarse.log_kernel(grid)
        fine = MhMarginalKernel(stats, gammas, nodes=128, check_nodes=192)
        fine.log_kernel(grid)
        assert fine.diagnostics["rule"] == "laguerre"
        assert fine.diagnostics["max_rel_change"] < 1e-4

    @pytest.mark.parametrize("args", [(300, 2.0, 5.0, 5, 2), (400, 2.0, 4.0, 6, 1)])
    def test_data_rich_sets_converge_at_default_nodes(self, args):
        # M = 223 and M = 313: the prior-matched rules need 192/288 nodes or
        # more here; the mode-centred rule converges at 64/96
        stats = summarize(simulate_mh(*args))
        assert stats.m_k1 in (223, 313)
        gammas = GammaPriors(2.0, 2.0, 1.0)
        kern = MhMarginalKernel(stats, gammas)
        table = posterior_table(kern.log_kernel, "uniform", stats=stats, n_max=stats.m_k1 + 400)
        assert kern.diagnostics["rule"] == "hermite"
        assert kern.diagnostics["max_rel_change"] < 1e-8
        assert not table.warnings
        assert stats.m_k1 < table.ci[0] < table.mean < table.ci[1] < table.n_max
        report = propriety_report("mh", "uniform", stats=stats, gammas=gammas)
        assert report.predicted == "proper" and report.agreement


class LaguerreKernel(MhMarginalKernel):
    """The mh kernel held to the prior-matched rules whatever the data."""

    rule = "laguerre"


mh_histories = st.integers(min_value=1, max_value=8).flatmap(
    lambda k: st.lists(st.integers(1, 2**k - 1), max_size=40).map(
        lambda codes: CaptureHistory(k=k, rows=tuple(tuple((c >> j) & 1 for j in range(k)) for c in codes))
    )
)
gamma_shapes = st.floats(min_value=0.1, max_value=5.0)


@settings(max_examples=20, deadline=None)
@given(mh_histories, gamma_shapes, gamma_shapes, st.floats(min_value=0.2, max_value=5.0))
def test_hermite_rule_matches_box_integral(history, a, b, c):
    stats = summarize(history)
    m, f_k = stats.m_k1, stats.f_j[-1]
    gammas = GammaPriors(a, b, c)
    kern = MhMarginalKernel(stats, gammas)
    # the rule follows from the left-tail rates alone, never from which rule passes
    expected = "hermite" if min(a + m, b + m - f_k) >= 2.0 else "laguerre"
    assert kern.rule == kern.diagnostics["rule"] == expected
    k = stats.k
    same_counts = ((1,) * k,) * f_k + ((1,) + (0,) * (k - 1),) * (m - f_k)
    other = summarize(CaptureHistory(k=k, rows=same_counts))
    assert MhMarginalKernel(other, GammaPriors(a, b, 2.0 * c)).rule == expected
    if expected == "laguerre":
        return
    grid = m + np.array([0.0, 10.0, 1e3, 1e3 * max(m, 1), 1e6 * max(m, 1)])
    got = kern.log_kernel(grid)
    # brute force, not a second rule: a Laguerre 192/288 pair can agree with itself and be 3e-5 off
    want = box_mh_marginal_log_kernel(stats, grid, a, b, c)
    assert (np.abs(np.expm1(got - want)) <= 1e-5).all()


def _standardized_derivatives(phi, step):
    """Gradient and Hessian (h11, h12, h22) of phi(z1, z2) at 0 by central
    differences, Richardson-extrapolated from ``2 * step`` and ``step``."""

    def central(d):
        p0 = phi(0.0, 0.0)
        grad = np.array([phi(d, 0.0) - phi(-d, 0.0), phi(0.0, d) - phi(0.0, -d)]) / (2.0 * d)
        hess = np.array([
            phi(d, 0.0) - 2.0 * p0 + phi(-d, 0.0),
            (phi(d, d) - phi(d, -d) - phi(-d, d) + phi(-d, -d)) / 4.0,
            phi(0.0, d) - 2.0 * p0 + phi(0.0, -d),
        ]) / d**2
        return grad, hess

    (g1, h1), (g2, h2) = central(2.0 * step), central(step)
    return (4.0 * g2 - g1) / 3.0, (4.0 * h2 - h1) / 3.0


@settings(max_examples=25, deadline=None)
@given(mh_histories, gamma_shapes, gamma_shapes, st.floats(min_value=0.2, max_value=5.0))
def test_hermite_centre_is_the_mode_of_the_oracle_integrand(history, a, b, c):
    # The Hermite nodes sit at centre + sqrt(2) L x, so the rule needs the
    # centre to be a stationary point and L L^T = (-H)^-1 there. In the units
    # z = L^-1 (du, dv) both say one thing about phi(z) = log integrand at
    # centre + L z: its gradient is 0 and its Hessian is -I. The integrand is
    # the box oracle's, written with log-gamma differences, not the
    # library's K-term sums; its derivatives are taken by finite differences
    # of 2e-3 and 1e-3 units, Richardson-extrapolated. Over 932 random
    # Hermite sets the worst seen was 4.6e-8 in the gradient (the Newton
    # search stops on steps below 1e-8, not on the gradient) and 6.3e-6 in the
    # Hessian; the bounds leave a margin of about 20 and 16 over those.
    stats = summarize(history)
    kern = MhMarginalKernel(stats, GammaPriors(a, b, c))
    if kern.rule != "hermite":
        return
    m = stats.m_k1
    grid = np.concatenate([np.arange(m, m + 60, dtype=float), m + np.geomspace(100, 1e6 * max(m, 1), 8)])
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        centre = np.stack(kern._hermite_centre(grid))
    finite = np.isfinite(centre).all(axis=0)
    u0, v0, l11, l21, l22 = centre[:, finite]
    excess = grid[finite] - m

    def phi(z1, z2):
        return mh_log_integrand(stats, a, b, c, u0 + l11 * z1, v0 + l21 * z1 + l22 * z2, excess)

    grad, hess = _standardized_derivatives(phi, 1e-3)
    assert np.abs(grad).max(initial=0.0) <= 1e-6
    assert np.abs(hess - np.array([[-1.0], [0.0], [-1.0]])).max(initial=0.0) <= 1e-4


def _shared_and_per_n_centres(kern, grid):
    """Log expectations at 64 and 96 nodes with shared centres and with a centre per N."""
    blocks = kern._hermite_blocks(grid)
    shared = [kern._log_expectation(grid, n_nodes, blocks) for n_nodes in (64, 96)]
    per_n = [per_n_centred_hermite_log_expectation(kern, grid, n_nodes) for n_nodes in (64, 96)]
    return shared, per_n


def _rel(x, y):
    return np.abs(np.expm1(x - y))


@pytest.mark.parametrize(
    "args, max_centres",
    [
        ((50, 2.0, 4.0, 8, 6), {"table": 7, "verdict": 22}),
        ((300, 2.0, 5.0, 5, 2), {"table": 13, "verdict": 40}),
        ((400, 2.0, 4.0, 6, 1), {"table": 13, "verdict": 40}),
    ],
)
def test_shared_centres_match_a_centre_per_n_on_data_rich_sets(args, max_centres):
    # M = 40, 223 and 313; the table grids (the first with the CLI's 141
    # points, the others with 401) and the default propriety fit grid with
    # its two-point probe. The grids share 5, 9 and 9 (table) and 15, 27 and
    # 27 (verdict) centres; the bounds allow about 1.5 times that, and stay
    # below the 15, 24 and 25 and 27, 52 and 52 that a one-unit radius gives.
    stats = summarize(simulate_mh(*args))
    m = stats.m_k1
    kern = MhMarginalKernel(stats, GammaPriors(2.0, 2.0, 1.0))
    assert kern.rule == "hermite"
    n_lo, n_hi = 1e3 * m, 1e6 * m
    probe = np.sqrt(n_lo * n_hi)
    grids = {
        "table": np.arange(m, m + (141 if m == 40 else 401), dtype=float),
        "verdict": np.concatenate([np.geomspace(n_lo, n_hi, 50), [probe, 2.0 * probe]]),
    }
    for name, grid in grids.items():
        shared, per_n = _shared_and_per_n_centres(kern, grid)
        for n_nodes, got, want in zip((64, 96), shared, per_n):
            assert _rel(got, want).max() <= 1e-10, (m, name, n_nodes)
        assert len(kern._hermite_blocks(grid)) <= max_centres[name], (m, name)


@settings(max_examples=15, deadline=None)
@given(mh_histories, gamma_shapes, gamma_shapes, st.floats(min_value=0.2, max_value=5.0))
def test_shared_centres_stay_within_the_quadrature_check(history, a, b, c):
    # Sharing moves a node set by up to _BLOCK_RADIUS = 3 standardized
    # units, so the two kernels differ by the quadrature error of a rule at
    # that distance. Where the 64/96 check sees 1e-12, they agree to 1e-10;
    # where the integrand is rough enough for the check to see more (wide
    # priors on a few animals), the difference stays within twice what the
    # two checks see.
    stats = summarize(history)
    kern = MhMarginalKernel(stats, GammaPriors(a, b, c))
    if kern.rule != "hermite":
        return
    m = stats.m_k1
    grid = np.concatenate([np.arange(m, m + 60, dtype=float), m + np.geomspace(100, 1e6 * max(m, 1), 8)])
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        shared, per_n = _shared_and_per_n_centres(kern, grid)
    seen = _rel(*shared).max() + _rel(*per_n).max()
    for got, want in zip(shared, per_n):
        assert _rel(got, want).max() <= 1e-10 + 2.0 * seen


def test_prior_spec_rejects_unknown_prior():
    kernel = lambda n: m0_marginal_log_kernel(n, TWO_ANIMALS, BetaParams(1.0, 1.0))
    with pytest.raises(ValueError, match="prior"):
        posterior_table(kernel, "jeffreys", stats=TWO_ANIMALS, n_max=100)
    with pytest.raises(ValueError, match="prior"):
        propriety_report("m0", "jeffreys", stats=TWO_ANIMALS, beta=BetaParams(1.0, 1.0))


class TestPosteriorTable:
    def test_flat_kernel_normalizes_to_uniform(self):
        table = posterior_table(lambda n: np.zeros_like(n), "uniform", n_min=0, n_max=100)
        assert table.mass == pytest.approx(np.full(101, 1.0 / 101.0))
        assert table.mean == pytest.approx(50.0)
        assert table.warnings  # constant kernel cannot be proper

    def test_mass_sums_to_one(self):
        kernel = lambda n: m0_marginal_log_kernel(n, TWO_ANIMALS, BetaParams(1.0, 1.0))
        table = posterior_table(kernel, "uniform", stats=TWO_ANIMALS, n_max=10_000)
        assert abs(table.mass.sum() - 1.0) < 1e-12

    def test_proper_case_has_finite_tail_and_no_warning(self):
        kernel = lambda n: m0_marginal_log_kernel(n, TWO_ANIMALS, BetaParams(1.0, 1.0))
        table = posterior_table(kernel, "uniform", stats=TWO_ANIMALS, n_max=100_000)
        assert not table.warnings
        assert np.isfinite(table.tail_mass_estimate)
        assert table.tail_exponent == pytest.approx(2.0, abs=0.05)

    def test_improper_case_is_flagged(self):
        stats = summarize(CaptureHistory(k=2, rows=((1, 0), (0, 1))))  # r = 0
        kernel = lambda n: m0_marginal_log_kernel(n, stats, BetaParams(1.0, 1.0))
        table = posterior_table(kernel, "uniform", stats=stats, n_max=100_000)
        assert any("improper" in w for w in table.warnings)
        assert table.tail_mass_estimate == np.inf

    def test_scale_prior_rescues_no_recapture_case(self):
        stats = summarize(CaptureHistory(k=2, rows=((1, 0), (0, 1))))
        kernel = lambda n: m0_marginal_log_kernel(n, stats, BetaParams(1.0, 1.0))
        table = posterior_table(kernel, "scale", stats=stats, n_max=100_000)
        assert not table.warnings
        assert table.tail_exponent == pytest.approx(2.0, abs=0.05)

    def test_scale_prior_support_starts_at_one(self):
        table = posterior_table(lambda n: -2.0 * np.log(n), "scale", n_min=0, n_max=1000)
        assert table.n_min == 1

    def test_tail_estimate_predicts_extension_mass(self):
        kernel = lambda n: math.log(3.0) - 2.0 * np.log(n)
        short = posterior_table(kernel, "uniform", n_min=5, n_max=2_000)
        long = posterior_table(kernel, "uniform", n_min=5, n_max=20_000)
        beyond = float(long.mass[np.arange(long.n_min, long.n_max + 1) > 2_000].sum())
        assert short.tail_mass_estimate == pytest.approx(beyond, rel=0.25)

    def test_extension_moves_mean_less_than_tail_bound(self):
        stats = summarize(CaptureHistory(k=2, rows=((1, 1), (1, 1))))  # r = 2, d = 3
        kernel = lambda n: m0_marginal_log_kernel(n, stats, BetaParams(1.0, 1.0))
        base = posterior_table(kernel, "uniform", stats=stats, n_max=10_000)
        wide = posterior_table(kernel, "uniform", stats=stats, n_max=40_000)
        assert abs(wide.mean - base.mean) <= base.tail_mass_estimate * 40_000

    def test_equal_tail_interval_brackets_mass(self):
        kernel = lambda n: m0_marginal_log_kernel(n, TWO_ANIMALS, BetaParams(2.0, 1.0))
        table = posterior_table(kernel, "uniform", stats=TWO_ANIMALS, n_max=5_000, level=0.9)
        lo, hi = table.ci
        support = np.arange(table.n_min, table.n_max + 1)
        inside = table.mass[(support >= lo) & (support <= hi)].sum()
        assert inside >= 0.9 - 1e-9

    def test_validation(self):
        with pytest.raises(ValueError, match="exactly one"):
            posterior_table(lambda n: np.zeros_like(n), "uniform", n_max=10)
        with pytest.raises(ValueError, match="below"):
            posterior_table(lambda n: np.zeros_like(n), "uniform", n_min=20, n_max=10)
        with pytest.raises(ValueError, match="zero everywhere"):
            posterior_table(lambda n: np.full_like(n, -np.inf), "uniform", n_min=0, n_max=10)

    def test_serialization_round_trip(self, tmp_path):
        kernel = lambda n: m0_marginal_log_kernel(n, TWO_ANIMALS, BetaParams(1.0, 1.0))
        # 20000 spans several write blocks
        for n_max in (500, 20_000):
            table = posterior_table(kernel, "uniform", stats=TWO_ANIMALS, n_max=n_max)
            table.write_json(tmp_path / "t.json", extra={"model": "m0"})
            table.write_csv(tmp_path / "t.csv")
            text = (tmp_path / "t.json").read_text()
            payload = json.loads(text)
            assert text == json.dumps(payload, indent=2) + "\n"
            assert payload["support"] == [2, n_max]
            assert payload["model"] == "m0"
            assert payload["mean"] == pytest.approx(table.mean)
            assert payload["mass"] == table.mass.tolist()
            header, *rows = (tmp_path / "t.csv").read_text().splitlines()
            assert header == "N,mass,log_kernel"
            cells = [row.split(",") for row in rows]
            assert [int(c[0]) for c in cells] == list(range(2, n_max + 1))
            assert [float(c[1]) for c in cells] == table.mass.tolist()
            assert [float(c[2]) for c in cells] == table.log_kernel.tolist()

        no_recapture = summarize(CaptureHistory(k=2, rows=((1, 0), (0, 1))))
        kernel = lambda n: m0_marginal_log_kernel(n, no_recapture, BetaParams(1.0, 1.0))
        improper = posterior_table(kernel, "uniform", stats=no_recapture, n_max=500)
        improper.write_json(tmp_path / "i.json")
        assert '"tail_mass_estimate": Infinity,' in (tmp_path / "i.json").read_text()

    def test_data_rich_table_files_are_json_dumps_and_csv_writer_bytes(self, tmp_path):
        # most of a data-rich table's mass underflows: here 8405 of the 9713
        # values are exact zeros and 120 are subnormal
        stats = summarize(simulate_m0(300, 0.5, 5, seed=1))
        kernel = lambda n: m0_marginal_log_kernel(n, stats, BetaParams(1.0, 1.0))
        table = posterior_table(kernel, "uniform", stats=stats, n_max=10_000)
        mass = table.mass.tolist()
        subnormal = sum(0.0 < x < 2.2250738585072014e-308 for x in mass)
        assert (len(mass), mass.count(0.0), subnormal) == (9713, 8405, 120)
        table.write_json(tmp_path / "t.json", extra={"model": "m0"})
        text = (tmp_path / "t.json").read_text()
        payload = json.loads(text)
        assert payload["mass"] == mass
        assert text == json.dumps({**payload, "mass": mass}, indent=2) + "\n"
        table.write_csv(tmp_path / "t.csv")
        expected = io.StringIO()
        rows = zip(range(table.n_min, table.n_max + 1), mass, table.log_kernel.tolist())
        csv.writer(expected).writerows([("N", "mass", "log_kernel"), *rows])
        assert (tmp_path / "t.csv").read_bytes().decode() == expected.getvalue()


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=-20.0, max_value=20.0))
def test_mass_invariant_to_kernel_rescaling(offset):
    base = lambda n: m0_marginal_log_kernel(n, TWO_ANIMALS, BetaParams(1.0, 1.0))
    shifted = lambda n: base(n) + offset
    t0 = posterior_table(base, "uniform", stats=TWO_ANIMALS, n_max=300)
    t1 = posterior_table(shifted, "uniform", stats=TWO_ANIMALS, n_max=300)
    assert np.allclose(t0.mass, t1.mass, rtol=1e-11, atol=0)
