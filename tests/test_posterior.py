import csv
import dataclasses
import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import betaln, gammaln

from crbayes import data, posterior
from crbayes.data import BLOCK, CaptureHistory, SufficientStats, simulate_m0, simulate_mh, summarize
from crbayes.likelihoods import BetaParams, log_falling, york_madigan_log_kernel
from crbayes.posterior import (
    GammaPriors,
    MhMarginalKernel,
    QuadratureConvergenceError,
    _RUN_CAP,
    _excess_sums,
    _log_sum_exp,
    fit_log_log_slope,
    m0_marginal_log_kernel,
    posterior_table,
)
from crbayes.propriety import propriety_report

from oracles import (
    box_mh_marginal_log_kernel,
    mc_beta_expectation,
    mc_mh_marginal_log_kernel,
    mh_log_integrand,
    per_n_centred_sinh_log_expectation,
    per_n_excess_sums,
    quad_m0_marginal_log_kernel,
    reference_fit_log_log_slope,
    reference_posterior_table,
    walk_blocks,
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
    @pytest.mark.parametrize(
        "shapes, rtol, tol",
        [
            # at most 4.2e-11 off on [0, 1e4] and 9.5e-10 at N = 1e6
            ((1.5, 2.0), 1e-5, 2e-9),
            ((0.5, 1.0), 1e-5, 2e-9),
            ((3.0, 1.0), 1e-5, 2e-9),
            ((2.5, 3.0), 1e-5, 2e-9),
            # small shapes send the prior's tails far out along s: 5.5e-10
            # and 9.3e-8 off, and at 0.1 the check sees 3.2e-5, within the
            # default rtol but not 1e-5
            ((0.3, 0.3), 1e-5, 2e-9),
            ((0.1, 0.1), 1e-4, 2e-7),
        ],
    )
    def test_empty_dataset_single_occasion_closed_form(self, shapes, rtol, tol):
        # with one occasion the zero-cell factor is beta/(alpha+beta) = 1 - X
        # and X = alpha/(alpha+beta) ~ Beta(a, b) under common-scale Gammas,
        # so the kernel is log E[(1 - X)^N] = log B(a, b + N) - log B(a, b).
        # On the whole grid [0, 1e4], and at N = 1e6 after it, the mode
        # search's scaled start, its neighbour check and the blocks all run
        a, b = shapes
        kern = MhMarginalKernel(EMPTY_K1, GammaPriors(a, b, 1.0), rtol=rtol)
        grid = np.append(np.arange(0.0, 10_001.0), 1e6)
        got = kern.log_kernel(grid)
        assert 1 <= kern.diagnostics["centres"] < 10
        assert np.abs(got - (betaln(a, b + grid) - betaln(a, b))).max() <= tol

    def test_empty_dataset_single_occasion_fails_the_check_at_tiny_shapes(self):
        # at a = b = 0.05 the tails reach beyond what the node sets cover:
        # the 64/96 check sees 4.2e-5 and fails at rtol 1e-5 instead of
        # returning values up to 6.6e-7 off the closed form
        kern = MhMarginalKernel(EMPTY_K1, GammaPriors(0.05, 0.05, 1.0), rtol=1e-5)
        with pytest.raises(QuadratureConvergenceError, match="changed by"):
            kern.log_kernel(np.append(np.arange(0.0, 10_001.0), 1e6))

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
        assert "sinh quadrature changed by" in str(err) and "raise nodes/check_nodes" in str(err)
        for values in (err.log_coarse, err.log_fine):
            assert values[0] == -np.inf and np.isfinite(values[1:]).all()
        rel = np.abs(np.expm1(err.log_coarse[1:] - err.log_fine[1:]))
        assert err.max_rel_change == rel.max()

    def test_nan_quadrature_raises_instead_of_returning(self, monkeypatch):
        # shapes 2/2 give steep left tails on these two animals, 0.5/0.5 heavy ones
        for shapes in ((2.0, 2.0), (0.5, 0.5)):
            kern = MhMarginalKernel(TWO_ANIMALS, GammaPriors(*shapes, 1.0))
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
            assert "sinh quadrature returned NaN" in message
            assert "(first at N = 10)" in message
            assert "changed by nan" not in message
            # the mode search found N = 10's mode: the advice is the node counts'
            assert "raise nodes/check_nodes" in message and "mode search failed" not in message

    @pytest.mark.parametrize("rtol", [math.inf, math.nan, 0.0])
    def test_rejects_rtol_that_is_not_finite_and_positive(self, rtol):
        # rtol = inf would let any finite change through: an unchecked quadrature
        with pytest.raises(ValueError, match="rtol"):
            MhMarginalKernel(TWO_ANIMALS, GammaPriors(2.0, 2.0, 1.0), rtol=rtol)

    @pytest.mark.parametrize("params", [(math.nan, 1.0), (1.0, math.nan), (1.0, 1.0, math.nan), (0.0, 1.0)])
    def test_gamma_priors_reject_nan_and_nonpositive(self, params):
        with pytest.raises(ValueError, match="positive"):
            GammaPriors(*params)

    def test_log_kernel_pinned_on_rich_and_sparse_sets(self):
        # recorded reference values on a data-rich set and on two sparse
        # sets, near N = M and far above it; each lies within 3.8e-10 of the
        # box oracle
        rich = summarize(simulate_mh(50, 2.0, 4.0, 8, seed=6))
        one = summarize(CaptureHistory(k=4, rows=((0, 1, 0, 0),)))
        cases = [
            ("rich", rich, GammaPriors(2.0, 2.0, 1.0), [0.0, 7.0, 60.0, 1e3, 1e6], [
                -218.80562725123326, -217.39538148867226, -224.48588770734446,
                -232.560124949825, -246.58819876120776]),
            ("two animals", TWO_ANIMALS, GammaPriors(0.5, 0.5, 1.0), [0.0, 1.0, 10.0, 50.0, 128.0], [
                -3.8979246672790273, -4.175892403386783, -5.164553809859994,
                -6.001070157121623, -6.478941406480375]),
            ("one animal", one, GammaPriors(1.0, 0.8, 2.0), [129.0, 500.0, 1e4, 1e6], [
                -7.9074276827186925, -9.254423452397251, -12.247567094613917, -16.852602232891304]),
        ]
        for name, stats, gammas, excess, want in cases:
            got = MhMarginalKernel(stats, gammas).log_kernel(stats.m_k1 + np.array(excess))
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=name)

    @pytest.mark.parametrize("entry", range(5), ids=["s", "r", "l11", "l21", "l22"])
    @pytest.mark.parametrize("role", ["opens-block", "inside-block"])
    def test_non_finite_centre_neither_joins_nor_lends_a_block(self, entry, role):
        # a mode search that no start mends can leave a non-finite centre;
        # that N must still read NaN and fail the check, and no other N may
        # share its nodes or lend it theirs. The error says that the mode
        # search failed there, not that more nodes would help
        stats = summarize(simulate_mh(50, 2.0, 4.0, 8, seed=6))
        gammas = GammaPriors(2.0, 2.0, 1.0)
        grid = np.arange(stats.m_k1, stats.m_k1 + 60, dtype=float)
        clean = MhMarginalKernel(stats, gammas)
        block = clean._blocks(grid)[1][0]
        assert block.stop - block.start >= 3
        poisoned = grid[block.start + (role == "inside-block")]

        class Poisoned(MhMarginalKernel):
            def _mode_centre(self, grid):
                centre = super()._mode_centre(grid)
                centre[entry][grid == poisoned] = np.nan
                return centre

        with pytest.raises(QuadratureConvergenceError) as info:
            Poisoned(stats, gammas).log_kernel(grid)
        message = str(info.value)
        assert f"sinh quadrature returned NaN at 64^2 and 96^2 nodes (first at N = {poisoned:g})" in message
        assert f"the mode search failed at N = {poisoned:g}" in message and "raise nodes" not in message
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
        sparse = MhMarginalKernel(TWO_ANIMALS, GammaPriors(0.5, 0.5, 1.0))
        sparse.log_kernel(grid)
        assert sparse.diagnostics["centres"] >= 1

    def test_n_equal_m_neither_joins_nor_lends_a_block(self):
        # the zero-cell factor is absent only at N = M, so that N gets its own
        # centre, even where the next N lies within the block radius of it
        stats = summarize(CaptureHistory(k=3, rows=((1, 1, 1),) * 42))
        kern = MhMarginalKernel(stats, GammaPriors(1.42, 0.155, 1.01))
        grid = np.arange(stats.m_k1, stats.m_k1 + 50, dtype=float)
        blocks = kern._blocks(grid)
        assert blocks[0][0] == slice(0, 1) and blocks[1][0].start == 1
        below = kern._blocks(np.full(3, float(stats.m_k1)))  # points below M are evaluated at M
        assert [block for block, *_ in below] == [slice(0, 1), slice(1, 2), slice(2, 3)]

    @pytest.mark.parametrize("scale, blocks", [(1.0, [slice(0, 3)]), (0.5, [slice(0, 1), slice(1, 3)])])
    def test_a_point_joins_a_block_only_within_the_radius_both_ways(self, scale, blocks):
        # the second point's mode lies 2 units from the first's in the first
        # one's units; in its own units, half as wide, that is 4, beyond the
        # radius of 3, so it opens a block, which the third point joins
        class Synthetic(MhMarginalKernel):
            def _mode_centre(self, grid):
                width = np.array([1.0, scale, 1.0])
                return np.array([0.0, 2.0, 2.0]), np.zeros(3), width, np.zeros(3), width

        kern = Synthetic(TWO_ANIMALS, GammaPriors(2.0, 2.0, 1.0))
        assert [block for block, *_ in kern._blocks(np.array([3.0, 4.0, 5.0]))] == blocks

    @pytest.mark.parametrize(
        "s, width, blocks, centres, reach",
        [
            # unit widths, so the first point is body-limited: its run ends at
            # s = 3, which every earlier point lies within 3 units of, and the
            # block runs on from that centre to s = 6, covering both sides
            ([0, 1, 2, 3, 4, 5, 6, 7], [1] * 8, [slice(0, 7), slice(7, 8)], [3, 7], [15.0, 12.0]),
            # s = 1 is half as wide: 2 units from s = 3 in its units, 4 in its
            # own, so the centre falls back to s = 2 and the block ends at s = 5
            ([0, 1, 2, 3, 4, 5, 6], [1, 0.5, 1, 1, 1, 1, 1], [slice(0, 6), slice(6, 7)], [2, 6], [15.0, 12.0]),
            # half-width points: the tail part of the first one's reach, 20
            # units, exceeds 12, so each block keeps its first point as centre
            ([0, 0.5, 1, 1.5, 2], [0.5] * 5, [slice(0, 4), slice(4, 5)], [0, 2], [12.0, 12.0]),
            # s = 0 is 1.5 times as wide as the centre at s = 3: its 12 own
            # units past its mode take 3 + 18 of the centre's
            ([0, 1, 2, 3], [1.5, 1, 1, 1], [slice(0, 4)], [3], [21.0]),
        ],
    )
    def test_a_body_limited_block_centres_mid_run(self, s, width, blocks, centres, reach):
        # modes along s only; with two animals under Gamma(2, 2, 1) priors
        # the slowest tail falls at 4 per unit of width at N - M = 1, so the
        # tail part of a first point's reach is 10 / its width
        class Synthetic(MhMarginalKernel):
            def _mode_centre(self, grid):
                w = np.array(width, dtype=float)
                return np.array(s, dtype=float), np.zeros(w.size), w, np.zeros(w.size), w

        kern = Synthetic(TWO_ANIMALS, GammaPriors(2.0, 2.0, 1.0))
        grid = np.arange(3.0, 3.0 + len(s))
        for got in (kern._blocks(grid), walk_blocks(kern, grid)):
            assert [block for block, *_ in got] == blocks
            assert [centre[0] for _, centre, _ in got] == centres
            assert [body for *_, body in got] == pytest.approx(reach, rel=1e-15)

    def test_node_counts_capped_at_363(self):
        # a node set holds n^2 entries in each of its arrays
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
        assert kern.diagnostics["rule"] == "sinh"
        assert kern.diagnostics["max_rel_change"] < 1e-10
        sample = np.arange(0, grid.size, 30)
        want = box_mh_marginal_log_kernel(stats, grid[sample], 2.0, 2.0, 1.0)
        assert np.abs(np.expm1(got[sample] - want)).max() <= 1e-10

    @pytest.mark.parametrize(
        "k, m, gammas, n_max",
        [
            (2, 8, GammaPriors(2.0, 0.13, 1.0), 208),
            (3, 42, GammaPriors(1.42, 0.155, 1.01), 10_000),
        ],
    )
    def test_heavy_left_tail_converges_at_default_nodes(self, k, m, gammas, n_max):
        # every animal caught on every occasion and b below 0.2: the log
        # integrand rises like b log beta as beta goes to 0, far from a
        # Gaussian, and an earlier rule failed both sets at 64/96. The check
        # sees 1.3e-7 and 1.4e-6; if N = M, the only N without the zero-cell
        # factor, lent its nodes to N = M + 1, it would see 3.3e-5 and 5.9e-6,
        # and N = M + 1 on the second set would move 2.5e-7 off the box oracle
        stats = summarize(CaptureHistory(k=k, rows=((1,) * k,) * m))
        kern = MhMarginalKernel(stats, gammas)
        grid = np.arange(m, n_max + 1, dtype=float)
        got = kern.log_kernel(grid)
        assert kern.diagnostics["max_rel_change"] < 1e-5
        sample = np.array([0, 1, 2, 5, 128, grid.size - 1])
        want = box_mh_marginal_log_kernel(stats, grid[sample], gammas.a, gammas.b, gammas.c)
        assert np.abs(np.expm1(got[sample] - want)).max() <= 1e-7

    @pytest.mark.parametrize("shape", [0.1, 0.125])
    @pytest.mark.parametrize("k", [1, 4])
    def test_empty_history_with_small_shapes_converges_at_default_nodes(self, k, shape):
        # With nothing caught the integrand is the prior times the zero cell
        # to the power N, and with both shapes small the prior's tails run
        # far out along alpha + beta -> 0, which in (log alpha, log beta) is
        # the diagonal: a rule whose nodes spread along log alpha and log
        # beta failed the 64/96 check there (1.1e-4 to 4e-4). In (s, r) that
        # tail runs along the s axis; the check sees at most 5.4e-6 here.
        # With one occasion the kernel is B(a, b + N) / B(a, b) exactly.
        stats = summarize(CaptureHistory(k=k, rows=()))
        gammas = GammaPriors(shape, shape, 1.0)
        grid = np.array([0.0, 10.0, 1e3, 1e6])
        kern = MhMarginalKernel(stats, gammas)
        got = kern.log_kernel(grid)
        assert kern.diagnostics["max_rel_change"] <= 2e-5
        # nothing caught and N = 0: the expectation of 1
        assert abs(got[0]) <= 1e-7
        if k == 1:
            want = betaln(shape, shape + grid) - betaln(shape, shape)
            assert np.abs(np.expm1(got - want)).max() <= 1e-6

    @pytest.mark.parametrize("shape, tol", [(0.07, 1.1e-7), (0.3, 5e-10), (1.0, 5e-10), (2.0, 5e-10)])
    def test_empty_history_table_matches_closed_form(self, shape, tol):
        # nothing caught on one occasion: B(a, b + N) / B(a, b) over the whole
        # unit grid [0, 1e4]. The slowest tail sets every node set's reach
        # here, so no block moves its centre off its first point: a centre up
        # to 3 units from a point's mode would leave a coarse grid about it
        # (the 64/96 check saw up to 1.2e-3 at shape 0.07 when every block
        # centred mid-run)
        kern = MhMarginalKernel(EMPTY_K1, GammaPriors(shape, shape, 1.0))
        grid = np.arange(0.0, 10_001.0)
        got = kern.log_kernel(grid)
        want = betaln(shape, shape + grid) - betaln(shape, shape)
        assert np.abs(np.expm1(got - want)).max() <= tol
        centre = np.stack(kern._mode_centre(grid))
        for block, first, reach in kern._blocks(grid):
            assert _bits(first) == _bits(tuple(centre[:, block.start])) and reach == posterior._BODY_REACH

    @pytest.mark.parametrize(
        "n, shapes, k, priors, seed",
        [
            # wide-prior set 0, as CI runs it: when every N started at the
            # prior mode, the search stopped on a saddle at N = 145, and the
            # table failed with NaN at 64/96 and at 128/192
            (168, (1.3288, 3.3045), 3, (1.9554, 0.7353, 21.497), 667038328),
            # set 9: its integrands have a second mode near large shapes;
            # without the neighbour check the table fails by 1.8e-3
            (134, (1.188237339202433, 1.1310063929508332), 3,
             (2.3805585459231935, 1.9174446861322807, 28.81619515924395), 801935232),
        ],
        ids=["set0", "set9"],
    )
    def test_wide_prior_table_converges_and_matches_box_oracle(self, n, shapes, k, priors, seed):
        # Gamma priors of scale 21-29 on 90 and 96 animals: over the default
        # support every N gets a usable mode, the table settles at 64/96,
        # and its values match the box oracle at drawn N and at the last
        # point of every block, where a point lies farthest from its centre
        stats = summarize(simulate_mh(n, *shapes, k, seed=seed))
        kern = MhMarginalKernel(stats, GammaPriors(*priors))
        grid = np.arange(stats.m_k1, 10_001, dtype=float)
        got = kern.log_kernel(grid)
        assert kern.diagnostics["max_rel_change"] <= 1e-4
        sample = sorted({0, 1, 2, 20, 55, 60, 150, 1000} | {block.stop - 1 for block, *_ in kern._blocks(grid)})
        want = box_mh_marginal_log_kernel(stats, grid[sample], *priors)
        assert np.abs(np.expm1(got[sample] - want)).max() <= 1e-6

    def test_six_occasion_table_converges_at_default_nodes(self):
        # one animal caught once and one caught every time, under a heavy
        # left tail in beta; an earlier rule failed this table over the
        # default support [2, 1e4] (6.8e-3 at 64/96), so `analyze` exited 5
        stats = summarize(CaptureHistory(k=6, rows=((1, 0, 0, 0, 0, 0), (1, 1, 1, 1, 1, 1))))
        kern = MhMarginalKernel(stats, GammaPriors(2.0, 0.25, 4.0))
        table = posterior_table(kern.log_kernel, "uniform", stats=stats)
        assert kern.diagnostics["max_rel_change"] <= 1e-8
        sample = np.array([0, 1, 7, 128, 129, 1000, table.log_kernel.size - 1])
        want = box_mh_marginal_log_kernel(stats, stats.m_k1 + sample.astype(float), 2.0, 0.25, 4.0)
        assert np.abs(np.expm1(table.log_kernel[sample] - want)).max() <= 1e-9

    @pytest.mark.parametrize("args", [(300, 2.0, 5.0, 5, 2), (400, 2.0, 4.0, 6, 1)])
    def test_data_rich_sets_converge_at_default_nodes(self, args):
        # M = 223 and M = 313: the mode-centred rule converges at 64/96
        stats = summarize(simulate_mh(*args))
        assert stats.m_k1 in (223, 313)
        gammas = GammaPriors(2.0, 2.0, 1.0)
        kern = MhMarginalKernel(stats, gammas)
        table = posterior_table(kern.log_kernel, "uniform", stats=stats, n_max=stats.m_k1 + 400)
        assert kern.diagnostics["rule"] == "sinh"
        assert kern.diagnostics["max_rel_change"] < 1e-8
        assert not table.warnings
        assert stats.m_k1 < table.ci[0] < table.mean < table.ci[1] < table.n_max
        report = propriety_report("mh", "uniform", stats=stats, gammas=gammas)
        assert report.predicted == "proper" and report.agreement


mh_histories = st.integers(min_value=1, max_value=8).flatmap(
    lambda k: st.lists(st.integers(1, 2**k - 1), max_size=40).map(
        lambda codes: CaptureHistory(k=k, rows=tuple(tuple((c >> j) & 1 for j in range(k)) for c in codes))
    )
)
gamma_shapes = st.floats(min_value=0.1, max_value=5.0)


@settings(max_examples=20, deadline=None)
@given(mh_histories, gamma_shapes, gamma_shapes, st.floats(min_value=0.2, max_value=5.0))
def test_kernel_matches_box_integral(history, a, b, c):
    stats = summarize(history)
    m = stats.m_k1
    kern = MhMarginalKernel(stats, GammaPriors(a, b, c))
    grid = m + np.array([0.0, 10.0, 1e3, 1e3 * max(m, 1), 1e6 * max(m, 1)])
    got = kern.log_kernel(grid)
    assert kern.diagnostics["rule"] == "sinh"
    # brute force, not a second rule: a rule's 192/288 pair can agree with itself and be 3e-5 off
    want = box_mh_marginal_log_kernel(stats, grid, a, b, c)
    assert (np.abs(np.expm1(got - want)) <= 1e-5).all()


sparse_histories = st.integers(min_value=2, max_value=6).flatmap(
    lambda k: st.lists(st.integers(1, 2**k - 1), min_size=1, max_size=3).map(
        lambda codes: CaptureHistory(k=k, rows=tuple(tuple((c >> j) & 1 for j in range(k)) for c in codes))
    )
)


@settings(max_examples=10, deadline=None)
@given(
    sparse_histories,
    st.floats(min_value=0.2, max_value=3.0),
    st.floats(min_value=0.2, max_value=3.0),
    st.floats(min_value=0.3, max_value=4.0),
    st.lists(st.integers(min_value=0, max_value=500), min_size=2, max_size=4),
)
def test_kernel_on_a_whole_sparse_table_grid_matches_box_integral(history, a, b, c, picks):
    # A table evaluates every N in [M, n_max], so node sets are shared
    # across many neighbours; the propriety fit grid alone once hid a rule
    # that failed on the six-occasion set's table. The check runs on
    # [M, M + 500]; the oracle on drawn points and on the last point of
    # every block, where a point lies farthest from its block's centre.
    stats = summarize(history)
    m = stats.m_k1
    kern = MhMarginalKernel(stats, GammaPriors(a, b, c))
    grid = np.arange(m, m + 501, dtype=float)
    got = kern.log_kernel(grid)
    assert kern.diagnostics["max_rel_change"] <= 1e-6
    sample = sorted(set(picks) | {block.stop - 1 for block, *_ in kern._blocks(grid)})
    want = box_mh_marginal_log_kernel(stats, grid[sample], a, b, c)
    assert np.abs(np.expm1(got[sample] - want)).max() <= 1e-8


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
@given(mh_histories, gamma_shapes, gamma_shapes, st.floats(min_value=0.2, max_value=30.0))
# with gradient steps where the Hessian is not negative definite, the search
# at N = 55 crawled along a ridge for all its steps and ended 0.064 units of
# gradient off the mode
@example(
    CaptureHistory(
        k=5, rows=((1, 0, 0, 0, 0),) * 3 + ((1, 1, 0, 0, 0),) + ((1, 1, 0, 1, 0),) * 4 + ((1, 1, 0, 0, 1),) * 2
    ),
    2.0, 4.0, 13.0,
)
def test_mode_centre_is_the_mode_of_the_oracle_integrand(history, a, b, c):
    # The sinh nodes sit at centre + L sinh(t), so the rule needs the
    # centre to be a stationary point and L L^T = (-H)^-1 there. In the units
    # z = L^-1 (ds, dr) both say one thing about phi(z) = log integrand at
    # centre + L z, with (s, r) = (log(alpha + beta), log(alpha/beta)) and a
    # unit Jacobian to (u, v) = (log alpha, log beta): its gradient is 0 and
    # its Hessian is -I. The integrand is
    # the box oracle's, written with log-gamma differences, not the
    # library's K-term sums; its derivatives are taken by finite differences
    # of 2e-3 and 1e-3 units, Richardson-extrapolated. The grid is a whole
    # table's head and a geometric tail, so the scaled start, the restarts
    # and the neighbour check all run, and scales up to 30 give the wide
    # priors whose integrands can have two modes; every centre must come out
    # usable. Over 3000 random sets of this kind the worst seen was 1.0e-7
    # in the gradient (the Newton search stops on steps below 1e-8, not on
    # the gradient) and 2.9e-5 in the Hessian; the bounds leave a margin of
    # about 10 and 3 over those.
    stats = summarize(history)
    kern = MhMarginalKernel(stats, GammaPriors(a, b, c))
    m = stats.m_k1
    grid = np.concatenate([np.arange(m, m + 300, dtype=float), m + np.geomspace(300, 1e6 * max(m, 1), 20)])
    centre = kern._mode_centre(grid)
    assert posterior._usable(centre).all()
    s0, r0, l11, l21, l22 = centre
    excess = grid - m

    def phi(z1, z2):
        s, r = s0 + l11 * z1, r0 + l21 * z1 + l22 * z2
        return mh_log_integrand(stats, a, b, c, s - np.logaddexp(0.0, -r), s - np.logaddexp(0.0, r), excess)

    grad, hess = _standardized_derivatives(phi, 1e-3)
    assert np.abs(grad).max() <= 1e-6
    assert np.abs(hess - np.array([[-1.0], [0.0], [-1.0]])).max() <= 1e-4


def _shared_and_per_n_centres(kern, grid):
    """Log expectations at 64 and 96 nodes with shared centres and with a centre per N."""
    blocks = kern._blocks(grid)
    shared = [kern._log_expectation(grid, n_nodes, blocks) for n_nodes in (64, 96)]
    per_n = [per_n_centred_sinh_log_expectation(kern, grid, n_nodes) for n_nodes in (64, 96)]
    return shared, per_n


def _rel(x, y):
    return np.abs(np.expm1(x - y))


@pytest.mark.parametrize(
    "args, max_centres",
    [
        ((50, 2.0, 4.0, 8, 6), {"table": 5, "verdict": 14}),
        ((300, 2.0, 5.0, 5, 2), {"table": 9, "verdict": 26}),
        ((400, 2.0, 4.0, 6, 1), {"table": 9, "verdict": 26}),
    ],
)
def test_shared_centres_match_a_centre_per_n_on_data_rich_sets(args, max_centres):
    # M = 40, 223 and 313; the table grids (the first with the CLI's 141
    # points, the others with 401) and the default propriety fit grid with
    # its two-point probe. Every block is body-limited, so each centres
    # mid-run: the grids share 4, 6 and 6 (table, N = M with a centre of its
    # own) and 10, 19 and 19 (verdict) centres. The bounds allow 1.25 to 1.5
    # times that, and stay below the 6, 10 and 10 and 15, 27 and 27 of
    # centring each block on its first point. A shared centre lies up to 3
    # units from a point's own; on these sets the slowest tail is steep, so
    # each node set reaches 12 to 17 units and its grid is fine enough that
    # both node counts stay within 1e-10 of a centre per N.
    stats = summarize(simulate_mh(*args))
    m = stats.m_k1
    kern = MhMarginalKernel(stats, GammaPriors(2.0, 2.0, 1.0))
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
        assert len(kern._blocks(grid)) <= max_centres[name], (m, name)


@settings(max_examples=15, deadline=None)
@given(mh_histories, gamma_shapes, gamma_shapes, st.floats(min_value=0.2, max_value=5.0))
@example(
    simulate_mh(142, 3.760123491594741, 1.2251690882835042, 6, seed=676554200),
    1.245407726643562, 2.354391700173326, 25.83247212213176,
)
def test_shared_centres_stay_within_the_quadrature_check(history, a, b, c):
    # Sharing moves a node set by up to _BLOCK_RADIUS = 3 standardized
    # units, so the two kernels differ by the quadrature error of a rule at
    # that distance. Where the 64/96 check sees 1e-12, they agree to 1e-10;
    # where the integrand is rough enough for the check to see more (wide
    # priors on a few animals), the difference stays within twice what the
    # two checks see. In the example (M = 142 under wide priors) the points
    # before a mid-run centre near M are up to 1.3 times as wide as it; a
    # node set that reached 12 of the centre's units, not 12 of each
    # point's own, missed 1.3e-6 of N = M + 1 at 96 nodes while the checks
    # saw 4.8e-7.
    stats = summarize(history)
    kern = MhMarginalKernel(stats, GammaPriors(a, b, c))
    m = stats.m_k1
    grid = np.concatenate([np.arange(m, m + 60, dtype=float), m + np.geomspace(100, 1e6 * max(m, 1), 8)])
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        shared, per_n = _shared_and_per_n_centres(kern, grid)
    seen = _rel(*shared).max() + _rel(*per_n).max()
    for got, want in zip(shared, per_n):
        assert _rel(got, want).max() <= 1e-10 + 2.0 * seen


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(min_value=-2000.0, max_value=0.0), min_size=1, max_size=50),
    st.floats(min_value=-1e6, max_value=1e6),
)
def test_log_sum_exp_floor_is_bit_exact(offsets, shift):
    # Terms more than 700 below the largest are floored at e^-700 before
    # exp, which keeps numpy's exp off its slow underflow path. Each adds at
    # most 1e-304 to a sum of at least 1, which rounds it away, so the result
    # equals the unfloored formula bit for bit, far-below-745 entries included.
    values = shift + np.array(offsets + [0.0])
    top = values.max()
    with np.errstate(under="ignore"):
        unfloored = float(top + np.log(np.exp(values - top).sum()))
    assert _log_sum_exp(values) == unfloored


def test_log_sum_exp_keeps_infinities_and_nan():
    assert _log_sum_exp(np.array([-np.inf, -np.inf])) == -np.inf
    assert _log_sum_exp(np.array([0.0, -np.inf, -1e300])) == 0.0
    assert np.isnan(_log_sum_exp(np.array([0.0, np.nan])))


def _excess_grid(start, count, gaps=()):
    """``count`` excesses from ``start`` in unit steps, except a step of
    ``size`` after each position of ``gaps`` = ((position, size), ...)."""
    steps = np.ones(count)
    for pos, size in gaps:
        steps[pos % count] = size
    return start + np.concatenate([[0.0], np.cumsum(steps[:-1])])


@st.composite
def excess_sum_cases(draw):
    """Node logs and excesses on the scale of a kernel table: every
    base + e * log_zero_cell stays within a few thousand of 0, where
    per-N rounding stays well below 1e-12."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    cells = st.lists(st.floats(0.0, 1.0), min_size=rows * cols, max_size=rows * cols)
    base = -1000.0 * np.array(draw(cells)).reshape(rows, cols)
    for pos in draw(st.lists(st.integers(0, rows * cols - 1), max_size=2)):
        base.flat[pos] = -np.inf
    count = draw(st.integers(1, 600))
    gaps = draw(st.lists(st.tuples(st.integers(0, 599), st.sampled_from([0.5, 2.0, 37.0])), max_size=3))
    excess = _excess_grid(draw(st.integers(0, 40)), count, gaps)
    # the spread of log_zero_cell sets the run length: up to 50 forces runs
    # of 12 steps, down to 1e-3 leaves runs at the cap
    spread = min(draw(st.floats(1e-3, 50.0)), 1500.0 / max(excess[-1], 1.0))
    log_zero_cell = -spread * np.array(draw(cells)).reshape(rows, cols) - draw(st.floats(0.0, 0.5))
    return base, log_zero_cell, excess


@settings(max_examples=60, deadline=None)
@given(excess_sum_cases())
# node 1 starts 900 below node 0 and gains 3 per step: floored at the first
# run's start (the run ends after 200 steps), it dominates from e = 300
@example((np.array([0.0, -900.0]), np.array([-3.0, 0.0]), _excess_grid(0, 400)))
@example((np.array([[0.0, -20.0], [-5.0, -750.0]]), np.array([[-1.0, -0.5], [-1.2, -0.9]]), _excess_grid(1, 3 * _RUN_CAP + 7)))
@example((np.array([0.0, -3.0, -30.0]), np.array([-45.0, -5.0, 0.0]), _excess_grid(0, 40)))
@example((np.array([0.0, -3.0]), np.array([-2.0, -0.5]), _excess_grid(3, 50, ((4, 2.0), (9, 0.5), (20, 37.0)))))
@example((np.array([-1.0, -4.0]), np.array([-2.0, -0.5]), np.array([17.0])))
@example((np.array([-np.inf, -4.0, -np.inf]), np.array([-2.0, -0.5, -1.0]), _excess_grid(0, 30)))
@example((np.full(3, -np.inf), np.array([-1.0, -0.5, -0.2]), _excess_grid(0, 20)))
@example((np.array([0.0, -2.0]), np.array([-np.inf, -0.5]), _excess_grid(0, 30)))
@example((np.array([0.0, np.nan, -2.0]), np.array([-1.0, -0.5, -0.2]), _excess_grid(0, 20)))
@example((np.array([0.0, -1.0, -2.0]), np.array([-1.0, np.nan, -0.2]), _excess_grid(0, 20)))
def test_excess_sums_match_one_pass_per_n(case):
    # Runs of unit steps replace one log-sum-exp per N by a running product,
    # with a fresh exact pass every _RUN_CAP steps or every 600 units of
    # gain between nodes, whichever comes first. Cases: a node below the
    # floor at a run's start that dominates later, runs past the cap, a
    # spread of 45 that allows 13 steps, non-unit steps, a single N, -inf
    # nodes, every node -inf (-inf at every N), an infinite spread (NaN at
    # e = 0, as per N), and a NaN node in base or in log_zero_cell, which
    # makes every N NaN, so that log_kernel reports it.
    base, log_zero_cell, excess = case
    with np.errstate(invalid="ignore"):  # -inf * 0
        got = _excess_sums(base, log_zero_cell, excess)
        want = per_n_excess_sums(base, log_zero_cell, excess)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


def test_mh_kernel_sums_runs_as_one_pass_per_n_would(monkeypatch):
    # The data-rich M = 223 table at the default n_max: unit steps over 1e4
    # N, so nearly every sum is in a run. The kernel with one pass per N
    # agrees to 1e-11 in log, with the same centres and the same CI.
    stats = summarize(simulate_mh(300, 2, 5, 5, seed=2))
    kern = MhMarginalKernel(stats, GammaPriors(2.0, 2.0, 1.0))
    runs = posterior_table(kern.log_kernel, "uniform", stats=stats)
    centres = kern.diagnostics["centres"]
    monkeypatch.setattr(posterior, "_excess_sums", per_n_excess_sums)
    per_n = posterior_table(kern.log_kernel, "uniform", stats=stats)
    assert kern.diagnostics["centres"] == centres
    np.testing.assert_allclose(runs.log_kernel, per_n.log_kernel, rtol=0.0, atol=1e-11)
    assert runs.ci == per_n.ci


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

    def test_reports_render_mass_once_and_share_it(self, tmp_path, monkeypatch):
        rendered = []
        render = data._render_floats

        def counting(values):
            rendered.append(np.size(values))
            return render(values)

        monkeypatch.setattr(data, "_render_floats", counting)
        kernel = lambda n: m0_marginal_log_kernel(n, TWO_ANIMALS, BetaParams(1.0, 1.0))
        table = posterior_table(kernel, "uniform", stats=TWO_ANIMALS, n_max=3 * BLOCK)
        n = table.mass.size
        assert n > BLOCK
        payload = {
            "support": [table.n_min, table.n_max], "mass": table.mass.tolist(), "mean": table.mean,
            "sd": table.sd, "ci": list(table.ci), "level": table.level, "tail_exponent": table.tail_exponent,
            "tail_mass_estimate": table.tail_mass_estimate, "warnings": list(table.warnings),
        }
        rows = zip(range(table.n_min, table.n_max + 1), table.mass.tolist(), table.log_kernel.tolist())
        expected_csv = io.StringIO()
        csv.writer(expected_csv).writerows([("N", "mass", "log_kernel"), *rows])

        def check_files():
            assert (tmp_path / "t.json").read_text() == json.dumps(payload, indent=2) + "\n"
            assert (tmp_path / "t.csv").read_bytes().decode() == expected_csv.getvalue()

        # JSON first: n mass values, then the CSV adds only the n of log_kernel
        table.write_json(tmp_path / "t.json")
        assert sum(rendered) == n
        table.write_csv(tmp_path / "t.csv")
        assert sum(rendered) == 2 * n
        check_files()
        # written again, mass is not rendered again
        table.write_json(tmp_path / "t.json")
        assert sum(rendered) == 2 * n
        table.write_csv(tmp_path / "t.csv")
        assert sum(rendered) == 3 * n
        check_files()

        # a fresh table, CSV first: its JSON renders nothing
        rendered.clear()
        table = posterior_table(kernel, "uniform", stats=TWO_ANIMALS, n_max=3 * BLOCK)
        table.write_csv(tmp_path / "t.csv")
        assert sum(rendered) == 2 * n
        table.write_json(tmp_path / "t.json")
        assert sum(rendered) == 2 * n
        check_files()

    def test_table_and_its_arrays_are_read_only(self):
        kernel = lambda n: m0_marginal_log_kernel(n, TWO_ANIMALS, BetaParams(1.0, 1.0))
        table = posterior_table(kernel, "uniform", stats=TWO_ANIMALS, n_max=100)
        for name in ("mass", "log_kernel"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(table, name)[0] = 0.5
            with pytest.raises(ValueError, match="read-only"):
                getattr(table, name)[:] *= 2.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(table, name, np.zeros(3))
        # a changed copy is a new table, whose reports render its own mass
        doubled = dataclasses.replace(table, mass=table.mass * 2.0, warnings=("w",))
        assert doubled.mass.tolist() == (table.mass * 2.0).tolist()
        assert not doubled.mass.flags.writeable and doubled.warnings == ("w",)

@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=-20.0, max_value=20.0))
def test_mass_invariant_to_kernel_rescaling(offset):
    base = lambda n: m0_marginal_log_kernel(n, TWO_ANIMALS, BetaParams(1.0, 1.0))
    shifted = lambda n: base(n) + offset
    t0 = posterior_table(base, "uniform", stats=TWO_ANIMALS, n_max=300)
    t1 = posterior_table(shifted, "uniform", stats=TWO_ANIMALS, n_max=300)
    assert np.allclose(t0.mass, t1.mass, rtol=1e-11, atol=0)


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


def _assert_same_table(got, want):
    assert (got.n_min, got.n_max, got.level) == (want.n_min, want.n_max, want.level)
    assert got.log_kernel.tobytes() == want.log_kernel.tobytes()
    assert got.mass.tobytes() == want.mass.tobytes()
    for name in ("mean", "sd", "ci", "tail_exponent", "tail_mass_estimate"):
        assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name
    assert got.warnings == want.warnings


@st.composite
def table_cases(draw):
    """A prior on N, a support and a kernel: a power-law decay with a wobble,
    and some entries overwritten, -inf and +inf among them, before or inside
    the last decade. Supports run past ``BLOCK`` as well as below 3 points."""
    n_prior = draw(st.sampled_from(["uniform", "scale"]))
    lo = draw(st.integers(0, 40))
    size = draw(st.one_of(st.integers(1, 60), st.integers(BLOCK + 1, 3 * BLOCK)))
    n_max = max(lo, 1) + size - 1
    decay = draw(st.floats(0.0, 4.0))
    wobble = draw(st.floats(0.0, 2.0))
    values = st.one_of(st.sampled_from([-np.inf, np.inf, 0.0, -0.0]), st.floats(-800.0, 800.0))
    holes = draw(st.lists(st.tuples(st.booleans(), st.floats(0.0, 1.0), values), max_size=8))

    def kernel(n):
        out = -decay * np.log(n + 1.0) + wobble * np.sin(n)
        split = int(np.searchsorted(n, n_max / 10.0))
        for inside, where, value in holes:
            first, stop = (split, n.size) if inside else (0, split)
            if stop > first:
                out[first + min(int(where * (stop - first)), stop - first - 1)] = value
        return out

    return n_prior, lo, n_max, kernel


@settings(max_examples=80, deadline=None)
@given(table_cases(), st.sampled_from([0.5, 0.95]), st.sampled_from([0.0, 0.05]))
@example(("uniform", 17, 300, lambda n: -np.log(n)), 0.95, 0.05)
@example(("scale", 0, 3 * BLOCK, lambda n: np.where(n > 2 * BLOCK, -np.inf, -2.0 * np.log(n))), 0.95, 0.05)
@example(("uniform", 5, 2 * BLOCK, lambda n: np.where(n % 3 == 0, -np.inf, -np.log(n))), 0.95, 0.05)
@example(("uniform", 5, 2 * BLOCK, lambda n: np.where(n < 50, -np.inf, -0.0)), 0.95, 0.05)
def test_posterior_table_matches_reference_bit_for_bit(case, level, margin):
    # the table's fewer arrays change no output bit: mass, log_kernel,
    # moments, CI, tail fit and warnings equal the one-array-per-step
    # arithmetic, with non-finite values before and inside the last decade
    n_prior, lo, n_max, kernel = case
    start = max(lo, 1) if n_prior == "scale" else lo
    support = np.arange(start, n_max + 1, dtype=float)
    log_total = kernel(support) - (np.log(support) if n_prior == "scale" else 0.0)
    assume(np.isfinite(log_total).any())
    with np.errstate(invalid="ignore"):  # +inf in the kernel makes NaN mass
        got = posterior_table(kernel, n_prior, n_min=lo, n_max=n_max, level=level, improper_margin=margin)
        want = reference_posterior_table(kernel, n_prior, start, n_max, level=level, improper_margin=margin)
    _assert_same_table(got, want)


def test_posterior_table_matches_reference_on_model_kernels():
    stats = summarize(simulate_m0(400, 0.01, 5, seed=3))  # no recaptures
    rich = summarize(simulate_m0(100, 0.3, 5, seed=7))
    cases = [
        (lambda n: m0_marginal_log_kernel(n, st_, BetaParams(a, 1.0)), st_, prior, n_max)
        for st_ in (stats, rich) for a in (1.0, 0.5) for prior in ("uniform", "scale") for n_max in (2_000, 300_000)
    ]
    cases += [(lambda n: york_madigan_log_kernel(n, 300, 5, 0.2), None, "uniform", 3000)]
    for kernel, st_, prior, n_max in cases:
        lo = st_.m_k1 if st_ is not None else 300
        kwargs = {"stats": st_} if st_ is not None else {"n_min": lo}
        start = max(lo, 1) if prior == "scale" else lo
        _assert_same_table(
            posterior_table(kernel, prior, n_max=n_max, **kwargs), reference_posterior_table(kernel, prior, start, n_max)
        )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(1.0, 1e7), min_size=3, max_size=300, unique=True),
    st.floats(-4.0, 4.0),
    st.integers(0, 2**32 - 1),
)
def test_fit_log_log_slope_matches_reference_bit_for_bit(xs, slope, seed):
    x = np.sort(np.array(xs))
    y = slope * np.log(x) + np.random.default_rng(seed).normal(size=x.size)
    before = x.copy()
    got = fit_log_log_slope(x, y)
    assert _bits(got) == _bits(reference_fit_log_log_slope(x, y))
    assert x.tobytes() == before.tobytes()


@settings(max_examples=25, deadline=None)
@given(
    mh_histories, gamma_shapes, gamma_shapes, st.floats(min_value=0.2, max_value=5.0),
    st.sampled_from(["unit", "geometric"]), st.integers(2, 800),
)
@example(simulate_mh(50, 2, 4, 8, seed=6), 2.0, 2.0, 1.0, "unit", 2_000)
@example(simulate_mh(300, 2, 5, 5, seed=2), 2.0, 2.0, 1.0, "unit", 2_000)
@example(simulate_mh(400, 2, 4, 6, seed=1), 2.0, 2.0, 1.0, "geometric", 50)
def test_blocks_match_point_by_point_walk(history, a, b, c, spacing, size):
    # one distance pass per window of points gives the blocks and centres
    # of measuring one point at a time
    stats = summarize(history)
    kern = MhMarginalKernel(stats, GammaPriors(a, b, c))
    m = stats.m_k1
    grid = np.arange(m, m + size, dtype=float) if spacing == "unit" else np.geomspace(max(m, 1), 40 * max(m, 1), size)
    got, want = kern._blocks(grid), walk_blocks(kern, grid)
    assert [block for block, *_ in got] == [block for block, *_ in want]
    assert [_bits(centre) for _, centre, _ in got] == [_bits(centre) for _, centre, _ in want]
    # the library takes the widths' singular values with np.hypot
    assert [reach for *_, reach in got] == pytest.approx([reach for *_, reach in want], rel=1e-14)


NO_RECAPTURES = summarize(simulate_m0(400, 0.01, 5, seed=3))


@pytest.mark.parametrize("n_prior", ["uniform", "scale"])
@pytest.mark.parametrize("holes", [False, True], ids=["m0", "m0-with-inf-in-decade"])
def test_posterior_table_holds_at_most_six_support_arrays(n_prior, holes):
    # a 1e6-point table peaks at 6 float64 arrays of its size plus 2 MB,
    # with -inf entries in its last decade too (which the fit must copy past)
    n_max = 1_000_000

    def kernel(n):
        out = m0_marginal_log_kernel(n, NO_RECAPTURES, BetaParams(1.0, 1.0))
        if holes:
            out[n % 7 == 0] = -np.inf
        return out

    size = n_max - max(NO_RECAPTURES.m_k1, 1) + 1
    tracemalloc.start()
    try:
        table = posterior_table(kernel, n_prior, stats=NO_RECAPTURES, n_max=n_max)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.mass.size == size and np.isfinite(table.tail_exponent)
    assert peak <= 6 * 8 * size + 2 * 2**20, f"{peak / (8 * size):.2f} arrays"
