"""The f_j-grouped data factor of the Beta-heterogeneous model.

The library computes the product of the observed animals' rising-factorial
factors from the capture frequencies alone, and the zero-cell factor from
the same per-cell terms, in one function (``_mh_log_factors``). These tests
hold every place that uses it to the per-animal log-gamma oracle and to the
term-by-term zero cell of the oracles: the function itself, the mh kernel's
mode search (``_log_data``) and its node sets (``_nodes_at``).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from crbayes.data import CaptureHistory, simulate_mh, summarize
from crbayes.likelihoods import BetaParams, _mh_log_factors, log_falling
from crbayes.posterior import _MAX_LOG_SHAPE, _ROW_TOTAL_MIN, GammaPriors, MhMarginalKernel

from oracles import (
    mh_complete_log_lik,
    mh_log_zero_cell,
    mh_summary_log_prob,
    per_animal_counts,
    per_animal_log_obs,
    per_animal_mh_complete_log_lik,
)


@st.composite
def histories(draw):
    """Histories with 2-8 occasions; up to 40 animals, so many f_j cells stay empty."""
    k = draw(st.integers(min_value=2, max_value=8))
    codes = draw(st.lists(st.integers(1, 2**k - 1), max_size=40))
    rows = tuple(tuple((c >> j) & 1 for j in range(k)) for c in codes)
    return CaptureHistory(k=k, rows=rows)


shapes = st.floats(min_value=-9.0, max_value=3.0).map(lambda e: 10.0**e)


def log_gamma_scale(alpha: float, beta: float, k: int) -> float:
    """Size of the largest log-gamma term the oracle adds per animal.

    At shapes near 1e3 these terms are ~6e3, so float64 rounding alone puts
    ~1e-12 of absolute error on every animal's oracle value.
    """
    terms = gammaln(np.array([alpha, beta, alpha + beta + k]))
    return float(max(1.0, np.abs(terms).max()))


def assert_agrees(got, want, scale: float) -> None:
    assert abs(got - want) <= 1e-12 * max(abs(want), scale)


@settings(max_examples=200, deadline=None)
@given(histories(), shapes, shapes)
def test_grouped_factor_matches_per_animal_oracle(history, alpha, beta):
    stats = summarize(history)
    want = float(per_animal_log_obs(per_animal_counts(stats.f_j), stats.k, alpha, beta))
    scale = stats.m_k1 * log_gamma_scale(alpha, beta, stats.k)
    logs = math.log(alpha), math.log(beta), math.log(alpha + beta)
    log_obs, log_zero_cell = map(float, _mh_log_factors(stats.f_j, alpha, beta, *logs))
    assert_agrees(log_obs, want, scale)
    assert_agrees(log_zero_cell, float(mh_log_zero_cell(alpha, beta, stats.k)), 0.0)
    # the mode search's data factor at N = M, where the zero cell drops out
    kern = MhMarginalKernel(stats, GammaPriors(2.0, 2.0))
    assert_agrees(float(kern._log_data(np.array([logs[0]]), np.array([logs[1]]), 0.0)[0]), want, scale)


@pytest.mark.parametrize("f_j", [(3,), (0, 0, 2), (0, 0, 0, 1)])
def test_factor_skips_log_beta_when_no_animal_was_missed(f_j):
    # z_0 = 0, so log beta has no count and may even be -inf
    alpha, beta = 1.5, 0.25
    logs = math.log(alpha), math.log(alpha + beta)
    got = _mh_log_factors(f_j, alpha, beta, logs[0], -math.inf, logs[1])[0]
    assert got == _mh_log_factors(f_j, alpha, beta, logs[0], math.log(beta), logs[1])[0]
    assert_agrees(got, float(per_animal_log_obs(per_animal_counts(f_j), len(f_j), alpha, beta)), 10.0)


# s rises down the rows of a node set: the floors bite below s = -350, the
# row total gives way to per-node sums below _ROW_TOTAL_MIN and s is capped
# at _MAX_LOG_SHAPE, so rows are drawn on both sides of each of these
row_s = st.one_of(
    st.floats(min_value=-450.0, max_value=_MAX_LOG_SHAPE),
    st.sampled_from([-2.0 * _MAX_LOG_SHAPE, -_MAX_LOG_SHAPE, _ROW_TOTAL_MIN, _MAX_LOG_SHAPE]),
)
node_r = st.one_of(
    st.floats(min_value=-800.0, max_value=800.0),
    st.floats(min_value=-5.0, max_value=5.0),
)


@settings(max_examples=150, deadline=None)
@given(
    histories(),
    st.lists(row_s, min_size=1, max_size=6),
    st.lists(node_r, min_size=1, max_size=6),
)
def test_node_set_factor_matches_per_animal_oracle(history, s_rows, r_row):
    """Every node of a node set against the oracles at the node's floored
    (alpha, beta), the pair its data factor is documented to see: the
    observed-animal factor against the per-animal one, and the zero cell,
    which shares its per-cell log1p terms with it, against the term-by-term
    zero cell."""
    stats = summarize(history)
    kern = MhMarginalKernel(stats, GammaPriors(2.0, 2.0))
    s = np.sort(np.array(s_rows))[:, None]
    r = np.array(r_row)[None, :] + np.linspace(0.0, 1.0, s.size)[:, None]
    alpha, beta, _, log_obs, log_zero_cell = kern._nodes_at(s, r)
    assert log_obs.shape == log_zero_cell.shape == r.shape
    assert not (np.isnan(log_obs).any() or np.isnan(log_zero_cell).any())
    floor = math.exp(-_MAX_LOG_SHAPE)
    assert (alpha >= floor).all() and (beta >= floor).all()
    want = per_animal_log_obs(per_animal_counts(stats.f_j), stats.k, alpha, beta)
    for got_i, want_i, a_i, b_i in zip(log_obs.flat, want.flat, alpha.flat, beta.flat):
        assert_agrees(got_i, want_i, stats.m_k1 * log_gamma_scale(a_i, b_i, stats.k))
    want = mh_log_zero_cell(alpha, beta, stats.k)
    for got_i, want_i in zip(log_zero_cell.flat, want.flat):
        assert_agrees(got_i, want_i, 0.0)


@settings(max_examples=100, deadline=None)
@given(histories(), shapes, shapes, st.integers(min_value=0, max_value=50))
def test_integrated_likelihood_matches_per_animal_oracle(history, alpha, beta, excess):
    stats = summarize(history)
    n_val = stats.m_k1 + excess
    want = per_animal_mh_complete_log_lik(stats, n_val, alpha, beta)
    got = mh_complete_log_lik(stats, n_val, BetaParams(alpha, beta))
    assert_agrees(got, want, (n_val + 1) * log_gamma_scale(alpha, beta, stats.k))


@settings(max_examples=100, deadline=None)
@given(histories(), shapes, shapes)
def test_summary_and_integrated_forms_differ_by_a_constant_in_n(history, alpha, beta):
    stats = summarize(history)
    m, k = stats.m_k1, stats.k
    params = BetaParams(alpha, beta)
    grid = m + np.array([0.0, 1.0, 7.0, 20.0, 50.0])
    diff = mh_summary_log_prob(stats.f_j, m, grid, k, params) - mh_complete_log_lik(
        stats, grid, params
    )
    # the two forms round their zero-cell factors differently, once per unit of N - M
    scale = (grid - m + 1.0) * log_gamma_scale(alpha, beta, k)
    assert (np.abs(diff - diff[0]) <= 1e-12 * np.maximum(np.abs(diff[0]), scale)).all()


class PerAnimalKernel(MhMarginalKernel):
    """The mh kernel with its observed-animal factor summed animal by animal
    and its zero cell term by term, each on its own."""

    def _log_factors(self, alpha, beta, *logs):
        k = self.stats.k
        return per_animal_log_obs(per_animal_counts(self.stats.f_j), k, alpha, beta), mh_log_zero_cell(alpha, beta, k)


def test_kernel_and_verdict_points_match_per_animal_kernel():
    stats = summarize(simulate_mh(50, 2.0, 4.0, 8, seed=6))
    assert (stats.m_k1, stats.recaptures) == (40, 91)
    m = stats.m_k1
    n_lo, n_hi = 1e3 * m, 1e6 * m  # the default propriety fit range and its two-point probe
    probe = np.sqrt(n_lo * n_hi)
    grids = {
        "table": np.arange(m, m + 141, dtype=float),
        "verdict": np.concatenate([np.geomspace(n_lo, n_hi, 50), [probe, 2.0 * probe]]),
    }
    gammas = GammaPriors(2.0, 2.0)
    kern = MhMarginalKernel(stats, gammas)
    ref = PerAnimalKernel(stats, gammas)
    for name, grid in grids.items():
        # a converged evaluation returns its check-node values
        got = kern.log_kernel(grid)
        want = log_falling(grid, m) - gammaln(m + 1) + ref._log_expectation(grid, 96, ref._blocks(grid))
        assert np.abs(np.expm1(got - want)).max() <= 1e-10, name
