"""The f_j-grouped observed-animal factor of the Beta-heterogeneous model.

The library computes the product of the observed animals' rising-factorial
factors from the capture frequencies alone; these tests hold every place
that uses it to the per-animal log-gamma oracle.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from crbayes.data import CaptureHistory, simulate_mh, summarize
from crbayes.likelihoods import BetaParams, log_falling, mh_log_obs_factor
from crbayes.posterior import GammaPriors, MhMarginalKernel

from oracles import (
    mh_complete_log_lik,
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
    assert_agrees(float(mh_log_obs_factor(stats.f_j, alpha, beta)), want, scale)
    kern = MhMarginalKernel(stats, GammaPriors(2.0, 2.0))
    assert_agrees(float(kern._log_obs(np.array([alpha]), np.array([beta]))[0]), want, scale)


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
    """The mh kernel with its observed-animal factor summed animal by animal."""

    def _log_obs(self, alpha, beta):
        return per_animal_log_obs(per_animal_counts(self.stats.f_j), self.stats.k, alpha, beta)


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
    assert MhMarginalKernel(stats, gammas).rule == "hermite"
    # the data choose the Hermite rule; the Laguerre rule is forced, and needs 128/192 here
    for rule, (nodes, check_nodes) in (("hermite", (64, 96)), ("laguerre", (128, 192))):
        kern = type("Kernel", (MhMarginalKernel,), {"rule": rule})(stats, gammas, nodes, check_nodes)
        ref = type("Reference", (PerAnimalKernel,), {"rule": rule})(stats, gammas)
        for name, grid in grids.items():
            # a converged evaluation returns its check-node values
            got = kern.log_kernel(grid)
            blocks = ref._hermite_blocks(grid) if rule == "hermite" else None
            want = log_falling(grid, m) - gammaln(m + 1) + ref._log_expectation(grid, check_nodes, blocks)
            assert np.abs(np.expm1(got - want)).max() <= 1e-10, (rule, name)
