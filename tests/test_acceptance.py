"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every assertion uses the tolerance stated in its criterion.
"""

import time

import numpy as np
from scipy.special import gammaln, logsumexp

from crbayes.data import CaptureHistory, simulate_m0, simulate_mh, summarize
from crbayes.gibbs import DaConfig, da_gibbs, m_sweep
from crbayes.likelihoods import BetaParams, york_madigan_log_kernel
from crbayes.posterior import (
    GammaPriors,
    MhMarginalKernel,
    m0_marginal_log_kernel,
    posterior_table,
)
from crbayes.propriety import m0_propriety_condition

from oracles import (
    fit_tail_exponent,
    m0_profile_log_lik,
    m0_profile_mle,
    mh_complete_log_lik,
    mh_summary_log_prob,
    quad_m0_marginal_log_kernel,
)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion} failed: {detail}"


def stats_with(m_k1: int, k: int, recaptures: int):
    extras = [0] * m_k1
    i = 0
    for _ in range(recaptures):
        while extras[i] >= k - 1:
            i = (i + 1) % m_k1
        extras[i] += 1
        i = (i + 1) % m_k1
    rows = tuple(tuple(1 if j <= extras[i] else 0 for j in range(k)) for i in range(m_k1))
    return summarize(CaptureHistory(k=k, rows=rows))


def test_criterion_01_constant_detection_tail_exponent():
    start = time.perf_counter()
    base = stats_with(3, 5, 2)  # M = 3, n. = 5
    kernel = lambda n: m0_marginal_log_kernel(n, base, BetaParams(1.0, 1.0))
    d_hat, _ = fit_tail_exponent(kernel, 1e3, 1e6, 50)
    elapsed = time.perf_counter() - start
    ok = abs(d_hat - 3.0) <= 0.05 and elapsed < 1.0

    worst = 0.0
    for r in (0, 1, 2, 5):
        for a in (0.5, 1.0, 2.0):
            stats = stats_with(3, 5, r)
            kern = lambda n: m0_marginal_log_kernel(n, stats, BetaParams(a, 1.0))
            d_ra, _ = fit_tail_exponent(kern, 1e3, 1e6, 50)
            worst = max(worst, abs(d_ra - (r + a)))
    ok = ok and worst <= 0.05
    report(
        "criterion 01 constant-detection exponent",
        ok,
        f"base fit {d_hat:.4f} vs 3 in {elapsed * 1e3:.0f} ms; "
        f"worst |fit - (r+a)| over grid = {worst:.4f}",
    )


def test_criterion_02_impropriety_detection_both_priors():
    stats = stats_with(3, 5, 0)  # r = 0
    kernel = lambda n: m0_marginal_log_kernel(n, stats, BetaParams(1.0, 1.0))

    d_flat, _ = fit_tail_exponent(kernel, 1e3, 1e6, 50)
    _, verdict_flat = m0_propriety_condition(stats, 1.0, "uniform")

    scaled = lambda n: kernel(n) - np.log(n)
    d_scale, _ = fit_tail_exponent(scaled, 1e3, 1e6, 50)
    _, verdict_scale = m0_propriety_condition(stats, 1.0, "scale")

    ok = (
        abs(d_flat - 1.0) <= 0.02
        and verdict_flat == "improper"
        and abs(d_scale - 2.0) <= 0.02
        and verdict_scale == "proper"
    )
    report(
        "criterion 02 impropriety detection",
        ok,
        f"flat: {d_flat:.4f}/{verdict_flat}; scale: {d_scale:.4f}/{verdict_scale}",
    )


def test_criterion_03_closed_form_vs_quadrature_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(555)
    worst = 0.0
    datasets = 0
    while datasets < 20:
        n_true = int(rng.integers(5, 120))
        p = float(rng.uniform(0.1, 0.8))
        k = int(rng.integers(2, 6))
        history = simulate_m0(n_true, p, k, seed=1000 + datasets)
        stats = summarize(history)
        a, b = float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.5, 3.0))
        if stats.m_k1 == 0:
            continue
        datasets += 1
        beta = BetaParams(a, b)
        # geometric grid spanning the support up to 1e4 (the closed form and
        # the one-dimensional quadrature are smooth in N between grid points)
        grid = np.unique(np.round(np.geomspace(max(stats.m_k1, 1), 10_000, 12)))
        grid = grid[grid >= stats.m_k1]
        for n_val in grid:
            oracle = quad_m0_marginal_log_kernel(stats, float(n_val), a, b)
            closed = m0_marginal_log_kernel(float(n_val), stats, beta)
            worst = max(worst, abs(np.expm1(closed - oracle)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 10.0
    report(
        "criterion 03 quadrature oracle equivalence",
        ok,
        f"20 datasets, worst rel err {worst:.2e} in {elapsed:.2f} s",
    )


def test_criterion_04_summary_and_complete_data_posteriors_agree():
    worst = 0.0
    datasets = 0
    for seed in range(12):
        history = simulate_mh(7, 1.3, 2.1, 3, seed=seed)
        stats = summarize(history)
        if not 1 <= stats.m_k1 <= 5:
            continue
        datasets += 1
        params = BetaParams(0.8 + 0.3 * seed, 1.1)
        grid = np.arange(stats.m_k1, 501, dtype=float)
        log_complete = mh_complete_log_lik(stats, grid, params)
        log_summary = mh_summary_log_prob(stats.f_j, stats.m_k1, grid, stats.k, params)
        post_complete = log_complete - logsumexp(log_complete)
        post_summary = log_summary - logsumexp(log_summary)
        worst = max(worst, float(np.abs(post_summary - post_complete).max()))
    ok = datasets >= 5 and worst < 1e-8
    report(
        "criterion 04 heterogeneous likelihood forms",
        ok,
        f"{datasets} datasets, worst pointwise log-mass gap {worst:.2e}",
    )


def test_criterion_05_heterogeneous_tail_bound():
    stats = summarize(CaptureHistory(k=3, rows=((1, 0, 0), (1, 1, 0))))
    results = []
    ok = True
    for a in (0.5, 1.5, 3.0):
        for b in (1.0, 2.0):
            kern = MhMarginalKernel(stats, GammaPriors(a, b, 1.0), rtol=1e-6)
            d_hat, _ = fit_tail_exponent(kern.log_kernel, 1e3, 1e6, 50)
            conv = kern.diagnostics["max_rel_change"]
            results.append(f"a={a},b={b}: {d_hat:.3f} ({conv:.1e})")
            ok = ok and d_hat >= a - 0.05 and conv < 1e-6
    report("criterion 05 heterogeneous tail bound", ok, "; ".join(results))


def test_criterion_06_multinomial_kernel_exponents_and_verdicts():
    from crbayes.propriety import ym_propriety_condition

    expected = {(2, 1.0): "improper", (6, 0.25): "proper", (6, 0.2): "improper"}
    ok = True
    details = []
    for (k, delta), verdict in expected.items():
        kernel = lambda n: york_madigan_log_kernel(n, 4, k, delta)
        d_hat, _ = fit_tail_exponent(kernel, 1e4, 1e7, 50)
        target = (k - 1) * delta
        got = ym_propriety_condition(k, delta, "uniform")
        details.append(f"k={k},d={delta}: fit {d_hat:.3f} vs {target}, {got}")
        ok = ok and abs(d_hat - target) <= 0.02 and got == verdict
    ok = ok and ym_propriety_condition(6, 0.05, "scale") == "proper"
    report("criterion 06 multinomial kernel", ok, "; ".join(details))


def test_criterion_07_gamma_ratio_asymptotics():
    # x^a Gamma(x+b) / Gamma(x+a+b) -> 1 by Stirling's expansion
    x = 1e6
    worst = 0.0
    for a in (0.5, 1.0, 2.5, 5.0):
        for b in (0.5, 1.0, 2.5, 5.0):
            log_ratio = a * np.log(x) + gammaln(x + b) - gammaln(x + a + b)
            worst = max(worst, float(abs(np.expm1(log_ratio))))
    ok = worst < 1e-3
    report(
        "criterion 07 gamma-ratio asymptotics",
        ok,
        f"worst deviation at x=1e6 over a,b <= 5: {worst:.2e}",
    )


def test_criterion_08_sampler_matches_exact_grid():
    start = time.perf_counter()
    history = simulate_m0(100, 0.3, 5, seed=2024)
    stats = summarize(history)
    chains = da_gibbs(history, DaConfig(m=500, iters=110_000, burnin=10_000, seed=8))
    kernel = lambda n: m0_marginal_log_kernel(n, stats, BetaParams(1.0, 1.0))
    table = posterior_table(kernel, "uniform", stats=stats, n_max=500)
    empirical = np.bincount(chains.n, minlength=501)[stats.m_k1 :] / chains.n.size
    tv = 0.5 * float(np.abs(empirical - table.mass).sum())
    elapsed = time.perf_counter() - start
    ok = chains.n.size == 100_000 and tv < 0.02 and elapsed < 60.0
    report(
        "criterion 08 sampler vs exact grid",
        ok,
        f"TV = {tv:.4f} with {chains.n.size} draws in {elapsed:.1f} s",
    )


def test_criterion_09_augmentation_sweep_behavior():
    # no recaptures: the posterior is improper, so the mean must track M
    rows = tuple(tuple(1 if j == i % 3 else 0 for j in range(3)) for i in range(6))
    degenerate = CaptureHistory(k=3, rows=rows)
    grow = m_sweep(
        degenerate, [200, 500, 1000], DaConfig(m=1000, iters=30_000, burnin=3_000, seed=9)
    )
    means = [e.mean_n for e in grow.entries]
    growing = means[0] < means[1] < means[2] and grow.slope_z > 3.0

    # plenty of recaptures: the posterior is proper and the mean must not care
    informative = simulate_m0(50, 0.5, 5, seed=31)
    n_hat, _ = m0_profile_mle(summarize(informative))
    stable_report = m_sweep(
        informative,
        [10 * n_hat, 15 * n_hat, 20 * n_hat],
        DaConfig(m=20 * n_hat, iters=30_000, burnin=3_000, seed=9),
    )
    ok = growing and stable_report.stable and stable_report.relative_change < 0.05
    report(
        "criterion 09 augmentation sweep",
        ok,
        f"improper means {np.round(means, 1)} (z={grow.slope_z:.1f}); "
        f"proper rel change {stable_report.relative_change:.2%}",
    )


def test_criterion_10_profile_mle():
    stats = summarize(CaptureHistory(k=2, rows=((1, 0), (1, 1))))
    n_hat, p_hat = m0_profile_mle(stats)
    grid = np.arange(2, 101, dtype=float)
    brute = int(grid[np.argmax(m0_profile_log_lik(stats, grid))])
    ok = n_hat == 2 and p_hat == 0.75 and brute == n_hat
    report(
        "criterion 10 profile MLE",
        ok,
        f"N_hat={n_hat}, p_hat={p_hat}, exhaustive scan over [2,100] gives {brute}",
    )
