"""Independent reference implementations used to pin expected test values.

The oracles deliberately avoid the library's own formulas: likelihoods are
brute-forced by enumerating latent detection matrices, marginal kernels are
integrated by adaptive quadrature, and expectations are Monte Carlo
averaged. Slow but trustworthy.

Some entries are closed forms instead, built on the library's
``log_falling``, support mask and zero-cell factor:

- the m0 full-history and profile likelihoods and the profile MLE, which
  acceptance criteria 09 and 10 use;
- the mh capture-frequency (multinomial) likelihood, which criterion 04
  compares with the complete-data form;
- ``mh_complete_log_lik``, which is no oracle: it is the complete-data
  likelihood built from the kernel's own data factor, for the oracles to
  check.
"""

import itertools
import math

import numpy as np
from scipy.integrate import quad
from scipy.special import betaln, gammaln, logsumexp, roots_hermite, xlog1py, xlogy
from scipy.stats import beta as beta_dist
from scipy.stats import betabinom

from crbayes.likelihoods import _check_p, _on_support, log_falling, mh_log_zero_cell
from crbayes.posterior import GammaPriors, MhMarginalKernel


def enumerate_kahn_log_prob(n_j, n_total: int, p: float) -> float:
    """Sum the probability of every binary matrix with the given column sums."""
    k = len(n_j)
    total = 0.0
    for bits in itertools.product((0, 1), repeat=n_total * k):
        mat = [bits[i * k : (i + 1) * k] for i in range(n_total)]
        if all(sum(row[j] for row in mat) == n_j[j] for j in range(k)):
            s = sum(bits)
            total += p**s * (1.0 - p) ** (n_total * k - s)
    return math.log(total)


def enumerate_m0_log_prob(rows, n_total: int, p: float) -> float:
    """Sum over matrices whose nonzero rows equal the observed rows in order.

    The observed animals keep their recorded order among the latent indices,
    which reproduces the likelihood's N!/((N-M)! M!) combinatorial factor.
    """
    k = len(rows[0])
    observed = [tuple(r) for r in rows]
    total = 0.0
    for bits in itertools.product((0, 1), repeat=n_total * k):
        mat = [bits[i * k : (i + 1) * k] for i in range(n_total)]
        nonzero = [tuple(r) for r in mat if any(r)]
        if nonzero == observed:
            s = sum(bits)
            total += p**s * (1.0 - p) ** (n_total * k - s)
    return math.log(total)


class NoFiniteMLEError(RuntimeError):
    """Raised when the profile likelihood has no finite maximizer."""


def m0_log_prob(stats, n, p: float):
    """Log probability of a full capture history under constant detection.

    Equals log[ N! / ((N - M)! M!) * p^n. * (1-p)^(K N - n.) ] where M animals
    were observed; N < M gives -inf by convention.
    """
    _check_p(p)
    m, k, n_dot = stats.m_k1, stats.k, stats.n_dot
    return _on_support(n, m, lambda safe: (
        log_falling(safe, m) - gammaln(m + 1) + xlogy(n_dot, p) + xlog1py(k * safe - n_dot, -p)
    ))


def m0_profile_log_lik(stats, n):
    """Profile log likelihood: detection rate replaced by its plug-in n./(K N)."""
    m, k, n_dot = stats.m_k1, stats.k, stats.n_dot

    def body(safe):
        p_hat = n_dot / (k * safe)
        return (
            log_falling(safe, m) - gammaln(m + 1)
            + xlogy(n_dot, p_hat) + xlogy(k * safe - n_dot, 1.0 - p_hat)
        )

    return _on_support(n, max(m, 1), body)


_MLE_WINDOW = 20


def m0_profile_mle(stats) -> tuple[int, float]:
    """Maximize the profile likelihood over integer population sizes.

    Scans upward from the number of observed animals in doubling blocks and
    stops once the profile has decreased for ``_MLE_WINDOW`` consecutive
    integers past the best point (the profile is unimodal in practice; the
    window guards against plateaus). Requires at least one recapture,
    otherwise the profile increases forever and no finite maximizer exists.
    """
    if stats.m_k1 == 0:
        raise NoFiniteMLEError("empty dataset: nothing to estimate")
    if stats.recaptures < 1:
        raise NoFiniteMLEError(
            "no recaptures (r = 0): the profile likelihood has no finite maximizer"
        )
    best_n, best_val = stats.m_k1, -np.inf
    prev = -np.inf
    run = 0
    start, block = stats.m_k1, 256
    done = False
    while not done:
        grid = np.arange(start, start + block)
        vals = np.atleast_1d(m0_profile_log_lik(stats, grid))
        for n_val, val in zip(grid, vals):
            if val > best_val:
                best_val, best_n = float(val), int(n_val)
            run = run + 1 if val < prev else 0
            prev = float(val)
            if run >= _MLE_WINDOW:
                done = True
                break
        start += block
        block *= 2
        if not done and start > 10**9:
            raise NoFiniteMLEError("profile likelihood still rising at N = 1e9")
    p_hat = stats.n_dot / (stats.k * best_n)
    return best_n, p_hat


def log_quad_power_integral(a_exp: float, b_exp: float) -> float:
    """log of int_0^1 p^a_exp (1-p)^b_exp dp by peak-rescaled adaptive quadrature."""
    if a_exp == 0 and b_exp == 0:
        return 0.0

    def logf(p):
        return xlogy(a_exp, p) + xlog1py(b_exp, -p)

    p_star = a_exp / (a_exp + b_exp) if a_exp + b_exp > 0 else 0.5
    p_star = min(max(p_star, 1e-12), 1.0 - 1e-12)
    peak = logf(p_star)
    val, _ = quad(
        lambda p: np.exp(logf(p) - peak),
        0.0,
        1.0,
        points=[p_star],
        limit=400,
        epsabs=1e-16,
        epsrel=1e-13,
    )
    return float(peak + np.log(val))


def quad_m0_marginal_log_kernel(stats, n_val: float, a: float, b: float) -> float:
    """Adaptive-quadrature counterpart of the closed-form constant-detection kernel.

    Integrates p^(n.) (1-p)^(KN-n.) against the Beta(a, b) density numerically
    and strips the factors that are constant in N so the result is directly
    comparable to the closed form.
    """
    m, k, n_dot = stats.m_k1, stats.k, stats.n_dot
    log_integral = log_quad_power_integral(n_dot + a - 1.0, k * n_val - n_dot + b - 1.0)
    return float(
        gammaln(n_val + 1.0)
        - gammaln(n_val - m + 1.0)
        + log_integral
        - gammaln(n_dot + a)
    )


def quad_mh_complete_log_lik(stats, n_val: int, alpha: float, beta: float) -> float:
    """Per-animal 1-D quadrature oracle for the Beta-heterogeneous likelihood."""
    m, k = stats.m_k1, stats.k
    pdf = beta_dist(alpha, beta).pdf

    def cell(y: int) -> float:
        val, _ = quad(
            lambda p: p**y * (1.0 - p) ** (k - y) * pdf(p),
            0.0,
            1.0,
            limit=400,
            epsabs=1e-14,
            epsrel=1e-13,
        )
        return val

    out = gammaln(n_val + 1) - gammaln(m + 1) - gammaln(n_val - m + 1)
    out += (n_val - m) * math.log(cell(0))
    for y in per_animal_counts(stats.f_j):
        out += math.log(cell(y))
    return float(out)


def per_n_centred_hermite_log_expectation(kern, grid, n_nodes: int):
    """The mh kernel's Gauss-Hermite rule with fresh nodes at every N.

    Each N gets its own mode-centred node set from ``kern._hermite_centre``
    and its own data factor ``kern._log_data``; nothing is shared between
    grid points. Returns the log prior expectation that
    ``kern._log_expectation`` computes on the same grid. Unlike the rest of
    this module it reuses the kernel's centres and integrand: it is the
    reference for sharing node sets across N, not for the integrand.
    """
    g, st = kern.gammas, kern.stats
    a, b, c = g.a, g.b, g.c
    m = st.m_k1
    x, w = roots_hermite(n_nodes)
    logw = np.log(w) + x * x  # e^(x^2) folded into the weights: the integrand has no e^(-x^2)
    root2 = np.sqrt(2.0)
    u0, v0, l11, l21, l22 = kern._hermite_centre(grid)
    out = np.empty_like(grid)
    for i, n_val in enumerate(grid):
        # (u, v) = centre + sqrt(2) L (x_r, x_s) with L lower-triangular: u and
        # the first part of v depend on the row node only
        u = u0[i] + root2 * l11[i] * x
        v_row = v0[i] + root2 * l21[i] * x
        v_col = root2 * l22[i] * x
        alpha = np.exp(u)[:, None]
        beta = np.exp(v_row)[:, None] * np.exp(v_col)[None, :]
        logint = (
            (logw + a * u + b * v_row - alpha[:, 0] / c)[:, None]
            + (logw + b * v_col)[None, :]
            - beta / c
            + kern._log_data(alpha, beta, n_val - m)
        )
        out[i] = logsumexp(logint) + np.log(2.0 * l11[i] * l22[i])
    return out - (a + b) * np.log(c) - gammaln(a) - gammaln(b)


def mh_log_integrand(stats, a: float, b: float, c: float, u, v, excess):
    """Log integrand of the heterogeneous kernel in (u, v) = (log alpha, log beta).

    With alpha ~ Gamma(a, c) and beta ~ Gamma(b, c) moved to log scale, this
    is a u + b v - (alpha + beta)/c plus the log data factor with ``excess``
    = N - M animals never caught: the observed animals' log-gamma differences,
    one term per capture count, and the zero cell as -log1p(alpha/(beta + j))
    summed over j < K. Constants in (u, v) are left out. ``u``, ``v`` and
    ``excess`` broadcast against each other.
    """
    m, k = stats.m_k1, stats.k
    alpha, beta = np.exp(u), np.exp(v)
    out = a * u + b * v - (alpha + beta) / c
    for y, f in enumerate(stats.f_j, start=1):
        if f:
            out = out + f * (gammaln(alpha + y) - gammaln(alpha) + gammaln(beta + (k - y)) - gammaln(beta))
    out = out - m * (gammaln(alpha + beta + k) - gammaln(alpha + beta))
    for j in range(k):
        out = out - excess * np.log1p(alpha / (beta + j))
    return out


def box_mh_marginal_log_kernel(stats, n_vals, a: float, b: float, c: float) -> np.ndarray:
    """Brute-force heterogeneous kernel: an even grid over a box in (log alpha, log beta).

    Returns log C(N, M) + log E[data factor] for alpha ~ Gamma(a, c) and
    beta ~ Gamma(b, c) at each N. In (u, v) = (log alpha, log beta) the
    integrand is smooth and falls off fast on every side, so a plain sum over
    evenly spaced points (the trapezoid rule, with negligible edges)
    converges geometrically in the spacing. A coarse scan of [-40, 25]^2
    finds the box where the log integrand lies within 45 of its largest
    value; the box gets 201 x 201 nodes (401 x 401 changed no value by
    more than 3e-13 on random sets), and the oracle fails if the integrand
    on its edges is not negligible. No node rule, no mode
    search and no library code: slow but independent of both mh rules.
    """
    m = stats.m_k1
    scan = np.linspace(-40.0, 25.0, 261)
    step = scan[1] - scan[0]
    out = []
    for n_val in np.atleast_1d(n_vals):
        g = mh_log_integrand(stats, a, b, c, scan[:, None], scan[None, :], n_val - m)
        rows, cols = np.nonzero(g > g.max() - 45.0)
        if min(rows.min(), cols.min()) == 0 or max(rows.max(), cols.max()) == scan.size - 1:
            raise AssertionError(f"integrand at N = {n_val} reaches the edge of the scan")
        u = np.linspace(scan[rows.min()] - step, scan[rows.max()] + step, 201)
        v = np.linspace(scan[cols.min()] - step, scan[cols.max()] + step, 201)
        g = mh_log_integrand(stats, a, b, c, u[:, None], v[None, :], n_val - m)
        edges = np.concatenate([g[0], g[-1], g[:, 0], g[:, -1]])
        if not edges.max() < g.max() - 30.0:
            raise AssertionError(f"integrand at N = {n_val} is not negligible on the box's edges")
        log_e = logsumexp(g) + math.log((u[1] - u[0]) * (v[1] - v[0]))
        log_comb = sum(math.log(n_val - i) for i in range(m)) - math.lgamma(m + 1)  # log C(N, M)
        out.append(log_comb + log_e - (a + b) * math.log(c) - gammaln(a) - gammaln(b))
    return np.array(out)


def per_animal_counts(f_j) -> list[int]:
    """Expand capture frequencies into one capture count per observed animal."""
    return [y for y, f in enumerate(f_j, start=1) for _ in range(f)]


def per_animal_log_obs(y_i, k: int, alpha, beta):
    """Observed-animal factor of the Beta-heterogeneous likelihood, animal by animal.

    An animal caught y of k times contributes the log-gamma differences
    log G(alpha+y) - log G(alpha) + log G(beta+k-y) - log G(beta)
    - [log G(alpha+beta+k) - log G(alpha+beta)]; nothing is grouped by
    capture frequency. ``alpha`` and ``beta`` broadcast against each other.
    """
    m = len(y_i)
    log_a = sum((gammaln(alpha + y) for y in y_i), 0.0) - m * gammaln(alpha)
    log_b = sum((gammaln(beta + (k - y)) for y in y_i), 0.0) - m * gammaln(beta)
    return log_a + log_b - m * (gammaln(alpha + beta + k) - gammaln(alpha + beta))


def per_animal_mh_complete_log_lik(stats, n_val: int, alpha: float, beta: float) -> float:
    """Full Beta-heterogeneous likelihood with the per-animal observed factor."""
    m, k = stats.m_k1, stats.k
    log_zero_cell = (
        gammaln(beta + k) - gammaln(beta) - gammaln(alpha + beta + k) + gammaln(alpha + beta)
    )
    log_comb = gammaln(n_val + 1) - gammaln(m + 1) - gammaln(n_val - m + 1)
    log_obs = per_animal_log_obs(per_animal_counts(stats.f_j), k, alpha, beta)
    return float(log_comb + (n_val - m) * log_zero_cell + log_obs)


def mh_complete_log_lik(stats, n, params):
    """Complete-data log likelihood of the mh model at fixed Beta shapes, as the kernel builds it.

    log N!/(N - M)! - log M! plus ``MhMarginalKernel._log_data`` at
    (params.a, params.b) with N - M animals never caught; -inf below M. The
    Gamma priors given to the kernel do not enter its data factor.
    """
    m = stats.m_k1
    log_data = MhMarginalKernel(stats, GammaPriors(1.0, 1.0))._log_data
    return _on_support(n, m, lambda safe: (
        log_falling(safe, m) - gammaln(m + 1) + log_data(params.a, params.b, safe - m)
    ))


def beta_binomial_log_pmf(j, k: int, params):
    """Log mass at j captures out of k occasions with a Beta-mixed rate."""
    j = np.asarray(j, dtype=float)
    a, b = params.a, params.b
    return (
        gammaln(k + 1)
        - gammaln(j + 1)
        - gammaln(k - j + 1)
        + betaln(a + j, b + k - j)
        - betaln(a, b)
    )


def mh_summary_log_prob(f_j, m_k1: int, n, k: int, params):
    """Log likelihood of the capture-frequency summary under Beta-mixed detection.

    Models the counts (N - M, f_1, ..., f_K) of animals caught 0, 1, ..., K
    times as a multinomial with beta-binomial cell probabilities; the zero
    cell, raised to the power N - M, comes from ``mh_log_zero_cell``. Up to
    a factor constant in N this matches :func:`mh_complete_log_lik`.
    """
    freqs = np.asarray(f_j, dtype=int)
    if freqs.ndim != 1 or freqs.size != k or (freqs < 0).any():
        raise ValueError("f_j must have one nonnegative count per occasion")
    if int(freqs.sum()) != m_k1:
        raise ValueError("f_j must sum to the number of observed animals")
    log_zero_cell = float(mh_log_zero_cell(params.a, params.b, k))
    log_seen = float(freqs @ beta_binomial_log_pmf(np.arange(1, k + 1), k, params))
    return _on_support(n, m_k1, lambda safe: (
        log_falling(safe, m_k1) - gammaln(freqs + 1).sum() + (safe - m_k1) * log_zero_cell + log_seen
    ))


def mc_beta_expectation(n_val: int, m_k1: int, a: float, b: float, draws: int, seed: int):
    """Monte Carlo estimate and standard error of E[(1-X)^(N-M) X^M], X ~ Beta(a, b)."""
    rng = np.random.default_rng(seed)
    x = rng.beta(a, b, size=draws)
    vals = (1.0 - x) ** (n_val - m_k1) * x**m_k1
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(draws))


def mc_mh_marginal_log_kernel(stats, n_val: int, a: float, b: float, c: float, draws: int, seed: int):
    """Monte Carlo estimate of the heterogeneous kernel and its standard error.

    Draws (alpha, beta) from the Gamma priors and averages the integrated
    likelihood's data factor; returns (estimate, se) on the linear scale of
    the expectation together with the log combinatorial prefactor.
    """
    rng = np.random.default_rng(seed)
    m, k = stats.m_k1, stats.k
    alpha = rng.gamma(a, c, size=draws)
    beta = rng.gamma(b, c, size=draws)
    log_vals = np.zeros(draws)
    for j in range(k):
        log_vals += (n_val - m) * (np.log(beta + j) - np.log(alpha + beta + j))
    log_vals += per_animal_log_obs(per_animal_counts(stats.f_j), k, alpha, beta)
    vals = np.exp(log_vals)
    log_comb = float(gammaln(n_val + 1) - gammaln(m + 1) - gammaln(n_val - m + 1))
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(draws)), log_comb


def recount_stats(rows, k: int) -> dict:
    """Recompute every summary count with plain double loops."""
    m = len(rows)
    n_j = [0] * k
    y_i = [0] * m
    for i, row in enumerate(rows):
        for j in range(k):
            if row[j]:
                n_j[j] += 1
                y_i[i] += 1
    f_j = [0] * k
    for y in y_i:
        f_j[y - 1] += 1
    return {
        "m_k1": m,
        "n_dot": sum(n_j),
        "n_j": tuple(n_j),
        "f_j": tuple(f_j),
    }


def da_posterior_mass(stats, m_aug: int, p_prior, psi_prior) -> np.ndarray:
    """Exact N-marginal of the data-augmentation model on [M_obs, M].

    Summing out psi ~ Beta(a_psi, b_psi) and the membership of the M rows
    leaves N ~ BetaBinomial(M, a_psi, b_psi) a priori; summing out
    p ~ Beta(a_p, b_p) leaves the constant-detection likelihood
    N!/(N - M_obs)! B(a_p + n., b_p + K N - n.) up to a constant. Returns
    their normalized product at N = M_obs..M.
    """
    m, k, n_dot = stats.m_k1, stats.k, stats.n_dot
    (a_p, b_p), (a_psi, b_psi) = p_prior, psi_prior
    n = np.arange(m, m_aug + 1)
    log_lik = gammaln(n + 1.0) - gammaln(n - m + 1.0) + betaln(a_p + n_dot, b_p + k * n - n_dot)
    log_post = log_lik + betabinom.logpmf(n, m_aug, a_psi, b_psi)
    return np.exp(log_post - logsumexp(log_post))
