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

Others rerun the library's own arithmetic one step at a time, as
references for faster or leaner versions of it that must agree bit for
bit: ``walk_blocks``, ``reference_posterior_table`` and
``reference_fit_log_log_slope``. ``fit_tail_exponent`` and
``local_exponent`` fit and probe a kernel's tail on their own, one kernel
call per grid, as ``propriety_report`` does from one call on the union.
"""

import itertools
import math

import numpy as np
from scipy.integrate import quad
from scipy.special import betaln, gammaln, logsumexp, xlog1py, xlogy
from scipy.stats import beta as beta_dist
from scipy.stats import betabinom

from crbayes.likelihoods import _check_p, _on_support, log_falling, mh_log_zero_cell
from crbayes.posterior import _BLOCK_RADIUS, GammaPriors, MhMarginalKernel, PosteriorTable, _log_sum_exp


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


def per_n_centred_sinh_log_expectation(kern, grid, n_nodes: int):
    """The mh kernel's sinh rule with a node set of its own at every N.

    Each N is a block of one point, centred on its own mode from
    ``kern._mode_centre``, so no nodes are shared between grid points; the
    kernel's ``_log_expectation`` sums the data factor on those blocks.
    Returns the log prior expectation that ``kern._log_expectation``
    computes on the blocks of ``kern._blocks``. Unlike the rest of this
    module it runs the kernel's own rule: it is the reference for sharing
    node sets across N, not for the integrand.
    """
    centre = np.stack(kern._mode_centre(grid))
    blocks = [(slice(i, i + 1), tuple(centre[:, i])) for i in range(grid.size)]
    return kern._log_expectation(grid, n_nodes, blocks)


def per_n_excess_sums(base, log_zero_cell, excess) -> np.ndarray:
    """``posterior._excess_sums`` one N at a time: the log-sum-exp of ``base
    + e * log_zero_cell`` over the nodes at each excess e, with no running
    product. Like ``per_n_centred_sinh_log_expectation`` it reuses the
    library's own ``_log_sum_exp``: it is the reference for summing
    consecutive N in runs, not for the sum itself.
    """
    return np.array([_log_sum_exp(base + e * log_zero_cell) for e in excess])


def walk_blocks(kern, grid) -> list:
    """``MhMarginalKernel._blocks`` walked one grid point at a time: each
    point is measured against the open block's first point with
    ``math.hypot``, both ways, and opens a block of its own unless both
    offsets are at most ``_BLOCK_RADIUS``. Like ``per_n_excess_sums`` it
    reuses the kernel's own mode search: it is the reference for the
    vectorized walk, not for the centres.
    """
    centre = np.stack(kern._mode_centre(grid))
    finite = np.isfinite(centre).all(axis=0) & (centre[2] > 0) & (centre[4] > 0)
    usable = (finite & (grid > kern.stats.m_k1)).tolist()
    s, r, l11, l21, l22 = centre.tolist()

    def offset(i, j):  # |L_j^-1 (centre_i - centre_j)|
        z1 = (s[i] - s[j]) / l11[j]
        return math.hypot(z1, (r[i] - r[j] - l21[j] * z1) / l22[j])

    starts: list[int] = []
    for i in range(grid.size):
        dist = math.nan
        if starts and usable[i] and usable[starts[-1]]:
            dist = max(offset(i, starts[-1]), offset(starts[-1], i))
        if not dist <= _BLOCK_RADIUS:
            starts.append(i)
    stops = starts[1:] + [grid.size]
    return [(slice(i, stop), tuple(centre[:, i])) for i, stop in zip(starts, stops)]


def reference_posterior_table(log_kernel, n_prior: str, lo: int, n_max: int, level: float = 0.95,
                              improper_margin: float = 0.05) -> PosteriorTable:
    """``posterior_table``'s arithmetic on an int64 support, with a new
    array for every step: the normalized mass from one log-sum-exp, then
    the moments and CI, then the log-log fit on masked copies of the
    finite points of the last decade. ``lo`` is the support's start,
    already checked. The library's table holds fewer arrays at once and
    must match this one bit for bit; like ``per_n_excess_sums`` it reuses
    the library's ``_log_sum_exp``.
    """
    support = np.arange(lo, n_max + 1)
    logk = np.asarray(log_kernel(support.astype(float)), dtype=float)
    log_total = logk + (-np.log(support) if n_prior == "scale" else 0.0)
    log_z = _log_sum_exp(log_total.copy())
    mass = np.exp(log_total - log_z)
    mean = float((mass * support).sum())
    var = float((mass * (support - mean) ** 2).sum())
    cdf = np.cumsum(mass)
    lo_q, hi_q = (1.0 - level) / 2.0, 1.0 - (1.0 - level) / 2.0
    ci = (
        float(support[int(np.searchsorted(cdf, lo_q))]),
        float(support[min(int(np.searchsorted(cdf, hi_q)), support.size - 1)]),
    )
    warnings = []
    tail_exponent = tail_mass = np.nan
    in_decade = (support >= n_max / 10.0) & np.isfinite(log_total)
    if in_decade.sum() >= 3:
        lx, ly = np.log(support[in_decade]), log_total[in_decade]
        lxc = lx - lx.mean()
        slope = float((lxc * ly).sum()) / float((lxc * lxc).sum())
        intercept = float(ly.mean() - slope * lx.mean())
        tail_exponent = -slope
        if tail_exponent > 1.0:
            log_tail = intercept + (1.0 - tail_exponent) * np.log(n_max) - np.log(tail_exponent - 1.0)
            tail_mass = float(np.exp(log_tail - np.logaddexp(log_z, log_tail)))
        else:
            tail_mass = np.inf
        if tail_exponent <= 1.0 + improper_margin:
            warnings.append(
                "posterior likely improper; normalization unreliable "
                f"(fitted tail exponent {tail_exponent:.3f} <= 1 + {improper_margin:g})"
            )
    else:
        warnings.append("support too narrow for a tail fit; no truncation estimate")
    return PosteriorTable(
        n_min=lo, n_max=n_max, log_kernel=logk, mass=mass, mean=mean, sd=float(np.sqrt(max(var, 0.0))), ci=ci,
        level=level, tail_exponent=float(tail_exponent), tail_mass_estimate=float(tail_mass),
        warnings=tuple(warnings),
    )


def reference_fit_log_log_slope(x, y) -> tuple[float, float, float]:
    """``fit_log_log_slope`` with a new array for every step."""
    lx, ly = np.log(x), np.asarray(y, dtype=float)
    lxc = lx - lx.mean()
    sxx = float((lxc * lxc).sum())
    slope = float((lxc * ly).sum()) / sxx
    intercept = float(ly.mean() - slope * lx.mean())
    resid = ly - (intercept + slope * lx)
    return slope, intercept, float(np.sqrt((resid * resid).sum() / max(lx.size - 2, 1) / sxx))


def fit_tail_exponent(log_kernel, n_lo: float, n_hi: float, points: int = 50) -> tuple[float, float]:
    """(d_hat, standard error) of the least-squares tail fit: d_hat is the
    negated ``reference_fit_log_log_slope`` of log f at ``points`` geometric
    points of [n_lo, n_hi]."""
    grid = np.geomspace(n_lo, n_hi, points)
    slope, _, stderr = reference_fit_log_log_slope(grid, log_kernel(grid))
    return -slope, stderr


def local_exponent(log_kernel, n):
    """Two-point decay probe -(log f(2N) - log f(N)) / log 2, from two kernel
    calls. Exact for pure power laws. ``n`` is one N (a float comes back) or a
    1-D array of them (an array comes back)."""
    points = np.atleast_1d(np.asarray(n, dtype=float))
    local = -(np.asarray(log_kernel(2.0 * points)) - np.asarray(log_kernel(points))) / math.log(2.0)
    return float(local[0]) if np.ndim(n) == 0 else local


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
    converges geometrically in the spacing. A coarse scan of 261 points per
    coordinate over [-40, 25] finds the box where the log integrand lies
    within 45 of its largest value. A small left-tail rate can put that box
    beyond -40; the scan's left end then doubles in that coordinate, down to
    -640. Each side of the box gets 201 nodes, or more to keep the step at
    most 0.1 (401 x 401 changed no value by more than 3e-13 on random sets;
    a step of 0.05 moved none of the wide boxes by more than 5e-13), and
    the oracle fails if the integrand on its edges is not negligible. No
    node rule, no mode search and no library code: slow but independent of
    the mh rule.
    """
    m = stats.m_k1
    out = []
    for n_val in np.atleast_1d(n_vals):
        left = [-40.0, -40.0]
        while True:
            scan_u, scan_v = (np.linspace(lo, 25.0, 261) for lo in left)
            g = mh_log_integrand(stats, a, b, c, scan_u[:, None], scan_v[None, :], n_val - m)
            rows, cols = np.nonzero(g > g.max() - 45.0)
            firsts = rows.min(), cols.min()
            too_far = any(first == 0 and lo < -600.0 for lo, first in zip(left, firsts))
            if rows.max() == 260 or cols.max() == 260 or too_far:
                raise AssertionError(f"integrand at N = {n_val} reaches the edge of the scan")
            if min(firsts) > 0:
                break
            left = [lo * 2.0 if first == 0 else lo for lo, first in zip(left, firsts)]
        u, v = (
            np.linspace(lo - step, hi + step, max(201, int(math.ceil((hi - lo + 2.0 * step) / 0.1)) + 1))
            for lo, hi, step in (
                (scan_u[rows.min()], scan_u[rows.max()], scan_u[1] - scan_u[0]),
                (scan_v[cols.min()], scan_v[cols.max()], scan_v[1] - scan_v[0]),
            )
        )
        sums, top, edge = [], -np.inf, -np.inf
        for i in range(0, u.size, 256):  # 256 rows at a time bound the memory of a wide box
            g = mh_log_integrand(stats, a, b, c, u[i : i + 256, None], v[None, :], n_val - m)
            sums.append(logsumexp(g))
            top = max(top, g.max())
            edge = max(edge, g[:, 0].max(), g[:, -1].max(), g[0].max() if i == 0 else -np.inf)
        edge = max(edge, g[-1].max())
        if not edge < top - 30.0:
            raise AssertionError(f"integrand at N = {n_val} is not negligible on the box's edges")
        log_e = logsumexp(sums) + math.log((u[1] - u[0]) * (v[1] - v[0]))
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
    (log params.a, log params.b) with N - M animals never caught; -inf below
    M. The Gamma priors given to the kernel do not enter its data factor.
    """
    m = stats.m_k1
    log_data = MhMarginalKernel(stats, GammaPriors(1.0, 1.0))._log_data
    return _on_support(n, m, lambda safe: (
        log_falling(safe, m) - gammaln(m + 1) + log_data(math.log(params.a), math.log(params.b), safe - m)
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


def pairwise_effective_sample_size(chain) -> float:
    """ESS by Geyer's initial positive sequence, one pair at a time.

    Autocovariances come from direct sums (``np.correlate``), not an FFT,
    and the pairs rho[m] + rho[m + 1], m = 1, 3, ..., are added to
    tau = 1 one by one until the first negative pair; ESS = n / max(tau, 1).
    """
    x = np.asarray(chain, dtype=float)
    n = x.size
    if n < 4:
        return float(n)
    x = x - x.mean()
    acov = np.correlate(x, x, mode="full")[n - 1 :] / n
    if acov[0] == 0.0:
        return float(n)
    rho = acov / acov[0]
    tau, m = 1.0, 1
    while m + 1 < n:
        pair = rho[m] + rho[m + 1]
        if pair < 0.0:
            break
        tau += 2.0 * pair
        m += 2
    return float(n / max(tau, 1.0))
