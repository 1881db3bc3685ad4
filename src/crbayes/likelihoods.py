"""Log-domain likelihood kernels for closed-population abundance models.

All functions work with log-gamma as the only special-function primitive so
that population sizes in the millions never overflow, and all of them accept
either a scalar N or an array of (possibly non-integer) N values. Support
violations met during grid scans (N below the number of observed animals)
come back as ``-inf`` rather than exceptions, so optimizers and tail fitters
can scan freely.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import betaln, gammaln, xlog1py, xlogy

from .data import SufficientStats


class NoFiniteMLEError(RuntimeError):
    """Raised when the profile likelihood has no finite maximizer."""


@dataclass(frozen=True)
class BetaParams:
    """Shapes of a Beta distribution on a detection probability.

    Serves both as the prior on the constant detection rate and as the
    population from which per-animal rates are drawn in the heterogeneous model.
    """

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise ValueError("Beta shapes must be positive")


def _as_grid(n):
    """Coerce N to a float array, remembering whether the input was scalar."""
    arr = np.asarray(n, dtype=float)
    return np.atleast_1d(arr), arr.ndim == 0


def _maybe_scalar(values: np.ndarray, scalar: bool):
    return float(values[0]) if scalar else values


def _on_support(n, lo, body):
    """Evaluate ``body`` on N >= lo and return -inf below it.

    N below ``lo`` is replaced by ``lo`` before ``body`` sees it, so the body
    never leaves its domain; those entries are then masked. Scalar in, float out.
    """
    grid, scalar = _as_grid(n)
    valid = grid >= lo
    safe = np.where(valid, grid, lo)
    return _maybe_scalar(np.where(valid, body(safe), -np.inf), scalar)


def log_falling(n, m):
    """log N!/(N-M)!, the ordered ways to pick the M observed animals out of N."""
    return gammaln(n + 1) - gammaln(n - m + 1)


def _check_p(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"detection probability must be in [0, 1], got {p}")


def kahn_log_prob(n_j: Sequence[int], n, p: float):
    """Log probability of per-occasion capture counts under iid Binomial(N, p).

    The counts on the K occasions are modelled as independent Binomial(N, p)
    draws, so the result is

        sum_j log C(N, n_j) + n. log p + (K N - n.) log(1 - p).

    N below max(n_j) is rejected: the count model is undefined there.
    """
    _check_p(p)
    counts = np.asarray(n_j, dtype=int)
    if counts.ndim != 1 or counts.size == 0 or (counts < 0).any():
        raise ValueError("n_j must be a non-empty vector of nonnegative counts")
    grid, scalar = _as_grid(n)
    if (grid < counts.max()).any():
        raise ValueError(f"N must be at least max(n_j) = {counts.max()}")
    k = counts.size
    n_dot = int(counts.sum())
    out = np.zeros_like(grid)
    for c in counts:
        out += log_falling(grid, c) - gammaln(c + 1)
    out += xlogy(n_dot, p) + xlog1py(k * grid - n_dot, -p)
    return _maybe_scalar(out, scalar)


def m0_log_prob(stats: SufficientStats, n, p: float):
    """Log probability of a full capture history under constant detection.

    Equals log[ N! / ((N - M)! M!) * p^n. * (1-p)^(K N - n.) ] where M animals
    were observed; N < M gives -inf by convention.
    """
    _check_p(p)
    m, k, n_dot = stats.m_k1, stats.k, stats.n_dot
    return _on_support(n, m, lambda safe: (
        log_falling(safe, m) - gammaln(m + 1) + xlogy(n_dot, p) + xlog1py(k * safe - n_dot, -p)
    ))


def m0_profile_log_lik(stats: SufficientStats, n):
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


def m0_profile_mle(stats: SufficientStats) -> tuple[int, float]:
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


def mh_log_obs_factor(f_j: Sequence[int], alpha, beta):
    """Log product of the observed animals' integrated-likelihood factors.

    An animal caught y of K times contributes
    (alpha)_y (beta)_(K-y) / (alpha+beta)_K with rising factorials
    (x)_n = x (x+1) ... (x+n-1), so the data enter only through the
    capture frequencies f_y:

        sum_y f_y [sum_{j<y} log(alpha+j) + sum_{j<K-y} log(beta+j)]
            - M sum_{j<K} log(alpha+beta+j)

    Both prefix sums are accumulated once, in K log calls each, and weighted
    by f_y. ``alpha`` and ``beta`` broadcast against each other.
    """
    freqs = [int(v) for v in f_j]
    k, m = len(freqs), sum(freqs)
    log_a = np.log(alpha)  # sum_{j<y} log(alpha+j) at y = 1
    out = freqs[0] * log_a
    for y in range(2, k + 1):
        log_a = log_a + np.log(alpha + (y - 1))
        out = out + freqs[y - 1] * log_a
    log_b = 0.0  # sum_{j<z} log(beta+j) at z = K - y = 0
    for z in range(1, k):
        log_b = log_b + np.log(beta + (z - 1))
        out = out + freqs[k - z - 1] * log_b
    total = alpha + beta
    for j in range(k):
        out = out - m * np.log(total + j)
    return out


def mh_log_zero_cell(alpha, beta, k: int):
    """log prod_{j<K} (beta+j)/(alpha+beta+j), the chance that a Beta-mixed animal is never caught.

    Summed term by term as -log1p(alpha/(beta+j)): the log-gamma form cancels
    terms far larger than the result, and the kernels multiply the rounding
    left over by N - M. ``alpha`` and ``beta`` broadcast against each other.
    """
    out = 0.0
    for j in range(k):
        out = out - np.log1p(alpha / (beta + j))
    return out


def mh_integrated_log_prob(stats: SufficientStats, n, params: BetaParams):
    """Log likelihood of a full history with Beta-distributed detection rates.

    Each animal's detection probability is integrated out against
    Beta(alpha, beta), which turns every per-animal factor into a ratio of
    rising factorials:

        N!/((N-M)! M!) * [prod_{j<K}(beta+j)/(alpha+beta+j)]^(N-M)
        * prod_i [prod_{j<y_i}(alpha+j) prod_{j<K-y_i}(beta+j)] / prod_{j<K}(alpha+beta+j)

    with the observed-animal product from :func:`mh_log_obs_factor` and the
    zero-cell factor from :func:`mh_log_zero_cell`. N < M gives -inf.
    """
    m = stats.m_k1
    log_zero_cell = float(mh_log_zero_cell(params.a, params.b, stats.k))
    log_obs = float(mh_log_obs_factor(stats.f_j, params.a, params.b))
    return _on_support(n, m, lambda safe: (
        log_falling(safe, m) - gammaln(m + 1) + (safe - m) * log_zero_cell + log_obs
    ))


def beta_binomial_log_pmf(j, k: int, params: BetaParams):
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


def mh_summary_log_prob(
    f_j: Sequence[int], m_k1: int, n, k: int, params: BetaParams
):
    """Log likelihood of the capture-frequency summary under Beta-mixed detection.

    Models the counts (N - M, f_1, ..., f_K) of animals caught 0, 1, ..., K
    times as a multinomial with beta-binomial cell probabilities; the zero
    cell, raised to the power N - M, comes from :func:`mh_log_zero_cell`. Up to
    a factor constant in N this matches :func:`mh_integrated_log_prob`.
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


def york_madigan_log_kernel(n_grid, n_obs: int, k: int, delta: float):
    """Log posterior kernel of a k-cell Dirichlet(delta) multinomial count model.

    log[ Gamma(N+1)/Gamma(N-n+1) * Gamma(N-n+delta)/Gamma(N+k*delta) ]
    with n observed cases; the prior on N is applied elsewhere. Decays like
    N^(-(k-1)*delta) for large N.
    """
    if k < 2:
        raise ValueError("need at least two cells")
    if not delta > 0:
        raise ValueError("delta must be positive")
    if n_obs < 0:
        raise ValueError("observed count must be nonnegative")
    return _on_support(n_grid, n_obs, lambda safe: (
        log_falling(safe, n_obs) + gammaln(safe - n_obs + delta) - gammaln(safe + k * delta)
    ))
