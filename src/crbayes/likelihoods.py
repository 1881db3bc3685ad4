"""Log-domain likelihood kernels for closed-population abundance models.

The kernels are sums of log-gamma terms, so that population sizes in the
millions never overflow; the mh factors add ``log`` and ``log1p`` terms, and
Kahn's count likelihood ``xlogy`` and ``xlog1py``. All of them accept either
a scalar N or an array of (possibly non-integer) N values. Support
violations met during grid scans (N below the number of observed animals)
come back as ``-inf`` rather than exceptions, so optimizers and tail fitters
can scan freely.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import gammaln, xlog1py, xlogy


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
    never leaves its domain; those entries are then masked. When every N is
    on the support (always so for a posterior table) ``body`` gets the grid
    itself and its result comes back unmasked, so a body must never write
    into its argument. Scalar in, float out.
    """
    grid, scalar = _as_grid(n)
    valid = grid >= lo
    if valid.all():
        return _maybe_scalar(body(grid), scalar)
    safe = np.where(valid, grid, lo)
    return _maybe_scalar(np.where(valid, body(safe), -np.inf), scalar)


def _gammaln_over(x):
    """gammaln(x), written over ``x`` when it is a float array: ``x`` must be
    a temporary of the caller's. Scalars, which cannot be written, and other
    dtypes get a new result."""
    if isinstance(x, np.ndarray) and x.dtype == np.float64:
        return gammaln(x, out=x)
    return gammaln(x)


def log_falling(n, m):
    """log N!/(N-M)!, the ordered ways to pick the M observed animals out of N."""
    out = _gammaln_over(n + 1)
    out -= _gammaln_over(n - m + 1)
    return out


def _check_p(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"detection probability must be in [0, 1], got {p}")


def kahn_log_prob(n_j: Sequence[int], n, p: float):
    """Log probability of per-occasion capture counts under iid Binomial(N, p).

    The counts on the K occasions are modelled as independent Binomial(N, p)
    draws, so the result is

        sum_j log C(N, n_j) + n. log p + (K N - n.) log(1 - p).

    N below max(n_j), where the count model is undefined, gives ``-inf``.
    """
    _check_p(p)
    counts = np.asarray(n_j, dtype=int)
    if counts.ndim != 1 or counts.size == 0 or (counts < 0).any():
        raise ValueError("n_j must be a non-empty vector of nonnegative counts")
    k, n_dot = counts.size, int(counts.sum())

    def body(safe):
        out = np.zeros_like(safe)
        for c in counts:
            out += log_falling(safe, c) - gammaln(c + 1)
        out += xlogy(n_dot, p) + xlog1py(k * safe - n_dot, -p)
        return out

    return _on_support(n, counts.max(), body)


def _mh_log_factors(f_j: Sequence[int], alpha, beta, log_alpha, log_beta, log_total):
    """(log observed-animal factor, log zero-cell factor) of the Beta-heterogeneous likelihood.

    An animal caught y of K times contributes
    (alpha)_y (beta)_(K-y) / (alpha+beta)_K with rising factorials
    (x)_n = x (x+1) ... (x+n-1), so the observed animals enter only through
    the capture frequencies f_y:

        sum_{j<K} [c_j log(alpha+j) + z_j log(beta+j)] - M sum_{j<K} log(alpha+beta+j)

    with c_j = sum_{y>j} f_y animals caught and z_j = sum_{y<K-j} f_y
    missed more than j times. An animal never caught contributes the zero
    cell, prod_{j<K} (beta+j)/(alpha+beta+j) = exp(-sum_j t_j) with t_j =
    log1p(alpha/(beta+j)): summed term by term, since the log-gamma form
    cancels terms far larger than the result and the kernels multiply the
    rounding left over by N - M.

    Each cell j forms beta + j and t_j once, and both factors share them:
    for j >= 1, log(beta+j) = log(alpha+beta+j) - t_j. The j = 0 logs come
    in as ``log_alpha``, ``log_beta`` and ``log_total`` = log(alpha + beta),
    which the callers already hold; log(alpha+beta+j) for j >= 1 is taken
    from e^log_total, one log per entry of ``log_total`` and term. So
    ``log_total`` may have fewer entries than ``alpha``: a row of nodes that
    shares alpha + beta costs K - 1 logs, not K - 1 per node, and a node
    costs K ``log1p`` calls and one log per nonzero c_j, j >= 1. A term
    whose count is 0 is skipped, z_0 log beta included, so ``log_beta`` may
    be infinite when K = 1 or every animal was caught on all K occasions.
    All arguments broadcast against each other; both results have their
    broadcast shape.
    """
    freqs = [int(v) for v in f_j]
    k, m = len(freqs), sum(freqs)
    shape = np.broadcast_shapes(*map(np.shape, (alpha, beta, log_alpha, log_beta, log_total)))
    log_obs, log_zero, work = np.empty(shape), np.empty(shape), np.empty(shape)
    np.multiply(log_alpha, m, out=log_obs)  # c_0 = M
    missed = sum(freqs[: k - 1])
    if missed:
        log_obs += missed * log_beta
    np.divide(alpha, beta, out=log_zero)
    np.log1p(log_zero, out=log_zero)
    np.negative(log_zero, out=log_zero)
    # the per-row terms: -M log(alpha + beta + j), plus z_j of them for j >= 1
    total, row = np.exp(log_total), -m * log_total
    for j in range(1, k):
        caught, missed = sum(freqs[j:]), sum(freqs[: k - 1 - j])
        np.add(beta, j, out=work)
        np.divide(alpha, work, out=work)
        np.log1p(work, out=work)  # t_j
        log_zero -= work
        row = row + (missed - m) * np.log(total + j)
        if missed:
            work *= missed
            log_obs -= work
        if caught:
            np.add(alpha, j, out=work)
            np.log(work, out=work)
            work *= caught
            log_obs += work
    log_obs += row
    return log_obs, log_zero


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

    def body(safe):
        out = log_falling(safe, n_obs)
        out += _gammaln_over(safe - n_obs + delta)
        out -= _gammaln_over(safe + k * delta)
        return out

    return _on_support(n_grid, n_obs, body)
