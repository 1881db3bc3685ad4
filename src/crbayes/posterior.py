"""Normalized discrete posteriors of population size on truncated supports.

For the constant-detection model the detection probability is integrated out
in closed form; for the heterogeneous model the two Beta-population shapes
get independent Gamma(shape, common scale) priors and are integrated out by
tensor-product generalized Gauss-Laguerre quadrature. Truncation is never
hidden: every table carries a power-law extrapolation of the mass beyond its
upper endpoint and warns when that extrapolation diverges.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.special import gammaln, logsumexp, roots_genlaguerre, roots_jacobi

from .data import SufficientStats, write_csv, write_json
from .likelihoods import BetaParams, _as_grid, _maybe_scalar, _on_support, log_falling, mh_log_obs_factor


class QuadratureConvergenceError(RuntimeError):
    """Quadrature did not settle between the working and the check node counts."""

    def __init__(self, message: str, log_coarse, log_fine, max_rel_change: float):
        super().__init__(message)
        self.log_coarse = log_coarse
        self.log_fine = log_fine
        self.max_rel_change = max_rel_change


@dataclass(frozen=True)
class GammaPriors:
    """Independent Gamma(a, scale c) and Gamma(b, scale c) priors on the two shapes."""

    a: float
    b: float
    c: float = 1.0

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0 or self.c <= 0:
            raise ValueError("Gamma shapes and scale must be positive")


def m0_marginal_log_kernel(n, stats: SufficientStats, beta: BetaParams):
    """Log marginal kernel of N for constant detection with a Beta(a, b) prior.

    The detection probability integrates out to

        N!/(N - M)! * Gamma(K N - n. + b) / Gamma(K N + a + b)

    up to factors constant in N; the prior on N is applied elsewhere. Decays
    like N^-(r + a) with r = n. - M recaptures.
    """
    m, k, n_dot = stats.m_k1, stats.k, stats.n_dot
    return _on_support(n, m, lambda safe: (
        log_falling(safe, m)
        + gammaln(k * safe - n_dot + beta.b)
        - gammaln(k * safe + beta.a + beta.b)
    ))


def log_beta_expectation(n, m_k1: int, a: float, b: float):
    """log E[(1-X)^(N-M) X^M] for X ~ Beta(a, b), in closed form."""
    if a <= 0 or b <= 0:
        raise ValueError("Beta shapes must be positive")
    grid, scalar = _as_grid(n)
    if (grid < m_k1).any():
        raise ValueError("need N >= m_k1")
    out = (
        gammaln(a + b)
        - gammaln(a)
        - gammaln(b)
        + gammaln(m_k1 + a)
        + gammaln(grid - m_k1 + b)
        - gammaln(grid + a + b)
    )
    return _maybe_scalar(out, scalar)


@lru_cache(maxsize=32)
def _laguerre_table(n_nodes: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and log weights for weight t^alpha e^-t; zero weights are masked out."""
    t, w = roots_genlaguerre(n_nodes, alpha)
    with np.errstate(divide="ignore"):
        logw = np.log(w)
    return t, logw


@lru_cache(maxsize=32)
def _jacobi_table(n_nodes: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes on (0, 1) and log weights of the normalized Beta(a, b) measure."""
    x, w = roots_jacobi(n_nodes, b - 1.0, a - 1.0)
    nodes = (1.0 + x) / 2.0
    with np.errstate(divide="ignore"):
        logw = np.log(w)
    return nodes, logw - logsumexp(logw)


# Below this excess N - M the smooth mixing-fraction rule is more accurate;
# above it the integrand concentrates near alpha = 0 and the decay-matched
# rule takes over (both are ~1e-7 accurate at the handoff with 64 nodes).
_BRANCH_THRESHOLD = 128

# scipy's generalized Gauss-Laguerre rule returns NaN from 364 nodes on
_MAX_NODES = 363


class MhMarginalKernel:
    """Log marginal kernel of N for Beta-heterogeneous detection.

    Combines the combinatorial term with the expectation of the integrated
    likelihood's data factor over the Gamma priors on (alpha, beta). The
    2-D expectation uses tensor-product Gaussian rules whose weights match
    the joint gamma prior:

    * for moderate N - M, in mixing coordinates xi = alpha + beta ~
      Gamma(a+b, c) and X = alpha/xi ~ Beta(a, b), where every likelihood
      factor is smooth (generalized Gauss-Laguerre times Gauss-Jacobi);
    * for large N - M, with the zero-cell factor's exponential decay in
      alpha absorbed into the Laguerre node scale, so the nodes track the
      O(1/N)-wide region that still contributes.

    Every evaluation is repeated at ``check_nodes`` per axis; if any grid
    point moves by more than ``rtol`` in relative terms the evaluation fails
    with both value sets attached. ``diagnostics`` keeps the worst observed
    relative change of the most recent call. Neither node count may exceed 363.
    """

    def __init__(
        self,
        stats: SufficientStats,
        gammas: GammaPriors,
        nodes: int = 64,
        check_nodes: int = 96,
        rtol: float = 1e-4,
    ):
        if not check_nodes > nodes >= 2:
            raise ValueError("need check_nodes > nodes >= 2")
        if check_nodes > _MAX_NODES:
            raise ValueError(f"at most {_MAX_NODES} quadrature nodes per axis, got {check_nodes}")
        self.stats = stats
        self.gammas = gammas
        self.nodes = nodes
        self.check_nodes = check_nodes
        self.rtol = rtol
        self.diagnostics: dict = {
            "nodes": nodes,
            "check_nodes": check_nodes,
            "max_rel_change": None,
        }

    def _log_expectation(self, grid: np.ndarray, n_nodes: int) -> np.ndarray:
        out = np.empty_like(grid)
        small = grid - self.stats.m_k1 <= _BRANCH_THRESHOLD
        if small.any():
            out[small] = self._log_expectation_mixing(grid[small], n_nodes)
        if (~small).any():
            out[~small] = self._log_expectation_rescaled(grid[~small], n_nodes)
        return out

    def _log_obs(self, alpha, beta) -> np.ndarray:
        """Log product of the per-animal rising-factorial factors."""
        return mh_log_obs_factor(self.stats.f_j, alpha, beta)

    def _log_expectation_mixing(self, grid: np.ndarray, n_nodes: int) -> np.ndarray:
        g, st = self.gammas, self.stats
        a, b, c = g.a, g.b, g.c
        m, k = st.m_k1, st.k
        t, logw = _laguerre_table(n_nodes, a + b - 1.0)
        xs, logv = _jacobi_table(n_nodes, a, b)
        xi = c * t[:, None]
        x = xs[None, :]
        beta = xi * (1.0 - x)
        log_zero_cell = np.log1p(-x) + np.zeros_like(xi)
        for j in range(1, k):
            log_zero_cell += np.log(beta + j) - np.log(xi + j)
        base = logw[:, None] - gammaln(a + b) + logv[None, :] + self._log_obs_mixing(xi, x)
        out = np.empty_like(grid)
        for i, n_val in enumerate(grid):
            out[i] = logsumexp(base + (n_val - m) * log_zero_cell)
        return out

    def _log_obs_mixing(self, xi, x) -> np.ndarray:
        """Observed-animal factors written so the alpha/(alpha+beta) parts stay smooth."""
        return mh_log_obs_factor(self.stats.f_j, xi * x, xi * (1.0 - x), log_x=np.log(x))

    def _log_expectation_rescaled(self, grid: np.ndarray, n_nodes: int) -> np.ndarray:
        g, st = self.gammas, self.stats
        a, b, c = g.a, g.b, g.c
        m, k = st.m_k1, st.k
        t, logw = _laguerre_table(n_nodes, a - 1.0)
        u, logv = _laguerre_table(n_nodes, a + b - 1.0)
        beta = c * u[None, :]
        s_rate = sum(1.0 / (beta + j) for j in range(k))  # d(-log zero cell)/d alpha at 0
        out = np.empty_like(grid)
        for i, n_val in enumerate(grid):
            excess = n_val - m
            lam = 1.0 / c + excess * s_rate
            alpha = t[:, None] / lam
            # curvature left over after absorbing e^(-excess * S * alpha) into the weight
            rho = np.zeros_like(alpha)
            for j in range(k):
                z = alpha / (beta + j)
                rho += z - np.log1p(z)
            logint = (
                logw[:, None]
                + logv[None, :]
                - a * np.log(beta * lam)
                + excess * rho
                + self._log_obs(alpha, beta)
            )
            out[i] = logsumexp(logint) - gammaln(a) - gammaln(b)
        return out

    def log_kernel(self, n):
        """Log kernel values; raises QuadratureConvergenceError if unsettled."""
        m = self.stats.m_k1
        log_e = _on_support(n, m, lambda safe: self._log_expectation(safe, self.nodes))
        log_e_fine = _on_support(n, m, lambda safe: self._log_expectation(safe, self.check_nodes))
        # only the quadrature is compared; both -inf below M is no change; NaN fails
        below_m = (log_e == -np.inf) & (log_e_fine == -np.inf)
        with np.errstate(invalid="ignore"):
            rel = np.where(below_m, 0.0, np.abs(np.expm1(log_e - log_e_fine)))
        worst = float(rel.max()) if rel.size else 0.0
        self.diagnostics["max_rel_change"] = worst
        comb = _on_support(n, m, lambda safe: log_falling(safe, m) - gammaln(m + 1))
        if not worst <= self.rtol:
            raise QuadratureConvergenceError(
                f"quadrature changed by {worst:.3e} (> rtol {self.rtol:.1e}) "
                f"between {self.nodes}^2 and {self.check_nodes}^2 nodes; the "
                "integrand sharpens as observed animals accumulate, so raise "
                "nodes/check_nodes (e.g. 128/192) or relax rtol",
                log_coarse=comb + log_e,
                log_fine=comb + log_e_fine,
                max_rel_change=worst,
            )
        return comb + log_e_fine


@dataclass
class PosteriorTable:
    """Normalized posterior of N on the integer support [n_min, n_max].

    ``tail_mass_estimate`` extrapolates the unnormalized mass beyond n_max by
    a power law fitted to the last decade of support; it is infinite when the
    fitted decay is too shallow to sum, in which case a warning explains that
    the normalization is unreliable.
    """

    n_min: int
    n_max: int
    log_kernel: np.ndarray
    mass: np.ndarray
    mean: float
    sd: float
    ci: tuple[float, float]
    level: float
    tail_exponent: float
    tail_mass_estimate: float
    warnings: tuple[str, ...] = field(default_factory=tuple)

    @property
    def support(self) -> np.ndarray:
        return np.arange(self.n_min, self.n_max + 1)

    def to_dict(self) -> dict:
        return {
            "support": [self.n_min, self.n_max],
            "mass": self.mass.tolist(),
            "mean": self.mean,
            "sd": self.sd,
            "ci": list(self.ci),
            "level": self.level,
            "tail_exponent": self.tail_exponent,
            "tail_mass_estimate": self.tail_mass_estimate,
            "warnings": list(self.warnings),
        }

    def write_json(self, path: str | Path, extra: dict | None = None) -> None:
        write_json(path, {**self.to_dict(), **(extra or {})})

    def write_csv(self, path: str | Path) -> None:
        rows = zip(self.support.tolist(), self.mass.tolist(), self.log_kernel.tolist())
        write_csv(path, chain([("N", "mass", "log_kernel")], rows))


def fit_log_log_slope(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line log y = intercept + slope * log x; returns
    (slope, intercept, slope standard error)."""
    lx, ly = np.log(x), np.asarray(y, dtype=float)
    n_pts = lx.size
    lxc = lx - lx.mean()
    sxx = float(lxc @ lxc)
    slope = float(lxc @ ly) / sxx
    intercept = float(ly.mean() - slope * lx.mean())
    resid = ly - (intercept + slope * lx)
    dof = max(n_pts - 2, 1)
    stderr = float(np.sqrt((resid @ resid) / dof / sxx))
    return slope, intercept, stderr


def _check_n_prior(n_prior: str) -> None:
    if n_prior not in ("uniform", "scale"):
        raise ValueError(f"unknown prior on N: {n_prior!r}")


def _log_n_prior(n, n_prior: str):
    """Log prior on N up to a constant: 0 for the flat prior, -log N for the 1/N scale prior."""
    return -np.log(n) if n_prior == "scale" else 0.0


def posterior_table(
    log_kernel: Callable[[np.ndarray], np.ndarray],
    n_prior: str,
    stats: SufficientStats | None = None,
    n_min: int | None = None,
    n_max: int = 10_000,
    level: float = 0.95,
    improper_margin: float = 0.05,
) -> PosteriorTable:
    """Normalize prior(N) * kernel(N) over the truncated integer support.

    The support starts at the number of observed animals (``stats.m_k1`` or an
    explicit ``n_min``); the scale prior shifts the start to at least 1. The
    tail beyond ``n_max`` is estimated by fitting c * N^-d to the last decade
    of the prior-times-kernel product and summing the fit analytically; for
    d within ``improper_margin`` of 1 (or below) the table is flagged as
    likely improper instead of silently reporting a normalized answer.
    """
    _check_n_prior(n_prior)
    if (stats is None) == (n_min is None):
        raise ValueError("pass exactly one of stats or n_min")
    lo = stats.m_k1 if stats is not None else int(n_min)
    if n_prior == "scale":
        lo = max(lo, 1)  # 1/N is undefined at zero
    if n_max < lo:
        raise ValueError(f"n_max = {n_max} is below the support start {lo}")
    if not 0 < level < 1:
        raise ValueError("credible level must be in (0, 1)")

    support = np.arange(lo, n_max + 1)
    logk = np.asarray(log_kernel(support.astype(float)), dtype=float)
    if np.isnan(logk).any():
        raise ValueError("kernel returned NaN on the support")
    log_total = logk + _log_n_prior(support, n_prior)
    if not np.isfinite(log_total).any():
        raise ValueError("kernel is zero everywhere on the support")

    log_z = float(logsumexp(log_total))
    mass = np.exp(log_total - log_z)

    mean = float(mass @ support)
    var = float(mass @ (support - mean) ** 2)
    sd = float(np.sqrt(max(var, 0.0)))
    cdf = np.cumsum(mass)
    lo_q, hi_q = (1.0 - level) / 2.0, 1.0 - (1.0 - level) / 2.0
    ci = (
        float(support[int(np.searchsorted(cdf, lo_q))]),
        float(support[min(int(np.searchsorted(cdf, hi_q)), support.size - 1)]),
    )

    warnings: list[str] = []
    tail_exponent = np.nan
    tail_mass = np.nan
    in_decade = (support >= n_max / 10.0) & np.isfinite(log_total)
    if in_decade.sum() >= 3:
        slope, intercept, _ = fit_log_log_slope(support[in_decade], log_total[in_decade])
        tail_exponent = -slope
        if tail_exponent > 1.0:
            # integral of c x^-d beyond n_max, then converted to a probability
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
        n_min=int(lo),
        n_max=int(n_max),
        log_kernel=logk,
        mass=mass,
        mean=mean,
        sd=sd,
        ci=ci,
        level=level,
        tail_exponent=float(tail_exponent),
        tail_mass_estimate=float(tail_mass),
        warnings=tuple(warnings),
    )
