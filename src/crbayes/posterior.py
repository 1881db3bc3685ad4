"""Normalized discrete posteriors of population size on truncated supports.

For the constant-detection model the detection probability is integrated out
in closed form; for the heterogeneous model the two Beta-population shapes
get independent Gamma(shape, common scale) priors and are integrated out by
tensor-product Gaussian quadrature: Gauss-Hermite centred on the integrand's
mode in (log alpha, log beta) when the data make both log-scale left tails
steep, and generalized Gauss-Laguerre rules matched to the priors otherwise
(see MhMarginalKernel). Truncation is never hidden: every table carries a
power-law extrapolation of the mass beyond its upper endpoint and warns when
that extrapolation diverges.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.special import gammaln, logsumexp, roots_genlaguerre, roots_hermite, roots_jacobi

from .data import FloatColumn, SufficientStats, write_json, write_table_csv
from .likelihoods import (
    BetaParams, _as_grid, _maybe_scalar, _on_support, log_falling, mh_log_obs_factor, mh_log_zero_cell,
)


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
        if not (self.a > 0 and self.b > 0 and self.c > 0):
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


def _log_sum_exp(values: np.ndarray) -> float:
    """log(sum(exp(values))) over every entry, shifted by the largest one.

    Every entry -inf gives -inf; a NaN anywhere gives NaN.
    """
    top = values.max()
    if not np.isfinite(top):
        return float(top)
    return float(top + np.log(np.exp(values - top).sum()))


def _excess_sums(base: np.ndarray, log_zero_cell: np.ndarray, excess: np.ndarray) -> np.ndarray:
    """``_log_sum_exp(base + e * log_zero_cell)`` over fixed nodes, for each excess e = N - M."""
    out = np.empty(len(excess))
    for i, e in enumerate(excess):
        out[i] = _log_sum_exp(base + e * log_zero_cell)
    return out


@lru_cache(maxsize=32)
def _gauss_rule(roots_fn, n_nodes: int, *shape: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and log weights of the scipy rule ``roots_fn(n_nodes, *shape)``;
    zero weights give -inf. Callers share the cached arrays and must not write to them."""
    x, w = roots_fn(n_nodes, *shape)
    with np.errstate(divide="ignore"):
        return x, np.log(w)


# Below this excess N - M the smooth mixing-fraction rule is more accurate;
# above it the integrand concentrates near alpha = 0 and the decay-matched
# rule takes over (both are ~1e-7 accurate at the handoff with 64 nodes).
_BRANCH_THRESHOLD = 128

# scipy's generalized Gauss-Laguerre rule returns NaN from 364 nodes on
_MAX_NODES = 363

# The log integrand rises like (a + M) log alpha and (b + M - f_K) log beta
# as either shape goes to 0. The mode-centred Gauss-Hermite rule runs when
# both rates reach this value; below it the left tail is too heavy for a
# Gaussian fit and the prior-matched rules run.
_HERMITE_MIN_RATE = 2.0

# What a failed check says, after the rule and the change it saw
_CONVERGENCE_ADVICE = {
    "hermite": (
        "the mode-centred Gauss-Hermite rule has too few nodes for an integrand "
        "this far from Gaussian in (log alpha, log beta); raise nodes/check_nodes "
        "(e.g. 128/192) or relax rtol"
    ),
    "laguerre": (
        "the prior-matched Gauss-Laguerre rule ran because a + M or b + M - f_K "
        f"is below {_HERMITE_MIN_RATE:g}, and its nodes miss the integrand's peak "
        "as observed animals accumulate; raise nodes/check_nodes (e.g. 128/192) "
        "or relax rtol"
    ),
}

# Newton search for the mode in (log alpha, log beta): at most this many
# steps, each at most this long per coordinate, stopping once every step is
# shorter than the tolerance.
_MODE_MAX_ITER = 100
_MODE_MAX_STEP = 3.0
_MODE_TOL = 1e-8

# Consecutive grid points share one set of Hermite nodes while each point's
# own centre lies within this many standardized units of the block's centre
# (its first point), measured with that centre's Cholesky factor. Three units
# is safe: for a Gaussian integrand, a centre off by d units leaves the
# factor e^(sqrt(2) d x) on the Hermite weight, which 64 or 96 nodes
# integrate to rounding (2e-15 relative at d = 3), and the nodes/check_nodes
# comparison guards the non-Gaussian rest. A wider block means fewer node
# tables and fewer data-factor evaluations per grid.
_BLOCK_RADIUS = 3.0


class MhMarginalKernel:
    """Log marginal kernel of N for Beta-heterogeneous detection.

    Combines the combinatorial term with the expectation of the integrated
    likelihood's data factor over the Gamma priors on (alpha, beta). That
    factor is the observed-animal product (``_log_obs``) times the zero-cell
    factor (:func:`mh_log_zero_cell`) to the power N - M, and every rule below
    evaluates that one implementation. The 2-D expectation uses one of two
    tensor-product Gaussian rules, chosen from the data alone (``rule``):

    * ``"hermite"``: Gauss-Hermite in (u, v) = (log alpha, log beta),
      centred on the integrand's mode and scaled by the Cholesky factor of
      the inverse negative Hessian there (adaptive quadrature, Naylor &
      Smith 1982; Liu & Pierce 1994). The integrand behaves like a
      posterior over the two shapes and sharpens as animals accumulate, so
      the nodes follow it. The mode moves little from one N to the next,
      so consecutive N share one centre while each N's own mode lies within
      ``_BLOCK_RADIUS`` = 3 standardized units of it (``_hermite_blocks``);
      the nodes, prior, observed-animal and zero-cell terms are built once
      per block, and each N adds one fixed-node sum. Used when both
      log-scale left-tail rates a + M and b + (M - f_K) are at least
      ``_HERMITE_MIN_RATE``.
    * ``"laguerre"``: rules whose weights match the joint Gamma prior, for
      sparse data where the integrand is close to the prior. For moderate
      N - M these work in mixing coordinates xi = alpha + beta ~
      Gamma(a+b, c) and X = alpha/xi ~ Beta(a, b), where every likelihood
      factor is smooth (generalized Gauss-Laguerre times Gauss-Jacobi); for
      large N - M the zero-cell factor's exponential decay in alpha is
      absorbed into the Laguerre node scale, so the nodes track the
      O(1/N)-wide region that still contributes.

    Every evaluation is repeated at ``check_nodes`` per axis with the same
    rule (and the same Hermite centres); if any grid point moves by more
    than ``rtol`` in relative terms the evaluation fails with both value
    sets attached. ``diagnostics`` records the rule, the worst observed
    relative change and the number of Hermite centres (0 under Laguerre)
    of the most recent call. Neither node count may exceed 363.
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
        if not 0 < rtol < np.inf:
            raise ValueError(f"rtol must be finite and positive, got {rtol}")
        self.stats = stats
        self.gammas = gammas
        self.nodes = nodes
        self.check_nodes = check_nodes
        self.rtol = rtol
        self.diagnostics: dict = {
            "rule": self.rule,
            "nodes": nodes,
            "check_nodes": check_nodes,
            "max_rel_change": None,
            "centres": None,
        }

    @property
    def rule(self) -> str:
        """"hermite" when a + M and b + (M - f_K) both reach ``_HERMITE_MIN_RATE``, else "laguerre"."""
        m = self.stats.m_k1
        rates = (self.gammas.a + m, self.gammas.b + m - self.stats.f_j[-1])
        return "hermite" if min(rates) >= _HERMITE_MIN_RATE else "laguerre"

    def _log_expectation(self, grid: np.ndarray, n_nodes: int, blocks) -> np.ndarray:
        """Log prior expectation of the data factor at each N: the Hermite rule
        on ``blocks`` (from ``_hermite_blocks``), or the prior-matched rules
        when ``blocks`` is None."""
        if blocks is not None:
            return self._log_expectation_hermite(grid, n_nodes, blocks)
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

    def _log_data(self, alpha, beta, excess) -> np.ndarray:
        """Log data factor at (alpha, beta) with ``excess`` = N - M animals never caught."""
        return self._log_obs(alpha, beta) + excess * mh_log_zero_cell(alpha, beta, self.stats.k)

    def _log_expectation_mixing(self, grid: np.ndarray, n_nodes: int) -> np.ndarray:
        g, st = self.gammas, self.stats
        a, b, c = g.a, g.b, g.c
        m, k = st.m_k1, st.k
        t, logw = _gauss_rule(roots_genlaguerre, n_nodes, a + b - 1.0)
        xs, logv = _gauss_rule(roots_jacobi, n_nodes, b - 1.0, a - 1.0)
        xi = c * t[:, None]
        x = (1.0 + xs[None, :]) / 2.0  # Jacobi nodes on (-1, 1) moved to (0, 1)
        logv = logv - _log_sum_exp(logv)  # weights of the normalized Beta(a, b) measure
        alpha, beta = xi * x, xi * (1.0 - x)
        log_zero_cell = mh_log_zero_cell(alpha, beta, k)
        base = logw[:, None] - gammaln(a + b) + logv[None, :] + self._log_obs(alpha, beta)
        return _excess_sums(base, log_zero_cell, grid - m)

    def _log_expectation_rescaled(self, grid: np.ndarray, n_nodes: int) -> np.ndarray:
        g, st = self.gammas, self.stats
        a, b, c = g.a, g.b, g.c
        m, k = st.m_k1, st.k
        t, logw = _gauss_rule(roots_genlaguerre, n_nodes, a - 1.0)
        u, logv = _gauss_rule(roots_genlaguerre, n_nodes, a + b - 1.0)
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
            out[i] = _log_sum_exp(logint) - gammaln(a) - gammaln(b)
        return out

    def _hermite_centre(self, grid: np.ndarray):
        """Mode (u, v) of the log integrand at each N and the Cholesky factor
        (l11, l21, l22) of the inverse negative Hessian there.

        In (u, v) = (log alpha, log beta), with e = N - M, the log integrand is,
        up to constants,

            a u + b v - (alpha + beta)/c + sum_i w_i log(alpha + i)
            + sum_i (z_i + e) log(beta + i) - N sum_i log(alpha + beta + i)

        over i < K, where w_i animals were caught and z_i missed more than i
        times. Damped Newton runs on the whole grid at once: the gradient and
        Hessian are summed over i from (K, grid) arrays, with no Python loop
        over the cells. Where the Hessian is not negative definite it takes a
        gradient step instead, and a halving line search keeps every step
        uphill. The quadrature does not centre on each of these:
        ``_hermite_blocks`` groups nearby N under one of them.
        """
        g, st = self.gammas, self.stats
        a, b, c = g.a, g.b, g.c
        f, k, m = st.f_j, st.k, st.m_k1
        # one row per i < K: every sum over i below is a sum over axis 0
        i = np.arange(k, dtype=float)[:, None]
        caught = np.array([sum(f[j:]) for j in range(k)], dtype=float)[:, None]
        missed = np.array([sum(f[: k - 1 - j]) for j in range(k)], dtype=float)[:, None]
        excess = grid - m

        def objective(u, v):
            alpha, beta = np.exp(u), np.exp(v)
            return a * u + b * v - (alpha + beta) / c + self._log_data(alpha, beta, excess)

        def derivatives(u, v):
            alpha, beta = np.exp(u), np.exp(v)
            ai, bi, ci = alpha + i, beta + i, alpha + beta + i
            gu = a - alpha / c + (caught * alpha / ai - grid * alpha / ci).sum(axis=0)
            # the excess terms of d/dv cancel to e*alpha*beta/(bi*ci); summed that way
            gv = b - beta / c + (
                missed * beta / bi - m * beta / ci + excess * alpha * beta / (bi * ci)
            ).sum(axis=0)
            huu = -alpha / c + (caught * alpha * i / ai**2 - grid * alpha * bi / ci**2).sum(axis=0)
            hvv = -beta / c + ((missed + excess) * beta * i / bi**2 - grid * beta * ai / ci**2).sum(axis=0)
            huv = (grid * alpha * beta / ci**2).sum(axis=0)
            return gu, gv, huu, hvv, huv

        u = np.full_like(grid, np.log(a * c))
        v = np.full_like(grid, np.log(b * c))
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            for _ in range(_MODE_MAX_ITER):
                gu, gv, huu, hvv, huv = derivatives(u, v)
                det = huu * hvv - huv**2
                concave = (huu < 0) & (det > 0)
                gnorm = np.maximum(1.0, np.maximum(np.abs(gu), np.abs(gv)))
                du = np.where(concave, (huv * gv - hvv * gu) / det, gu / gnorm)
                dv = np.where(concave, (huv * gu - huu * gv) / det, gv / gnorm)
                shrink = _MODE_MAX_STEP / np.maximum(_MODE_MAX_STEP, np.maximum(np.abs(du), np.abs(dv)))
                du, dv = du * shrink, dv * shrink
                size = np.maximum(np.abs(du), np.abs(dv))
                todo = size >= _MODE_TOL
                if not todo.any():
                    break
                base = objective(u, v)
                step = np.ones_like(grid)
                while todo.any():
                    trial = objective(u + step * du, v + step * dv)
                    todo &= ~(trial >= base) & (step * size >= _MODE_TOL)
                    step = np.where(todo, step / 2.0, step)
                u, v = u + step * du, v + step * dv
            _, _, huu, hvv, huv = derivatives(u, v)
            det = huu * hvv - huv**2
            # lower Cholesky factor of (-H)^-1 in closed form
            l11 = np.sqrt(-hvv / det)
            l21 = huv / np.sqrt(-hvv * det)
            l22 = 1.0 / np.sqrt(-hvv)
        return u, v, l11, l21, l22

    def _hermite_blocks(self, grid: np.ndarray) -> list:
        """Consecutive runs of grid points that share one Hermite centre.

        Returns ``(block, centre)`` pairs, ``block`` a slice of the grid and
        ``centre`` the (u, v, l11, l21, l22) of ``_hermite_centre`` at its
        first point. A point joins the open block when its own mode lies
        within ``_BLOCK_RADIUS`` = 3 of the block's, in the units
        z = L^-1 (du, dv) of the block's Cholesky factor L. A point whose
        centre is not finite,
        or whose factor has a non-positive diagonal, opens a block of its own
        and lends its nodes to no other point, so its NaN stays its own.
        """
        centre = np.stack(self._hermite_centre(grid))
        usable = (np.isfinite(centre).all(axis=0) & (centre[2] > 0) & (centre[4] > 0)).tolist()
        u, v, l11, l21, l22 = centre.tolist()
        starts: list[int] = []
        for i in range(grid.size):
            dist = math.nan
            if starts and usable[i] and usable[starts[-1]]:
                j = starts[-1]
                z1 = (u[i] - u[j]) / l11[j]
                z2 = (v[i] - v[j] - l21[j] * z1) / l22[j]
                dist = math.hypot(z1, z2)
            if not dist <= _BLOCK_RADIUS:  # NaN opens a block too
                starts.append(i)
        stops = starts[1:] + [grid.size]
        return [(slice(i, stop), tuple(centre[:, i])) for i, stop in zip(starts, stops)]

    def _log_expectation_hermite(self, grid: np.ndarray, n_nodes: int, blocks) -> np.ndarray:
        g, st = self.gammas, self.stats
        a, b, c = g.a, g.b, g.c
        m = st.m_k1
        x, logw = _gauss_rule(roots_hermite, n_nodes)
        logw = logw + x * x  # e^(x^2) folded into the weights: the integrand has no e^(-x^2)
        root2 = np.sqrt(2.0)
        out = np.empty_like(grid)
        for block, (u0, v0, l11, l21, l22) in blocks:
            # (u, v) = centre + sqrt(2) L (x_r, x_s) with L lower-triangular: u and
            # the first part of v depend on the row node only
            u = u0 + root2 * l11 * x
            v_row = v0 + root2 * l21 * x
            v_col = root2 * l22 * x
            alpha = np.exp(u)[:, None]
            beta = np.exp(v_row)[:, None] * np.exp(v_col)[None, :]
            base = (
                (logw + a * u + b * v_row - alpha[:, 0] / c)[:, None]
                + (logw + b * v_col)[None, :]
                - beta / c
                + self._log_obs(alpha, beta)
            )
            log_zero_cell = mh_log_zero_cell(alpha, beta, st.k)
            out[block] = _excess_sums(base, log_zero_cell, grid[block] - m) + np.log(2.0 * l11 * l22)
        return out - (a + b) * np.log(c) - gammaln(a) - gammaln(b)

    def log_kernel(self, n):
        """Log kernel values; raises QuadratureConvergenceError if unsettled."""
        m = self.stats.m_k1
        grid, scalar = _as_grid(n)

        def both_rules(safe):
            # the Hermite blocks are found once and shared by both node counts
            blocks = self._hermite_blocks(safe) if self.rule == "hermite" else None
            self.diagnostics["centres"] = len(blocks) if blocks is not None else 0
            log_e = [self._log_expectation(safe, n_nodes, blocks) for n_nodes in (self.nodes, self.check_nodes)]
            return log_falling(safe, m) - gammaln(m + 1) + np.stack(log_e)

        log_coarse, log_fine = _on_support(grid, m, both_rules)
        # both -inf below M is no change; NaN fails
        below_m = (log_coarse == -np.inf) & (log_fine == -np.inf)
        with np.errstate(invalid="ignore"):
            rel = np.where(below_m, 0.0, np.abs(np.expm1(log_coarse - log_fine)))
        worst = float(rel.max()) if rel.size else 0.0
        self.diagnostics["max_rel_change"] = worst
        if not worst <= self.rtol:
            nodes = f"{self.nodes}^2 and {self.check_nodes}^2 nodes"
            if np.isnan(worst):
                first_nan = grid[np.flatnonzero(np.isnan(rel))[0]]
                what = f"returned NaN at {nodes} (first at N = {first_nan:.15g})"
            else:
                what = f"changed by {worst:.3e} (> rtol {self.rtol:.1e}) between {nodes}"
            raise QuadratureConvergenceError(
                f"{self.rule} quadrature {what}; " + _CONVERGENCE_ADVICE[self.rule],
                log_coarse=_maybe_scalar(log_coarse, scalar),
                log_fine=_maybe_scalar(log_fine, scalar),
                max_rel_change=worst,
            )
        return _maybe_scalar(log_fine, scalar)


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

    def write_json(self, path: str | Path, extra: dict | None = None) -> None:
        payload = {
            "support": [self.n_min, self.n_max],
            "mass": FloatColumn(self.mass),
            "mean": self.mean,
            "sd": self.sd,
            "ci": list(self.ci),
            "level": self.level,
            "tail_exponent": self.tail_exponent,
            "tail_mass_estimate": self.tail_mass_estimate,
            "warnings": list(self.warnings),
        }
        write_json(path, {**payload, **(extra or {})})

    def write_csv(self, path: str | Path) -> None:
        write_table_csv(path, ("N", "mass", "log_kernel"), self.n_min, (self.mass, self.log_kernel))


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
