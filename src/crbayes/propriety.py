"""Posterior-propriety verdicts and their empirical verification.

The analytic side evaluates the tail-decay conditions of the three models:
the constant-detection marginal kernel decays like N^-(r + a) (r recaptures,
a the Beta shape on the detection rate), the heterogeneous kernel is bounded
by O(N^-a) (a the Gamma shape on the first Beta parameter), and the
Dirichlet-multinomial kernel decays like N^-((k-1) delta). A posterior is
proper exactly when prior times kernel decays faster than 1/N, so the flat
prior needs exponent > 1 and the 1/N scale prior shifts every exponent up by
one. The empirical side fits the tail exponent of prior * kernel on a
geometric grid and checks it against the analytic value.
"""

from dataclasses import asdict, dataclass
from itertools import chain
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.special import gammaln

from .data import SufficientStats, write_csv, write_json
from .likelihoods import BetaParams, york_madigan_log_kernel
from .posterior import (
    GammaPriors,
    MhMarginalKernel,
    _check_n_prior,
    _log_n_prior,
    fit_log_log_slope,
    m0_marginal_log_kernel,
)

PROPER = "proper"
IMPROPER = "improper"
NOT_GUARANTEED = "not_guaranteed"


class TailFitError(RuntimeError):
    """Raised when the kernel is not finite on the requested fit grid."""


def m0_propriety_condition(
    stats: SufficientStats, a: float, n_prior: str
) -> tuple[float, str]:
    """Exponent d = n. - M + a and the exact verdict for constant detection.

    Proper iff d > 1 under the flat prior on N and iff d > 0 under the scale
    prior; equality sits on the boundary and the sum still diverges, so it is
    reported improper.
    """
    if not a > 0:
        raise ValueError("Beta shape a must be positive")
    _check_n_prior(n_prior)
    d = stats.n_dot - stats.m_k1 + a
    cutoff = 1.0 if n_prior == "uniform" else 0.0
    return d, (PROPER if d > cutoff else IMPROPER)


def mh_propriety_condition(a: float, n_prior: str) -> str:
    """Sufficient-condition verdict for heterogeneous detection.

    The kernel bound O(N^-a) guarantees propriety for a > 1 under the flat
    prior and for any a > 0 under the scale prior. The bound is one-sided,
    so failing it yields "not_guaranteed" rather than "improper".
    """
    if not a > 0:
        raise ValueError("Gamma shape a must be positive")
    _check_n_prior(n_prior)
    if n_prior == "scale":
        return PROPER
    return PROPER if a > 1.0 else NOT_GUARANTEED


def ym_propriety_condition(k: int, delta: float, n_prior: str) -> str:
    """Exact verdict for the Dirichlet-multinomial kernel.

    Proper iff delta > 1/(k-1) under the flat prior; proper for any delta > 0
    under the scale prior. Equality is improper.
    """
    if k < 2:
        raise ValueError("need at least two cells")
    if not delta > 0:
        raise ValueError("delta must be positive")
    _check_n_prior(n_prior)
    if n_prior == "scale":
        return PROPER
    return PROPER if delta > 1.0 / (k - 1) else IMPROPER


def local_exponent(log_kernel: Callable[[np.ndarray], np.ndarray], n: float) -> float:
    """Two-point decay probe d(N) = -[log f(2N) - log f(N)] / log 2.

    Exact for pure power laws; used to cross-check the regression fit.
    """
    vals = np.asarray(log_kernel(np.array([float(n), 2.0 * float(n)])), dtype=float)
    if not np.isfinite(vals).all():
        raise TailFitError(f"kernel not finite at N = {n} and 2N")
    return float(-(vals[1] - vals[0]) / np.log(2.0))


def fit_tail_exponent(
    log_kernel: Callable[[np.ndarray], np.ndarray],
    n_lo: float,
    n_hi: float,
    points: int = 50,
) -> tuple[float, float]:
    """Least-squares tail exponent of a kernel on a geometric grid.

    Fits log kernel against log N over ``points`` geometrically spaced values
    in [n_lo, n_hi] and returns (d_hat, standard error) with d_hat the negated
    slope. Deterministic; requires n_hi >= 4 * n_lo and at least 10 points.
    """
    if n_hi < 4.0 * n_lo:
        raise ValueError("fit range too short: need n_hi >= 4 * n_lo")
    if points < 10:
        raise ValueError("need at least 10 grid points")
    grid = np.geomspace(n_lo, n_hi, points)
    vals = np.asarray(log_kernel(grid), dtype=float)
    if not np.isfinite(vals).all():
        raise TailFitError("kernel not finite everywhere on the fit grid")
    slope, _, stderr = fit_log_log_slope(grid, vals)
    return -slope, stderr


def gamma_ratio_asymptotic_check(x: float, a: float, b: float) -> float:
    """Deviation of x^a * Gamma(x+b) / Gamma(x+a+b) from 1.

    By the gamma recurrence and Stirling's expansion the ratio tends to 1 as
    x grows; the returned |ratio - 1| quantifies how far into the asymptotic
    regime x is. For a = 0 the ratio is identically 1.
    """
    if not x > 0:
        raise ValueError("x must be positive")
    if not (a >= 0 and b >= 0):
        raise ValueError("a and b must be nonnegative")
    if a == 0:
        return 0.0
    log_ratio = a * np.log(x) + gammaln(x + b) - gammaln(x + a + b)
    return float(abs(np.expm1(log_ratio)))


@dataclass(frozen=True)
class FitConfig:
    """Grid and tolerance settings for empirical tail fits.

    Bounds default to [1e3, 1e6] times the observed-animal count so the grid
    sits in the asymptotic regime whatever the data scale.
    """

    n_lo: float | None = None
    n_hi: float | None = None
    points: int = 50
    tolerance: float = 0.05

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError(f"fit tolerance must be positive, got {self.tolerance}")

    def resolve(self, scale: int) -> tuple[float, float]:
        base = max(1, scale)
        lo = self.n_lo if self.n_lo is not None else 1e3 * base
        hi = self.n_hi if self.n_hi is not None else 1e6 * base
        return float(lo), float(hi)


@dataclass
class ProprietyReport:
    """Analytic tail exponent and verdict next to the fitted exponent.

    ``analytic_exponent`` describes the bare kernel; ``analytic_total_exponent``
    adds 1 under the scale prior and is what ``fitted_exponent`` (which is fit
    on prior times kernel) is compared against. For the heterogeneous model the
    analytic value is only a lower bound on the decay, so agreement there means
    the fit did not fall below the bound.
    """

    model: str
    n_prior: str
    analytic_exponent: float
    analytic_total_exponent: float
    predicted: str
    fitted_exponent: float
    fitted_std_err: float
    local_exponent: float
    fit_range: tuple[float, float]
    fit_points: int
    tolerance: float
    agreement: bool
    warnings: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return asdict(self)

    def write_json(self, path: str | Path) -> None:
        write_json(path, self.to_dict())


def write_exponent_csv(
    log_kernel: Callable[[np.ndarray], np.ndarray],
    n_lo: float,
    n_hi: float,
    points: int,
    path: str | Path,
) -> None:
    """Dump (N, log kernel, local exponent) over the fit grid for plotting."""
    grid = np.geomspace(n_lo, n_hi, points)
    vals = np.asarray(log_kernel(grid), dtype=float)
    vals2 = np.asarray(log_kernel(2.0 * grid), dtype=float)
    local = -(vals2 - vals) / np.log(2.0)
    rows = zip(grid.tolist(), vals.tolist(), local.tolist())
    write_csv(path, chain([("N", "log_kernel", "local_exponent")], rows))


def propriety_report(
    model: str,
    n_prior: str,
    stats: SufficientStats | None = None,
    beta: BetaParams | None = None,
    gammas: GammaPriors | None = None,
    ym_n: int | None = None,
    ym_k: int | None = None,
    ym_delta: float | None = None,
    fit: FitConfig | None = None,
    quad_nodes: int = 64,
    quad_check_nodes: int = 96,
    quad_rtol: float = 1e-4,
) -> ProprietyReport:
    """Assemble analytic verdict plus fitted tail exponent for one model.

    ``model`` is "m0", "mh", or "ym". The constant-detection model needs
    ``stats`` and ``beta``; the heterogeneous model needs ``stats`` and
    ``gammas``; the Dirichlet-multinomial model needs ``ym_n``, ``ym_k`` and
    ``ym_delta``. Agreement compares the fitted exponent of prior * kernel
    against the prior-adjusted analytic exponent at ``fit.tolerance``
    (one-sided for the heterogeneous bound).
    """
    _check_n_prior(n_prior)
    fit = fit or FitConfig()

    warnings: list[str] = []
    if model == "m0":
        if stats is None or beta is None:
            raise ValueError("constant-detection report needs stats and Beta prior")
        analytic, predicted = m0_propriety_condition(stats, beta.a, n_prior)
        kernel = lambda n: m0_marginal_log_kernel(n, stats, beta)
        scale = stats.m_k1
        one_sided = False
    elif model == "mh":
        if stats is None or gammas is None:
            raise ValueError("heterogeneous report needs stats and Gamma priors")
        predicted = mh_propriety_condition(gammas.a, n_prior)
        analytic = gammas.a
        kern = MhMarginalKernel(
            stats, gammas, nodes=quad_nodes, check_nodes=quad_check_nodes, rtol=quad_rtol
        )
        kernel = kern.log_kernel
        scale = stats.m_k1
        one_sided = True
    elif model == "ym":
        if ym_n is None or ym_k is None or ym_delta is None:
            raise ValueError("multinomial report needs ym_n, ym_k and ym_delta")
        predicted = ym_propriety_condition(ym_k, ym_delta, n_prior)
        analytic = (ym_k - 1) * ym_delta
        kernel = lambda n: york_madigan_log_kernel(n, ym_n, ym_k, ym_delta)
        scale = ym_n
        one_sided = False
    else:
        raise ValueError(f"unknown model {model!r}")

    n_lo, n_hi = fit.resolve(scale)
    target = lambda n: kernel(n) + _log_n_prior(n, n_prior)
    fitted, stderr = fit_tail_exponent(target, n_lo, n_hi, fit.points)
    probe = local_exponent(target, float(np.sqrt(n_lo * n_hi)))

    analytic_total = analytic + (1.0 if n_prior == "scale" else 0.0)
    if one_sided:
        agreement = fitted >= analytic_total - fit.tolerance
    else:
        agreement = abs(fitted - analytic_total) <= fit.tolerance
    if abs(probe - fitted) > max(2.0 * stderr, 1e-3):
        warnings.append(
            f"two-point probe ({probe:.4f}) and regression fit ({fitted:.4f}) "
            "disagree beyond twice the fit standard error; the grid may be "
            "pre-asymptotic"
        )

    return ProprietyReport(
        model=model,
        n_prior=n_prior,
        analytic_exponent=float(analytic),
        analytic_total_exponent=float(analytic_total),
        predicted=predicted,
        fitted_exponent=float(fitted),
        fitted_std_err=float(stderr),
        local_exponent=float(probe),
        fit_range=(n_lo, n_hi),
        fit_points=fit.points,
        tolerance=fit.tolerance,
        agreement=bool(agreement),
        warnings=tuple(warnings),
    )
