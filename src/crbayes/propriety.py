"""Posterior-propriety verdicts and their empirical verification.

The analytic side gives the exact tail exponent of each model's kernel: the
constant-detection marginal kernel decays like N^-(r + a) (r recaptures, a
the Beta shape on the detection rate), the heterogeneous kernel like N^-a
(a the Gamma shape on the first Beta parameter), and the
Dirichlet-multinomial kernel like N^-((k-1) delta). ``model_kernel`` builds
each kernel with its support start and exponent, and also the pure power law
N^-d ("synthetic") that ``check-propriety``'s sanity mode fits. Every layer
takes the prior on N as its power s (N^-s: s = 0 flat, s = 1 the 1/N scale
prior), so prior times kernel decays like N^-(d + s) and is proper iff
d + s > 1; one rule (``_verdict``) turns every exponent into a verdict. The empirical side
fits the tail exponent of prior * kernel on a geometric grid and checks it
against the analytic value d + s.
"""

from dataclasses import asdict, dataclass
from itertools import chain
from pathlib import Path
from typing import Callable

import numpy as np

from .data import SufficientStats, write_csv, write_json
from .likelihoods import BetaParams, york_madigan_log_kernel
from .posterior import (
    GammaPriors,
    MhMarginalKernel,
    _prior_power,
    fit_log_log_slope,
    m0_marginal_log_kernel,
)

PROPER = "proper"
IMPROPER = "improper"


class TailFitError(RuntimeError):
    """Raised when the kernel is not finite on the requested fit grid."""


def _verdict(exponent: float, s: float) -> str:
    """The propriety rule shared by every model: the prior N^-s times a kernel
    of tail exponent d = ``exponent`` decays faster than 1/N iff d + s > 1.
    Equality diverges, so it is improper. The bare exponent is compared with
    the cutoff 1 - s, never d + s with 1, which would round a tiny d onto it."""
    return PROPER if exponent > 1.0 - s else IMPROPER


@dataclass(frozen=True)
class ModelKernel:
    """A model's bare log kernel of N, the smallest N it allows, its exact tail
    exponent d (it decays like N^-d) and, for the heterogeneous model, the
    quadrature kernel whose ``diagnostics`` describe its latest call."""

    log_kernel: Callable[[np.ndarray], np.ndarray]
    support_start: int
    exponent: float
    mh: MhMarginalKernel | None = None


def model_kernel(
    model: str,
    stats: SufficientStats | None = None,
    beta: BetaParams | None = None,
    gammas: GammaPriors | None = None,
    ym_n: int | None = None,
    ym_k: int | None = None,
    ym_delta: float | None = None,
    synthetic_exponent: float | None = None,
    quad_nodes: int = 64,
    quad_check_nodes: int = 96,
    quad_rtol: float = 1e-4,
) -> ModelKernel:
    """Build the kernel of ``model`` ("m0", "mh", "ym" or "synthetic") with its exact exponent.

    Constant detection ("m0") needs ``stats`` and ``beta`` and decays like
    N^-(r + a), r the recaptures. Heterogeneous detection ("mh") needs
    ``stats`` and ``gammas``, takes its quadrature settings from ``quad_*``
    and decays like N^-a (see ``mh_propriety_condition``). The
    Dirichlet-multinomial model ("ym") needs ``ym_n``, ``ym_k`` and
    ``ym_delta`` and decays like N^-((k-1) delta). The "synthetic" kernel is
    -d log N on N >= 1 with d = ``synthetic_exponent``.
    """
    if model == "m0":
        if stats is None or beta is None:
            raise ValueError("constant-detection report needs stats and Beta prior")
        return ModelKernel(lambda n: m0_marginal_log_kernel(n, stats, beta), stats.m_k1, stats.recaptures + beta.a)
    if model == "mh":
        if stats is None or gammas is None:
            raise ValueError("heterogeneous report needs stats and Gamma priors")
        kern = MhMarginalKernel(stats, gammas, nodes=quad_nodes, check_nodes=quad_check_nodes, rtol=quad_rtol)
        return ModelKernel(kern.log_kernel, stats.m_k1, gammas.a, kern)
    if model == "ym":
        if ym_n is None or ym_k is None or ym_delta is None:
            raise ValueError("multinomial report needs ym_n, ym_k and ym_delta")
        if ym_k < 2:
            raise ValueError("need at least two cells")
        if not ym_delta > 0:
            raise ValueError("delta must be positive")
        return ModelKernel(
            lambda n: york_madigan_log_kernel(n, ym_n, ym_k, ym_delta), ym_n, (ym_k - 1) * ym_delta
        )
    if model == "synthetic":
        if synthetic_exponent is None:
            raise ValueError("synthetic report needs synthetic_exponent")
        if not synthetic_exponent > 0:
            raise ValueError("synthetic exponent must be positive")
        d = synthetic_exponent
        return ModelKernel(lambda n: -d * np.log(n), 1, d)
    raise ValueError(f"unknown model {model!r}")


def m0_propriety_condition(stats: SufficientStats, a: float, n_prior: str) -> tuple[float, str]:
    """Exponent d = n. - M + a and the exact verdict for constant detection."""
    if not a > 0:
        raise ValueError("Beta shape a must be positive")
    d = model_kernel("m0", stats=stats, beta=BetaParams(a, 1.0)).exponent  # b does not enter d
    return d, _verdict(d, _prior_power(n_prior))


def mh_propriety_condition(a: float, n_prior: str) -> str:
    """Exact verdict for heterogeneous detection: the kernel decays like N^-a.

    Near alpha = 0 the observed-animal factor is about alpha^M h(beta), and
    the zero cell to the power N - M is about exp(-N alpha S(beta)) with
    S = sum_j 1/(beta + j). Against the Gamma(a) prior's alpha^(a-1) the
    alpha integral gives Gamma(a + M) (N S)^-(a+M), and C(N, M) ~ N^M / M!
    leaves N^-a times E_beta[h S^-(a+M)]. That expectation is finite and
    positive, because S >= 1/beta offsets the pole of h at beta = 0, so the
    exponent is exactly a.
    """
    if not a > 0:
        raise ValueError("Gamma shape a must be positive")
    return _verdict(a, _prior_power(n_prior))


def ym_propriety_condition(k: int, delta: float, n_prior: str) -> str:
    """Exact verdict for the Dirichlet-multinomial kernel, which decays like
    N^-((k-1) delta) whatever the observed count."""
    return _verdict(model_kernel("ym", ym_n=0, ym_k=k, ym_delta=delta).exponent, _prior_power(n_prior))


def _probe_points(n) -> np.ndarray:
    """The N of the two-point probe at ``n``: N followed by 2N."""
    points = np.atleast_1d(np.asarray(n, dtype=float))
    return np.concatenate((points, 2.0 * points))


def _probe_exponent(n, vals: np.ndarray):
    """The two-point decay probe d(N) = -[log f(2N) - log f(N)] / log 2 at
    ``n``, from log f at ``_probe_points(n)``. Exact for pure power laws, it
    cross-checks the regression fit. ``n`` is one N (a float comes back) or a
    1-D array of them (an array comes back)."""
    if not np.isfinite(vals).all():
        raise TailFitError(f"kernel not finite at N = {n} and 2N")
    half = vals.size // 2
    local = -(vals[half:] - vals[:half]) / np.log(2.0)
    return float(local[0]) if np.ndim(n) == 0 else local


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

    ``analytic_exponent`` describes the bare kernel, d; ``analytic_total_exponent``
    is d + s under the prior N^-s and is what ``fitted_exponent`` (which is fit
    on prior times kernel) is compared against: ``agreement`` holds when the two
    differ by at most ``tolerance``, for every model.
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
    vals = np.asarray(log_kernel(_probe_points(grid)), dtype=float)  # the grid, then twice it
    rows = zip(grid.tolist(), vals[: grid.size].tolist(), _probe_exponent(grid, vals).tolist())
    write_csv(path, chain([("N", "log_kernel", "local_exponent")], rows))


def propriety_report(model: str, n_prior: str, fit: FitConfig | None = None, **params) -> ProprietyReport:
    """Assemble analytic verdict plus fitted tail exponent for one model.

    ``model`` and the keyword ``params`` go to ``model_kernel``, and the fit
    grid scales with the kernel's support start. Agreement compares the fitted
    exponent of prior * kernel against the prior-adjusted analytic exponent at
    ``fit.tolerance``.

    The fit is a least-squares line of log(prior * kernel) against log N on
    ``fit.points`` >= 10 geometric points of the resolved range, which must
    start on the support and span a factor of 4 or more; d_hat is minus its slope.
    Prior * kernel is evaluated once, on the sorted union of that grid and the
    pair of ``_probe_exponent`` at the grid's geometric centre, and the fit
    and the probe both read their values from it: for ``mh`` that is one mode
    search, one set of blocks and one node-set pass per node count.
    The union is sorted because the mh kernel's blocks follow the grid's order.
    """
    s = _prior_power(n_prior)
    fit = fit or FitConfig()

    kernel = model_kernel(model, **params)
    n_lo, n_hi = fit.resolve(kernel.support_start)
    if n_lo < kernel.support_start:
        raise ValueError(f"fit range starts at N = {n_lo:g}, below the kernel's support start {kernel.support_start}")
    if n_hi < 4.0 * n_lo:
        raise ValueError("fit range too short: need n_hi >= 4 * n_lo")
    if fit.points < 10:
        raise ValueError("need at least 10 grid points")
    grid = np.geomspace(n_lo, n_hi, fit.points)
    centre = float(np.sqrt(n_lo * n_hi))
    union, where = np.unique(np.concatenate((grid, _probe_points(centre))), return_inverse=True)
    vals = np.asarray(kernel.log_kernel(union) - s * np.log(union), dtype=float)[where]
    if not np.isfinite(vals[: grid.size]).all():
        raise TailFitError("kernel not finite everywhere on the fit grid")
    with np.errstate(over="ignore", invalid="ignore"):  # log kernels near the float limit
        slope, _, stderr = fit_log_log_slope(grid, vals[: grid.size])
    if not np.isfinite([slope, stderr]).all():
        raise TailFitError(f"tail fit not finite (slope {slope}, standard error {stderr})")
    fitted = -slope
    probe = _probe_exponent(centre, vals[grid.size :])

    analytic_total = kernel.exponent + s
    warnings: list[str] = []
    if abs(probe - fitted) > max(2.0 * stderr, 1e-3):
        warnings.append(
            f"two-point probe ({probe:.4f}) and regression fit ({fitted:.4f}) "
            "disagree beyond twice the fit standard error; the grid may be "
            "pre-asymptotic"
        )

    return ProprietyReport(
        model=model,
        n_prior=n_prior,
        analytic_exponent=float(kernel.exponent),
        analytic_total_exponent=float(analytic_total),
        predicted=_verdict(kernel.exponent, s),
        fitted_exponent=float(fitted),
        fitted_std_err=float(stderr),
        local_exponent=float(probe),
        fit_range=(n_lo, n_hi),
        fit_points=fit.points,
        tolerance=fit.tolerance,
        agreement=bool(abs(fitted - analytic_total) <= fit.tolerance),
        warnings=tuple(warnings),
    )
