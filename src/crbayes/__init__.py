"""Bayesian population-size posteriors and propriety diagnostics for closed
capture-recapture models with constant or Beta-heterogeneous detection."""

from .data import (
    CaptureHistory,
    InvalidHistoryError,
    SufficientStats,
    load_history,
    simulate_m0,
    simulate_mh,
    store_history,
    summarize,
)
from .gibbs import DaChains, DaConfig, SweepReport, da_gibbs, effective_sample_size, m_sweep
from .likelihoods import BetaParams, kahn_log_prob, york_madigan_log_kernel
from .posterior import (
    GammaPriors,
    MhMarginalKernel,
    PosteriorTable,
    QuadratureConvergenceError,
    m0_marginal_log_kernel,
    posterior_table,
)
from .propriety import (
    FitConfig,
    ProprietyReport,
    TailFitError,
    m0_propriety_condition,
    mh_propriety_condition,
    propriety_report,
    ym_propriety_condition,
)

__version__ = "0.1.0"

__all__ = [
    "BetaParams",
    "CaptureHistory",
    "DaChains",
    "DaConfig",
    "FitConfig",
    "GammaPriors",
    "InvalidHistoryError",
    "MhMarginalKernel",
    "PosteriorTable",
    "ProprietyReport",
    "QuadratureConvergenceError",
    "SufficientStats",
    "SweepReport",
    "TailFitError",
    "da_gibbs",
    "effective_sample_size",
    "kahn_log_prob",
    "load_history",
    "m0_marginal_log_kernel",
    "m0_propriety_condition",
    "m_sweep",
    "mh_propriety_condition",
    "posterior_table",
    "propriety_report",
    "simulate_m0",
    "simulate_mh",
    "store_history",
    "summarize",
    "ym_propriety_condition",
    "york_madigan_log_kernel",
]
