import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crbayes.data import CaptureHistory, SufficientStats, summarize
from crbayes.likelihoods import BetaParams, york_madigan_log_kernel
from crbayes.posterior import (
    GammaPriors, MhMarginalKernel, QuadratureConvergenceError, _prior_power, m0_marginal_log_kernel,
    posterior_table,
)
from crbayes import propriety
from crbayes.propriety import (
    IMPROPER,
    PROPER,
    FitConfig,
    ProprietyReport,
    TailFitError,
    m0_propriety_condition,
    mh_propriety_condition,
    model_kernel,
    propriety_report,
    _verdict,
    write_exponent_csv,
    ym_propriety_condition,
)

from oracles import box_mh_marginal_log_kernel, fit_tail_exponent, local_exponent


def synthetic_stats(m_k1: int, k: int, recaptures: int):
    """Build a dataset with the requested number of observed animals and recaptures."""
    assert recaptures <= m_k1 * (k - 1)
    extras = [0] * m_k1
    i = 0
    for _ in range(recaptures):
        while extras[i] >= k - 1:
            i = (i + 1) % m_k1
        extras[i] += 1
        i = (i + 1) % m_k1
    rows = tuple(tuple(1 if j <= extras[i] else 0 for j in range(k)) for i in range(m_k1))
    return summarize(CaptureHistory(k=k, rows=rows))


class TestConditions:
    def test_m0_informative_data_proper_under_flat_prior(self):
        stats = synthetic_stats(3, 5, 2)  # n. = 5, M = 3
        d, verdict = m0_propriety_condition(stats, 1.0, "uniform")
        assert d == pytest.approx(3.0)
        assert verdict == "proper"

    def test_m0_no_recaptures_improper_under_flat_prior(self):
        stats = synthetic_stats(3, 5, 0)
        d, verdict = m0_propriety_condition(stats, 1.0, "uniform")
        assert d == pytest.approx(1.0)
        assert verdict == "improper"

    def test_m0_no_recaptures_proper_under_scale_prior(self):
        stats = synthetic_stats(3, 5, 0)
        _, verdict = m0_propriety_condition(stats, 1.0, "scale")
        assert verdict == "proper"

    def test_mh_sufficient_condition(self):
        assert mh_propriety_condition(1.5, "uniform") == "proper"
        assert mh_propriety_condition(0.5, "scale") == "proper"
        # the kernel decays exactly like N^-a, so a <= 1 is improper under the flat prior
        assert mh_propriety_condition(1.0, "uniform") == "improper"
        assert mh_propriety_condition(0.5, "uniform") == "improper"

    def test_ym_iff_condition(self):
        assert ym_propriety_condition(2, 1.0, "uniform") == "improper"  # boundary
        assert ym_propriety_condition(6, 0.25, "uniform") == "proper"
        assert ym_propriety_condition(6, 0.2, "uniform") == "improper"  # boundary
        assert ym_propriety_condition(6, 0.05, "scale") == "proper"

    def test_boundary_exponents_are_improper_under_flat_prior_only(self):
        stats = synthetic_stats(3, 5, 0)  # r = 0, so m0's exponent is a
        assert m0_propriety_condition(stats, 1.0, "uniform") == (1.0, "improper")
        assert m0_propriety_condition(stats, 1.0, "scale") == (1.0, "proper")
        assert mh_propriety_condition(1.0, "uniform") == "improper"
        assert mh_propriety_condition(1.0, "scale") == "proper"
        assert ym_propriety_condition(6, 0.2, "uniform") == "improper"
        assert ym_propriety_condition(6, 0.2, "scale") == "proper"
        assert ym_propriety_condition(5, 0.25, "uniform") == "improper"
        # the bare exponent is compared with 0: 1e-17 + 1 would round to the cutoff 1
        assert m0_propriety_condition(stats, 1e-17, "scale") == (1e-17, "proper")
        assert mh_propriety_condition(1e-17, "scale") == "proper"

    def test_m0_verdict_monotone_in_shape(self):
        stats = synthetic_stats(3, 5, 0)
        verdicts = [m0_propriety_condition(stats, a, "uniform")[1] for a in np.linspace(0.1, 5, 60)]
        flipped_back = any(
            earlier == "proper" and later == "improper"
            for earlier, later in zip(verdicts, verdicts[1:])
        )
        assert not flipped_back

    def test_validation(self):
        with pytest.raises(ValueError):
            mh_propriety_condition(-1.0, "uniform")
        with pytest.raises(ValueError):
            ym_propriety_condition(1, 0.5, "uniform")
        with pytest.raises(ValueError):
            m0_propriety_condition(synthetic_stats(2, 2, 0), 1.0, "flat")

    @pytest.mark.parametrize("call", [
        lambda: m0_propriety_condition(synthetic_stats(2, 2, 0), math.nan, "uniform"),
        lambda: mh_propriety_condition(math.nan, "uniform"),
        lambda: ym_propriety_condition(6, math.nan, "uniform"),
    ], ids=["m0-a", "mh-a", "ym-delta"])
    def test_rejects_nan(self, call):
        with pytest.raises(ValueError):
            call()


# TestLocalExponent and TestFitTailExponent hold the oracles to the theory;
# their validation tests check propriety_report's own checks


class TestLocalExponent:
    def test_pure_power_law(self):
        assert local_exponent(lambda n: -2.0 * np.log(n), 50.0) == pytest.approx(2.0)

    def test_constant(self):
        assert local_exponent(lambda n: np.zeros_like(n), 50.0) == pytest.approx(0.0)

    def test_m0_kernel_deep_in_tail(self):
        stats = summarize(CaptureHistory(k=2, rows=((1, 0), (1, 1))))  # r = 1
        kernel = lambda n: m0_marginal_log_kernel(n, stats, BetaParams(1.0, 1.0))
        assert local_exponent(kernel, 1e6) == pytest.approx(2.0, abs=0.01)

    def test_array_of_n_probes_each_point(self):
        stats = summarize(CaptureHistory(k=2, rows=((1, 0), (1, 1))))
        kernel = lambda n: m0_marginal_log_kernel(n, stats, BetaParams(1.0, 1.0))
        grid = np.array([10.0, 1e3, 1e5, 1e6])
        local = local_exponent(kernel, grid)
        assert local.shape == grid.shape
        np.testing.assert_allclose(local, [local_exponent(kernel, n) for n in grid], rtol=1e-12)

    def test_non_finite_kernel_raises(self, monkeypatch):
        # a kernel finite on the fit grid but not at the probe's N and 2N
        build = propriety.model_kernel
        centre = float(np.sqrt(1e3 * 1e6))

        def holed_model_kernel(*args, **kwargs):
            kernel = build(*args, **kwargs)
            holed = lambda n: np.where(np.isin(n, [centre, 2.0 * centre]), -np.inf, kernel.log_kernel(n))
            return dataclasses.replace(kernel, log_kernel=holed)

        monkeypatch.setattr(propriety, "model_kernel", holed_model_kernel)
        with pytest.raises(TailFitError, match=f"^kernel not finite at N = {centre} and 2N$"):
            propriety_report("synthetic", "uniform", synthetic_exponent=2.0)


class TestFitTailExponent:
    def test_exact_power_law(self):
        d_hat, stderr = fit_tail_exponent(lambda n: math.log(3.0) - 1.5 * np.log(n), 1e3, 1e6)
        assert d_hat == pytest.approx(1.5, abs=1e-10)
        assert stderr < 1e-10

    def test_york_madigan_kernel(self):
        kernel = lambda n: york_madigan_log_kernel(n, 4, 6, 0.25)
        d_hat, _ = fit_tail_exponent(kernel, 1e4, 1e7)
        assert d_hat == pytest.approx(1.25, abs=0.02)

    def test_m0_kernel_two_recaptures(self):
        stats = synthetic_stats(3, 5, 2)
        kernel = lambda n: m0_marginal_log_kernel(n, stats, BetaParams(1.0, 1.0))
        d_hat, _ = fit_tail_exponent(kernel, 1e3, 1e6)
        assert d_hat == pytest.approx(3.0, abs=0.05)

    def test_validation(self):
        synthetic = {"synthetic_exponent": 2.0}
        with pytest.raises(ValueError, match="range"):
            propriety_report("synthetic", "uniform", fit=FitConfig(n_lo=100.0, n_hi=300.0), **synthetic)
        with pytest.raises(ValueError, match="points"):
            propriety_report("synthetic", "uniform", fit=FitConfig(n_lo=10.0, n_hi=1000.0, points=5), **synthetic)
        # the ym kernel is -inf below its support start, here the whole grid
        with pytest.raises(TailFitError, match="^kernel not finite everywhere on the fit grid$"):
            propriety_report("ym", "uniform", fit=FitConfig(n_lo=10.0, n_hi=1000.0), ym_n=2000, ym_k=3, ym_delta=1.0)


def m0_tail_ratio_deviation(x: float, a: float, b: float) -> float:
    """|x^a Gamma(x+b) / Gamma(x+a+b) - 1|, read off the m0 kernel.

    With no animals and one occasion the kernel is log Gamma(N+b)
    - log Gamma(N+a+b), and this ratio tending to 1 is why it decays like
    N^-a, the exponent the m0 propriety condition compares with 1.
    """
    empty = SufficientStats(0, 1, 0, (0,), (0,))
    kernel = m0_marginal_log_kernel(x, empty, BetaParams(a, b))
    return float(abs(np.expm1(a * np.log(x) + kernel)))


class TestGammaRatio:
    def test_single_recurrence_step_matches_recurrence(self):
        # x^1 Gamma(x+b)/Gamma(x+1+b) = x/(x+b); double-precision log-gamma
        # differences limit the agreement to ~1e-6 relative at large x
        for x in (3.0, 10.0, 1e4):
            for b in (0.5, 1.3, 4.0):
                assert m0_tail_ratio_deviation(x, 1.0, b) == pytest.approx(b / (x + b), rel=1e-5)

    def test_deep_asymptotic_regime(self):
        assert m0_tail_ratio_deviation(1e6, 2.5, 1.3) < 1e-3

    def test_deviation_shrinks_with_x(self):
        devs = [m0_tail_ratio_deviation(x, 2.0, 3.0) for x in (1e2, 1e4, 1e6)]
        assert devs[0] > devs[1] > devs[2]


class TestProprietyReport:
    def test_m0_proper_case_agrees(self):
        stats = summarize(CaptureHistory(k=2, rows=((1, 0), (1, 1))))  # r = 1
        report = propriety_report("m0", "uniform", stats=stats, beta=BetaParams(1.0, 1.0))
        assert report.predicted == "proper"
        assert report.analytic_exponent == pytest.approx(2.0)
        assert report.fitted_exponent == pytest.approx(2.0, abs=0.05)
        assert report.agreement
        assert not report.warnings

    def test_m0_improper_case_agrees(self):
        stats = synthetic_stats(3, 5, 0)
        report = propriety_report("m0", "uniform", stats=stats, beta=BetaParams(1.0, 1.0))
        assert report.predicted == "improper"
        assert report.fitted_exponent == pytest.approx(1.0, abs=0.02)
        assert report.agreement

    def test_scale_prior_adds_one_to_fitted_exponent(self):
        stats = synthetic_stats(3, 5, 1)
        flat = propriety_report("m0", "uniform", stats=stats, beta=BetaParams(1.0, 1.0))
        scale = propriety_report("m0", "scale", stats=stats, beta=BetaParams(1.0, 1.0))
        assert scale.fitted_exponent - flat.fitted_exponent == pytest.approx(1.0, abs=0.01)
        assert scale.analytic_total_exponent == pytest.approx(flat.analytic_total_exponent + 1.0)

    def test_mh_fit_respects_lower_bound(self):
        stats = summarize(CaptureHistory(k=3, rows=((1, 0, 0), (1, 1, 0))))
        report = propriety_report(
            "mh", "uniform", stats=stats, gammas=GammaPriors(1.5, 1.0, 1.0)
        )
        assert report.predicted == "proper"
        assert report.fitted_exponent == pytest.approx(1.5, abs=0.05)
        assert report.agreement

    def test_ym_report(self):
        report = propriety_report("ym", "uniform", ym_n=4, ym_k=6, ym_delta=0.25)
        assert report.predicted == "proper"
        assert report.analytic_exponent == pytest.approx(1.25)
        assert report.fitted_exponent == pytest.approx(1.25, abs=0.02)
        assert report.agreement

    def test_disagreement_flagged_at_tiny_tolerance(self):
        stats = summarize(CaptureHistory(k=2, rows=((1, 0), (1, 1))))
        report = propriety_report(
            "m0",
            "uniform",
            stats=stats,
            beta=BetaParams(1.0, 1.0),
            fit=FitConfig(tolerance=1e-12),
        )
        assert not report.agreement

    def test_missing_inputs(self):
        # the report takes its model from model_kernel, so both raise the same texts
        stats = summarize(CaptureHistory(k=2, rows=((1, 0), (1, 1))))
        cases = [
            ("m0", {"beta": BetaParams(1.0, 1.0)}, "constant-detection report needs stats and Beta prior"),
            ("m0", {"stats": stats}, "constant-detection report needs stats and Beta prior"),
            ("mh", {"stats": stats}, "heterogeneous report needs stats and Gamma priors"),
            ("ym", {"ym_n": 4}, "multinomial report needs ym_n, ym_k and ym_delta"),
            ("ym", {"ym_n": 4, "ym_k": 1, "ym_delta": 0.5}, "need at least two cells"),
            ("synthetic", {}, "synthetic report needs synthetic_exponent"),
            ("synthetic", {"synthetic_exponent": 0.0}, "synthetic exponent must be positive"),
            ("synthetic", {"synthetic_exponent": math.nan}, "synthetic exponent must be positive"),
            ("bogus", {}, "unknown model 'bogus'"),
        ]
        for model, params, text in cases:
            with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
                propriety_report(model, "uniform", **params)
            with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
                model_kernel(model, **params)

    def test_nan_delta_is_a_usage_error_not_a_failed_fit(self):
        # NaN used to pass the delta check and surface as TailFitError
        with pytest.raises(ValueError, match="delta"):
            propriety_report("ym", "uniform", ym_n=4, ym_k=6, ym_delta=math.nan)

    @pytest.mark.parametrize("tolerance", [math.nan, 0.0, -0.05])
    def test_fit_config_rejects_tolerance_that_is_not_positive(self, tolerance):
        with pytest.raises(ValueError, match="tolerance"):
            FitConfig(tolerance=tolerance)

    def test_json_round_trip(self, tmp_path):
        report = propriety_report("ym", "uniform", ym_n=4, ym_k=6, ym_delta=0.25)
        report.write_json(tmp_path / "r.json")
        payload = json.loads((tmp_path / "r.json").read_text())
        assert list(payload) == [f.name for f in dataclasses.fields(ProprietyReport)]
        assert payload["model"] == "ym"
        assert payload["predicted"] == "proper"
        assert payload["fitted_exponent"] == report.fitted_exponent
        assert payload["fit_range"] == list(report.fit_range)


small_histories = st.integers(min_value=2, max_value=6).flatmap(
    lambda k: st.lists(st.integers(1, 2**k - 1), min_size=1, max_size=4).map(
        lambda codes: CaptureHistory(k=k, rows=tuple(tuple((c >> j) & 1 for j in range(k)) for c in codes))
    )
)


def _mh_report(n_prior, stats, gammas, node_pairs=((64, 96), (128, 192), (192, 288))):
    """``propriety_report("mh")`` at the first node pair of ``node_pairs``
    that converges, raising nodes as the quadrature error advises. The
    report must make one sorted kernel call, and its fit and probe must
    match separate calls at the same nodes within 1e-10 relative."""
    for nodes, check_nodes in node_pairs:
        params = {"stats": stats, "gammas": gammas, "quad_nodes": nodes, "quad_check_nodes": check_nodes}
        try:
            report, calls = _counted_report("mh", n_prior, **params)
        except QuadratureConvergenceError:
            if (nodes, check_nodes) == node_pairs[-1]:
                raise
            continue
        _assert_one_sorted_call(report, calls)
        fitted, _, probe = _separate_fit_and_probe("mh", n_prior, **params)
        assert report.fitted_exponent == pytest.approx(fitted, rel=1e-10, abs=0.0)
        assert report.local_exponent == pytest.approx(probe, rel=1e-10, abs=0.0)
        return report


@st.composite
def mh_cases(draw, tails):
    """A history and shapes (a, b) whose log integrand has ``tails``: both
    left-tail rates a + M and b + (M - f_K) reach 2 for "steep"; for
    "sparse" one of them is drawn below 2. With shapes of at least 0.2 that
    needs M = 1 or M - f_K <= 1, so a history with neither keeps only its
    first animal."""
    history = draw(small_histories)
    stats = summarize(history)
    if tails == "sparse" and stats.m_k1 > 1 and stats.m_k1 - stats.f_j[-1] > 1:
        history = CaptureHistory(k=history.k, rows=history.rows[:1])
        stats = summarize(history)
    m, tail = stats.m_k1, stats.m_k1 - stats.f_j[-1]
    shape = lambda lo, hi: draw(st.floats(min_value=lo, max_value=hi))
    if tails == "steep":
        return history, shape(max(0.2, 2.0 - m), 3.0), shape(max(0.2, 2.0 - tail), 3.0)
    low = draw(st.sampled_from([side for side, rate in (("a", m), ("b", tail)) if rate <= 1]))
    # the margin keeps a + M (b + M - f_K) below 2 after rounding
    a = shape(0.2, 2.0 - m - 1e-9) if low == "a" else shape(0.2, 3.0)
    b = shape(0.2, 2.0 - tail - 1e-9) if low == "b" else shape(0.2, 3.0)
    return history, a, b


@pytest.mark.parametrize("tails", ["steep", "sparse"])
@settings(max_examples=10, deadline=None)
@given(
    st.data(),
    st.floats(min_value=0.3, max_value=4.0),
    st.sampled_from(["uniform", "scale"]),
)
def test_mh_report_is_exact_and_two_sided(tails, data, c, n_prior):
    # the mh kernel decays exactly like N^-a, so the fit must land within the
    # tolerance on both sides of the analytic exponent, and the verdict is the rule's
    history, a, b = data.draw(mh_cases(tails))
    stats = summarize(history)
    gammas = GammaPriors(a, b, c)
    report = _mh_report(n_prior, stats, gammas)
    total = a + (1.0 if n_prior == "scale" else 0.0)
    assert report.analytic_total_exponent == total
    assert report.predicted == mh_propriety_condition(a, n_prior)
    assert report.predicted == ("proper" if n_prior == "scale" or a > 1.0 else "improper")
    assert abs(report.fitted_exponent - total) <= report.tolerance
    assert report.agreement


@pytest.mark.parametrize("n_prior", ["uniform", "scale"])
def test_mh_report_on_sparse_six_occasion_set(n_prior):
    # A sparse example of test_mh_report_is_exact_and_two_sided, kept as a
    # regression: an earlier rule failed its fit grid at every node count
    # the test tries (6.9e-3 at 64/96 down to 1.2e-4 at 192/288). The sinh
    # rule settles at 64/96 (2.4e-11 on these four points) and matches the
    # box oracle (4.6e-9 at 2e6, the oracle's own floor there). The report
    # makes one kernel call, and its fit and probe match separate calls.
    stats = summarize(CaptureHistory(k=6, rows=((1, 0, 0, 0, 0, 0), (1, 1, 1, 1, 1, 1))))
    gammas = GammaPriors(2.0, 0.25, 4.0)
    kern = MhMarginalKernel(stats, gammas)
    assert _mh_report(n_prior, stats, gammas, node_pairs=((64, 96),)).agreement
    grid = np.geomspace(2e3, 2e6, 4)
    got = kern.log_kernel(grid)
    assert kern.diagnostics["max_rel_change"] <= 1e-10
    want = box_mh_marginal_log_kernel(stats, grid, 2.0, 0.25, 4.0)
    assert np.abs(np.expm1(got - want)).max() <= 1e-7


def _counting_model_kernel(calls):
    """``model_kernel`` whose kernels append each grid they are called on to ``calls``."""
    build = propriety.model_kernel

    def counting_model_kernel(*args, **kwargs):
        kernel = build(*args, **kwargs)

        def log_kernel(n):
            calls.append(np.array(n, copy=True))
            return kernel.log_kernel(n)

        return dataclasses.replace(kernel, log_kernel=log_kernel)

    return counting_model_kernel


def _counted_report(model, n_prior, **params):
    """``propriety_report`` with the model kernel wrapped: returns the report
    and the grids the kernel was called on."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propriety, "model_kernel", _counting_model_kernel(calls))
        return propriety_report(model, n_prior, **params), calls


def _separate_fit_and_probe(model, n_prior, **params):
    """(fitted, std err, probe) of prior * kernel from the oracles
    ``fit_tail_exponent`` and ``local_exponent``, at a report's default fit
    settings, with one kernel call per grid."""
    kernel = model_kernel(model, **params)
    n_lo, n_hi = FitConfig().resolve(kernel.support_start)
    target = lambda n: kernel.log_kernel(n) - _prior_power(n_prior) * np.log(n)
    fitted, stderr = fit_tail_exponent(target, n_lo, n_hi)
    return fitted, stderr, local_exponent(target, math.sqrt(n_lo * n_hi))


def _assert_one_sorted_call(report, calls):
    assert len(calls) == 1
    (grid,) = calls
    assert (np.diff(grid) > 0).all()  # the mh kernel's blocks follow the grid's order
    n_lo, n_hi = report.fit_range
    centre = math.sqrt(n_lo * n_hi)
    assert set(grid.tolist()) == set(np.geomspace(n_lo, n_hi, report.fit_points).tolist()) | {centre, 2 * centre}


@pytest.mark.parametrize("n_prior", ["uniform", "scale"])
@pytest.mark.parametrize(
    "model, params",
    [
        ("m0", {"stats": synthetic_stats(3, 5, 2), "beta": BetaParams(1.0, 1.0)}),
        ("m0", {"stats": synthetic_stats(17, 5, 0), "beta": BetaParams(0.3, 2.0)}),
        ("ym", {"ym_n": 4, "ym_k": 6, "ym_delta": 0.25}),
        ("ym", {"ym_n": 57, "ym_k": 5, "ym_delta": 0.15}),
        ("synthetic", {"synthetic_exponent": 0.5}),
        ("synthetic", {"synthetic_exponent": 88.99}),
    ],
)
def test_closed_form_report_evaluates_its_kernel_once(model, params, n_prior):
    # the m0, ym and synthetic kernels are elementwise, so reading the fit and
    # the probe from one evaluation changes no bit of either
    report, calls = _counted_report(model, n_prior, **params)
    _assert_one_sorted_call(report, calls)
    fitted, stderr, probe = _separate_fit_and_probe(model, n_prior, **params)
    assert (report.fitted_exponent, report.fitted_std_err, report.local_exponent) == (fitted, stderr, probe)


def test_exponent_csv_export(tmp_path):
    log_kernel = lambda n: -2.0 * np.log(n)
    write_exponent_csv(log_kernel, 1e3, 1e6, 12, tmp_path / "k.csv")
    lines = (tmp_path / "k.csv").read_text().splitlines()
    assert lines[0] == "N,log_kernel,local_exponent"
    assert len(lines) == 13
    cells = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    grid = np.geomspace(1e3, 1e6, 12)
    assert cells[:, 0].tolist() == grid.tolist()
    assert cells[:, 1].tolist() == log_kernel(grid).tolist()
    assert cells[:, 2].tolist() == (-(log_kernel(2.0 * grid) - log_kernel(grid)) / np.log(2.0)).tolist()
    assert cells[0, 2] == pytest.approx(2.0)


UNKNOWN_PRIOR_CASES = [
    ("m0", {"stats": synthetic_stats(3, 5, 2), "beta": BetaParams(1.0, 1.0)},
     lambda prior: m0_propriety_condition(synthetic_stats(3, 5, 2), 1.0, prior)),
    ("mh", {"stats": synthetic_stats(3, 5, 2), "gammas": GammaPriors(1.5, 1.0, 1.0)},
     lambda prior: mh_propriety_condition(1.5, prior)),
    ("ym", {"ym_n": 4, "ym_k": 6, "ym_delta": 0.25}, lambda prior: ym_propriety_condition(6, 0.25, prior)),
]


@pytest.mark.parametrize("model, params, condition", UNKNOWN_PRIOR_CASES)
def test_unknown_prior_is_refused_before_the_kernel_runs(model, params, condition, monkeypatch):
    calls = []
    counting_model_kernel = _counting_model_kernel(calls)
    monkeypatch.setattr(propriety, "model_kernel", counting_model_kernel)
    kernel = counting_model_kernel(model, **params)
    unknown = "^unknown prior on N: 'flat'$"
    with pytest.raises(ValueError, match=unknown):
        posterior_table(kernel.log_kernel, "flat", n_min=kernel.support_start, n_max=kernel.support_start + 100)
    with pytest.raises(ValueError, match=unknown):
        propriety_report(model, "flat", **params)
    with pytest.raises(ValueError, match=unknown):
        condition("flat")
    assert calls == []


@pytest.mark.parametrize("n_prior, s", [("uniform", 0.0), ("scale", 1.0)])
def test_each_prior_enters_through_its_power(n_prior, s):
    # the four places where the prior N^-s enters: the support start, the
    # log prior -s log N, the verdict cutoff 1 - s and the total exponent d + s
    assert _prior_power(n_prior) == s
    log_kernel = lambda n: -2.5 * np.log1p(n)
    table = posterior_table(log_kernel, n_prior, n_min=0, n_max=2_000)
    assert table.n_min == (1 if s > 0 else 0)  # N^-s is undefined at zero
    support = np.arange(table.n_min, table.n_max + 1, dtype=float)
    on = support >= 1
    log_ratio = np.log(table.mass[on]) - (log_kernel(support[on]) - s * np.log(support[on]))
    assert np.ptp(log_ratio) <= 1e-12  # the mass is kernel times N^-s, normalized
    cutoff = 1.0 - s
    assert _verdict(cutoff, s) == IMPROPER
    assert _verdict(np.nextafter(cutoff, np.inf), s) == PROPER
    assert _verdict(np.nextafter(cutoff, -np.inf), s) == IMPROPER
    assert mh_propriety_condition(np.nextafter(cutoff, np.inf), n_prior) == PROPER
    report = propriety_report("ym", n_prior, ym_n=4, ym_k=6, ym_delta=0.25)
    assert report.analytic_exponent == 1.25
    assert report.analytic_total_exponent == 1.25 + s
    assert report.predicted == PROPER
    assert report.agreement
