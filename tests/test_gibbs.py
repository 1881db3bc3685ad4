import json

import numpy as np
import pytest
from scipy.special import gammaln
from scipy.stats import beta as beta_rv
from scipy.stats import kstest

from crbayes.data import CaptureHistory, simulate_m0, summarize
from crbayes import gibbs
from crbayes.gibbs import DaConfig, da_gibbs, effective_sample_size, m_sweep
from crbayes.likelihoods import BetaParams
from crbayes.posterior import m0_marginal_log_kernel, posterior_table

from oracles import da_posterior_mass, pairwise_effective_sample_size


def no_recapture_history(n_animals: int = 6) -> CaptureHistory:
    """Every animal caught exactly once: r = 0, so N is unidentifiable."""
    rows = tuple(
        tuple(1 if j == i % 3 else 0 for j in range(3)) for i in range(n_animals)
    )
    return CaptureHistory(k=3, rows=rows)


def exact_grid_mass(history, m_aug):
    stats = summarize(history)
    kernel = lambda n: m0_marginal_log_kernel(n, stats, BetaParams(1.0, 1.0))
    return stats, posterior_table(kernel, "uniform", stats=stats, n_max=m_aug)


def test_perfect_detection_pins_population_at_observed():
    history = simulate_m0(20, 1.0, 5, seed=42)
    chains = da_gibbs(history, DaConfig(m=100, iters=3000, burnin=200, seed=1))
    assert (chains.n == 20).all()


def test_draws_stay_inside_augmented_bounds():
    history = simulate_m0(40, 0.3, 4, seed=6)
    stats = summarize(history)
    chains = da_gibbs(history, DaConfig(m=120, iters=4000, burnin=400, seed=2))
    assert chains.n.min() >= stats.m_k1
    assert chains.n.max() <= 120


def test_marginal_matches_exact_grid_posterior():
    # flat psi prior induces a flat prior on N over {0..M}, so the chain's
    # N-marginal must match the closed-form truncated posterior
    history = simulate_m0(100, 0.3, 5, seed=2024)
    stats, table = exact_grid_mass(history, 300)
    chains = da_gibbs(history, DaConfig(m=300, iters=35_000, burnin=5_000, seed=5))
    empirical = np.bincount(chains.n, minlength=301)[stats.m_k1 :] / chains.n.size
    tv = 0.5 * np.abs(empirical - table.mass).sum()
    assert tv < 0.03


def test_heavy_tail_marginal_also_matches_exact_grid():
    history = no_recapture_history()
    stats, table = exact_grid_mass(history, 200)
    chains = da_gibbs(history, DaConfig(m=200, iters=400_000, burnin=20_000, seed=123))
    empirical = np.bincount(chains.n, minlength=201)[stats.m_k1 :] / chains.n.size
    tv = 0.5 * np.abs(empirical - table.mass).sum()
    assert tv < 0.03


@pytest.mark.parametrize(
    "history, m_aug, iters, burnin, seed",
    [
        (simulate_m0(100, 0.3, 5, seed=7), 400, 35_000, 5_000, 5),
        (no_recapture_history(), 200, 400_000, 20_000, 123),
    ],
    ids=["informative", "no-recapture"],
)
def test_marginal_matches_closed_form_under_links_psi_prior(history, m_aug, iters, burnin, seed):
    # psi ~ Beta(0.001, 1), Link's near-scale choice: the target is the m0
    # kernel times the induced BetaBinomial(N; M, 0.001, 1) prior, and a
    # psi conditional drawn at the wrong state moves the chain off it
    psi_prior = (0.001, 1.0)
    stats = summarize(history)
    mass = da_posterior_mass(stats, m_aug, (1.0, 1.0), psi_prior)
    chains = da_gibbs(history, DaConfig(m=m_aug, iters=iters, burnin=burnin, seed=seed, psi_prior=psi_prior))
    empirical = np.bincount(chains.n, minlength=m_aug + 1)[stats.m_k1 :] / chains.n.size
    tv = 0.5 * np.abs(empirical - mass).sum()
    assert tv < 0.03


def test_closed_form_oracle_matches_grid_posterior_under_flat_psi_prior():
    # BetaBinomial(M, 1, 1) is uniform on {0..M}, the grid's flat prior
    history = simulate_m0(100, 0.3, 5, seed=7)
    stats, table = exact_grid_mass(history, 200)
    mass = da_posterior_mass(stats, 200, (1.0, 1.0), (1.0, 1.0))
    np.testing.assert_allclose(mass, table.mass, rtol=1e-9, atol=1e-300)


def oracle_cases():
    # random histories at sizes from no free rows to 1600, under the flat and
    # Link's psi priors, and the degenerate shapes of the forced-membership test
    rng = np.random.default_rng(2)
    for i in range(6):
        k = int(rng.integers(2, 7))
        history = simulate_m0(int(rng.integers(5, 150)), float(rng.uniform(0.02, 0.6)), k, seed=100 + i)
        m_obs = history.n_observed  # below 150, so below 200
        for m_aug in (m_obs, m_obs + 1, 200, 1600):
            for psi_prior in ((1.0, 1.0), (0.001, 1.0)):
                yield history, m_aug, BetaParams(1.0, 1.0), psi_prior
    everyone = CaptureHistory(k=3, rows=((1, 1, 1),) * 5)
    for m_aug in (5, 60):
        yield everyone, m_aug, BetaParams(1.0, 1e-3), (1.0, 1e-3)


def test_exact_da_mass_matches_closed_form_oracle():
    # the library's mass is built on the m0 kernel, the oracle on scipy's
    # betaln and betabinom. Both add log-gamma terms as large as
    # L = gammaln(K M + a_p + b_p), which float64 holds only to eps L:
    # 1.7e-11 at K = 6 and M = 1600, where each form is some 2.5e-11 from a
    # 40-digit evaluation. So the two agree to 1e-12 plus that rounding.
    for history, m_aug, p_prior, psi_prior in oracle_cases():
        stats = summarize(history)
        log_mass = gibbs._da_log_mass(stats, DaConfig(m=m_aug, psi_prior=psi_prior, p_prior=p_prior))
        oracle = da_posterior_mass(stats, m_aug, (p_prior.a, p_prior.b), psi_prior)
        assert log_mass.shape == oracle.shape == (m_aug - stats.m_k1 + 1,)
        keep = oracle > 1e-300
        rounding = np.finfo(float).eps * gammaln(stats.k * m_aug + p_prior.a + p_prior.b)
        np.testing.assert_allclose(log_mass[keep], np.log(oracle[keep]), rtol=1e-12, atol=1e-12 + rounding,
                                   err_msg=f"K={stats.k} M_obs={stats.m_k1} M={m_aug} psi={psi_prior}")
        assert (np.exp(log_mass[~keep]) <= 1e-299).all()


class CountingRng:
    """A Generator that counts the triples drawn: one per entry of each
    array-valued binomial draw (the start state is the one scalar draw)."""

    def __init__(self, rng):
        self.rng, self.triples = rng, 0

    def beta(self, *args):
        return self.rng.beta(*args)

    def binomial(self, *args):
        out = self.rng.binomial(*args)
        if np.ndim(out):
            self.triples += out.size
        return out


@pytest.mark.parametrize(
    "history, m_aug, bound",
    [
        (simulate_m0(100, 0.3, 5, seed=7), 200, 1.2),
        (simulate_m0(100, 0.3, 5, seed=7), 1600, 1.2),
        # the doubling refill this sizing replaced drew 1.59 and 1.84 here
        (simulate_m0(400, 0.01, 5, seed=3), 200, 1.59),
        (simulate_m0(400, 0.01, 5, seed=3), 1600, 1.84),
    ],
    ids=["informative-200", "informative-1600", "no-recapture-200", "no-recapture-1600"],
)
def test_pools_draw_little_more_than_the_chain_consumes(monkeypatch, history, m_aug, bound):
    made = []
    real = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: made.append(CountingRng(real(seed))) or made[-1])
    cfg = DaConfig(m=m_aug, seed=0)
    da_gibbs(history, cfg)
    # each iteration consumes one triple
    assert cfg.iters <= made[0].triples < bound * cfg.iters


def test_forced_membership_when_psi_and_p_round_to_one():
    # every animal caught on every occasion, no augmented rows and tiny
    # second shapes: most draws have psi = p = 1 exactly, where the
    # membership odds are 0/0 and the prior forces membership
    history = CaptureHistory(k=3, rows=((1, 1, 1),) * 5)
    cfg = DaConfig(m=5, iters=2000, burnin=10, seed=3, psi_prior=(1.0, 1e-3), p_prior=BetaParams(1.0, 1e-3))
    chains = da_gibbs(history, cfg)
    assert ((chains.psi == 1.0) & (chains.p == 1.0)).any()
    assert (chains.n == 5).all()


def test_independent_seeds_agree_within_monte_carlo_error():
    history = simulate_m0(100, 0.3, 5, seed=2024)
    run = lambda seed: da_gibbs(history, DaConfig(m=300, iters=25_000, burnin=5_000, seed=seed))
    a, b = run(11), run(12)
    se_a = a.n.std(ddof=1) / np.sqrt(effective_sample_size(a.n))
    se_b = b.n.std(ddof=1) / np.sqrt(effective_sample_size(b.n))
    assert abs(a.n.mean() - b.n.mean()) <= 3.0 * np.hypot(se_a, se_b)


def test_chains_reproducible_per_seed():
    history = simulate_m0(40, 0.4, 4, seed=3)
    cfg = DaConfig(m=90, iters=2000, burnin=100, seed=8)
    assert (da_gibbs(history, cfg).n == da_gibbs(history, cfg).n).all()


@pytest.mark.parametrize("thin", [1, 3])
@pytest.mark.parametrize("free_rows", [0, 1, 63, 64, 65, 200, 5000])
def test_chain_layout_across_chunk_edges(free_rows, thin):
    # the first visit to a state fills 64 consecutive states at once: sizes at
    # and around one chunk, several chunks on data that spreads over them, and
    # a support wider than the run, where most of each chunk goes unused
    history = no_recapture_history()
    m_obs = history.n_observed
    cfg = DaConfig(m=m_obs + free_rows, iters=3000, burnin=100, thin=thin, seed=free_rows + thin)
    chains = da_gibbs(history, cfg)
    for name, dtype in (("n", np.int64), ("psi", np.float64), ("p", np.float64)):
        draws = getattr(chains, name)
        assert draws.dtype == dtype and draws.shape == (cfg.kept,), name
    assert m_obs <= chains.n.min() and chains.n.max() <= cfg.m
    assert ((0.0 <= chains.psi) & (chains.psi <= 1.0) & (0.0 <= chains.p) & (chains.p <= 1.0)).all()
    again = da_gibbs(history, cfg)
    for name in ("n", "psi", "p"):
        np.testing.assert_array_equal(getattr(again, name), getattr(chains, name), err_msg=name)


@pytest.mark.parametrize(
    "history, m_aug, iters, seed",
    [
        (simulate_m0(100, 0.3, 5, seed=7), 400, 60_000, 31),
        (no_recapture_history(), 200, 200_000, 32),
    ],
    ids=["informative", "no-recapture"],
)
def test_detection_and_inclusion_draws_match_exact_posterior_means(history, m_aug, iters, seed):
    # given N, E[p] = (a_p + n.) / (a_p + b_p + K N) and E[psi] = (a_psi + N) / (a_psi + b_psi + M);
    # averaged over the exact N-marginal they are the posterior means, which
    # swapped pools would miss
    stats = summarize(history)
    mass = da_posterior_mass(stats, m_aug, (1.0, 1.0), (1.0, 1.0))
    n = np.arange(stats.m_k1, m_aug + 1)
    chains = da_gibbs(history, DaConfig(m=m_aug, iters=iters, burnin=iters // 10, seed=seed))
    targets = {
        "p": mass @ ((1.0 + stats.n_dot) / (2.0 + stats.k * n)),
        "psi": mass @ ((1.0 + n) / (2.0 + m_aug)),
    }
    for name, target in targets.items():
        draws = getattr(chains, name)
        se = draws.std(ddof=1) / np.sqrt(effective_sample_size(draws))
        assert abs(draws.mean() - target) <= 4.0 * se, (name, draws.mean(), target, se)


@pytest.mark.parametrize(
    "history, m_aug, iters",
    [
        (simulate_m0(100, 0.3, 5, seed=7), 400, 3_000),
        (simulate_m0(400, 0.01, 5, seed=3), 1600, 20_000),
        (simulate_m0(400, 0.01, 5, seed=3), 20_000, 10_000),
    ],
    ids=["informative", "no-recapture-chunked", "no-recapture-wider-than-run"],
)
def test_each_draw_follows_the_conditionals_at_the_state_before_it(history, m_aug, iters):
    # Short chains over many states take most draws from first fills.
    chains = da_gibbs(history, DaConfig(m=m_aug, iters=iters, burnin=100, seed=5))
    assert_draws_follow_conditionals(history, m_aug, chains)


@pytest.mark.parametrize(
    "history, m_aug, iters",
    [
        (simulate_m0(100, 0.3, 5, seed=7), 400, 20_000),
        (simulate_m0(400, 0.01, 5, seed=3), 1600, 20_000),
    ],
    ids=["informative", "no-recapture"],
)
def test_draws_follow_the_conditionals_on_each_side_of_the_median_state(history, m_aug, iters):
    # blocks drawn at the wrong states of one vectorized fill, say with the
    # states reversed, can leave every residual's overall mean at 0, as
    # errors at low states offset those at high ones; split by the state
    # before each draw, they cannot
    chains = da_gibbs(history, DaConfig(m=m_aug, iters=iters, burnin=100, seed=6))
    prev = chains.n[:-1]
    low = prev <= np.median(prev)
    for side in (low, ~low):
        assert_draws_follow_conditionals(history, m_aug, chains, where=side)


@pytest.mark.parametrize("segment", [5, 64, 500])
def test_chain_crosses_segment_edges(monkeypatch, segment):
    # each segment ends by dropping every unconsumed triple; short segments
    # refill chunks and restart pointers often. Burn-in and thinning only
    # pick which of the walk's draws are kept, so a thinned run keeps exactly
    # every third draw of the full run from the same seed, and the full run
    # still follows the conditionals at the state before each draw
    monkeypatch.setattr(gibbs, "_SEGMENT", segment)
    history = no_recapture_history()
    full = da_gibbs(history, DaConfig(m=200, iters=8000, burnin=0, seed=segment))
    thinned = da_gibbs(history, DaConfig(m=200, iters=8000, burnin=10, thin=3, seed=segment))
    for name in ("n", "psi", "p"):
        np.testing.assert_array_equal(getattr(thinned, name), getattr(full, name)[10::3], err_msg=name)
    assert_draws_follow_conditionals(history, 200, full)


def assert_draws_follow_conditionals(history, m_aug, chains, where=slice(None)):
    # psi_t and p_t are drawn at N_{t-1}, and N_t - M_obs ~ Binomial(M - M_obs, pi_t)
    # with pi = psi (1-p)^K / (psi (1-p)^K + 1 - psi) at them. Each residual
    # below has mean 0 given the chain's past, however slowly the chain mixes,
    # so plain standard errors hold, also over the draws ``where`` picks by
    # that past. A block drawn at the wrong state, or an N gathered from
    # another triple than its psi and p, moves one of them.
    stats = summarize(history)
    prev, n, psi, p = chains.n[:-1], chains.n[1:], chains.psi[1:], chains.p[1:]
    w = psi * (1.0 - p) ** stats.k
    pi = w / (w + 1.0 - psi)
    free = m_aug - stats.m_k1
    count = n - stats.m_k1 - free * pi
    residuals = {
        "p": p - (1.0 + stats.n_dot) / (2.0 + stats.k * prev),
        "psi": psi - (1.0 + prev) / (2.0 + m_aug),
        "N mean": count,
        "N variance": count**2 - free * pi * (1.0 - pi),
    }
    for name, r in residuals.items():
        r = r[where]
        se = r.std(ddof=1) / np.sqrt(r.size)
        assert abs(r.mean()) <= 4.0 * se, (name, r.mean(), se)


def test_fixed_psi_gives_exact_conjugate_detection_chain():
    # with M equal to the observed count there are no augmented rows, every
    # row is a member, and the p-draws are iid Beta(a_p + n., b_p + K M - n.)
    history = simulate_m0(30, 0.4, 4, seed=77)
    stats = summarize(history)
    m = stats.m_k1
    chains = da_gibbs(history, DaConfig(m=m, iters=110_000, burnin=10_000, seed=21))
    assert (chains.n == m).all()
    target = beta_rv(1 + stats.n_dot, 1 + 4 * m - stats.n_dot)
    assert kstest(chains.p, target.cdf).pvalue > 0.01


def test_augmented_size_must_cover_observed():
    history = simulate_m0(40, 0.5, 4, seed=3)
    stats = summarize(history)
    with pytest.raises(ValueError, match="below"):
        da_gibbs(history, DaConfig(m=stats.m_k1 - 1, iters=100, burnin=10, seed=0))


def test_config_validation():
    with pytest.raises(ValueError):
        DaConfig(m=10, iters=100, burnin=100)
    with pytest.raises(ValueError):
        DaConfig(m=10, thin=0)
    with pytest.raises(ValueError):
        DaConfig(m=10, psi_prior=(0.0, 1.0))
    with pytest.raises(ValueError, match="seed must be a nonnegative integer, got -1"):
        DaConfig(m=10, seed=-1)


@pytest.mark.parametrize("iters, burnin, thin", [(101, 100, 1), (200, 100, 100), (200, 100, 150)])
def test_config_rejects_settings_that_keep_one_draw(iters, burnin, thin):
    # one retained draw has no sd: a sweep of such chains read "stable"
    # with NaN sds and slope
    with pytest.raises(ValueError, match="keep 1 draw"):
        DaConfig(m=400, iters=iters, burnin=burnin, thin=thin)
    assert DaConfig(m=400, iters=iters + thin, burnin=burnin, thin=thin).kept == 2


@pytest.mark.parametrize("psi_prior", [(np.nan, 1.0), (1.0, np.nan)])
def test_config_rejects_nan_psi_prior(psi_prior):
    with pytest.raises(ValueError, match="psi"):
        DaConfig(m=10, psi_prior=psi_prior)


def test_summary_and_ess():
    history = simulate_m0(50, 0.4, 4, seed=9)
    chains = da_gibbs(history, DaConfig(m=150, iters=6000, burnin=500, seed=14))
    for chain in (chains.n, chains.psi, chains.p):
        assert 0 < effective_sample_size(chain) <= chains.n.size


def test_ess_near_n_for_iid_draws():
    rng = np.random.default_rng(0)
    ess = effective_sample_size(rng.normal(size=20_000))
    assert 0.8 * 20_000 <= ess <= 1.2 * 20_000


def test_ess_of_fixed_ar1_chain_is_pinned():
    # AR(1) with phi = 0.8 has integrated autocorrelation time (1 + phi) / (1 - phi) = 9,
    # so the ESS of 5000 draws is near 5000 / 9
    rng = np.random.default_rng(3)
    noise = rng.normal(size=5000)
    chain = np.empty(5000)
    chain[0] = noise[0]
    for t in range(1, chain.size):
        chain[t] = 0.8 * chain[t - 1] + noise[t]
    assert effective_sample_size(chain) == pytest.approx(625.9292413444125, rel=1e-12)


@pytest.mark.parametrize("phi", [0.0, 0.5, 0.9, -0.6])
@pytest.mark.parametrize("n", [4, 5, 6, 7, 50, 3001])
def test_ess_matches_pair_by_pair_scan(n, phi):
    # the vectorized scan stops at the first negative pair, as the loop does;
    # the two autocovariances differ only in rounding
    rng = np.random.default_rng(n)
    chain = np.empty(n)
    chain[0] = rng.normal()
    for t in range(1, n):
        chain[t] = phi * chain[t - 1] + rng.normal()
    for x in (chain, chain + 0.01 * np.arange(n)):
        assert effective_sample_size(x) == pytest.approx(pairwise_effective_sample_size(x), rel=1e-12)


class TestMSweep:
    def test_no_recaptures_mean_grows_with_augmentation(self):
        report = m_sweep(
            no_recapture_history(),
            [200, 500, 1000],
            DaConfig(m=1000, iters=30_000, burnin=3_000, seed=9),
        )
        means = [e.mean_n for e in report.entries]
        assert means[0] < means[1] < means[2]
        assert report.slope_z > 3.0
        assert not report.stable
        # exact grid shows the same growth: the improperness is real, not chain noise
        _, t200 = exact_grid_mass(no_recapture_history(), 200)
        _, t1000 = exact_grid_mass(no_recapture_history(), 1000)
        assert t1000.mean > 1.5 * t200.mean

    def test_informative_data_mean_stable(self):
        history = simulate_m0(50, 0.5, 5, seed=31)
        report = m_sweep(
            history, [490, 735, 980], DaConfig(m=980, iters=30_000, burnin=3_000, seed=9)
        )
        assert report.stable
        assert report.relative_change < 0.05

    def test_endpoint_sd_ratio_reported(self):
        report = m_sweep(
            no_recapture_history(),
            [200, 1000],
            DaConfig(m=1000, iters=20_000, burnin=2_000, seed=4),
        )
        assert report.sd_ratio > 1.0  # spreading support inflates the sd when improper

    def test_first_size_at_observed_count_gives_infinite_sd_ratio(self):
        history = simulate_m0(100, 0.3, 5, seed=7)
        assert history.n_observed == 82
        report = m_sweep(history, [82, 282], DaConfig(m=282, iters=2000, burnin=200, seed=0))
        assert report.entries[0].sd_n == 0.0  # no free rows, so N is pinned at 82
        assert report.entries[-1].sd_n > 0.0
        assert report.sd_ratio == np.inf

    def test_validation(self):
        for m_values in ([200], [200, 200]):
            with pytest.raises(ValueError, match="two"):
                m_sweep(no_recapture_history(), m_values, DaConfig(m=200))
        with pytest.raises(ValueError, match="cover"):
            m_sweep(no_recapture_history(), [2, 200], DaConfig(m=200))
        # sds 0, 4.9 and 0 would give a 0/0 sd ratio
        with pytest.raises(ValueError, match="first and last"):
            m_sweep(simulate_m0(100, 0.3, 5, seed=7), [82, 282, 82],
                    DaConfig(m=282, iters=500, burnin=50))

    def test_serialization(self, tmp_path):
        report = m_sweep(
            no_recapture_history(),
            [50, 200],
            DaConfig(m=200, iters=4000, burnin=400, seed=2),
        )
        report.write_json(tmp_path / "s.json")
        report.write_csv(tmp_path / "s.csv")
        payload = json.loads((tmp_path / "s.json").read_text())
        assert [e["M"] for e in payload["entries"]] == [50, 200]
        assert payload["entries"] == [
            {"M": e.m, "mean_N": e.mean_n, "sd_N": e.sd_n, "ess": e.ess, "se_mean": e.se_mean}
            for e in report.entries
        ]
        assert payload["slope"] == report.slope
        assert all(type(e.se_mean) is float for e in report.entries)
        header, *rows = (tmp_path / "s.csv").read_text().splitlines()
        assert header == "M,mean_N,sd_N,ess"
        assert [[float(v) for v in row.split(",")] for row in rows] == [
            [e.m, e.mean_n, e.sd_n, e.ess] for e in report.entries
        ]
