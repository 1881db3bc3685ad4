"""Data-augmentation Gibbs sampler for the constant-detection model.

The population is embedded in a fixed superpopulation of M rows (the observed
animals plus M - M_obs all-zero rows); each row carries a membership
indicator z_i with inclusion probability psi, and detections are Bernoulli
only for members. With psi ~ Beta(1, 1) the induced prior on N = sum(z) is
discrete uniform on {0..M}, so the chain's N-marginal can be validated
against the exact truncated grid posterior. The sweep utility reruns the
chain for increasing M: when the underlying posterior is improper the mean
of N keeps climbing with M, which is the diagnostic this module exists for.
"""

from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np
from scipy.special import gammaln

from .data import CaptureHistory, SufficientStats, summarize, write_csv, write_json
from .likelihoods import BetaParams
from .posterior import _log_sum_exp, m0_marginal_log_kernel

# a chunk fill gives the states of the aligned chunk of this many consecutive
# states their first blocks at once
_CHUNK = 64
# the walk drops its unconsumed triples after each segment of this many
# iterations, so that its memory does not grow with the run's length
_SEGMENT = 1 << 18


@dataclass(frozen=True)
class DaConfig:
    """Chain settings for the augmented sampler.

    ``psi_prior`` are the Beta shapes on the inclusion probability; (1, 1)
    induces a flat prior on N over {0..M}, while a small first shape such as
    (0.001, 1) only *approximates* a 1/N prior on N (the induced prior is
    beta-binomial, not exactly scale).
    """

    m: int
    iters: int = 20_000
    burnin: int = 2_000
    thin: int = 1
    seed: int = 0
    psi_prior: tuple[float, float] = (1.0, 1.0)
    p_prior: BetaParams = field(default_factory=lambda: BetaParams(1.0, 1.0))

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("augmented size must be nonnegative")
        if not self.iters > self.burnin >= 0:
            raise ValueError("need iters > burnin >= 0")
        if self.thin < 1:
            raise ValueError("thin must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")
        if self.kept < 2:
            raise ValueError(
                f"iters {self.iters}, burnin {self.burnin} and thin {self.thin} keep {self.kept} draw(s); "
                "a chain's sd needs at least 2"
            )
        if not (self.psi_prior[0] > 0 and self.psi_prior[1] > 0):
            raise ValueError("psi prior shapes must be positive")

    @property
    def kept(self) -> int:
        """Number of retained draws: iterations burnin, burnin + thin, ... below iters."""
        return len(range(self.burnin, self.iters, self.thin))


@dataclass
class DaChains:
    """Retained draws of one chain."""

    n: np.ndarray
    psi: np.ndarray
    p: np.ndarray


def effective_sample_size(chain: np.ndarray) -> float:
    """ESS via the initial-positive-sequence rule on autocorrelation pairs."""
    x = np.asarray(chain, dtype=float)
    n = x.size
    if n < 4:
        return float(n)
    x = x - x.mean()
    # an elementwise sum, not the BLAS dot x @ x, which starts the BLAS thread
    # pool and slows every later chain in the process
    var = float((x * x).sum()) / n
    if var == 0.0:
        return float(n)
    # FFT autocovariance, exact (no wrap-around) at any length of at least
    # 2n - 1; imported here, as scipy.fft adds 20 ms to the package's import
    from scipy.fft import next_fast_len

    size = next_fast_len(2 * n - 1, real=True)
    f = np.fft.rfft(x, size)
    acov = np.fft.irfft(f * np.conjugate(f), size)[:n] / n
    rho = acov / var
    # pairs rho[m] + rho[m + 1] at m = 1, 3, ..., summed up to the first negative one
    pairs = rho[1 : n - 1 : 2] + rho[2:n:2]
    negative = np.flatnonzero(pairs < 0.0)
    stop = int(negative[0]) if negative.size else pairs.size
    # cumsum adds in order, so tau rounds as the pair-by-pair sum 1 + 2 p_1 + ...
    tau = float(np.cumsum(np.concatenate(([1.0], 2.0 * pairs[:stop])))[-1])
    return float(n / max(tau, 1.0))


def _da_log_mass(stats: SufficientStats, config: DaConfig) -> np.ndarray:
    """Exact log N-marginal of the augmented model at N = M_obs..M, normalized.

    Summing out psi and the membership of the M rows leaves the prior
    N ~ BetaBinomial(M, a_psi, b_psi); summing out p leaves the m0 kernel.
    This is the chain's stationary law, used to size its triple pools.
    """
    a_psi, b_psi = config.psi_prior
    n = np.arange(stats.m_k1, config.m + 1, dtype=float)
    log_post = m0_marginal_log_kernel(n, stats, config.p_prior)
    # the Beta-binomial pmf up to its constant: C(M, N) B(a_psi + N, b_psi + M - N)
    log_post += gammaln(a_psi + n) - gammaln(n + 1.0) + gammaln(b_psi + config.m - n) - gammaln(config.m - n + 1.0)
    return log_post - _log_sum_exp(log_post.copy())


def _block_size(visits):
    """Triples to draw for a state expected ``visits`` times: two Poisson
    standard deviations above that, and at least two, as one more draw costs
    far less than the call that would refill a state the chain comes back to."""
    return np.maximum(np.ceil(visits + 2.0 * np.sqrt(visits)), 2.0).astype(np.int64)


def da_gibbs(data: CaptureHistory, config: DaConfig) -> DaChains:
    """Run the augmented Gibbs sampler and return the retained draws.

    Full conditionals: membership of each all-zero row is Bernoulli with odds
    psi (1-p)^K against 1 - psi (observed rows are members by construction,
    and the all-zero rows are exchangeable, so their indicator sum is drawn
    as one binomial); then p ~ Beta(a_p + n., b_p + K sum(z) - n.) and
    psi ~ Beta(a_psi + sum(z), b_psi + M - sum(z)). N = sum(z) is recorded
    after burn-in at the configured thinning.

    The chain runs on the count of augmented members, ``extra`` = N - M_obs.
    Given that state, one iteration's triple (p, psi, extra') has a fixed
    joint law: p and psi from their conditionals at N = M_obs + extra, then
    extra' ~ Binomial(M - M_obs, psi (1-p)^K / (psi (1-p)^K + 1 - psi)). So
    the triples are drawn ahead into flat pools of (extra', psi, p), where
    each state keeps a pointer to and the end of its current block. The walk
    only records the id of each triple it consumes and moves to that triple's
    next state; after each segment of ``_SEGMENT`` iterations, one fancy
    index over the segment's retained ids gathers N, psi and p.

    Block sizes come from the chain's exact stationary law pi (see
    ``_da_log_mass``): a state expected v times in the L iterations still to
    run, v = pi L, gets ``_block_size(v)`` = max(2, ceil(v + 2 sqrt(v)))
    triples, two Poisson standard deviations above its expected visits. A
    segment of S iterations starts with one vectorized draw of the blocks of
    every state with pi S >= 1. The first visit to any other state fills
    the states of that kind in the aligned chunk of ``_CHUNK`` consecutive
    states around it, in one draw; as v < 1 there, a block holds two or
    three triples. A state whose block is used up gets a fresh one, sized
    the same way from the iterations left and drawn for it alone. Each visit
    consumes one triple, none is reused, and the triples of a state are
    i.i.d. from its law and independent of the chain's past, as every block
    size depends only on pi, the config and that past. So the chain has
    exactly the one-draw-at-a-time Gibbs transition kernel and stationary
    law; only the use of the random stream differs. The same holds when a
    segment ends and the walk drops every unconsumed triple and starts the
    next segment with empty pools: those triples never moved the chain.

    Within a segment, a state's unconsumed triples are at most its last
    block, of at most pi S + 2 sqrt(pi S) + 2 triples. Over the B states
    given a block these add up to at most S + 2 sqrt(B S) + 2 B <= 2 S + 3 B,
    so with the S it consumes a segment draws at most 3 S + 3 B triples. At
    most S states have pi S >= 1, and each of at most S chunk fills adds at
    most ``_CHUNK`` states, so B <= min(M - M_obs + 1, (``_CHUNK`` + 1) S).
    That bound sizes the pools, of which only the written pages take memory;
    pi, the cold-state mask and the two pointer lists take 25 bytes per
    augmented row. Memory does not grow with ``iters`` beyond the retained
    draws.
    """
    stats = summarize(data)
    m_k1, k, n_dot = stats.m_k1, stats.k, stats.n_dot
    if config.m < m_k1:
        raise ValueError(f"augmented size {config.m} is below the {m_k1} observed animals")
    n_free = config.m - m_k1
    rng = np.random.default_rng(config.seed)
    a_p, b_p = config.p_prior.a, config.p_prior.b
    a_psi, b_psi = config.psi_prior
    mass = np.exp(_da_log_mass(stats, config))

    segment = min(config.iters, _SEGMENT)
    # the bound on triples one segment draws (see above) sizes the pools
    capacity = 3 * segment + 3 * min(n_free + 1, (_CHUNK + 1) * segment)
    nxt_pool, psi_pool, p_pool = np.empty(capacity, dtype=np.int64), np.empty(capacity), np.empty(capacity)
    # memoryviews read and store Python ints, faster than an ndarray handles
    # its numpy scalars; the walk reads nxt and stores through record
    nxt = memoryview(nxt_pool)
    # state s owns the unconsumed triples ptr[s] <= id < end[s]; end[s] = 0 until it gets a block
    ptr, end = [0] * (n_free + 1), [0] * (n_free + 1)
    top = 0

    def draw(members, size=None) -> int:
        """Fill the next free pool slots with triples drawn at N = ``members``
        (an array gives one per entry, a scalar ``size`` of them); return the first id."""
        nonlocal top
        p = rng.beta(a_p + n_dot, b_p + k * members - n_dot, size)
        psi = rng.beta(a_psi + members, b_psi + config.m - members, size)
        w = psi * (1.0 - p) ** k
        denom = w + (1.0 - psi)
        # w / denom cannot round above 1; denom is 0 only when psi = 1 and
        # p = 1, and membership is then forced by the prior
        prob = w / denom if denom.all() else np.divide(w, denom, out=np.ones(w.shape), where=denom > 0.0)
        first, top = top, top + p.size
        nxt_pool[first:top] = rng.binomial(n_free, prob)
        psi_pool[first:top] = psi
        p_pool[first:top] = p
        return first

    def fill(states: np.ndarray, left: int) -> None:
        """Give each of ``states`` its first block in one draw at per-element shapes."""
        sizes = _block_size(mass[states] * left)
        ends = draw(m_k1 + np.repeat(states, sizes)) + np.cumsum(sizes)
        for s, lo, hi in zip(states.tolist(), (ends - sizes).tolist(), ends.tolist()):
            ptr[s], end[s] = lo, hi

    out_n, out_psi, out_p = np.empty(config.kept, dtype=np.int64), np.empty(config.kept), np.empty(config.kept)
    done = 0
    # overdispersed start: fair-coin membership for the augmented rows
    extra = int(rng.binomial(n_free, 0.5))
    ids = np.empty(segment, dtype=np.int64)
    record = memoryview(ids)
    for base in range(0, config.iters, segment):
        steps = min(segment, config.iters - base)
        # states expected at least once get their blocks now; the rest, the
        # burn-in transient and the far tail, wait for a first visit
        cold = mass * steps < 1.0
        fill(np.flatnonzero(~cold), steps)
        for it in range(steps):
            i = ptr[extra]
            if i == end[extra]:
                left = steps - it
                if end[extra] == 0:
                    lo = extra - extra % _CHUNK
                    fill(lo + np.flatnonzero(cold[lo : lo + _CHUNK]), left)
                    i = ptr[extra]
                else:
                    # one state's block at scalar shapes: array-shaped ones
                    # cost more for one state than they save
                    size = int(_block_size(mass[extra] * left))
                    i = draw(m_k1 + extra, size)
                    end[extra] = i + size
            ptr[extra] = i + 1
            record[it] = i
            extra = nxt[i]
        # retained iterations are burnin, burnin + thin, ...; the first of
        # them at or past base sits this far into the segment
        skip = config.burnin - base
        kept = ids[max(skip, skip % config.thin) : it + 1 : config.thin]
        out_n[done : done + kept.size] = nxt_pool[kept]
        out_psi[done : done + kept.size] = psi_pool[kept]
        out_p[done : done + kept.size] = p_pool[kept]
        done += kept.size
        top = 0
        ptr[:] = end[:] = [0] * (n_free + 1)
    out_n += m_k1
    return DaChains(n=out_n, psi=out_psi, p=out_p)


@dataclass
class SweepEntry:
    m: int
    mean_n: float
    sd_n: float
    ess: float
    se_mean: float


@dataclass
class SweepReport:
    """Posterior mean of N as a function of the augmented size M.

    ``slope`` is the weighted least-squares slope of mean against M (weights
    from each chain's Monte Carlo standard error) and ``slope_z`` its
    significance; a posterior whose mean keeps growing with M is the
    practical signature of impropriety. ``stable`` holds when the means vary
    by less than ``stability_threshold`` relative to the first sweep point.
    ``sd_ratio`` is the last chain's sd of N over the first's; it is infinite
    when the first sd is 0, as when that M equals the observed count.
    """

    entries: list[SweepEntry]
    slope: float
    slope_se: float
    slope_z: float
    stable: bool
    relative_change: float
    sd_ratio: float
    stability_threshold: float

    def to_dict(self) -> dict:
        entries = [
            {"M": e.m, "mean_N": e.mean_n, "sd_N": e.sd_n, "ess": e.ess, "se_mean": e.se_mean}
            for e in self.entries
        ]
        return {**asdict(self), "entries": entries}

    def write_json(self, path: str | Path) -> None:
        write_json(path, self.to_dict())

    def write_csv(self, path: str | Path) -> None:
        rows = [(e.m, e.mean_n, e.sd_n, e.ess) for e in self.entries]
        write_csv(path, [("M", "mean_N", "sd_N", "ess"), *rows])


_STABILITY_THRESHOLD = 0.05


def m_sweep(data: CaptureHistory, m_values: list[int], base: DaConfig) -> SweepReport:
    """Rerun the sampler across augmented sizes and test mean-of-N stability.

    Each M gets its own chain (seeded from the base seed plus its index).
    """
    if len(set(m_values)) < 2:
        raise ValueError("need at least two distinct augmented sizes to sweep")
    if m_values[0] == m_values[-1]:
        raise ValueError("the first and last augmented sizes must differ: the sd ratio compares them")
    m_k1 = summarize(data).m_k1
    if any(m < m_k1 for m in m_values):
        raise ValueError("every augmented size must cover the observed animals")

    entries = []
    for i, m in enumerate(m_values):
        chains = da_gibbs(data, replace(base, m=int(m), seed=base.seed + i))
        ess = effective_sample_size(chains.n)
        sd = float(chains.n.std(ddof=1))
        entries.append(
            SweepEntry(
                m=int(m),
                mean_n=float(chains.n.mean()),
                sd_n=sd,
                ess=ess,
                se_mean=float(sd / np.sqrt(max(ess, 1.0))),
            )
        )

    ms = np.array([e.m for e in entries], dtype=float)
    means = np.array([e.mean_n for e in entries])
    ses = np.array([max(e.se_mean, 1e-12) for e in entries])
    w = 1.0 / ses**2
    xbar = float((w * ms).sum() / w.sum())
    sxx = float((w * (ms - xbar) ** 2).sum())
    slope = float((w * (ms - xbar) * means).sum() / sxx)
    slope_se = float(np.sqrt(1.0 / sxx))
    rel_change = float((means.max() - means.min()) / abs(means[0]))
    return SweepReport(
        entries=entries,
        slope=slope,
        slope_se=slope_se,
        slope_z=slope / slope_se if slope_se > 0 else np.inf,
        stable=rel_change < _STABILITY_THRESHOLD,
        relative_change=rel_change,
        sd_ratio=entries[-1].sd_n / entries[0].sd_n if entries[0].sd_n > 0 else np.inf,
        stability_threshold=_STABILITY_THRESHOLD,
    )
