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

from array import array
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .data import CaptureHistory, summarize, write_csv, write_json
from .likelihoods import BetaParams

# triples drawn at a state's first visit; each refill of that state doubles it
_FIRST_BLOCK = 16


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
    # FFT autocovariance
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, size)
    acov = np.fft.irfft(f * np.conjugate(f), size)[:n].real / n
    rho = acov / var
    tau = 1.0
    m = 1
    while m + 1 < n:
        pair = rho[m] + rho[m + 1]
        if pair < 0.0:
            break
        tau += 2.0 * pair
        m += 2
    return float(n / max(tau, 1.0))


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
    the triples are drawn ahead, per state, in vectorized blocks: a state
    whose block is empty gets a fresh one, ``_FIRST_BLOCK`` triples at its
    first visit and twice the previous block's size at each later refill.
    Each visit consumes one triple, none is reused, and the entries of a
    block are i.i.d. and independent of the chain's past, so the chain has
    exactly the one-draw-at-a-time Gibbs transition kernel and stationary
    law; only the use of the random stream differs. A state visited v times
    draws at most 2v + 14 triples, so a run draws at most
    2 iters + 16 (distinct states) triples, and leaves fewer than
    iters + 16 (distinct states) of them unused.
    """
    stats = summarize(data)
    m_k1, k, n_dot = stats.m_k1, stats.k, stats.n_dot
    if config.m < m_k1:
        raise ValueError(f"augmented size {config.m} is below the {m_k1} observed animals")
    n_free = config.m - m_k1
    rng = np.random.default_rng(config.seed)
    a_p, b_p = config.p_prior.a, config.p_prior.b
    a_psi, b_psi = config.psi_prior

    def draw_block(extra: int, size: int) -> array:
        """``size`` triples for state ``extra``, laid out so that popping from
        the end gives p, then psi, then the next state (exact as a float)."""
        members = m_k1 + extra
        p = rng.beta(a_p + n_dot, b_p + k * members - n_dot, size)
        psi = rng.beta(a_psi + members, b_psi + config.m - members, size)
        w = psi * (1.0 - p) ** k
        denom = w + (1.0 - psi)
        # w / denom cannot round above 1; denom is 0 only when psi = 1 and
        # p = 1, and membership is then forced by the prior
        prob = w / denom if denom.all() else np.divide(w, denom, out=np.ones(size), where=denom > 0.0)
        nxt = rng.binomial(n_free, prob)
        return array("d", np.stack((nxt, psi, p), axis=1).tobytes())

    # overdispersed start: fair-coin membership for the augmented rows
    extra = int(rng.binomial(n_free, 0.5))
    blocks: dict[int, array] = {}
    next_size: dict[int, int] = {}
    out_n, out_psi, out_p = np.empty(config.kept, dtype=np.int64), np.empty(config.kept), np.empty(config.kept)
    # a memoryview stores a Python scalar about twice as fast as an ndarray does
    n_view, psi_view, p_view = memoryview(out_n), memoryview(out_psi), memoryview(out_p)
    idx = 0
    burnin, thin = config.burnin, config.thin
    for it in range(config.iters):
        block = blocks.get(extra)
        if not block:
            size = next_size.get(extra, _FIRST_BLOCK)
            next_size[extra] = 2 * size
            block = blocks[extra] = draw_block(extra, size)
        p = block.pop()
        psi = block.pop()
        extra = int(block.pop())
        if it >= burnin and (it - burnin) % thin == 0:
            n_view[idx] = m_k1 + extra
            psi_view[idx] = psi
            p_view[idx] = p
            idx += 1
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
