"""Normalized discrete posteriors of population size on truncated supports.

For the constant-detection model the detection probability is integrated out
in closed form; for the heterogeneous model the two Beta-population shapes
get independent Gamma(shape, common scale) priors and are integrated out by
one rule, a trapezoid rule on a sinh map about the integrand's mode in
(log(alpha + beta), log(alpha/beta)) (see MhMarginalKernel). Truncation is
never hidden: every table carries a power-law extrapolation of the mass
beyond its upper endpoint and warns when that extrapolation diverges. The
prior on N is N^-s, the one table ``_N_PRIORS`` naming each power s.
"""

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.special import gammaln

from .data import FloatColumn, SufficientStats, write_json, write_table_csv
from .likelihoods import BetaParams, _as_grid, _gammaln_over, _maybe_scalar, _mh_log_factors, _on_support, log_falling


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

    def body(safe):
        out = log_falling(safe, m)
        out += _gammaln_over(k * safe - n_dot + beta.b)
        out -= _gammaln_over(k * safe + beta.a + beta.b)
        return out

    return _on_support(n, m, body)


# numpy's exp is 5-15x slower on arguments that underflow, and most mh nodes
# lie far below the largest term; a term floored at e^-700 adds at most
# 1e-304 to a sum of at least 1, which rounds it away
_LOG_FLOOR = -700.0

# A run of consecutive N in _excess_sums lasts at most _RUN_CAP steps, and at
# most as many as keep every node's gain on any other within _RUN_GAIN: a
# term floored at the run's start then stays below e^(_LOG_FLOOR + _RUN_GAIN)
# = e^-100 of the largest, and the cap bounds the rounding that the running
# product adds (one rounding per step and node). Runs shorter than _RUN_MIN
# take the per-N pass: their saving would not pay for the exp that makes
# the step factor.
_RUN_GAIN = 600.0
_RUN_CAP = 256
_RUN_MIN = 3


def _floored_exp(values: np.ndarray):
    """The largest entry ``top``; if it is finite, overwrites ``values`` with
    exp(values - top), each term floored at e^_LOG_FLOOR."""
    top = values.max()
    if np.isfinite(top):
        values -= top
        np.maximum(values, _LOG_FLOOR, out=values)
        np.exp(values, out=values)
    return top


def _log_sum_exp(values: np.ndarray) -> float:
    """log(sum(exp(values))) over every entry, shifted by the largest one.

    Every entry -inf gives -inf; a NaN anywhere gives NaN. Works in place:
    ``values`` is overwritten.
    """
    top = _floored_exp(values)
    if not np.isfinite(top):
        return float(top)
    return float(top + np.log(values.sum()))


def _excess_sums(base: np.ndarray, log_zero_cell: np.ndarray, excess: np.ndarray) -> np.ndarray:
    """``_log_sum_exp(base + e * log_zero_cell)`` over fixed nodes, for each
    excess e = N - M, all in one work array.

    Consecutive unit steps of e are summed in runs: one exact pass at the
    run's first e leaves w = exp(base + e * log_zero_cell - top) floored as
    in ``_log_sum_exp``, and each further step multiplies w by x =
    exp(log_zero_cell - min log_zero_cell) and sums it, adding the minimum
    back to the shift. Since 1 <= x <= e^spread, spread being the range of
    log_zero_cell over the nodes, a run of at most _RUN_GAIN / spread steps
    keeps every term within [e^-700, e^600] of the run's top: no term
    underflows, and none floored at the start gains more than _RUN_GAIN on
    the top. Runs stop at _RUN_CAP steps and then start afresh. Non-unit
    steps, runs shorter than _RUN_MIN, a NaN or infinite spread and every N
    whose pass has a NaN or an infinite largest term take one pass per N,
    so NaN comes out as NaN. (N = M, the one N without the zero-cell
    factor, gets a block of its own from ``MhMarginalKernel._blocks``.)
    """
    out = np.empty(len(excess))
    work = np.empty(np.broadcast_shapes(base.shape, log_zero_cell.shape))
    low = log_zero_cell.min()
    spread = float(log_zero_cell.max() - low)
    if not spread < np.inf:  # NaN or infinite: one pass per N
        longest = 1
    else:
        longest = _RUN_CAP if spread * _RUN_CAP <= _RUN_GAIN else int(_RUN_GAIN / spread)
    gain = None  # x, made at the first run
    i = 0
    # the last index of each maximal run of unit steps
    for last in [*np.flatnonzero(np.diff(excess) != 1.0).tolist(), len(excess) - 1]:
        while i <= last:
            np.multiply(log_zero_cell, excess[i], out=work)
            work += base
            top = _floored_exp(work)
            if not np.isfinite(top):
                out[i] = top
                i += 1
                continue
            steps = min(longest, last + 1 - i)
            if steps < _RUN_MIN:
                out[i] = top + np.log(work.sum())
                i += 1
                continue
            if gain is None:
                gain = np.exp(log_zero_cell - low)
            sums = np.empty(steps)
            sums[0] = work.sum()
            for j in range(1, steps):
                work *= gain
                sums[j] = work.sum()
            out[i : i + steps] = top + low * np.arange(steps) + np.log(sums)
            i += steps
    return out


# Each node array holds n^2 entries per node set, so the node counts are
# capped: one check set at the cap (363^2 = 131769 nodes, 1 MB per array)
# raises a process's peak RSS by about 10 MB and takes about 20 ms of CPU
# time, plus 0.4 ms per further N that shares it (40 animals over 8
# occasions, one thread of a 2-vCPU Xeon VM)
_MAX_NODES = 363

# Consecutive grid points share one node set while each point and the
# block's centre lie within this many standardized units of each other,
# measured both ways: the point in the units of the centre's Cholesky
# factor, and the centre in the units of the point's own factor. The second
# catches a point whose integrand is narrower than the centre's, so that a
# shift small in the centre's units is large in its own. The centre is the
# block's first point where the integrand's slowest tail sets the reach, and
# a point mid-run where its body does, so that modes on both sides of it
# share its nodes (``MhMarginalKernel._blocks``). The nodes/check_nodes
# comparison guards what sharing still costs. A wider block means fewer
# node sets and fewer data-factor evaluations per grid.
_BLOCK_RADIUS = 3.0

# A block centred mid-run has a node set on a sinh map scaled to its modes'
# spread (``MhMarginalKernel._node_sets``), so its nodes stay about as fine
# as at the centre out to its farthest mode. It also takes in points up to
# _SHAPE_RADIUS units away, both ways, where the point's factor L_j is
# within _SHAPE_RATIO of the centre's L_c: both singular values of
# L_c^-1 L_j in [1/_SHAPE_RATIO, _SHAPE_RATIO]. That is the regime of the
# propriety fit grid, where successive N only shift the integrand. A point
# of another shape keeps _BLOCK_RADIUS: one narrower than the centre sees a
# coarser grid in its own units, and one wider widens the block's body.
_SHAPE_RADIUS = 6.0
_SHAPE_RATIO = 1.1

# Reach of a node set, in standardized units on either side of its centre:
# _BODY_REACH covers a Gaussian body to e^-40 (9 units) about a point's own
# mode, which lies up to _BLOCK_RADIUS units from the centre of a block
# whose tail sets the reach. A block centred mid-run holds points up to
# _SHAPE_RADIUS units away, and wider than the centre, and reaches
# _BODY_REACH of each point's own units past its mode (at least _BODY_REACH
# of the centre's); _BODY_REACH also decides which blocks centre mid-run.
# Beyond that body the slowest exponential tail of the integrand must fall
# by e^_TAIL_DROP. The reach never exceeds sinh(_MAX_SPAN) = 202 units.
_BODY_REACH = 9.0 + _BLOCK_RADIUS
_TAIL_DROP = 40.0
_MAX_SPAN = 6.0

# Node coordinates log(alpha + beta) are capped at this value, where the
# prior's e^(-(alpha + beta)/c) has long reached 0. The data factor is
# evaluated with log alpha and log beta floored at minus this value, so
# alpha, beta and alpha/beta stay finite and positive and no node turns
# into a NaN; the prior weight uses the node's own log alpha and log beta.
_MAX_LOG_SHAPE = 350.0

# A row of nodes shares s = log(alpha + beta), so the data factor takes its
# log(alpha + beta + j) terms once per row from e^s. The floors add at most
# 2 e^-350 to alpha + beta: below the rounding of e^s + j for j >= 1
# everywhere, and of e^s itself while s >= this value (e^-50 relative). Rows
# below it take log(alpha + beta) node by node from the floored logs.
_ROW_TOTAL_MIN = -300.0

# What a failed check says, after the change it saw
_CONVERGENCE_ADVICE = (
    "the mode-centred sinh rule has too few nodes for this integrand; raise "
    "nodes/check_nodes (e.g. 128/192) or relax rtol"
)

# Newton search for the mode in (log alpha, log beta): at most this many
# steps, each at most this long per coordinate; a point stops once its step
# is shorter than the tolerance.
_MODE_MAX_ITER = 100
_MODE_MAX_STEP = 3.0
_MODE_TOL = 1e-8


def _cholesky_centre(u, v, huu, hvv, huv) -> np.ndarray:
    """(s, r, l11, l21, l22) at (u, v) = (log alpha, log beta), given the
    Hessian (huu, hvv, huv) of the log integrand there: the point in (s, r) =
    (log(alpha + beta), log(alpha/beta)) and the lower Cholesky factor of
    (-H)^-1 in (s, r), in closed form. Not finite or not positive on its
    diagonal where H is not negative definite (``_usable``)."""
    # J has columns (1, 1) for s and (1 - p, -p) for r, p = alpha/(alpha + beta)
    p = 1.0 / (1.0 + np.exp(v - u))
    hss = huu + 2.0 * huv + hvv
    hsr = (1.0 - p) * huu + (1.0 - 2.0 * p) * huv - p * hvv
    hrr = (1.0 - p) ** 2 * huu - 2.0 * p * (1.0 - p) * huv + p**2 * hvv
    det = hss * hrr - hsr**2
    return np.stack([np.logaddexp(u, v), u - v, np.sqrt(-hrr / det), hsr / np.sqrt(-hrr * det), 1.0 / np.sqrt(-hrr)])


def _uphill_step(gu, gv, huu, hvv, huv):
    """The Newton step -|H|^-1 g for the gradient (gu, gv) and Hessian (huu,
    hvv, huv), where |H| has H's eigenvectors and the magnitudes of its
    eigenvalues, floored at 1e-6: where H is not negative definite, a step
    uphill along every eigenvector, scaled by its curvature. A gradient step
    instead crawls along a ridge whose curvature across is far larger than
    along it, zigzagging across it."""
    theta = 0.5 * np.arctan2(2.0 * huv, huu - hvv)
    cos, sin = np.cos(theta), np.sin(theta)
    curv1 = np.abs(huu * cos * cos + 2.0 * huv * sin * cos + hvv * sin * sin)
    curv2 = np.abs(huu * sin * sin - 2.0 * huv * sin * cos + hvv * cos * cos)
    d1 = (gu * cos + gv * sin) / np.maximum(curv1, 1e-6)
    d2 = (gv * cos - gu * sin) / np.maximum(curv2, 1e-6)
    return d1 * cos - d2 * sin, d1 * sin + d2 * cos


def _usable(centre) -> np.ndarray:
    """Which columns of a ``_cholesky_centre`` array are finite, with a
    positive diagonal: a mode whose node set can be built."""
    centre = np.asarray(centre)
    return np.isfinite(centre).all(axis=0) & (centre[2] > 0) & (centre[4] > 0)


def _offsets(centre: np.ndarray, i, j) -> np.ndarray:
    """|L_j^-1 (mode_i - mode_j)| for columns i and j of a 5-row centre
    array (s, r, l11, l21, l22), one of i, j an index array or a slice."""
    s, r, l11, l21, l22 = centre
    z1 = (s[i] - s[j]) / l11[j]
    z2 = (r[i] - r[j] - l21[j] * z1) / l22[j]
    dist = np.hypot(z1, z2)
    # np.hypot (the C library's) and math.hypot may differ in the last bit:
    # within 1e-9 of a radius math.hypot decides, so the blocks do not
    # depend on the C library
    near = np.flatnonzero((np.abs(dist - _BLOCK_RADIUS) < 1e-9) | (np.abs(dist - _SHAPE_RADIUS) < 1e-9))
    dist[near] = [math.hypot(*z) for z in zip(z1[near].tolist(), z2[near].tolist())]
    return dist


def _sinh_map(reach: float, spread: float, n_nodes: int):
    """Nodes z = spread sinh(t / spread) and their log weights log(h cosh(t /
    spread)), t on an even grid of ``n_nodes`` points and step h over [-T, T]
    with T = spread asinh(reach / spread): the nodes reach +-reach. At spread
    1 this is the plain map z = sinh t, bit for bit."""
    end = spread * math.asinh(reach / spread)
    t, h = np.linspace(-end, end, n_nodes, retstep=True)
    return spread * np.sinh(t / spread), np.log(h * np.cosh(t / spread))


class MhMarginalKernel:
    """Log marginal kernel of N for Beta-heterogeneous detection.

    Combines the combinatorial term with the expectation of the integrated
    likelihood's data factor over the Gamma priors on (alpha, beta): the
    observed-animal product times the zero-cell factor to the power N - M,
    both from one pass over the cells (``_log_factors``), which the mode
    search and the node sets both call.

    One rule integrates it, a trapezoid rule on a double-exponential (sinh)
    map about the integrand's mode (Takahasi & Mori 1974). It works in
    (s, r) = (log(alpha + beta), log(alpha/beta)), where the integrand's
    exponential tails run along the axes: alpha -> 0 and beta -> 0 are the
    two ends of r, alpha + beta -> 0 the left end of s (a map of unit
    Jacobian from (log alpha, log beta)). The mode and the Cholesky factor L
    of the inverse negative Hessian there come from ``_mode_centre``; each
    axis takes an even grid of t on [-T, T], and the nodes sit at centre +
    L (z_j, z_k), z = spread sinh(t / spread), with weights h cosh(t /
    spread). Near the mode the nodes follow an integrand that sharpens like
    a posterior as animals accumulate; far from it the map turns the
    exponential tails, heavy on sparse data, into double-exponential ones.
    The reach of a node set is set by its slowest tail (``_node_sets``), so
    data-rich sets get a fine grid over a short reach and sparse ones a
    long reach. ``_blocks`` groups consecutive N into blocks that share one
    centre, so each block gets one node set (runs of grid points that share
    nodes and log weights with the prior and the observed-animal factor
    folded in); where the integrand's body sets the reach, the centre sits
    mid-run, modes on both sides of it share its nodes, points of its
    shape join it up to 6 units away, and the spread of its map is its
    modes' largest offset from it, so that each of them sees about the
    centre's node spacing; elsewhere the spread is 1, the plain map z =
    sinh t. ``_excess_sums`` adds the zero-cell factor on every set. It sums
    runs of consecutive N by a running product, one multiply and one sum
    per N after an exact pass at the run's start; a run ends after 256
    steps, or sooner where a node could gain more than 600 on another, so
    a term floored at e^-700 at the start stays negligible. A node set
    hands the data factor the log alpha and log beta it has built and, row
    by row, log(alpha + beta) = s (``_nodes_at``), so a node costs K
    ``log1p`` calls, shared by both factors, and at most K - 1 logs, and a
    row K - 1 logs more.

    Every evaluation is repeated at ``check_nodes`` per axis on the same
    blocks; if any grid point moves by more than ``rtol`` in relative terms
    the evaluation fails with both value sets attached. ``diagnostics``
    records the rule ("sinh"), the worst observed relative change and the
    number of shared centres of the most recent call. Neither node count may
    exceed 363.
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
            "rule": "sinh",
            "nodes": nodes,
            "check_nodes": check_nodes,
            "max_rel_change": None,
            "centres": None,
        }

    def _log_expectation(self, grid: np.ndarray, n_nodes: int, blocks) -> np.ndarray:
        """Log prior expectation of the data factor at each N, summed over the
        node sets of ``_node_sets`` on ``blocks`` (from ``_blocks``). A node
        set is ``(rows, base, log_zero_cell, log_scale)``: the grid points it
        serves, its nodes' log weights plus the log observed-animal factor,
        their log zero-cell factor, and a constant added to each sum."""
        m = self.stats.m_k1
        out = np.empty_like(grid)
        for rows, base, log_zero_cell, log_scale in self._node_sets(n_nodes, grid, blocks):
            out[rows] = _excess_sums(base, log_zero_cell, grid[rows] - m) + log_scale
        g = self.gammas  # the weights leave out the Gamma priors' normalizer
        return out - (g.a + g.b) * np.log(g.c) - gammaln(g.a) - gammaln(g.b)

    def _log_factors(self, alpha, beta, log_alpha, log_beta, log_total):
        """Log observed-animal factor and log zero-cell factor (see
        :func:`likelihoods._mh_log_factors` for the arguments)."""
        return _mh_log_factors(self.stats.f_j, alpha, beta, log_alpha, log_beta, log_total)

    def _log_data(self, u, v, excess) -> np.ndarray:
        """Log data factor at (alpha, beta) = (e^u, e^v) with ``excess`` = N - M animals never caught."""
        log_obs, log_zero_cell = self._log_factors(np.exp(u), np.exp(v), u, v, np.logaddexp(u, v))
        return log_obs + excess * log_zero_cell

    def _nodes_at(self, s, r):
        """alpha, beta, log(alpha/(alpha + beta)), the log observed-animal
        factor and the log zero-cell factor at the nodes (s, r): ``s`` a
        column, nondecreasing down the
        rows and at most _MAX_LOG_SHAPE, ``r`` one row of nodes per entry of
        ``s``. The data factor sees log alpha and log beta floored at
        -_MAX_LOG_SHAPE, and log(alpha + beta) = s on the rows at or above
        _ROW_TOTAL_MIN; the rows below it, a leading run, take the logaddexp
        of the floored logs instead."""
        # log(alpha/(alpha + beta)) = -log(1 + e^-r), finite for any r
        log_share = np.minimum(r, 0.0) - np.log1p(np.exp(-np.abs(r)))
        u = s + log_share
        u, v = np.maximum(u, -_MAX_LOG_SHAPE), np.maximum(u - r, -_MAX_LOG_SHAPE)
        alpha, beta = np.exp(u), np.exp(v)
        low = int(np.count_nonzero(s < _ROW_TOTAL_MIN))
        if not low:
            return alpha, beta, log_share, *self._log_factors(alpha, beta, u, v, s)
        log_obs, log_zero_cell = np.empty((2, *np.broadcast_shapes(s.shape, r.shape)))
        for rows, log_total in ((slice(low), np.logaddexp(u[:low], v[:low])), (slice(low, None), s[low:])):
            factors = self._log_factors(alpha[rows], beta[rows], u[rows], v[rows], log_total)
            log_obs[rows], log_zero_cell[rows] = factors
        return alpha, beta, log_share, log_obs, log_zero_cell

    def _log_integrand(self, u, v, grid):
        """Log integrand at (alpha, beta) = (e^u, e^v) and each N of ``grid``,
        up to constants: the Gamma priors times the data factor."""
        g = self.gammas
        return g.a * u + g.b * v - (np.exp(u) + np.exp(v)) / g.c + self._log_data(u, v, grid - self.stats.m_k1)

    def _climb(self, grid: np.ndarray, u: np.ndarray, v: np.ndarray):
        """Damped Newton on the log integrand from (u, v) = (log alpha, log
        beta) at each N of ``grid``. Returns the end points, the log
        integrand there and the ``_mode_centre`` 5-row array of each.

        Each step takes the gradient and Hessian from one set of (K, n)
        reciprocals 1/(alpha + i), 1/(beta + i) and 1/(alpha + beta + i),
        summed over i < K with the counts on axis 0, with no Python loop over
        the cells; its line search takes the log integrand from the data
        factor of the node sets (``_log_data``). Where the Hessian is not
        negative definite the step is ``_uphill_step``; every step is capped
        at _MODE_MAX_STEP per coordinate, and a halving line search keeps it
        uphill. A point leaves the iteration once its step is shorter than
        _MODE_TOL, so the derivatives of its last step are those at its end
        point, and the search runs on the points still moving.
        """
        g, st = self.gammas, self.stats
        a, b, c = g.a, g.b, g.c
        f, k, m = st.f_j, st.k, st.m_k1
        # one row per i < K: w_i animals caught and z_i missed more than i
        # times; every sum over i below is a sum over axis 0
        i = np.arange(k, dtype=float)[:, None]
        caught = np.array([sum(f[j:]) for j in range(k)], dtype=float)[:, None]
        missed = np.array([sum(f[: k - 1 - j]) for j in range(k)], dtype=float)[:, None]
        caught_i, missed_i = caught * i, missed * i

        def derivatives(u, v, n):
            # with ra, rb, rc = 1/(alpha + i), 1/(beta + i), 1/(alpha + beta + i)
            # every term is alpha or beta times a sum over i of products of
            # these and the counts; n and e = N - M come out of the sums
            alpha, beta = np.exp(u), np.exp(v)
            ai = alpha + i
            ra, rb, rc = 1.0 / ai, 1.0 / (beta + i), 1.0 / (ai + beta)
            ra2, rb2, rc2 = ra * ra, rb * rb, rc * rc
            sc, sc2 = (caught * ra).sum(axis=0), (caught_i * ra2).sum(axis=0)
            sz, sz2, si2 = (missed * rb).sum(axis=0), (missed_i * rb2).sum(axis=0), (i * rb2).sum(axis=0)
            s1, s2, si = rc.sum(axis=0), rc2.sum(axis=0), (i * rc2).sum(axis=0)
            sbc = (rb * rc).sum(axis=0)
            e, ab = n - m, alpha * beta
            gu = a - alpha / c + alpha * (sc - n * s1)
            # the excess terms of d/dv cancel to e alpha beta rb rc
            gv = b - beta / c + beta * (sz - m * s1) + e * ab * sbc
            huu = -alpha / c + alpha * (sc2 - n * (beta * s2 + si))
            hvv = -beta / c + beta * (sz2 + e * si2 - n * (alpha * s2 + si))
            huv = n * ab * s2
            return gu, gv, huu, hvv, huv

        u, v = u.copy(), v.copy()
        hessian = np.empty((3, grid.size))
        live = np.arange(grid.size)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            value = self._log_integrand(u, v, grid)
            for _ in range(_MODE_MAX_ITER):
                n, lu, lv = grid[live], u[live], v[live]
                gu, gv, huu, hvv, huv = derivatives(lu, lv, n)
                hessian[:, live] = huu, hvv, huv
                det = huu * hvv - huv**2
                concave = (huu < 0) & (det > 0)
                du, dv = (huv * gv - hvv * gu) / det, (huv * gu - huu * gv) / det
                if not concave.all():
                    flat = ~concave
                    du[flat], dv[flat] = _uphill_step(gu[flat], gv[flat], huu[flat], hvv[flat], huv[flat])
                shrink = _MODE_MAX_STEP / np.maximum(_MODE_MAX_STEP, np.maximum(np.abs(du), np.abs(dv)))
                du, dv = du * shrink, dv * shrink
                size = np.maximum(np.abs(du), np.abs(dv))
                moving = size >= _MODE_TOL  # NaN stops too
                if not moving.any():
                    break
                live, n, lu, lv, du, dv, size = (x[moving] for x in (live, n, lu, lv, du, dv, size))
                base = value[live]
                step, trial = np.ones(live.size), np.empty(live.size)
                todo = np.arange(live.size)
                while todo.size:
                    trial[todo] = self._log_integrand(
                        lu[todo] + step[todo] * du[todo], lv[todo] + step[todo] * dv[todo], n[todo]
                    )
                    todo = todo[~(trial[todo] >= base[todo]) & (step[todo] * size[todo] >= _MODE_TOL)]
                    step[todo] /= 2.0
                u[live], v[live], value[live] = lu + step * du, lv + step * dv, trial
            else:  # out of steps: the live points have moved since their last derivatives
                hessian[:, live] = derivatives(u[live], v[live], grid[live])[2:]
            return u, v, value, _cholesky_centre(u, v, *hessian)

    def _mode_centre(self, grid: np.ndarray):
        """Mode (s, r) of the log integrand at each N and the Cholesky factor
        (l11, l21, l22) of the inverse negative Hessian there, in (s, r) =
        (log(alpha + beta), log(alpha/beta)), as one 5-row array.

        In (u, v) = (log alpha, log beta), with e = N - M, the log integrand is,
        up to constants,

            a u + b v - (alpha + beta)/c + sum_i w_i log(alpha + i)
            + sum_i (z_i + e) log(beta + i) - N sum_i log(alpha + beta + i)

        over i < K, where w_i animals were caught and z_i missed more than i
        times. Near alpha = 0 it rises like alpha^(a + M) and falls like
        e^(-e alpha S) for an S of order one, so the mode lies near alpha of
        order (a + M)/e once e exceeds a + M: the step that gives the tail
        exponent a. Damped Newton (``_climb``) starts each N at the prior
        mode (log ac, log bc) with alpha scaled down by 1 + e/(a + M) to
        match, all N at once. A point that ends on a centre that is not
        ``_usable`` restarts from the prior mode. Then one rule repairs the
        rest: wherever one of two neighbours is usable and the other not, or
        both are and their modes lie more than _BLOCK_RADIUS apart in either
        one's units, each point runs again from the other's end and keeps a
        usable end if its own centre is unusable or the end's log integrand
        is higher by more than rounding. So a start that failed, or climbed
        to a lower local mode, gives way to its neighbour's; the check moves
        on to the neighbours of each point so replaced, one point per round.
        The map u = s - log(1 + e^-r), v = s - log(1 + e^r) has
        unit Jacobian, so the mode in (u, v) is the mode in (s, r), and there
        the Hessian becomes J^T H J with J = d(u, v)/d(s, r). The quadrature
        does not centre on each of these: ``_blocks`` groups nearby N under
        one of them.
        """
        g, m = self.gammas, self.stats.m_k1
        u0, v0 = math.log(g.a * g.c), math.log(g.b * g.c)
        u, v, value, centre = self._climb(grid, u0 - np.log1p((grid - m) / (g.a + m)), np.full_like(grid, v0))

        bad = np.flatnonzero(~_usable(centre))
        if bad.size:  # the prior mode: the only other start a one-point grid has
            nu, nv, new, ends = self._climb(grid[bad], np.full(bad.size, u0), np.full(bad.size, v0))
            take = _usable(ends)
            bad = bad[take]
            u[bad], v[bad], value[bad], centre[:, bad] = nu[take], nv[take], new[take], ends[:, take]

        pairs = np.arange(grid.size - 1)
        while pairs.size:
            usable = _usable(centre)
            left, right = usable[pairs], usable[pairs + 1]
            # an unusable centre has no units to measure in: an inf entry of
            # its factor can give a finite offset
            both = pairs[left & right]
            with np.errstate(invalid="ignore"):
                apart = np.maximum(_offsets(centre, both, both + 1), _offsets(centre, both + 1, both))
            repair = left != right
            repair[left & right] = apart > _BLOCK_RADIUS
            far = pairs[repair]
            if not far.size:
                break
            # one climb: each point from its right neighbour's end, then from
            # its left one's, kept in that order
            lend = np.concatenate([far + 1, far])
            ends = self._climb(grid[np.concatenate([far, far + 1])], u[lend], v[lend])
            moved = []
            for h, p in ((slice(far.size), far), (slice(far.size, None), far + 1)):
                nu, nv, new, end = (x[..., h] for x in ends)
                take = _usable(end) & (~_usable(centre[:, p]) | (new > value[p] + 1e-10 * np.abs(value[p])))
                p = p[take]
                u[p], v[p], value[p], centre[:, p] = nu[take], nv[take], new[take], end[:, take]
                moved.append(p)
            moved = np.concatenate(moved)
            pairs = np.unique(np.concatenate([moved - 1, moved]))
            pairs = pairs[(pairs >= 0) & (pairs < grid.size - 1)]
        return centre

    def _tail_fall(self, l11, l21, l22, excess) -> float:
        """Fall per standardized unit of the integrand's slowest exponential
        tail, in the units of the Cholesky factor (l11, l21, l22) and with
        ``excess`` = N - M animals never caught (see ``_node_sets``)."""
        g, st = self.gammas, self.stats
        a, b, m, tail = g.a, g.b, st.m_k1, st.m_k1 - st.f_j[-1]
        # along r (s fixed) and along s (r fixed)
        return min(min(a + m, b + tail + excess) * l22, (a + b + tail) * l11 * l22 / math.hypot(l21, l22))

    def _blocks(self, grid: np.ndarray) -> list:
        """Consecutive runs of grid points that share one centre.

        Returns ``(block, centre, body, spread)`` tuples: ``block`` a slice
        of the grid, ``centre`` the (s, r, l11, l21, l22) of ``_mode_centre``
        at one of its points, ``body`` the part of its node set's reach that
        covers the integrand's body and ``spread`` the scale of its sinh map
        (``_node_sets``). Two points are near when their modes lie within
        ``_BLOCK_RADIUS`` = 3 of each other, both in the units z = L^-1 (ds,
        dr) of the one's Cholesky factor L and in those of the other's. A
        block starts at its first point i. Where the tail sets i's reach
        (the tail part of it, ``_TAIL_DROP / fall`` at i's own factor and
        N - M, exceeds ``_BODY_REACH``), the block runs while its points are
        near i and keeps i as centre, ``_BODY_REACH`` as body and spread 1:
        its reach is long, and a centre up to 3 units from a mode would
        leave a coarse grid about it. Otherwise i's node set is
        body-limited, and a point j is also near a centre c within
        ``_SHAPE_RADIUS`` = 6 both ways where both singular values of
        L_c^-1 L_j lie within a factor ``_SHAPE_RATIO`` = 1.1 of 1. The
        centre moves to the last point c of i's run that is near every point
        from i to c, and the block runs on past c while its points are near
        c.
        Points before c tend to be wider than c, so the body reaches
        ``_BODY_REACH`` units of each point's own factor past its mode, and
        the spread is the largest offset of a mode from c in c's units, at
        least 1. A point whose centre is not finite, or whose factor has a
        non-positive diagonal, opens a block of its own and lends its nodes
        to no other point, so its NaN stays its own. So does N = M, the only
        N without the zero-cell factor.
        """
        centre = np.stack(self._mode_centre(grid))
        usable = _usable(centre) & (grid > self.stats.m_k1)
        _, _, l11, l21, l22 = centre

        def stretch(points, c):
            # the largest and smallest singular values of the lower-triangular
            # L_c^-1 L_j for each point j, its product a11 a22 over the first
            a11, a22 = l11[points] / l11[c], l22[points] / l22[c]
            a21 = (l21[points] - l21[c] * a11) / l22[c]
            widest = (np.hypot(a11 + a22, a21) + np.hypot(a11 - a22, a21)) / 2.0
            return widest, a11 * a22 / widest

        def reach(points, c):
            # units of c's factor L_c that reach _BODY_REACH units of each
            # point's own factor past its mode, floored at _BODY_REACH, and
            # the largest offset of a mode from c, floored at 1
            offset = _offsets(centre, points, c)
            body = max(_BODY_REACH, float((offset + _BODY_REACH * stretch(points, c)[0]).max()))
            return body, max(1.0, float(offset.max()))

        def within(points, c, mid):  # which points of the slice are near c; NaN is not
            apart = np.maximum(_offsets(centre, points, c), _offsets(centre, c, points))
            if not mid:
                return (apart <= _BLOCK_RADIUS) & usable[points]
            widest, narrowest = stretch(points, c)
            same = (widest <= _SHAPE_RATIO) & (narrowest >= 1.0 / _SHAPE_RATIO)
            return (apart <= np.where(same, _SHAPE_RADIUS, _BLOCK_RADIUS)) & usable[points]

        def run_end(c, mid):
            # one distance pass per window of points after c, the window
            # doubling while every point in it is near c
            i, width = c + 1, 64
            while i < grid.size:
                ahead = slice(i, min(i + width, grid.size))
                left = np.flatnonzero(~within(ahead, c, mid))
                if left.size:
                    return i + int(left[0])
                i, width = ahead.stop, 2 * width
            return grid.size

        blocks = []
        i = 0
        with np.errstate(over="ignore", invalid="ignore"):
            while i < grid.size:
                c, stop, mid = i, i + 1, False
                if usable[i]:
                    mid = _TAIL_DROP / self._tail_fall(*centre[2:, i], grid[i] - self.stats.m_k1) <= _BODY_REACH
                    stop = run_end(i, mid)
                    if mid:
                        c = stop - 1
                        while c > i and not within(slice(i, c), c, True).all():
                            c -= 1
                        if c > i:
                            stop = run_end(c, True)
                block = slice(i, stop)
                body, spread = reach(block, c) if mid else (_BODY_REACH, 1.0)
                blocks.append((block, tuple(centre[:, c]), body, spread))
                i = stop
        return blocks

    def _node_sets(self, n_nodes: int, grid: np.ndarray, blocks):
        """One sinh node set per block, at (s, r) = centre + L (z_j, z_k)
        with z = spread sinh(t / spread), t on an even grid of step h over
        [-T, T] and weights h cosh(t / spread).

        In (s, r) the log integrand falls at rate a + M as alpha -> 0 (r to
        -inf), b + (M - f_K) + (N - M) as beta -> 0 (r to +inf) and a + b +
        (M - f_K) as alpha + beta -> 0 (s to -inf); the prior cuts s off
        double-exponentially on the right. One standardized unit moves r by
        l22 at fixed s, and s by l11 l22 / |(l21, l22)| at fixed r, so the
        slowest tail, at the block's smallest N, falls by e^_TAIL_DROP within
        _TAIL_DROP / fall units, fall being its rate times that length
        (``_tail_fall``). The reach R = spread sinh(T / spread) adds that to
        the block's body from ``_blocks``, up to sinh(_MAX_SPAN); a shorter
        reach leaves a finer grid about the mode for the same node count.
        Nodes lie h sqrt(1 + (z / spread)^2) apart, so a block whose modes
        spread up to that many units from its centre keeps a grid about as
        fine as at the centre at every mode; at spread 1 the map is plain
        z = sinh t (Takahasi & Mori 1974).
        """
        a, b, c = self.gammas.a, self.gammas.b, self.gammas.c
        for block, (s0, r0, l11, l21, l22), body, spread in blocks:
            fall = self._tail_fall(l11, l21, l22, float(grid[block].min()) - self.stats.m_k1)
            reach = min(math.sinh(_MAX_SPAN), body + _TAIL_DROP / fall)
            z, logw = _sinh_map(reach, spread, n_nodes)
            # L is lower-triangular: s, and so alpha + beta = e^s, depend on
            # the row node only; u = log alpha and v = log beta never exceed
            # s, which rises down the rows (l11 > 0)
            s = np.minimum(s0 + l11 * z, _MAX_LOG_SHAPE)
            r = r0 + l21 * z[:, None] + l22 * z[None, :]
            _, _, log_share, log_obs, log_zero_cell = self._nodes_at(s[:, None], r)
            # a u + b v with v = u - r, and the prior's -(alpha + beta)/c
            row = logw + (a + b) * s - np.exp(s) / c
            log_obs += (a + b) * log_share - b * r + row[:, None] + logw[None, :]
            yield block, log_obs, log_zero_cell, np.log(l11 * l22)

    def log_kernel(self, n):
        """Log kernel values in the shape of ``n``; raises QuadratureConvergenceError if unsettled."""
        m = self.stats.m_k1
        grid, scalar = _as_grid(n)
        shape, grid = grid.shape, grid.ravel()  # blocks run along one axis
        no_mode = np.zeros(grid.size, dtype=bool)  # where the mode search failed

        def both_counts(safe):
            # the blocks are found once and shared by both node counts
            blocks = self._blocks(safe)
            self.diagnostics["centres"] = len(blocks)
            for block, centre, *_ in blocks:
                no_mode[block] = not _usable(centre)
            log_e = [self._log_expectation(safe, n_nodes, blocks) for n_nodes in (self.nodes, self.check_nodes)]
            return log_falling(safe, m) - gammaln(m + 1) + np.stack(log_e)

        log_coarse, log_fine = _on_support(grid, m, both_counts)
        # both -inf below M is no change; NaN fails
        below_m = (log_coarse == -np.inf) & (log_fine == -np.inf)
        with np.errstate(invalid="ignore"):
            rel = np.where(below_m, 0.0, np.abs(np.expm1(log_coarse - log_fine)))
        worst = float(rel.max()) if rel.size else 0.0
        self.diagnostics["max_rel_change"] = worst
        if not worst <= self.rtol:
            nodes = f"{self.nodes}^2 and {self.check_nodes}^2 nodes"
            advice = _CONVERGENCE_ADVICE
            if np.isnan(worst):
                first = np.flatnonzero(np.isnan(rel))[0]
                what = f"returned NaN at {nodes} (first at N = {grid[first]:.15g})"
                if no_mode[first]:
                    advice = (
                        f"the mode search failed at N = {grid[first]:.15g}: no start reached a finite mode "
                        "with a negative definite Hessian, and more nodes cannot mend that"
                    )
            else:
                what = f"changed by {worst:.3e} (> rtol {self.rtol:.1e}) between {nodes}"
            raise QuadratureConvergenceError(
                f"sinh quadrature {what}; {advice}",
                log_coarse=_maybe_scalar(log_coarse.reshape(shape), scalar),
                log_fine=_maybe_scalar(log_fine.reshape(shape), scalar),
                max_rel_change=worst,
            )
        return _maybe_scalar(log_fine.reshape(shape), scalar)


@dataclass(frozen=True)
class PosteriorTable:
    """Normalized posterior of N on the integer support [n_min, n_max].

    ``tail_mass_estimate`` extrapolates the unnormalized mass beyond n_max by
    a power law fitted to the last decade of support; it is infinite when the
    fitted decay is too shallow to sum, in which case a warning explains that
    the normalization is unreliable.

    ``log_kernel`` and ``mass`` are read-only views, because the JSON and CSV
    reports share one rendering of ``mass``, made at the first write.
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

    def __post_init__(self):
        for name in ("log_kernel", "mass"):
            view = np.asarray(getattr(self, name), dtype=float).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)
        object.__setattr__(self, "_mass_column", FloatColumn(self.mass))

    def write_json(self, path: str | Path, extra: dict | None = None) -> None:
        payload = {
            "support": [self.n_min, self.n_max],
            "mass": self._mass_column,
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
        write_table_csv(path, ("N", "mass", "log_kernel"), self.n_min, self._mass_column, self.log_kernel)


def _line_fit(lx: np.ndarray, ly: np.ndarray) -> tuple[float, float, float]:
    """(slope, intercept, sxx) of the least-squares line ly = intercept +
    slope * lx. Overwrites ``lx``, which must be the caller's own float
    array, with lx - mean(lx), and uses one work array of its size."""
    lx_mean = lx.mean()
    lx -= lx_mean
    # elementwise sums, not BLAS dots, which start the BLAS thread pool and
    # slow every later chain in the process (as in effective_sample_size)
    work = lx * lx
    sxx = float(work.sum())
    np.multiply(lx, ly, out=work)
    slope = float(work.sum()) / sxx
    return slope, float(ly.mean() - slope * lx_mean), sxx


def fit_log_log_slope(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line log y = intercept + slope * log x; returns
    (slope, intercept, slope standard error)."""
    lx, ly = np.log(x), np.asarray(y, dtype=float)
    slope, intercept, sxx = _line_fit(lx, ly)
    # the residuals ly - (intercept + slope * log x), in the centred logs' place
    resid = np.log(x, out=lx)
    resid *= slope
    resid += intercept
    np.subtract(ly, resid, out=resid)
    resid *= resid
    dof = max(resid.size - 2, 1)
    stderr = float(np.sqrt(resid.sum() / dof / sxx))
    return slope, intercept, stderr


def _last_decade_line(grid: np.ndarray, log_total: np.ndarray, n_max: int) -> tuple[float, float] | None:
    """(slope, intercept) of the least-squares line log_total = intercept +
    slope * log N through the finite points of the last decade, N >= n_max
    / 10, or None if it has fewer than 3. The decade is a suffix of the
    sorted ``grid``: the fit runs on views of it, or on copies of its finite
    points when it holds a non-finite one."""
    start = int(np.searchsorted(grid, n_max / 10.0))
    lx, ly = grid[start:], log_total[start:]
    finite = np.isfinite(ly)
    if finite.all():
        lx = np.log(lx)
    else:
        lx, ly = np.log(lx[finite]), ly[finite]
    if lx.size < 3:
        return None
    slope, intercept, _ = _line_fit(lx, ly)
    return slope, intercept


_N_PRIORS = {"uniform": 0.0, "scale": 1.0}  # each prior on N is N^-s, by its power s


def _prior_power(n_prior: str) -> float:
    """The power s of the prior N^-s named ``n_prior``: prior times a kernel
    that decays like N^-d is proper iff d + s > 1."""
    if n_prior not in _N_PRIORS:
        raise ValueError(f"unknown prior on N: {n_prior!r}")
    return _N_PRIORS[n_prior]


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
    explicit ``n_min``); a prior N^-s with s > 0 shifts the start to at least 1. The
    tail beyond ``n_max`` is estimated by fitting c * N^-d to the last decade
    of the prior-times-kernel product and summing the fit analytically; for
    d within ``improper_margin`` of 1 (or below) the table is flagged as
    likely improper instead of silently reporting a normalized answer.
    """
    s = _prior_power(n_prior)
    if (stats is None) == (n_min is None):
        raise ValueError("pass exactly one of stats or n_min")
    lo = stats.m_k1 if stats is not None else int(n_min)
    if s > 0:
        lo = max(lo, 1)  # N^-s is undefined at zero
    if n_max < lo:
        raise ValueError(f"n_max = {n_max} is below the support start {lo}")
    if not 0 < level < 1:
        raise ValueError("credible level must be in (0, 1)")

    # the support as floats: the kernel's argument, the fit's x and the
    # moments' N (a table holds at most 6 arrays of its size at once)
    grid = np.arange(lo, n_max + 1, dtype=float)
    logk = np.asarray(log_kernel(grid), dtype=float)
    if np.isnan(logk).any():
        raise ValueError("kernel returned NaN on the support")
    # the log prior -s log N, added, as numpy reuses a temporary for an add but
    # not a subtract; the flat prior adds nothing, so its log_total is logk itself
    log_total = logk + -s * np.log(grid) if s else logk
    if not np.isfinite(log_total).any():
        raise ValueError("kernel is zero everywhere on the support")

    line = _last_decade_line(grid, log_total, n_max)  # before the mass exists
    # one buffer holds the copy that log_z consumes, then the mass
    mass = log_total.copy()
    log_z = _log_sum_exp(mass)
    np.subtract(log_total, log_z, out=mass)
    np.exp(mass, out=mass)
    del log_total  # a non-flat prior's copy goes before the work array comes

    warnings: list[str] = []
    tail_exponent = np.nan
    tail_mass = np.nan
    if line is not None:
        slope, intercept = line
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

    # the moments and the CDF share one work array; elementwise sums, not
    # BLAS dots (see _line_fit)
    work = np.multiply(mass, grid)
    mean = float(work.sum())
    np.subtract(grid, mean, out=work)
    np.square(work, out=work)
    work *= mass
    var = float(work.sum())
    sd = float(np.sqrt(max(var, 0.0)))
    cdf = np.cumsum(mass, out=work)
    lo_q, hi_q = (1.0 - level) / 2.0, 1.0 - (1.0 - level) / 2.0
    ci = (
        float(grid[int(np.searchsorted(cdf, lo_q))]),
        float(grid[min(int(np.searchsorted(cdf, hi_q)), grid.size - 1)]),
    )

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
