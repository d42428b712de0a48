"""Tail constants, Hill estimates, and spectral summaries over pools.

Every ladder-based estimator reports one row per threshold so that
convergence is visible in the output rather than asserted.  Normalized
exceedance levels t * P(|X| > t^{1/alpha}) stabilize in t when the tail
actually follows the power law; the top rungs must agree within noise
before a single number is quoted.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .common import (
    STABLE_REL_CHANGE, Estimate, LadderError, Record, Z95, binomial_ci, check_coords,
    doubling_change, mean_estimate, require,
)
from .geometry import alpha_norm, magnitude_power, polar

DEFAULT_QUANTILES = (0.99, 0.995, 0.999, 0.9995, 0.9999)
DEFAULT_MIN_TOP = 50
SPECTRAL_MIN_TOP = 100


def quantile_ladder(values, min_top: int = DEFAULT_MIN_TOP) -> np.ndarray:
    """Strictly increasing thresholds at the DEFAULT_QUANTILES of values.

    Rungs whose exceedance count falls below min_top are dropped; an
    empty result raises LadderError.
    """
    return _ladder(np.asarray(values, dtype=float).ravel(), None, min_top)[0]


def _ladder(stat, ladder, min_top: int) -> tuple[np.ndarray, list]:
    """The quantile ladder of stat, or a custom ladder validated against it,
    and the number of entries of stat strictly above each rung.

    Every quantile rung, and a custom top rung, must keep min_top exceedances.
    """
    if ladder is None:
        if stat.size == 0:
            raise LadderError("cannot build a ladder from an empty sample")
        rungs = {float(t): int(k) for t, k in zip(*_top_quantiles(stat, DEFAULT_QUANTILES))
                 if t > 0.0 and k >= min_top}
        if not rungs:
            raise LadderError(f"no threshold keeps at least {min_top} exceedances; pool too small")
        cuts = sorted(rungs)
        return np.array(cuts, dtype=float), [rungs[t] for t in cuts]
    arr = np.asarray(ladder, dtype=float).ravel()
    if arr.size == 0:
        raise LadderError("ladder must contain at least one threshold")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise LadderError("ladder thresholds must be positive and finite")
    if np.any(np.diff(arr) <= 0.0):
        raise LadderError("ladder thresholds must be strictly increasing")
    counts = _exceedances(stat, arr)
    if counts[-1] < min_top:
        raise LadderError(f"top rung keeps {counts[-1]} exceedances, needs at least {min_top}")
    return arr, counts


def _top_quantiles(v: np.ndarray, qs: list[float]) -> tuple[np.ndarray, list]:
    """np.quantile(v, qs) for increasing qs, and the number of entries of v
    strictly above each quantile.

    Both come from one partition of the top tail, sorted: the quantiles
    by numpy's own linear interpolation between the same order
    statistics, the counts by bisection.  A NaN in v raises LadderError.
    """
    virtual = (v.size - 1) * np.asarray(qs)
    lo = np.floor(virtual).astype(np.intp)
    k0 = int(lo[0])
    top = np.sort(np.partition(v, k0)[k0:])  # a NaN sorts last
    if np.isnan(top[-1]):
        raise LadderError("cannot build a ladder from a sample that holds a NaN")
    a, b = top[lo - k0], top[np.minimum(lo - k0 + 1, top.size - 1)]  # n = 1 has one neighbour
    gamma = virtual - lo
    diff = b - a
    cuts = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=cuts, where=gamma >= 0.5)
    return cuts, list(top.size - np.searchsorted(top, cuts, side="right"))


def _exceedances(stat: np.ndarray, cuts) -> list[int]:
    """Number of entries of stat strictly above each cut."""
    return [int(np.count_nonzero(stat > t)) for t in cuts]


def _scaled_binomials(counts, n: int, ladder) -> tuple[Estimate, ...]:
    """t * binomial interval of k exceedances out of n, rung by rung."""
    return tuple(binomial_ci(k, n).scaled(t) for k, t in zip(counts, ladder))


@dataclasses.dataclass(frozen=True)
class HillEstimate(Record):
    """Reciprocal mean log excess over the top k order statistics."""

    alpha: float
    ci_lo: float
    ci_hi: float
    k: int
    threshold: float
    n: int
    flag: str | None = None


def hill_estimate(values, k: int) -> HillEstimate:
    """Tail index of a positive sample from its k largest values.

    The interval is alpha * (1 +- z / sqrt(k)).  A constant tail segment
    gives an infinite estimate flagged "constant-sample" instead of an
    error.
    """
    v = np.asarray(values, dtype=float).ravel()
    k = int(k)
    if k < 5:
        raise ValueError("k must be at least 5")
    if k >= v.size:
        raise ValueError("k must be smaller than the sample size")
    if not np.all(np.isfinite(v)) or np.any(v <= 0.0):
        raise ValueError("values must be positive and finite")
    part = np.partition(v, v.size - k - 1)
    threshold = float(part[v.size - k - 1])
    mean_log = float(np.mean(np.log(part[v.size - k:] / threshold)))
    if mean_log == 0.0:
        return HillEstimate(
            math.inf, math.inf, math.inf, k, threshold, v.size, "constant-sample"
        )
    alpha = 1.0 / mean_log
    hw = Z95 / math.sqrt(k) * alpha
    return HillEstimate(alpha, alpha - hw, alpha + hw, k, threshold, v.size)


@dataclasses.dataclass(frozen=True)
class TailConstantLadder(Record):
    """Signed tail constants c_+ and c_- across a threshold ladder.

    Row r estimates t_r * P(X > t_r^{1/alpha}) (plus side), the mirrored
    negative side, and their sum.  converged means the top three total
    intervals overlap pairwise.
    """

    coordinate: int
    alpha: float
    thresholds: tuple[float, ...]
    plus: tuple[Estimate, ...]
    minus: tuple[Estimate, ...]
    total: tuple[Estimate, ...]
    n: int
    converged: bool


def _interval_overlap(ests: tuple[Estimate, ...]) -> bool:
    tail = ests[-3:]
    return bool(len(tail) == 3 and max(e.ci_lo for e in tail) <= min(e.ci_hi for e in tail))


def empirical_tail_constant(
    pool, j: int, alpha: float, ladder=None, min_top: int = DEFAULT_MIN_TOP, *, power=None
) -> TailConstantLadder:
    """Ladder estimates of the signed tail constants of coordinate j.

    Thresholds live on the scale of |x|^alpha, so each rung counts
    x > t^{1/alpha} (and the mirrored left tail) and scales the relative
    frequency by t.  power, when given, is the column |x_j|^alpha already
    computed (magnitude_power).
    """
    require(alpha, "alpha")
    check_coords(pool.x_post.shape[1], j)
    x = pool.x_post[:, j]
    ladder, _ = _ladder(magnitude_power(x, alpha) if power is None else power, ladder, min_top)
    cuts = [t ** (1.0 / alpha) for t in ladder]
    kp = _exceedances(x, cuts)
    km = [int(np.count_nonzero(x < -c)) for c in cuts]
    total = _scaled_binomials([a + b for a, b in zip(kp, km)], x.size, ladder)
    return TailConstantLadder(
        coordinate=j,
        alpha=float(alpha),
        thresholds=tuple(float(t) for t in ladder),
        plus=_scaled_binomials(kp, x.size, ladder),
        minus=_scaled_binomials(km, x.size, ladder),
        total=total,
        n=x.size,
        converged=_interval_overlap(total),
    )


@dataclasses.dataclass(frozen=True)
class GoldieConstant(Record):
    """Tail constants from the stationary moment identity.

    total = plus + minus holds exactly by construction.  unstable is set
    when doubling the sample moves the mean of the total by more than 5%.
    """

    coordinate: int
    alpha: float
    mean_log: float
    plus: Estimate
    minus: Estimate
    total: Estimate
    unstable: bool


def goldie_constant(
    pool, j: int, alpha: float, mean_log: float, *, power=None
) -> GoldieConstant:
    """Moment-identity estimate of c_+ and c_- for coordinate j.

    Averages ((a x + b)^+)^alpha - ((a x)^+)^alpha (and the minus part)
    over pool rows, scaled by 1 / (alpha * mean_log).  Valid only because
    x_pre is independent of (a, b) within a row.  The split needs A_j >= 0:
    an a_j column with a negative entry has c_+ = c_- (Goldie 1991, Thm
    4.1), so both halves are total / 2, flagged "signed".  power, when
    given, is the column |x_post_j|^alpha already computed (magnitude_power).
    """
    require(alpha, "alpha")
    require(mean_log, "mean_log")
    check_coords(pool.x_post.shape[1], j)
    y = pool.x_post[:, j]
    py = magnitude_power(y, alpha) if power is None else power
    # one power per operand: (v^+)^alpha is |v|^alpha where v > 0 and 0
    # elsewhere, so each half of a summand is a masked difference of them;
    # the masks are negated so that a NaN operand makes both halves NaN
    pa = np.multiply(pool.a[:, j], pool.x_pre[:, j])
    pa_plus, pa_minus = ~(pa <= 0.0), ~(pa >= 0.0)
    np.abs(pa, out=pa)
    with np.errstate(over="ignore"):
        pa **= alpha
    scale = 1.0 / (alpha * mean_log)
    signed = bool((pool.a[:, j] < 0.0).any())
    halves = []
    for y_side, a_side in () if signed else ((~(y < 0.0), pa_plus), (~(y > 0.0), pa_minus)):
        w = np.where(y_side, py, 0.0)
        np.subtract(w, pa, out=w, where=a_side)
        # the deviations of the variance go over the summands
        halves.append(mean_estimate(w, scratch=w).scaled(scale))
        del w
    # a row's halves add up to py - pa: one of them is 0 unless y and a x
    # have opposite signs, and then the sum is py + (-pa)
    wt = np.subtract(py, pa, out=pa)
    # a non-finite summand makes a mean non-finite, which doubling_change maps to inf
    unstable = doubling_change(wt) > STABLE_REL_CHANGE
    et = mean_estimate(wt, scratch=wt).scaled(scale)
    if unstable and et.flag is None:
        et = dataclasses.replace(et, flag="unstable")
    halves = [dataclasses.replace(et.scaled(0.5), flag="signed")] * 2 if signed else halves
    return GoldieConstant(j, float(alpha), float(mean_log), *halves, et, unstable)


@dataclasses.dataclass(frozen=True)
class BlockTailLadder(Record):
    """Per-class norm tail constants c_l and the full-norm constant c_inf.

    consistent means the top-rung c_inf interval meets the sum of the
    top-rung class intervals.
    """

    thresholds: tuple[float, ...]
    block: tuple[tuple[Estimate, ...], ...]
    c_inf: tuple[Estimate, ...]
    n: int
    consistent: bool


def block_tail_constant(
    pool, partition, alphas, ladder=None, min_top: int = DEFAULT_MIN_TOP, *, powers=None
) -> BlockTailLadder:
    """Ladder estimates of t * P(block norm > t) per class and overall.

    All series share one ladder built from the full-vector norm, so the
    additivity check c_inf = sum_l c_l compares like with like.  powers,
    when given, are the columns |x_j|^alpha_j already computed
    (magnitude_power); every norm is taken from them.
    """
    alphas = np.asarray(alphas, dtype=float)
    x = pool.x_post
    if partition.classes:  # no classes: the whole-vector c_inf alone
        partition.check(x.shape[1])
    if powers is None:
        powers = [magnitude_power(x[:, j], a) for j, a in enumerate(alphas)]
    s_full = alpha_norm(x, alphas, powers)
    ladder, counts = _ladder(s_full, ladder, min_top)
    n = s_full.size
    block_series = []
    for coords in partition.classes:
        cols = list(coords)
        s_l = alpha_norm(x[:, cols], alphas[cols], [powers[j] for j in coords])
        block_series.append(_scaled_binomials(_exceedances(s_l, ladder), n, ladder))
    c_inf = _scaled_binomials(counts, n, ladder)
    top_sum = sum(e.value for e in (s[-1] for s in block_series))
    hw = c_inf[-1].half_width + sum(s[-1].half_width for s in block_series)
    consistent = bool(abs(c_inf[-1].value - top_sum) <= hw)
    return BlockTailLadder(
        thresholds=tuple(float(t) for t in ladder),
        block=tuple(block_series),
        c_inf=c_inf,
        n=n,
        consistent=consistent,
    )


@dataclasses.dataclass(frozen=True)
class SpectralEstimate(Record):
    """Angular distribution of rescaled exceedances across a ladder.

    block_mass[r][l] is the fraction of rung-r exceedances whose angular
    part is within eps of the class-l coordinate subspace (off-class norm
    below eps).  For d <= 3 each rung also carries a product histogram of
    the angular components on [-1, 1]^d; higher dimensions report
    per-coordinate marginal histograms instead.
    """

    thresholds: tuple[float, ...]
    counts: tuple[int, ...]
    block_mass: tuple[tuple[float, ...], ...]
    off_block_mass: tuple[float, ...]
    bins: int
    bin_edges: tuple[float, ...]
    histogram: tuple[tuple[float, ...], ...] | None
    marginals: tuple[tuple[tuple[float, ...], ...], ...]
    eps: float
    n: int


def spectral_measure(
    pool,
    partition,
    alphas,
    ladder=None,
    bins: int = 16,
    eps: float = 0.05,
    min_top: int = SPECTRAL_MIN_TOP,
) -> SpectralEstimate:
    """Estimate the angular law of exceedances at each ladder rung.

    Each exceeding record is rescaled to unit weighted norm; the class
    masses and histograms summarize where that angular part lives.  A
    rung that keeps no record raises LadderError, whatever min_top says.
    """
    alphas = np.asarray(alphas, dtype=float)
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie strictly inside (0, 1)")
    if bins < 2:
        raise ValueError("bins must be at least 2")
    d = pool.d
    partition.check(d)
    s = alpha_norm(pool.x_post, alphas)
    ladder, counts = _ladder(s, ladder, max(min_top, 1))
    edges = np.linspace(-1.0, 1.0, bins + 1)
    # angles, class proximity and bins are row-wise, so they are computed
    # once on the lowest rung and each higher rung takes a nested subset;
    # polar's norm of those rows has the bits of s, column by column
    s_low, omega = polar(pool.x_post[s > ladder[0]], alphas)
    near = []
    for coords in partition.classes:
        off = [j for j in range(d) if j not in coords]
        if not off:
            near.append(np.ones(s_low.size, dtype=bool))
        else:
            near.append(alpha_norm(omega[:, off], alphas[off]) < eps)
    near_any = np.logical_or.reduce(near)
    idx = np.clip(np.digitize(np.clip(omega, -1.0, 1.0), edges) - 1, 0, bins - 1)
    masses, off_masses, hists, margs = [], [], [], []
    for t, cnt in zip(ladder, counts):
        keep = s_low > t
        masses.append(tuple(float(nr[keep].mean()) for nr in near))
        off_masses.append(float(1.0 - near_any[keep].mean()))
        rung = idx[keep]
        margs.append(
            tuple(
                tuple(np.bincount(rung[:, j], minlength=bins) / cnt)
                for j in range(d)
            )
        )
        if d <= 3:
            flat = np.ravel_multi_index(tuple(rung.T), (bins,) * d)
            hists.append(tuple(np.bincount(flat, minlength=bins**d) / cnt))
    return SpectralEstimate(
        thresholds=tuple(float(t) for t in ladder),
        counts=tuple(counts),
        block_mass=tuple(masses),
        off_block_mass=tuple(off_masses),
        bins=bins,
        bin_edges=tuple(float(e) for e in edges),
        histogram=tuple(hists) if d <= 3 else None,
        marginals=tuple(margs),
        eps=float(eps),
        n=s.size,
    )


@dataclasses.dataclass(frozen=True)
class MomentCheck(Record):
    """Plain moment estimate plus a doubling-stability verdict."""

    order: float
    estimate: Estimate
    rel_change: float
    stable: bool


def moment_estimate(pool, j: int, s: float) -> MomentCheck:
    """Estimate E|X_j|^s and check first-half-vs-full stability.

    Orders near or above the tail index are expected to come back
    unstable or infinite; that is the diagnostic, not a failure.
    """
    s = require(s, "moment order")
    check_coords(pool.x_post.shape[1], j)
    w = magnitude_power(pool.x_post[:, j], s)
    rel = doubling_change(w)
    stable = bool(rel <= STABLE_REL_CHANGE)
    est = mean_estimate(w, flag=None if stable else "unstable", scratch=w)
    return MomentCheck(s, est, float(rel), stable)

