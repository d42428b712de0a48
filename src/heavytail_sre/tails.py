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
    STABLE_REL_CHANGE, Estimate, LadderError, Record, Z95, binomial_ci, doubling_change,
    mean_estimate,
)
from .geometry import alpha_norm, dilate

DEFAULT_QUANTILES = (0.99, 0.995, 0.999, 0.9995, 0.9999)
DEFAULT_MIN_TOP = 50
SPECTRAL_MIN_TOP = 100


def quantile_ladder(
    values, quantiles=DEFAULT_QUANTILES, min_top: int = DEFAULT_MIN_TOP
) -> np.ndarray:
    """Strictly increasing thresholds at the given quantiles.

    Rungs whose exceedance count falls below min_top are dropped; an
    empty result raises LadderError.
    """
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        raise LadderError("cannot build a ladder from an empty sample")
    qs = sorted(float(q) for q in quantiles)
    if any(not 0.0 < q < 1.0 for q in qs):
        raise LadderError("quantiles must lie strictly inside (0, 1)")
    cuts = np.quantile(v, qs)
    keep = []
    for t in cuts:
        if t > 0.0 and int((v > t).sum()) >= min_top:
            keep.append(float(t))
    ladder = np.unique(np.asarray(keep, dtype=float))
    if ladder.size == 0:
        raise LadderError(
            f"no threshold keeps at least {min_top} exceedances; pool too small"
        )
    return ladder


def _check_ladder(ladder, values, min_top: int) -> np.ndarray:
    arr = np.asarray(ladder, dtype=float).ravel()
    if arr.size == 0:
        raise LadderError("ladder must contain at least one threshold")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise LadderError("ladder thresholds must be positive and finite")
    if np.any(np.diff(arr) <= 0.0):
        raise LadderError("ladder thresholds must be strictly increasing")
    top = int((np.asarray(values).ravel() > arr[-1]).sum())
    if top < min_top:
        raise LadderError(
            f"top rung keeps {top} exceedances, needs at least {min_top}"
        )
    return arr


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
    top = part[v.size - k:]
    mean_log = float(np.mean(np.log(top / threshold)))
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

    @property
    def c_plus(self) -> Estimate:
        return self.plus[-1]

    @property
    def c_minus(self) -> Estimate:
        return self.minus[-1]



def _interval_overlap(ests: tuple[Estimate, ...], last: int = 3) -> bool:
    if len(ests) < last:
        return False
    tail = ests[-last:]
    return bool(max(e.ci_lo for e in tail) <= min(e.ci_hi for e in tail))


def empirical_tail_constant(
    pool, j: int, alpha: float, ladder=None, min_top: int = DEFAULT_MIN_TOP
) -> TailConstantLadder:
    """Ladder estimates of the signed tail constants of coordinate j.

    Thresholds live on the scale of |x|^alpha, so each rung counts
    x > t^{1/alpha} (and the mirrored left tail) and scales the relative
    frequency by t.
    """
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError("alpha must be positive and finite")
    x = pool.x_post[:, j]
    mag = np.abs(x) ** alpha
    ladder = (
        quantile_ladder(mag, min_top=min_top)
        if ladder is None
        else _check_ladder(ladder, mag, min_top)
    )
    n = x.size
    plus, minus, total = [], [], []
    for t in ladder:
        cut = t ** (1.0 / alpha)
        kp = int((x > cut).sum())
        km = int((x < -cut).sum())
        plus.append(_scaled_binomial(kp, n, t))
        minus.append(_scaled_binomial(km, n, t))
        total.append(_scaled_binomial(kp + km, n, t))
    return TailConstantLadder(
        coordinate=j,
        alpha=float(alpha),
        thresholds=tuple(float(t) for t in ladder),
        plus=tuple(plus),
        minus=tuple(minus),
        total=tuple(total),
        n=n,
        converged=_interval_overlap(tuple(total)),
    )


def _scaled_binomial(k: int, n: int, scale: float) -> Estimate:
    est = binomial_ci(k, n)
    return Estimate(
        scale * est.value, scale * est.ci_lo, scale * est.ci_hi, n, est.method, est.flag
    )


@dataclasses.dataclass(frozen=True)
class GoldieConstant(Record):
    """Tail constants from the stationary moment identity.

    total = plus + minus holds exactly by construction.  unstable is set
    when doubling the sample moves the mean by more than 5% or the
    interval is wider than half the value.
    """

    coordinate: int
    alpha: float
    mean_log: float
    plus: Estimate
    minus: Estimate
    total: Estimate
    unstable: bool


def goldie_constant(pool, j: int, alpha: float, mean_log: float) -> GoldieConstant:
    """Moment-identity estimate of c_+ and c_- for coordinate j.

    Averages ((a x + b)^+)^alpha - ((a x)^+)^alpha (and the minus part)
    over pool rows, scaled by 1 / (alpha * mean_log).  Valid only because
    x_pre is independent of (a, b) within a row.
    """
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError("alpha must be positive and finite")
    if not (math.isfinite(mean_log) and mean_log > 0.0):
        raise ValueError("mean_log must be positive and finite")
    ax = pool.a[:, j] * pool.x_pre[:, j]
    y = pool.x_post[:, j]
    with np.errstate(over="ignore"):
        wp = np.maximum(y, 0.0) ** alpha - np.maximum(ax, 0.0) ** alpha
        wm = np.maximum(-y, 0.0) ** alpha - np.maximum(-ax, 0.0) ** alpha
    wt = wp + wm
    scale = 1.0 / (alpha * mean_log)
    unstable = not np.all(np.isfinite(wt)) or doubling_change(wt) > STABLE_REL_CHANGE
    ep = _scaled_mean(wp, scale)
    em = _scaled_mean(wm, scale)
    et = _scaled_mean(wt, scale)
    if unstable and et.flag is None:
        et = dataclasses.replace(et, flag="unstable")
    return GoldieConstant(j, float(alpha), float(mean_log), ep, em, et, unstable)


def _scaled_mean(w: np.ndarray, scale: float) -> Estimate:
    est = mean_estimate(w)
    lo, hi = scale * est.ci_lo, scale * est.ci_hi
    if scale < 0.0:
        lo, hi = hi, lo
    return Estimate(scale * est.value, lo, hi, est.n, est.method, est.flag)


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

    @property
    def block_top(self) -> tuple[Estimate, ...]:
        return tuple(series[-1] for series in self.block)

    @property
    def c_inf_top(self) -> Estimate:
        return self.c_inf[-1]


def block_tail_constant(
    pool, partition, alphas, ladder=None, min_top: int = DEFAULT_MIN_TOP
) -> BlockTailLadder:
    """Ladder estimates of t * P(block norm > t) per class and overall.

    All series share one ladder built from the full-vector norm, so the
    additivity check c_inf = sum_l c_l compares like with like.
    """
    alphas = np.asarray(alphas, dtype=float)
    s_full = alpha_norm(pool.x_post, alphas)
    ladder = (
        quantile_ladder(s_full, min_top=min_top)
        if ladder is None
        else _check_ladder(ladder, s_full, min_top)
    )
    n = s_full.size
    block_series = []
    for coords in partition.classes:
        cols = list(coords)
        s_l = alpha_norm(pool.x_post[:, cols], alphas[cols])
        block_series.append(
            tuple(_scaled_binomial(int((s_l > t).sum()), n, t) for t in ladder)
        )
    c_inf = tuple(_scaled_binomial(int((s_full > t).sum()), n, t) for t in ladder)
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
    masses and histograms summarize where that angular part lives.
    """
    alphas = np.asarray(alphas, dtype=float)
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie strictly inside (0, 1)")
    if bins < 2:
        raise ValueError("bins must be at least 2")
    s = alpha_norm(pool.x_post, alphas)
    ladder = (
        quantile_ladder(s, min_top=min_top)
        if ladder is None
        else _check_ladder(ladder, s, min_top)
    )
    d = pool.d
    edges = np.linspace(-1.0, 1.0, bins + 1)
    counts, masses, off_masses, hists, margs = [], [], [], [], []
    for t in ladder:
        mask = s > t
        cnt = int(mask.sum())
        counts.append(cnt)
        omega = dilate(1.0 / s[mask], pool.x_post[mask], alphas)
        row = []
        near_any = np.zeros(cnt, dtype=bool)
        for coords in partition.classes:
            off = [j for j in range(d) if j not in coords]
            if not off:
                near = np.ones(cnt, dtype=bool)
            else:
                near = alpha_norm(omega[:, off], alphas[off]) < eps
            row.append(float(near.mean()))
            near_any |= near
        masses.append(tuple(row))
        off_masses.append(float(1.0 - near_any.mean()))
        clipped = np.clip(omega, -1.0, 1.0)
        idx = np.clip(np.digitize(clipped, edges) - 1, 0, bins - 1)
        margs.append(
            tuple(
                tuple(np.bincount(idx[:, j], minlength=bins) / cnt)
                for j in range(d)
            )
        )
        if d <= 3:
            flat = np.ravel_multi_index(
                tuple(idx[:, j] for j in range(d)), (bins,) * d
            )
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
    s = float(s)
    if not (math.isfinite(s) and s > 0.0):
        raise ValueError("moment order must be positive and finite")
    with np.errstate(over="ignore"):
        w = np.abs(pool.x_post[:, j]) ** s
    rel = doubling_change(w)
    stable = bool(rel <= STABLE_REL_CHANGE and np.all(np.isfinite(w)))
    est = mean_estimate(w, flag=None if stable else "unstable")
    return MomentCheck(s, est, float(rel), stable)


@dataclasses.dataclass(frozen=True)
class TailConstants(Record):
    """Top-rung tail constants assembled from the ladder estimators."""

    c_plus: tuple[Estimate, ...]
    c_minus: tuple[Estimate, ...]
    c_block: tuple[Estimate, ...]
    c_inf: Estimate
