"""The single-pass tail estimators against the formulas they replaced.

Each reference below is the earlier, straightforward implementation: a
fresh power for every use, ``np.quantile`` for every ladder, and full
comparison passes for every count.  The rewritten estimators must give the
same report bits on pools with signed zeros, negative states, a row whose
power overflows, and exponents that take numpy's sqrt, copy and square
fast paths as well as its general pow.
"""

import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from heavytail_sre import (
    BlockPartition,
    alpha_norm,
    block_tail_constant,
    empirical_tail_constant,
    goldie_constant,
    quantile_ladder,
)
from heavytail_sre.common import STABLE_REL_CHANGE, LadderError, doubling_change, mean_estimate
from heavytail_sre.geometry import _LOG_CAP, _as_weights, magnitude_power
from heavytail_sre.tails import (
    BlockTailLadder,
    GoldieConstant,
    TailConstantLadder,
    _interval_overlap,
    _scaled_binomials,
)

ALPHAS = (0.5, 1.0, 2.0, 3.0, 1.9999999999999998)
MIN_TOP = 5
# the hot row overflows powers, squares and inf - inf in both implementations
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


# -- references: the formulas before the single-pass rewrite -----------------


def ref_alpha_norm(x, alphas):
    a = _as_weights(alphas)
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    xx = x.reshape(1, -1) if single else x
    ax = np.abs(xx)
    out, hot = np.zeros(len(ax)), np.zeros(len(ax), bool)
    with np.errstate(over="ignore"):
        for j, aj in enumerate(a):
            np.maximum(out, ax[:, j] ** aj, out=out)
            np.logical_or(hot, ax[:, j] > 10.0 ** (200.0 / aj), out=hot)
        hot |= ~np.isfinite(out)
    if np.any(hot):
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = a * np.log(ax[hot])
        logs[np.isnan(logs)] = -np.inf
        out[hot] = np.exp(np.minimum(np.max(logs, axis=1), _LOG_CAP))
    return float(out[0]) if single else out


def ref_exceedances(stat, cuts):
    return [int((stat > t).sum()) for t in cuts]


def ref_quantile_ladder(values, quantiles=(0.99, 0.995, 0.999, 0.9995, 0.9999), min_top=50):
    v = np.asarray(values, dtype=float).ravel()
    qs = sorted(float(q) for q in quantiles)
    cuts = np.quantile(v, qs)
    keep = [float(t) for t, k in zip(cuts, ref_exceedances(v, cuts)) if t > 0.0 and k >= min_top]
    ladder = np.unique(np.asarray(keep, dtype=float))
    if ladder.size == 0:
        raise LadderError("empty ladder")
    return ladder


def ref_empirical(pool, j, alpha, min_top):
    x = pool.x_post[:, j]
    with np.errstate(over="ignore"):
        ladder = ref_quantile_ladder(np.abs(x) ** alpha, min_top=min_top)
    cuts = [t ** (1.0 / alpha) for t in ladder]
    kp = ref_exceedances(x, cuts)
    km = ref_exceedances(-x, cuts)
    total = _scaled_binomials([a + b for a, b in zip(kp, km)], x.size, ladder)
    return TailConstantLadder(
        coordinate=j, alpha=float(alpha), thresholds=tuple(float(t) for t in ladder),
        plus=_scaled_binomials(kp, x.size, ladder), minus=_scaled_binomials(km, x.size, ladder),
        total=total, n=x.size, converged=_interval_overlap(total),
    )


def ref_goldie(pool, j, alpha, mean_log):
    ax = pool.a[:, j] * pool.x_pre[:, j]
    y = pool.x_post[:, j]
    with np.errstate(over="ignore"):
        wp = np.maximum(y, 0.0) ** alpha - np.maximum(ax, 0.0) ** alpha
        wm = np.maximum(-y, 0.0) ** alpha - np.maximum(-ax, 0.0) ** alpha
    wt = wp + wm
    scale = 1.0 / (alpha * mean_log)
    unstable = doubling_change(wt) > STABLE_REL_CHANGE
    ep, em, et = (mean_estimate(w).scaled(scale) for w in (wp, wm, wt))
    if unstable and et.flag is None:
        et = dataclasses.replace(et, flag="unstable")
    if np.any(pool.a[:, j] < 0.0):  # A_j of both signs: c+ = c- (Goldie 1991, Thm 4.1)
        ep = em = dataclasses.replace(et.scaled(0.5), flag="signed")
    return GoldieConstant(j, float(alpha), float(mean_log), ep, em, et, unstable)


def ref_block(pool, partition, alphas, min_top):
    alphas = np.asarray(alphas, dtype=float)
    s_full = ref_alpha_norm(pool.x_post, alphas)
    ladder = ref_quantile_ladder(s_full, min_top=min_top)
    n = s_full.size
    block_series = []
    for coords in partition.classes:
        cols = list(coords)
        s_l = ref_alpha_norm(pool.x_post[:, cols], alphas[cols])
        block_series.append(_scaled_binomials(ref_exceedances(s_l, ladder), n, ladder))
    c_inf = _scaled_binomials(ref_exceedances(s_full, ladder), n, ladder)
    top_sum = sum(e.value for e in (s[-1] for s in block_series))
    hw = c_inf[-1].half_width + sum(s[-1].half_width for s in block_series)
    return BlockTailLadder(
        thresholds=tuple(float(t) for t in ladder), block=tuple(block_series), c_inf=c_inf,
        n=n, consistent=bool(abs(c_inf[-1].value - top_sum) <= hw),
    )


# -- pools ---------------------------------------------------------------------


def _bits(value):
    """A report value with every float as its hex form, so -0.0 and 0.0 differ."""
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if isinstance(value, (float, np.floating)):
        return "nan" if math.isnan(value) else float(value).hex()
    return value


def _pool(kind: str, n: int = 20_000, d: int = 2) -> SimpleNamespace:
    """A coordinate-major pool of Pareto-tailed states (index 2.5).

    zeros: states and products with 0.0 and -0.0 sprinkled in; negative:
    every state below zero; mixed: random signs and one hot row, whose
    states near 1e250 overflow every power from 2 up and take alpha_norm's
    log route from 1 up; nan: the zeros pool with a NaN state and a NaN
    a x_pre in each coordinate, on separate rows.
    """
    rng = np.random.default_rng({"zeros": 1, "nan": 1, "negative": 2, "mixed": 3}[kind])
    x_pre = rng.pareto(2.5, (d, n)).T
    a = rng.choice([0.5, 2.0], (d, n)).T
    b = rng.standard_exponential((d, n)).T
    if kind == "negative":
        b = -b
        x_pre = -x_pre
    if kind == "mixed":
        x_pre = x_pre * rng.choice([-1.0, 1.0], (n, d))
        b = rng.standard_normal((d, n)).T
    x_post = np.ascontiguousarray((a * x_pre + b).T).T
    if kind in ("zeros", "nan"):
        x_post[::37] = 0.0
        x_post[5::41] = -0.0
        x_pre[::43] = 0.0
        x_pre[7::47] = -0.0
        a[::53] = -0.5
    if kind == "mixed":
        x_post[11] = (1e250, -1e260, 1e255)[:d]
        x_pre[11] = (-1e300, 1e290, 1e280)[:d]
    if kind == "nan":
        x_post[13, 0] = x_pre[17, 0] = np.nan
        x_post[19, 1] = a[23, 1] = np.nan
    return SimpleNamespace(x_pre=x_pre, a=a, b=b, x_post=x_post, d=d)


POOLS = ("zeros", "negative", "mixed")


@pytest.fixture(scope="module", params=POOLS)
def pool(request):
    return _pool(request.param)


# -- bit identity --------------------------------------------------------------


@pytest.mark.parametrize("alpha", ALPHAS)
def test_alpha_norm_matches_reference(pool, alpha):
    alphas = np.array([alpha, 1.5 * alpha])
    for x in (pool.x_post, np.ascontiguousarray(pool.x_post), pool.x_post[:, :1], pool.x_post[3]):
        a = alphas[: np.shape(x)[-1]]
        want = np.asarray(ref_alpha_norm(x, a)).view(np.int64)
        assert np.array_equal(np.asarray(alpha_norm(x, a)).view(np.int64), want)
        if np.ndim(x) == 2:
            powers = [magnitude_power(x[:, j], aj) for j, aj in enumerate(a)]
            assert np.array_equal(alpha_norm(x, a, powers).view(np.int64), want)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_quantile_ladder_matches_reference(pool, alpha):
    with np.errstate(over="ignore"):
        stat = np.abs(pool.x_post[:, 0]) ** alpha
    for values in (stat, pool.x_post[:, 1], stat[:999], stat[:1], np.concatenate([stat, [np.nan]])):
        try:
            want = ref_quantile_ladder(values, min_top=MIN_TOP)
        except LadderError:
            with pytest.raises(LadderError):
                quantile_ladder(values, min_top=MIN_TOP)
            continue
        assert _bits(quantile_ladder(values, min_top=MIN_TOP).tolist()) == _bits(want.tolist())


@pytest.mark.parametrize("alpha", ALPHAS)
def test_empirical_tail_constant_matches_reference(pool, alpha):
    for j in range(pool.d):
        want = _bits(ref_empirical(pool, j, alpha, MIN_TOP).to_dict())
        assert _bits(empirical_tail_constant(pool, j, alpha, min_top=MIN_TOP).to_dict()) == want
        power = magnitude_power(pool.x_post[:, j], alpha)
        got = empirical_tail_constant(pool, j, alpha, min_top=MIN_TOP, power=power)
        assert _bits(got.to_dict()) == want


@pytest.mark.parametrize("kind", POOLS + ("nan",))
@pytest.mark.parametrize("alpha", ALPHAS)
def test_goldie_constant_matches_reference(kind, alpha):
    pool = _pool(kind)
    for j in range(pool.d):
        want = _bits(ref_goldie(pool, j, alpha, 0.3).to_dict())
        assert _bits(goldie_constant(pool, j, alpha, 0.3).to_dict()) == want
        power = magnitude_power(pool.x_post[:, j], alpha)
        got = goldie_constant(pool, j, alpha, 0.3, power=power)
        assert _bits(got.to_dict()) == want


@pytest.mark.parametrize("alpha", ALPHAS)
def test_block_tail_constant_matches_reference(pool, alpha):
    alphas = np.array([alpha, 1.5 * alpha])
    powers = [magnitude_power(pool.x_post[:, j], a) for j, a in enumerate(alphas)]
    for classes in (((0,), (1,)), ((0, 1),)):
        part = BlockPartition(classes, tuple(j for c in classes for j in c), {})
        want = _bits(ref_block(pool, part, alphas, MIN_TOP).to_dict())
        assert _bits(block_tail_constant(pool, part, alphas, min_top=MIN_TOP).to_dict()) == want
        got = block_tail_constant(pool, part, alphas, min_top=MIN_TOP, powers=powers)
        assert _bits(got.to_dict()) == want


@pytest.mark.parametrize("alpha", ALPHAS)
def test_block_tail_constant_with_a_split_class_matches_reference(alpha):
    # class (0, 2) is not a run of coordinates
    pool = _pool("mixed", d=3)
    alphas = np.array([alpha, 1.5 * alpha, 0.75 * alpha])
    part = BlockPartition(((0, 2), (1,)), (0, 2, 1), {})
    want = _bits(ref_block(pool, part, alphas, MIN_TOP).to_dict())
    assert _bits(block_tail_constant(pool, part, alphas, min_top=MIN_TOP).to_dict()) == want


# -- memory --------------------------------------------------------------------


def test_goldie_constant_keeps_three_columns():
    pool = _pool("mixed", n=200_000)
    column = 8 * len(pool.x_post)
    goldie_constant(pool, 0, 1.9999999999999998, 0.3)  # warm numpy's caches
    tracemalloc.start()
    try:
        goldie_constant(pool, 0, 1.9999999999999998, 0.3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # |y|^alpha, |a x|^alpha and one half of the summands, plus four masks
    assert peak <= 3 * column + 4 * column / 8 + 65536
