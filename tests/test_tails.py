import math
from types import SimpleNamespace

import numpy as np
import pytest

from heavytail_sre import (
    BlockPartition,
    LadderError,
    ModelSpec,
    block_tail_constant,
    empirical_tail_constant,
    goldie_constant,
    alpha_norm,
    dilate,
    hill_estimate,
    joint_exceedance,
    moment_estimate,
    quantile_ladder,
    spectral_measure,
    stationary_pool,
)
from heavytail_sre.common import binomial_ci, doubling_change, mean_estimate
from heavytail_sre.tails import _ladder

REFERENCE = ModelSpec(
    "TwoPoint",
    1,
    {"p": 0.2, "up": 2.0, "down": 0.5, "b": {"dist": "exponential", "rate": 1.0}},
)
# closed form for the reference model: E X = 5 and
# c_+ = E((A X + B)^2 - (A X)^2) / (2 E A^2 log A) = 10 / (1.2 log 2)
C_PLUS = 10.0 / (1.2 * math.log(2.0))
GOLDIE_MEAN = 0.6 * math.log(2.0)


@pytest.fixture(scope="module")
def ref_pool():
    return stationary_pool(REFERENCE, seed=20, chains=400, n_per_chain=500)


@pytest.fixture(scope="module")
def pair_pool():
    spec = ModelSpec(
        "TwoPoint",
        2,
        {"p": 0.2, "up": 2.0, "down": 0.5, "b": {"dist": "exponential", "rate": 1.0}},
    )
    return stationary_pool(spec, seed=21, chains=400, n_per_chain=500)


@pytest.mark.parametrize("c", [-1, 2])
@pytest.mark.parametrize(
    "routine",
    [
        lambda pool, c: empirical_tail_constant(pool, c, 2.0),
        lambda pool, c: goldie_constant(pool, c, 2.0, 0.5),
        lambda pool, c: moment_estimate(pool, c, 1.0),
        lambda pool, c: joint_exceedance(pool, c, 0, [2.0, 2.0]),
    ],
    ids=["empirical_tail_constant", "goldie_constant", "moment_estimate", "joint_exceedance"],
)
def test_pool_routines_refuse_a_coordinate_out_of_range(pair_pool, routine, c):
    # -1 once read the last column under its own label, and d raised numpy's IndexError
    with pytest.raises(ValueError, match=f"^coordinate index {c} out of range for d=2$"):
        routine(pair_pool, c)


# -- quantile_ladder -------------------------------------------------------------


def test_quantile_ladder_increasing(ref_pool):
    mag = ref_pool.x_post[:, 0] ** 2
    lad = quantile_ladder(mag)
    assert np.all(np.diff(lad) > 0)
    # every kept rung retains at least the default top count
    assert all(int((mag > t).sum()) >= 50 for t in lad)


def test_quantile_ladder_drops_thin_rungs():
    v = np.arange(1.0, 100_001.0)
    lad = quantile_ladder(v, min_top=100)
    # out of 10^5 points the 0.999 rung keeps 100 exceedances, and the
    # 0.9995 and 0.9999 rungs keep 50 and 10
    assert lad.size == 3
    assert [int((v > t).sum()) for t in lad] == [1000, 500, 100]


@pytest.mark.parametrize("ladder", [None, [1.0, 50.0, 99_899.5]])
def test_ladder_counts_every_rung_once(ladder):
    # the counts come with the thresholds, so no estimator recounts them
    v = np.concatenate([np.arange(1.0, 100_001.0), np.full(7, 99_950.0)])
    cuts, counts = _ladder(v, ladder, min_top=100)
    assert counts == [int(np.count_nonzero(v > t)) for t in cuts]
    assert all(type(k) is int for k in counts)


def test_quantile_ladder_errors():
    with pytest.raises(LadderError):
        quantile_ladder(np.array([]))
    with pytest.raises(LadderError):
        quantile_ladder(np.arange(60.0), min_top=1000)


def test_custom_ladder_validated(ref_pool):
    with pytest.raises(LadderError):
        empirical_tail_constant(ref_pool, 0, 2.0, ladder=[2.0, 1.0])
    with pytest.raises(LadderError):
        empirical_tail_constant(ref_pool, 0, 2.0, ladder=[-1.0, 2.0])
    with pytest.raises(LadderError):
        # top rung above the sample maximum keeps nothing
        empirical_tail_constant(ref_pool, 0, 2.0, ladder=[1e12])


PAIR_CLASSES = BlockPartition(((0,), (1,)), (0, 1), {})
LADDER_ESTIMATORS = {
    "empirical_tail_constant": lambda pool, lad: empirical_tail_constant(
        pool, 0, 2.0, ladder=lad
    ),
    "block_tail_constant": lambda pool, lad: block_tail_constant(
        pool, PAIR_CLASSES, [2.0, 2.0], ladder=lad
    ),
    "spectral_measure": lambda pool, lad: spectral_measure(
        pool, PAIR_CLASSES, [2.0, 2.0], ladder=lad
    ),
    "joint_exceedance": lambda pool, lad: joint_exceedance(
        pool, 0, 1, [2.0, 2.0], ladder=lad
    ),
}
BAD_LADDERS = {
    "decreasing": [2.0, 1.0],
    "non-positive": [0.0, 2.0],
    "empty": [],
}


@pytest.mark.parametrize("case", [*BAD_LADDERS, "beyond-data"])
@pytest.mark.parametrize("name", list(LADDER_ESTIMATORS))
def test_custom_ladder_contract(pair_pool, name, case):
    # one contract for every ladder estimator: a malformed custom ladder is
    # a LadderError; a top rung beyond the data is one too, except for the
    # joint ladder, which bounds an empty rung by the rule of three
    estimate = LADDER_ESTIMATORS[name]
    if case in BAD_LADDERS:
        with pytest.raises(LadderError):
            estimate(pair_pool, BAD_LADDERS[case])
    elif name != "joint_exceedance":
        with pytest.raises(LadderError):
            estimate(pair_pool, [1.0, 1e12])
    else:
        je = estimate(pair_pool, [1.0, 1e12])
        assert je.counts[-1] == 0
        assert je.normalized[-1].flag == "rule-of-three"


# -- hill_estimate ---------------------------------------------------------------


def test_hill_on_exact_pareto():
    rng = np.random.default_rng(0)
    v = rng.random(100_000) ** (-1.0 / 2.0)
    est = hill_estimate(v, 3000)
    assert est.ci_lo < 2.0 < est.ci_hi
    assert est.alpha == pytest.approx(2.0, rel=0.05)
    assert est.k == 3000
    assert est.threshold > 1.0


def test_hill_validates_input():
    v = np.arange(1.0, 100.0)
    with pytest.raises(ValueError):
        hill_estimate(v, 4)
    with pytest.raises(ValueError):
        hill_estimate(v, 99)
    with pytest.raises(ValueError):
        hill_estimate(np.array([1.0, -2.0] * 50), 10)


def test_hill_constant_sample_flag():
    est = hill_estimate(np.ones(100), 10)
    assert est.alpha == math.inf
    assert est.flag == "constant-sample"


# -- empirical_tail_constant -------------------------------------------------------


def test_tail_constant_ladder_reference(ref_pool):
    lad = empirical_tail_constant(ref_pool, 0, 2.0)
    assert np.all(np.diff(lad.thresholds) > 0)
    assert lad.n == len(ref_pool)
    # X >= 0 a.s., so the left tail is empty with a rule-of-three bound
    assert lad.c_minus.value == 0.0
    assert lad.c_minus.flag == "rule-of-three"
    # the top rung brackets the closed-form constant
    assert lad.c_plus.ci_lo < C_PLUS < lad.c_plus.ci_hi
    assert lad.converged is True
    doc = lad.to_dict()
    assert len(doc["plus"]) == len(doc["thresholds"])


def test_tail_constant_rejects_bad_alpha(ref_pool):
    with pytest.raises(ValueError):
        empirical_tail_constant(ref_pool, 0, -2.0)


# -- goldie_constant ---------------------------------------------------------------


def test_goldie_constant_matches_closed_form(ref_pool):
    got = goldie_constant(ref_pool, 0, 2.0, GOLDIE_MEAN)
    assert got.plus.value == pytest.approx(C_PLUS, rel=0.05)
    assert got.unstable is False
    # the state never goes negative, so the minus part is identically zero
    assert got.minus.value == 0.0
    assert got.minus.ci_lo == got.minus.ci_hi == 0.0
    assert got.total.value == pytest.approx(got.plus.value + got.minus.value, rel=1e-12)


def test_goldie_constant_flags_unstable_order(ref_pool):
    # alpha far above the true index probes a diverging moment
    got = goldie_constant(ref_pool, 0, 6.0, GOLDIE_MEAN)
    assert got.unstable is True
    assert got.total.flag == "unstable"
    # one infinite record in the second half: only the full mean sees it
    x = ref_pool.x_post.copy()
    x[-1, 0] = np.inf
    pool = SimpleNamespace(a=ref_pool.a, x_pre=ref_pool.x_pre, x_post=x)
    got = goldie_constant(pool, 0, 2.0, GOLDIE_MEAN)
    assert got.unstable is True
    assert got.total.flag == "possibly-infinite"


def test_goldie_constant_validates_arguments(ref_pool):
    with pytest.raises(ValueError):
        goldie_constant(ref_pool, 0, 0.0, GOLDIE_MEAN)
    with pytest.raises(ValueError):
        goldie_constant(ref_pool, 0, 2.0, -1.0)


# -- block_tail_constant -------------------------------------------------------------


def test_block_additivity_independent_pair(pair_pool):
    part = BlockPartition(((0,), (1,)), (0, 1), {})
    bl = block_tail_constant(pair_pool, part, [2.0, 2.0])
    assert bl.consistent is True
    assert len(bl.block) == 2
    assert len(bl.c_inf) == len(bl.thresholds)
    top_sum = sum(e.value for e in bl.block_top)
    assert bl.c_inf_top.value == pytest.approx(top_sum, rel=0.05)


@pytest.mark.parametrize("classes", [((0, 1), (-1,)), ((0,), (-2,)), ((0,), (2,))],
                         ids=["negative-class", "negative-twin", "beyond-d"])
def test_a_partition_outside_0_to_d_is_refused_however_it_is_built(classes):
    # on a d = 2 pool the first counted coordinate 1 twice (as 1 and -1)
    # and still read consistent; the second counted coordinate 0 twice
    perm = tuple(j for c in classes for j in c)
    with pytest.raises(ValueError, match=r"classes must partition 0\.\.d-1"):
        BlockPartition(classes, perm, {})
    with pytest.raises(ValueError, match=r"classes must partition 0\.\.d-1"):
        BlockPartition.from_json({"classes": [list(c) for c in classes], "permutation": list(perm)})


@pytest.mark.parametrize("estimator", [block_tail_constant, spectral_measure])
def test_a_partition_wider_than_the_pool_is_refused(pair_pool, estimator):
    part = BlockPartition(((0,), (1,), (2,)), (0, 1, 2), {})
    with pytest.raises(ValueError, match="coordinate index 2 out of range for d=2"):
        estimator(pair_pool, part, [2.0, 2.0])


def test_block_single_class_equals_full():
    spec = ModelSpec(
        "TwoPoint",
        2,
        {
            "p": 0.2,
            "up": 2.0,
            "down": 0.5,
            "comonotone": True,
            "b": {"dist": "exponential", "rate": 1.0, "shared": True},
        },
    )
    pool = stationary_pool(spec, seed=22, chains=200, n_per_chain=300)
    part = BlockPartition(((0, 1),), (0, 1), {})
    bl = block_tail_constant(pool, part, [2.0, 2.0])
    # one class covering everything: class norm is the full norm
    for inf_est, blk_est in zip(bl.c_inf, bl.block[0]):
        assert inf_est.value == blk_est.value
    assert bl.consistent is True


# -- spectral_measure ----------------------------------------------------------------


def test_spectral_masses_independent_pair(pair_pool):
    part = BlockPartition(((0,), (1,)), (0, 1), {})
    sp = spectral_measure(pair_pool, part, [2.0, 2.0])
    assert sp.counts == tuple(sorted(sp.counts, reverse=True))
    # asymptotically independent coordinates: all angular mass sits on the
    # coordinate axes, split between the two classes
    top = sp.block_mass[-1]
    assert sum(top) == pytest.approx(1.0, abs=0.05)
    assert sp.off_block_mass[-1] <= 0.05
    assert sp.histogram is not None
    assert sum(sp.histogram[-1]) == pytest.approx(1.0, abs=1e-12)
    for hist in sp.marginals[-1]:
        assert sum(hist) == pytest.approx(1.0, abs=1e-12)


def test_spectral_single_class_mass():
    spec = ModelSpec(
        "TwoPoint",
        2,
        {
            "p": 0.2,
            "up": 2.0,
            "down": 0.5,
            "comonotone": True,
            "b": {"dist": "exponential", "rate": 1.0, "shared": True},
        },
    )
    pool = stationary_pool(spec, seed=22, chains=200, n_per_chain=300)
    part = BlockPartition(((0, 1),), (0, 1), {})
    sp = spectral_measure(pool, part, [2.0, 2.0])
    assert all(row == (1.0,) for row in sp.block_mass)
    assert all(off == 0.0 for off in sp.off_block_mass)


def _spectral_reference(pool, partition, alphas, ladder, bins=16, eps=0.05):
    """The rung-by-rung spectral loop: norms and angles recomputed per rung."""
    alphas = np.asarray(alphas, dtype=float)
    s = alpha_norm(pool.x_post, alphas)
    ladder = quantile_ladder(s, min_top=100) if ladder is None else np.asarray(ladder)
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
    return {
        "thresholds": tuple(float(t) for t in ladder),
        "counts": tuple(counts),
        "block_mass": tuple(masses),
        "off_block_mass": tuple(off_masses),
        "bins": bins,
        "bin_edges": tuple(float(e) for e in edges),
        "histogram": tuple(hists) if d <= 3 else None,
        "marginals": tuple(margs),
        "eps": float(eps),
        "n": s.size,
    }


SPECTRAL_ORACLE_CASES = {
    # three singleton classes, custom ladder, joint histograms
    "d3-three-classes": (3, ((0,), (1,), (2,)), [2.0, 10.0, 40.0, 150.0]),
    # d = 4: marginals only, two two-coordinate classes, quantile ladder
    "d4-two-classes": (4, ((0, 1), (2, 3)), None),
    # one class covering every coordinate has no off-class norm
    "d4-one-class": (4, ((0, 1, 2, 3),), None),
}


@pytest.mark.parametrize("case", list(SPECTRAL_ORACLE_CASES))
def test_spectral_matches_rung_by_rung_reference(case):
    d, classes, ladder = SPECTRAL_ORACLE_CASES[case]
    spec = ModelSpec(
        "TwoPoint",
        d,
        {"p": 0.2, "up": 2.0, "down": 0.5, "b": {"dist": "exponential", "rate": 1.0}},
    )
    pool = stationary_pool(spec, seed=23, chains=400, n_per_chain=300)
    part = BlockPartition(classes, tuple(j for c in classes for j in c), {})
    alphas = [2.0] * d
    got = spectral_measure(pool, part, alphas, ladder=ladder)
    ref = _spectral_reference(pool, part, alphas, ladder)
    assert len(got.thresholds) >= 3
    for field, want in ref.items():
        assert getattr(got, field) == want, field


def test_spectral_empty_rung_raises(pair_pool):
    # a rung beyond the data keeps no record and so has no angular law
    with pytest.raises(LadderError):
        spectral_measure(pair_pool, PAIR_CLASSES, [2.0, 2.0], ladder=[1.0, 1e12], min_top=0)


def test_spectral_validates_arguments(pair_pool):
    part = BlockPartition(((0,), (1,)), (0, 1), {})
    with pytest.raises(ValueError):
        spectral_measure(pair_pool, part, [2.0, 2.0], eps=0.0)
    with pytest.raises(ValueError):
        spectral_measure(pair_pool, part, [2.0, 2.0], bins=1)


# -- moment_estimate ----------------------------------------------------------------


def test_moment_estimate_stable_below_index(ref_pool):
    chk = moment_estimate(ref_pool, 0, 1.0)
    assert chk.stable is True
    assert chk.estimate.flag is None
    # E X = E B / (1 - E A) = 5
    assert chk.estimate.value == pytest.approx(5.0, rel=0.1)


def test_moment_estimate_unstable_above_index(ref_pool):
    chk = moment_estimate(ref_pool, 0, 4.0)
    assert chk.stable is False
    assert chk.estimate.flag == "unstable"
    assert chk.rel_change > 0.05
    x = ref_pool.x_post.copy()
    x[-1, 0] = np.inf
    chk = moment_estimate(SimpleNamespace(x_post=x), 0, 1.0)
    assert chk.stable is False
    assert chk.estimate.flag == "unstable"
    assert chk.rel_change == math.inf


def test_moment_estimate_validates_order(ref_pool):
    with pytest.raises(ValueError):
        moment_estimate(ref_pool, 0, 0.0)


def test_binomial_ci_full_count_takes_the_rule_of_three_lower_bound():
    est = binomial_ci(50, 50)
    assert (est.value, est.ci_lo, est.ci_hi) == (1.0, 1.0 - 3.0 / 50, 1.0)
    assert est.flag == "rule-of-three"
    # fewer than three trials: the bound stops at 0
    assert binomial_ci(2, 2).ci_lo == 0.0
    assert binomial_ci(0, 50).ci_hi == 3.0 / 50


def test_sample_statistics_refuse_too_few_samples():
    with pytest.raises(ValueError, match="no samples"):
        mean_estimate(np.empty(0))
    with pytest.raises(ValueError, match="need at least two samples"):
        doubling_change(np.ones(1))
    with pytest.raises(ValueError, match="need n > 0"):
        binomial_ci(0, 0)


def test_doubling_change_of_an_all_zero_sample_is_zero():
    # both means are 0: no scale to compare against, and nothing moved
    assert doubling_change(np.zeros(10)) == 0.0
