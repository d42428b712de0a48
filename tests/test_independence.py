import hashlib
import json
import math

import numpy as np
import pytest

from heavytail_sre import (
    AmbiguousPartitionError,
    ConfigurationError,
    LadderError,
    ModelSpec,
    TauHeavinessError,
    decay_rate_fit,
    joint_exceedance,
    stationary_pool,
    submultiplicativity_check,
    tau_gamma_bound,
)
from heavytail_sre.independence import Tau, build_tau

RNG = lambda s: np.random.default_rng(s)

PAIR = ModelSpec("TwoPoint", 2, {"p": 0.2, "up": 2.0, "down": 0.5})


@pytest.fixture(scope="module")
def pair_pool():
    spec = ModelSpec(
        "TwoPoint",
        2,
        {"p": 0.2, "up": 2.0, "down": 0.5, "b": {"dist": "exponential", "rate": 1.0}},
    )
    return stationary_pool(spec, seed=21, chains=400, n_per_chain=500)


@pytest.fixture(scope="module")
def comonotone_pool():
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
    return stationary_pool(spec, seed=22, chains=400, n_per_chain=500)


# -- tau weights -------------------------------------------------------------


LOG = {"kind": "log", "beta": 1.0}
LOGLOG = {"kind": "loglog"}


def test_tau_values():
    assert build_tau({"kind": "power", "beta": 2.0})(3.0) == 9.0
    assert build_tau(LOG)(math.e - 1.0) == pytest.approx(2.0, rel=1e-12)
    assert build_tau(LOGLOG)(0.0) == 1.0
    prod = build_tau({"kind": "product", "factors": [LOG, {"kind": "power", "beta": 1.0}]})
    assert prod.f2 is not None
    assert prod(0.0, 2.0) == pytest.approx(2.0, rel=1e-12)
    assert prod.growth == (1.0, 1.0)
    with pytest.raises(ValueError, match="needs two arguments"):
        prod(1.0)


def test_tau_validation():
    with pytest.raises(ValueError):
        build_tau({"kind": "power", "beta": -1.0})
    with pytest.raises(ValueError):
        build_tau({"kind": "log", "beta": math.inf})
    with pytest.raises(ValueError, match="single-argument"):
        build_tau({"kind": "product", "factors": [{"kind": "product", "factors": [LOG, LOG]}, LOG]})


def test_build_tau_roundtrip():
    # each kind's name, growth and values, and a single-argument weight
    # applied to a pair weighs both coefficients
    g = np.array([0.5, 3.0, -7.0])
    cases = [
        ({"kind": "power", "beta": 1.5}, "power(1.5)", (1.0, 1.5), np.abs(g) ** 1.5),
        ({"kind": "log", "beta": 2.0}, "log(2)", (1.0, 2.0), (1.0 + np.log1p(np.abs(g))) ** 2.0),
        (LOGLOG, "loglog", (1.0, 1.0), 1.0 + np.log1p(np.log1p(np.abs(g)))),
    ]
    for doc, name, growth, want in cases:
        tau = build_tau(doc)
        assert (tau.name, tau.growth, tau.f2) == (name, growth, None)
        np.testing.assert_array_equal(tau(g), want)
        np.testing.assert_array_equal(tau(g, g), want * want)
    prod = build_tau({"kind": "product", "factors": [{"kind": "log"}, LOGLOG]})
    assert prod.name == "product(log(1), loglog)"
    np.testing.assert_array_equal(prod(g, g), build_tau(LOG)(g) * build_tau(LOGLOG)(g))


def test_build_tau_rejects_bad_docs():
    with pytest.raises(ValueError):
        build_tau({"kind": "exp"})
    with pytest.raises(ValueError):
        build_tau({"beta": 1.0})
    with pytest.raises(ValueError):
        build_tau({"kind": "product", "factors": [{"kind": "log"}]})
    # each kind reads its document through its declared keys
    for doc, key, level in [
        ({"kind": "log", "bta": 3.0}, "bta", "tau 'log'"),
        ({"kind": "loglog", "beta": 2.0}, "beta", "tau 'loglog'"),
        ({"kind": "product", "factors": [{"kind": "log"}, {"kind": "power", "b": 1}]}, "b", "tau 'power'"),
    ]:
        with pytest.raises(ConfigurationError, match=f"unknown key '{key}' in {level};"):
            build_tau(doc)
    for doc in ({"kind": "pwr"}, {"kind": "log", "beta": "2"}, {"kind": "power", "beta": -1.0}, []):
        with pytest.raises(ConfigurationError):
            build_tau(doc)
    assert build_tau({"kind": "log"}).name == build_tau(LOG).name == "log(1)"


# -- submultiplicativity audit --------------------------------------------------


def test_slow_weights_are_submultiplicative():
    for doc in (LOG, {"kind": "log", "beta": 3.0}, LOGLOG, {"kind": "power", "beta": 2.0}):
        chk = submultiplicativity_check(build_tau(doc), RNG(2), n=50_000)
        assert chk.passed is True
        assert chk.growth_ok is True
        assert chk.worst_ratio <= 1.0 + 1e-9


def test_exponential_weight_fails():
    tau = Tau("exp", lambda g: np.exp(np.abs(g)))
    chk = submultiplicativity_check(tau, RNG(1), n=50_000)
    assert chk.passed is False
    assert chk.worst_ratio > 10.0
    assert chk.growth_ok is None
    # direct witness: tau(3 * 3) = e^9 > e^6 = tau(3) tau(3)
    assert tau(9.0) / (tau(3.0) * tau(3.0)) == pytest.approx(
        math.e**3, rel=1e-12
    )


def test_declared_growth_bound_audited():
    # claims tau <= (1 + |g|)^0 = 1 but grows linearly
    lying = Tau("lying", lambda g: 1.0 + np.abs(g), growth=(1.0, 0.0))
    chk = submultiplicativity_check(lying, RNG(3), n=10_000)
    assert chk.growth_ok is False


BIT_LOCK_MODEL = ModelSpec(
    "TwoPoint",
    2,
    {"p": [0.2, 0.3], "up": [2.0, 1.8], "down": [0.5, 0.0], "b": {"dist": "exponential", "rate": 1.0}},
)

# sha256 of each tau kind's name, submultiplicativity audit at seed 3 and
# gamma bound at seed 4, all on BIT_LOCK_MODEL
TAU_DIGESTS = {
    "power-0.5": ({"kind": "power", "beta": 0.5},
                  "c0d18f7898d0579affc11b8a11b6e54aba22aa5f2da448ba2e36afc6a30658aa"),
    "power-2": ({"kind": "power", "beta": 2.0},
                "b773183d85add6c2455dddce37e389e5104a98baa36af35cda86551fa832f68a"),
    "log-3": ({"kind": "log", "beta": 3.0},
              "0b797e902f75e9bc3b92c900af0e01616b20101b6748fa5478002b4c24802d11"),
    "log-default": ({"kind": "log"},
                    "638190aef58ca9f9f30359de167dd173b7f8ed23210d9ddf2b18c6838ef1b61c"),
    "loglog": ({"kind": "loglog"},
               "339a2972faa445c2827b40ae1e96c1c27292470e44e18150501022b84d7994d4"),
    "product-log-power": (
        {"kind": "product", "factors": [{"kind": "log", "beta": 1.0}, {"kind": "power", "beta": 0.5}]},
        "e257eb33af02a775fb40bb85caabe99be24007ebf66f587b5cd987c36cf28b84"),
    "product-loglog-log": (
        {"kind": "product", "factors": [{"kind": "loglog"}, {"kind": "log", "beta": 2.0}]},
        "47ad5c982e6ed847618a0ce2115abd8c5aa7732edc393b1606e0fc6e4f71b713"),
}


@pytest.mark.parametrize("kind", sorted(TAU_DIGESTS))
def test_tau_kinds_keep_their_bits(kind):
    # the golden digests pin only log(1); this pins every kind the pipeline builds
    doc, want = TAU_DIGESTS[kind]
    tau = build_tau(doc)
    got = {
        "name": tau.name,
        "submultiplicativity_check": submultiplicativity_check(tau, RNG(3), n=20_000).to_dict(),
        "tau_gamma_bound": tau_gamma_bound(
            BIT_LOCK_MODEL, 0, 1, 2.0, 2.3, tau, RNG(4), n=20_000).to_dict(),
    }
    assert hashlib.sha256(json.dumps(got, sort_keys=True).encode()).hexdigest() == want


def test_submultiplicativity_validates_range():
    with pytest.raises(ValueError):
        submultiplicativity_check(build_tau(LOG), RNG(0), n=0)
    # a weight that is nan everywhere leaves no ratio to compare
    with pytest.raises(ValueError, match="every probed ratio was indeterminate"):
        submultiplicativity_check(Tau("nan", lambda g: np.full(g.shape, np.nan)), RNG(0), n=100)


# -- joint exceedance ladders ------------------------------------------------------


def test_joint_ladder_independent_pair_decays(pair_pool):
    je = joint_exceedance(pair_pool, 0, 1, [2.0, 2.0])
    assert je.decaying is True
    vals = [e.value for e in je.normalized]
    assert vals[-1] < 0.5 * vals[0]
    assert je.counts == tuple(sorted(je.counts, reverse=True))
    assert je.n == len(pair_pool)


def test_joint_ladder_comonotone_pair_stays_up(comonotone_pool):
    # both coordinates are the same path, so the joint ladder tracks the
    # marginal constant (about 12) instead of collapsing
    je = joint_exceedance(comonotone_pool, 0, 1, [2.0, 2.0])
    vals = [e.value for e in je.normalized]
    assert min(vals) > 5.0
    # flat within confidence bands across the top rungs
    top = je.normalized[-3:]
    assert max(e.ci_lo for e in top) <= min(e.ci_hi for e in top)


def test_joint_ladder_rule_of_three_beyond_data(pair_pool):
    je = joint_exceedance(pair_pool, 0, 1, [2.0, 2.0], ladder=[1.0, 10.0, 1e9])
    assert je.counts[-1] == 0
    assert je.normalized[-1].value == 0.0
    assert je.normalized[-1].flag == "rule-of-three"
    assert je.normalized[-1].ci_hi == pytest.approx(1e9 * 3.0 / je.n)
    assert je.decaying is False


def test_joint_ladder_validation(pair_pool):
    with pytest.raises(ValueError):
        joint_exceedance(pair_pool, 0, 0, [2.0, 2.0])
    with pytest.raises(ValueError):
        joint_exceedance(pair_pool, 0, 1, [2.0, 2.0], r1=0.0)
    with pytest.raises(LadderError):
        joint_exceedance(pair_pool, 0, 1, [2.0, 2.0], ladder=[3.0, 2.0])


@pytest.mark.parametrize("alphas", [[-1.0, 2.0], [math.nan, 2.0], [2.0]])
def test_joint_exceedance_checks_its_alphas(pair_pool, alphas):
    # a negative weight once gave a ladder of |x_0|^-1, and one weight too
    # few an IndexError
    with pytest.raises(ValueError, match="alphas"):
        joint_exceedance(pair_pool, 0, 1, alphas)


# -- decay fit ----------------------------------------------------------------------


def test_decay_fit_recovers_synthetic_exponent():
    t = np.exp(np.linspace(0.5, 6.0, 12))
    y = (1.0 + np.log(t)) ** -2.0
    fit = decay_rate_fit(t, y)
    assert fit.beta == pytest.approx(2.0, rel=1e-12)
    assert fit.residual_rms < 1e-12
    assert fit.n_used == 12


def test_decay_fit_accepts_estimates(pair_pool):
    je = joint_exceedance(pair_pool, 0, 1, [2.0, 2.0])
    fit = decay_rate_fit(je.thresholds, je.normalized)
    assert fit.beta > 0.0


def test_decay_fit_needs_three_rungs():
    with pytest.raises(ValueError):
        decay_rate_fit([2.0, 3.0], [0.5, 0.4])
    with pytest.raises(ValueError):
        # rungs below t = 1 are discarded
        decay_rate_fit([0.1, 0.2, 0.5], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        decay_rate_fit([1.0, 2.0], [0.5, 0.4, 0.3])


# -- tau gamma bound ------------------------------------------------------------------


def test_gamma_bound_independent_pair():
    gb = tau_gamma_bound(PAIR, 0, 1, 2.0, 2.0, build_tau(LOG), RNG(3), n=200_000)
    assert gb.gamma0 > 0.1
    assert gb.cross.value == pytest.approx(0.64, abs=1e-12)
    assert gb.k_zero.ci_hi < 1.0
    assert gb.k_at_gamma0.ci_hi < 1.0
    assert gb.refined is True
    assert gb.tau_name == "log(1)"
    # k grows with gamma along the probed grid
    assert all(a <= b * (1 + 1e-9) for a, b in zip(gb.k_values, gb.k_values[1:]))
    doc = gb.to_dict()
    assert set(doc) >= {"gamma0", "k_zero", "k_at_gamma0", "cross", "xi"}


def test_gamma_bound_ignores_tau_where_the_weight_is_zero():
    # where A_i = 0 the weight is 0, so k(gamma) must not see tau there,
    # not even an infinite tau (whose term inf * 0 would be nan)
    spec = ModelSpec("TwoPoint", 2, {"p": 0.2, "up": 2.0, "down": 0.0})

    def bound(at_zero):
        f1 = lambda g: np.where(g == 0.0, at_zero, 1.0 + np.log1p(np.abs(g)))
        tau = Tau("t", f1, f2=lambda g: 1.0 + np.log1p(np.abs(g)))
        return tau_gamma_bound(spec, 0, 1, 2.3, 2.3, tau, RNG(4), n=50_000).to_dict()

    finite = bound(1.0)
    assert finite["gamma0"] > 0.0
    assert bound(np.inf) == finite


def test_gamma_bound_heavy_weight_raises():
    with pytest.raises(TauHeavinessError):
        tau_gamma_bound(PAIR, 0, 1, 2.0, 2.0, build_tau({"kind": "power", "beta": 4000.0}), RNG(3), n=50_000)


def test_gamma_bound_refuses_shared_class():
    com = ModelSpec("TwoPoint", 2, {"p": 0.2, "up": 2.0, "down": 0.5, "comonotone": True})
    with pytest.raises(AmbiguousPartitionError, match="share a class"):
        tau_gamma_bound(com, 0, 1, 2.0, 2.0, build_tau(LOG), RNG(3), n=50_000)


def test_gamma_bound_validates_arguments():
    with pytest.raises(ValueError):
        tau_gamma_bound(PAIR, 0, 0, 2.0, 2.0, build_tau(LOG), RNG(0))
    with pytest.raises(ValueError):
        tau_gamma_bound(PAIR, 0, 1, 2.0, 2.0, build_tau(LOG), RNG(0), xi=1.0)
    with pytest.raises(ValueError):
        tau_gamma_bound(PAIR, 0, 1, 2.0, 2.0, build_tau(LOG), RNG(0), gammas=[0.5, 0.2])
    negative = Tau("negative", lambda g: -np.ones(g.shape), f2=lambda g: np.ones(g.shape))
    with pytest.raises(ValueError, match="tau must be nonnegative"):
        tau_gamma_bound(PAIR, 0, 1, 2.0, 2.0, negative, RNG(0), n=1_000)


def test_gamma_bound_refuses_a_sample_not_certified_below_one():
    # at alphas 3.99 the closed-form cross moment is 0.9958, certified below
    # 1; the sample mean of the same moment over 20,000 draws is not
    with pytest.raises(AmbiguousPartitionError,
                       match="sampled cross moment not certified below 1") as exc:
        tau_gamma_bound(PAIR, 0, 1, 3.99, 3.99, build_tau(LOG), RNG(0), n=20_000)
    assert exc.value.pair == (0, 1)
