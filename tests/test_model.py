import inspect
import json
import math
import re

import numpy as np
import pytest
from scipy import special

from heavytail_sre import ConfigurationError, ModelSpec, log_moment

RNG = lambda s: np.random.default_rng(s)


def two_point(**overrides):
    params = {"p": 0.2, "up": 2.0, "down": 0.5, "b": {"dist": "exponential", "rate": 1.0}}
    params.update(overrides)
    return ModelSpec("TwoPoint", 1, params)


# -- construction and validation ---------------------------------------------


def test_unknown_family_rejected():
    with pytest.raises(ConfigurationError):
        ModelSpec("Cauchy", 1, {})


def test_bad_dimension_rejected():
    with pytest.raises(ConfigurationError):
        ModelSpec("TwoPoint", 0, {"p": 0.5, "up": 2.0, "down": 0.5})


def test_two_point_probability_range():
    with pytest.raises(ConfigurationError):
        two_point(p=1.5)


def test_unknown_noise_dist_rejected():
    with pytest.raises(ConfigurationError):
        two_point(b={"dist": "levy"})


def test_noise_needs_dist_key():
    with pytest.raises(ConfigurationError):
        two_point(b={"kind": "exponential"})


def test_lognormal_negative_sigma_rejected():
    with pytest.raises(ConfigurationError):
        ModelSpec("LogNormal", 1, {"mu": 0.0, "sigma": -1.0})


def test_non_psd_corr_rejected():
    corr = [[1.0, 2.0], [2.0, 1.0]]
    with pytest.raises(ConfigurationError):
        ModelSpec("LogNormal", 2, {"mu": 0.0, "sigma": 1.0, "corr": corr})


def test_ccc_z_map_length_checked():
    with pytest.raises(ConfigurationError):
        ModelSpec("CCCGarch", 2, {"arch": 0.5, "garch": 0.1, "z_map": [0]})


@pytest.mark.parametrize(
    "family, params, key",
    [
        # a float index would have been truncated to another factor map
        ("CCCGarch", {"arch": 0.35, "garch": 0.25, "z_map": [0.7, 1]}, "z_map"),
        ("CCCGarch", {"arch": 0.35, "garch": 0.25, "z_map": [0, True]}, "z_map"),
        ("CCCGarch", {"arch": 0.35, "garch": 0.25, "z_map": 1}, "z_map"),
        ("TwoPoint", {"p": True, "up": 2.0, "down": 0.5}, "p"),
        ("TwoPoint", {"p": 0.2, "up": [2.0, False], "down": 0.5}, "up"),
        ("LogNormal", {"mu": [-0.5, "x"], "sigma": 1.0}, "mu"),
        ("LogNormal", {"mu": -0.5, "sigma": [1.0, math.nan]}, "sigma"),
    ],
)
def test_family_vectors_take_strict_element_casts(family, params, key):
    with pytest.raises(ConfigurationError, match=key):
        ModelSpec(family, 2, params)


def test_custom_atoms_prob_must_sum_to_one():
    with pytest.raises(ConfigurationError):
        ModelSpec(
            "Custom",
            1,
            {"atoms": {"prob": [0.5, 0.4], "a": [[0.5], [2.0]], "b": [[1.0], [1.0]]}},
        )


# -- closed-form moments ------------------------------------------------------


def test_two_point_kappa_values():
    spec = two_point()
    # 0.2 * 2^s + 0.8 * 0.5^s
    assert spec.kappa_exact(0, 1.0) == pytest.approx(0.8, abs=1e-15)
    assert spec.kappa_exact(0, 2.0) == pytest.approx(1.0, abs=1e-15)
    assert spec.kappa_exact(0, 0.0) == 1.0
    assert spec.log_abs_mean_exact(0) == pytest.approx(-0.6 * math.log(2.0))
    # at alpha = 2: 0.2*4*log2 + 0.8*0.25*log(1/2) = 0.6 log 2
    assert spec.goldie_mean_exact(0, 2.0) == pytest.approx(0.6 * math.log(2.0))


def test_two_point_zero_atom():
    spec = two_point(down=0.0)
    assert spec.zero_mass_exact(0) == pytest.approx(0.8)
    # conditional mean only sees the surviving atom
    assert spec.log_abs_mean_exact(0) == pytest.approx(math.log(2.0))
    assert spec.kappa_exact(0, 0.0) == pytest.approx(0.2)


def test_lognormal_kappa_and_goldie():
    spec = ModelSpec("LogNormal", 1, {"mu": -0.5, "sigma": 1.0})
    # exp(mu s + sigma^2 s^2 / 2) = 1 at s = 1
    assert spec.kappa_exact(0, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert spec.log_abs_mean_exact(0) == -0.5
    # (mu + sigma^2 alpha) kappa(alpha) = 0.5 at alpha = 1
    assert spec.goldie_mean_exact(0, 1.0) == pytest.approx(0.5)


def test_squared_gaussian_kappa():
    spec = ModelSpec("CCCGarch", 1, {"arch": 1.0, "garch": 0.0})
    # A = Z^2, so kappa(s) = E|Z|^(2s); kappa(1) = 1 and the Goldie mean at
    # alpha = 1 is log 2 + psi(3/2)
    assert spec.kappa_exact(0, 1.0) == pytest.approx(1.0, rel=1e-12)
    assert spec.kappa_exact(0, 2.0) == pytest.approx(3.0, rel=1e-12)
    want = math.log(2.0) + special.digamma(1.5)
    assert spec.goldie_mean_exact(0, 1.0) == pytest.approx(want, rel=1e-12)


def test_ccc_quadrature_path_matches_sampling():
    spec = ModelSpec("CCCGarch", 1, {"arch": 0.35, "garch": 0.25})
    a, _ = spec.sample_coeffs(RNG(5), 400_000)
    for s in (0.5, 1.0, 3.0):
        k = spec.kappa_exact(0, s)
        assert np.mean(a[:, 0] ** s) == pytest.approx(k, rel=0.02)


def test_gaussian_coefficient_kappa():
    spec = ModelSpec("BekkDiag", 1, {"coeff": [[1.0]]})
    assert spec.kappa_exact(0, 2.0) == pytest.approx(1.0, rel=1e-12)
    assert spec.kappa_exact(0, 1.0) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-12)
    # E log|N| = -(gamma + log 2)/2
    want = -0.5 * (np.euler_gamma + math.log(2.0))
    assert spec.log_abs_mean_exact(0) == pytest.approx(want, rel=1e-12)


def test_joint_moment_independent_factorizes():
    spec = ModelSpec("TwoPoint", 2, {"p": 0.2, "up": 2.0, "down": 0.5})
    got = spec.joint_moment_exact(0, 1, 1.0, 1.0)
    assert got == pytest.approx(0.8 * 0.8, abs=1e-15)


def test_joint_moment_comonotone():
    spec = ModelSpec("TwoPoint", 2, {"p": 0.2, "up": 2.0, "down": 0.5, "comonotone": True})
    # both coordinates move together: E A^1 A^1 = 0.2*4 + 0.8*0.25 = 1.0
    assert spec.joint_moment_exact(0, 1, 1.0, 1.0) == pytest.approx(1.0, abs=1e-15)
    a, _ = spec.sample_coeffs(RNG(1), 2000)
    assert np.all(a[:, 0] == a[:, 1])


def test_joint_moment_zero_exponent_is_one_per_factor():
    # 0^0 = 1 inside joint moments, so a zero atom does not kill the factor
    spec = ModelSpec("TwoPoint", 2, {"p": 0.5, "up": 0.0, "down": 2.0})
    assert spec.joint_moment_exact(0, 1, 0.0, 0.0) == 1.0


def test_lognormal_joint_moment_with_correlation():
    corr = [[1.0, 0.7], [0.7, 1.0]]
    spec = ModelSpec("LogNormal", 2, {"mu": -0.5, "sigma": 1.0, "corr": corr})
    want = math.exp(-1.0 + 0.5 * (1.0 + 2.0 * 0.7 + 1.0))
    assert spec.joint_moment_exact(0, 1, 1.0, 1.0) == pytest.approx(want, rel=1e-12)
    a, _ = spec.sample_coeffs(RNG(7), 400_000)
    emp = np.mean(a[:, 0] * a[:, 1])
    assert emp == pytest.approx(want, rel=0.05)


# -- noise moments ------------------------------------------------------------


def test_noise_moment_oracles():
    spec = two_point()
    # exponential(1): E B^s = Gamma(s + 1)
    assert spec.b_moment_exact(0, 2.0) == pytest.approx(2.0, rel=1e-12)
    assert spec.b_moment_exact(0, 0.5) == pytest.approx(math.gamma(1.5), rel=1e-12)
    assert spec.b_abscissa(0) == math.inf
    assert spec.b_is_zero(0) is False


@pytest.mark.parametrize("rate, want", [(1e-12, math.inf), (1e12, 0.0)])
def test_exponential_noise_moment_at_extreme_rates(rate, want):
    # rate ** 32 underflows to 0 (1e-12) or overflows (1e12); the moment
    # Gamma(33) / rate ** 32 is then taken in log space
    spec = two_point(b={"dist": "exponential", "rate": rate})
    assert spec.b_moment_exact(0, 32.0) == want
    # an ordinary power keeps the plain quotient, bit for bit
    assert spec.b_moment_exact(0, 2.0) == math.exp(special.gammaln(3.0)) / rate ** 2.0


def test_pareto_noise_abscissa():
    spec = two_point(b={"dist": "pareto", "index": 3.0, "scale": 1.0})
    assert spec.b_abscissa(0) == 3.0
    assert spec.b_moment_exact(0, 2.0) == pytest.approx(3.0, rel=1e-12)
    assert spec.b_moment_exact(0, 3.0) == math.inf


def test_shifted_normal_noise_moment():
    spec = two_point(b={"dist": "normal", "mean": 1.0, "std": 1.0})
    # E|N(1,1)| = sqrt(2/pi) e^{-1/2} + 1 - 2 Phi(-1)
    want = math.sqrt(2.0 / math.pi) * math.exp(-0.5) + special.erf(1.0 / math.sqrt(2.0))
    assert spec.b_moment_exact(0, 1.0) == pytest.approx(want, rel=1e-9)


def test_uniform_noise_moment_spanning_zero():
    spec = two_point(b={"dist": "uniform", "low": -1.0, "high": 2.0})
    # E|U|^2 = (8 + 1) / (3 * 3) = 1
    assert spec.b_moment_exact(0, 2.0) == pytest.approx(1.0, rel=1e-12)


def test_zero_noise_flag():
    spec = two_point(b={"dist": "constant", "value": 0.0})
    assert spec.b_is_zero(0) is True


def test_shared_noise_draws_one_column():
    spec = ModelSpec(
        "TwoPoint",
        3,
        {"p": 0.2, "up": 2.0, "down": 0.5, "b": {"dist": "exponential", "rate": 1.0, "shared": True}},
    )
    _, b = spec.sample_coeffs(RNG(3), 500)
    assert np.all(b[:, 0] == b[:, 1])
    assert np.all(b[:, 0] == b[:, 2])


def test_per_coordinate_noise_list():
    spec = ModelSpec(
        "TwoPoint",
        2,
        {
            "p": 0.2,
            "up": 2.0,
            "down": 0.5,
            "b": [{"dist": "constant", "value": 1.0}, {"dist": "exponential", "rate": 2.0}],
        },
    )
    _, b = spec.sample_coeffs(RNG(4), 2000)
    assert np.all(b[:, 0] == 1.0)
    assert np.mean(b[:, 1]) == pytest.approx(0.5, rel=0.1)
    assert spec.b_moment_exact(1, 1.0) == pytest.approx(0.5, rel=1e-12)


# -- sampling consistency -----------------------------------------------------


def test_two_point_sampling_matches_kappa():
    spec = two_point()
    a, b = spec.sample_coeffs(RNG(11), 200_000)
    assert a.shape == b.shape == (200_000, 1)
    assert set(np.unique(a)) == {0.5, 2.0}
    assert np.mean(a) == pytest.approx(0.8, rel=0.02)
    assert np.mean(b) == pytest.approx(1.0, rel=0.02)


def test_sampling_is_reproducible():
    spec = two_point()
    a1, b1 = spec.sample_coeffs(RNG(42), 100)
    a2, b2 = spec.sample_coeffs(RNG(42), 100)
    assert np.array_equal(a1, a2)
    assert np.array_equal(b1, b2)


def test_ccc_shared_factor_columns_match():
    spec = ModelSpec(
        "CCCGarch",
        3,
        {"arch": [0.35, 0.35, 0.15], "garch": [0.25, 0.25, 0.55], "z_map": [0, 0, 1]},
    )
    a, _ = spec.sample_coeffs(RNG(9), 1000)
    # coordinates 0 and 1 share a factor and identical coefficients
    assert np.allclose(a[:, 0], a[:, 1])
    assert not np.allclose(a[:, 0], a[:, 2])


# one model per draw route of sample_coeffs(out=...)
ATOMS3 = {"p": [0.2, 0.5, 0.7], "up": [2.0, 1.5, 1.2], "down": [0.5, 0.3, 0.4]}
FILL_MODELS = {
    "two-point": ModelSpec("TwoPoint", 3, {**ATOMS3, "b": {"dist": "exponential", "rate": 1.0}}),
    "two-point-comonotone": ModelSpec(
        "TwoPoint", 3, {**ATOMS3, "comonotone": True, "b": {"dist": "exponential", "rate": 2.0}}
    ),
    "lognormal-corr": ModelSpec(
        "LogNormal",
        3,
        {
            "mu": [-0.5, -0.3, -0.2],
            "sigma": [0.6, 0.5, 0.4],
            "corr": [[1.0, 0.6, -0.3], [0.6, 1.0, 0.2], [-0.3, 0.2, 1.0]],
            "b": {"dist": "pareto", "index": 3.0},
        },
    ),
    "ccc-shared-factor": ModelSpec(
        "CCCGarch",
        3,
        {"arch": [0.35, 0.35, 0.15], "garch": [0.25, 0.25, 0.55], "z_map": [0, 0, 1]},
    ),
    "bekk": ModelSpec(
        "BekkDiag",
        3,
        {
            "coeff": [[0.8, 0.5, 0.0], [0.6, -0.8, 0.0], [0.0, 0.0, 1.05]],
            "b": {"dist": "uniform", "low": -1.0, "high": 2.0},
        },
    ),
    "custom-atoms": ModelSpec(
        "Custom",
        2,
        {"atoms": {"prob": [0.3, 0.7], "a": [[1.6, 0.2], [0.4, 0.9]], "b": [[1.0, -0.5], [0.0, 2.0]]}},
    ),
    "custom-callable": ModelSpec(
        "Custom",
        2,
        {"sampler": lambda rng, n: (rng.uniform(0.2, 0.8, size=(n, 2)), rng.normal(size=(n, 2)))},
    ),
    "shared-noise": ModelSpec(
        "TwoPoint", 3, {**ATOMS3, "b": {"dist": "normal", "mean": 1.0, "std": 2.0, "shared": True}}
    ),
    "noise-list": ModelSpec(
        "TwoPoint",
        6,
        {
            "p": 0.2,
            "up": 2.0,
            "down": 0.5,
            "b": [
                {"dist": "constant", "value": 1.5},
                {"dist": "exponential", "rate": 2.0},
                {"dist": "pareto", "index": 2.5, "scale": 0.5},
                {"dist": "uniform", "low": -1.0, "high": 3.0},
                {"dist": "normal", "mean": -1.0, "std": 0.5},
                {"dist": "lognormal", "mu": 0.2, "sigma": 0.7},
            ],
        },
    ),
}


@pytest.mark.parametrize("name", sorted(FILL_MODELS))
def test_sample_coeffs_fills_coordinate_major_rows(name):
    spec, n = FILL_MODELS[name], 257
    rng = RNG(17)
    a, b = spec.sample_coeffs(rng, n)
    after = rng.random()
    assert a.shape == b.shape == (n, spec.d)
    out = tuple(np.full((spec.d, n), np.nan) for _ in range(2))
    rng = RNG(17)
    filled = spec.sample_coeffs(rng, n, out=out)
    assert filled[0] is out[0] and filled[1] is out[1]
    assert np.array_equal(out[0], a.T)
    assert np.array_equal(out[1], b.T)
    # the same draws: the generator ends in the same state
    assert rng.random() == after
    for bad in ((n, spec.d), (spec.d, n + 1), (spec.d,)):
        with pytest.raises(ValueError, match="out must be"):
            spec.sample_coeffs(RNG(17), n, out=(out[0], np.empty(bad)))
        with pytest.raises(ValueError, match="out must be"):
            spec.sample_coeffs(RNG(17), n, out=(np.empty(bad), out[1]))


def lognormal_a(p, rng, n):
    z = rng.standard_normal((n, len(p["mu"]))) @ np.linalg.cholesky(p["corr"]).T
    return np.exp(np.asarray(p["mu"]) + np.asarray(p["sigma"]) * z)


def ccc_a(p, rng, n):
    f = rng.standard_normal((n, len(p["corr"]))) @ np.linalg.cholesky(p["corr"]).T
    z = f[:, p["z_map"]]
    return np.asarray(p["arch"]) * z * z + np.asarray(p["garch"])


def bekk_a(p, rng, n):
    return rng.standard_normal((n, len(p["coeff"]))) @ np.asarray(p["coeff"])


# the A block of each factor family, as a record-major (n, d) formula
A_REFERENCES = {
    "lognormal-corr": (FILL_MODELS["lognormal-corr"], lognormal_a),
    "ccc-shared-factor": (FILL_MODELS["ccc-shared-factor"], ccc_a),
    "ccc-corr": (
        ModelSpec(
            "CCCGarch",
            3,
            {"arch": [0.3, 0.2, 0.4], "garch": [0.3, 0.5, 0.2], "z_map": [0, 1, 1], "corr": [[1.0, 0.4], [0.4, 1.0]]},
        ),
        ccc_a,
    ),
    "bekk": (FILL_MODELS["bekk"], bekk_a),
    "bekk-one-factor": (ModelSpec("BekkDiag", 3, {"coeff": [[0.8, -0.5, 1.1]]}), bekk_a),
}


@pytest.mark.parametrize("name", sorted(A_REFERENCES))
def test_coefficient_rows_are_the_record_major_draws(name):
    spec, reference = A_REFERENCES[name]
    n = 20_001
    a, _ = spec.sample_coeffs(RNG(31), n)
    assert np.array_equal(a, reference(spec.to_json()["params"], RNG(31), n))


@pytest.mark.parametrize("name", sorted(FILL_MODELS))
def test_sample_coeffs_returns_views_of_coordinate_rows(name):
    spec = FILL_MODELS[name]
    for v in spec.sample_coeffs(RNG(17), 257):
        assert v.base is not None and v.T.flags.c_contiguous
    with pytest.raises(ValueError, match="out must be"):
        spec.sample_coeffs(RNG(17), 257, out=tuple(np.empty((257, spec.d)).T for _ in range(2)))


# each noise law with two parameter sets, and numpy's own sampler for each
NOISE_REFERENCES = {
    "constant": (
        [{"dist": "constant", "value": 1.5}, {"dist": "constant", "value": -0.25}],
        lambda rng, n, p: np.full(n, p["value"]),
    ),
    "exponential": (
        [{"dist": "exponential", "rate": 2.5}, {"dist": "exponential", "rate": 0.37}],
        lambda rng, n, p: rng.exponential(scale=1.0 / p["rate"], size=n),
    ),
    "pareto": (
        [{"dist": "pareto", "index": 1.0, "scale": 0.5}, {"dist": "pareto", "index": 2.5, "scale": 1.0}],
        lambda rng, n, p: p["scale"] * rng.random(n) ** (-1.0 / p["index"]),
    ),
    "uniform": (
        [{"dist": "uniform", "low": -1.0, "high": 3.0}, {"dist": "uniform", "low": 0.1, "high": 0.7}],
        lambda rng, n, p: rng.uniform(p["low"], p["high"], size=n),
    ),
    "normal": (
        [{"dist": "normal", "mean": -1.0, "std": 0.5}, {"dist": "normal", "mean": 2.0, "std": 3.0}],
        lambda rng, n, p: rng.normal(p["mean"], p["std"], size=n),
    ),
    "lognormal": (
        [{"dist": "lognormal", "mu": 0.2, "sigma": 0.7}, {"dist": "lognormal", "mu": -1.0, "sigma": 1.5}],
        lambda rng, n, p: np.exp(rng.normal(p["mu"], p["sigma"], size=n)),
    ),
}


@pytest.mark.parametrize("law", sorted(NOISE_REFERENCES))
def test_noise_rows_are_numpys_own_draws(law):
    docs, reference = NOISE_REFERENCES[law]
    spec, n = ModelSpec("TwoPoint", 2, {"p": 0.2, "up": 2.0, "down": 0.5, "b": docs}), 30_001
    want = RNG(29)
    want.random((n, 2))  # the A block of TwoPoint
    rows = [reference(want, n, p) for p in docs]
    after = want.random()
    for out in (None, tuple(np.empty((2, n)) for _ in range(2))):
        rng = RNG(29)
        _, b = spec.sample_coeffs(rng, n, out=out)
        assert np.array_equal(b if out else b.T, rows)
        assert rng.random() == after


# -- custom models ------------------------------------------------------------


def test_custom_atoms_moments_and_sampling():
    spec = ModelSpec(
        "Custom",
        1,
        {"atoms": {"prob": [0.2, 0.8], "a": [[2.0], [0.5]], "b": [[1.0], [0.0]]}},
    )
    assert spec.kappa_exact(0, 2.0) == pytest.approx(1.0, abs=1e-15)
    assert spec.b_moment_exact(0, 1.0) == pytest.approx(0.2, abs=1e-15)
    assert spec.b_is_zero(0) is False
    a, b = spec.sample_coeffs(RNG(2), 100_000)
    # b = 1 exactly when a = 2
    assert np.all((a[:, 0] == 2.0) == (b[:, 0] == 1.0))
    assert np.mean(a[:, 0] == 2.0) == pytest.approx(0.2, abs=0.01)


# every closed-form hook of ModelSpec, called at coordinate j
HOOKS = {
    "kappa_exact": lambda spec, j: spec.kappa_exact(j, 1.0),
    "zero_mass_exact": lambda spec, j: spec.zero_mass_exact(j),
    "log_abs_mean_exact": lambda spec, j: spec.log_abs_mean_exact(j),
    "goldie_mean_exact": lambda spec, j: spec.goldie_mean_exact(j, 2.0),
    "joint_moment_exact[i]": lambda spec, j: spec.joint_moment_exact(j, 0, 1.0, 1.0),
    "joint_moment_exact[j]": lambda spec, j: spec.joint_moment_exact(0, j, 1.0, 1.0),
    "constant_magnitude_exact": lambda spec, j: spec.constant_magnitude_exact(j),
    "a_abscissa": lambda spec, j: spec.a_abscissa(j),
    "b_moment_exact": lambda spec, j: spec.b_moment_exact(j, 1.0),
    "b_abscissa": lambda spec, j: spec.b_abscissa(j),
    "b_is_zero": lambda spec, j: spec.b_is_zero(j),
}


@pytest.mark.parametrize("hook", sorted(HOOKS))
@pytest.mark.parametrize("j", [2, -1])
def test_hooks_check_coordinate_index(hook, j):
    spec = ModelSpec("TwoPoint", 2, {"p": 0.2, "up": 2.0, "down": 0.5})
    with pytest.raises(ValueError, match="out of range"):
        HOOKS[hook](spec, j)


def test_custom_callable_roundtrip_is_refused():
    def sampler(rng, n):
        a = rng.uniform(0.2, 0.8, size=(n, 1))
        return a, np.ones((n, 1))

    spec = ModelSpec("Custom", 1, {"sampler": sampler})
    a, b = spec.sample_coeffs(RNG(0), 50)
    assert a.shape == (50, 1)
    assert np.all(b == 1.0)
    for hook in HOOKS.values():
        assert hook(spec, 0) is None
    with pytest.raises(ConfigurationError):
        spec.to_json()
    assert len(spec.fingerprint()) == 64


def test_custom_callable_shape_check():
    spec = ModelSpec("Custom", 2, {"sampler": lambda rng, n: (np.ones((n, 1)), np.ones((n, 1)))})
    with pytest.raises(ConfigurationError):
        spec.sample_coeffs(RNG(0), 10)


def test_hooks_keep_their_signatures(monkeypatch):
    # one checked dispatch serves every hook; each keeps its declared arguments
    spec = ModelSpec("TwoPoint", 2, {"p": 0.2, "up": 2.0, "down": 0.5, "comonotone": True})
    seen = []
    monkeypatch.setattr(type(spec._impl), "goldie_mean_exact", lambda self, *args: seen.append(args))
    spec.goldie_mean_exact(np.int64(1), alpha=2)
    assert seen == [(1, 2.0)] and type(seen[0][1]) is float
    monkeypatch.undo()
    assert list(inspect.signature(ModelSpec.joint_moment_exact).parameters) == ["self", "i", "j", "s", "u"]
    assert list(inspect.signature(ModelSpec.goldie_mean_exact).parameters) == ["self", "j", "alpha"]
    assert spec.joint_moment_exact(i=1, j=0, s=1.0, u=2) == spec.joint_moment_exact(1, 0, 1.0, 2.0)
    assert spec.kappa_exact(0, s=2) == spec.kappa_exact(0, 2.0) == pytest.approx(1.0)
    with pytest.raises(TypeError):
        spec.kappa_exact(0)


# -- declared keys ------------------------------------------------------------

ATOMS = {"prob": [0.2, 0.8], "a": [[2.0], [0.5]], "b": [[1.0], [0.0]]}
TWO = {"p": 0.2, "up": 2.0, "down": 0.5}


@pytest.mark.parametrize(
    "family, params, key, level",
    [
        ("TwoPoint", {**TWO, "comonotnoe": True}, "comonotnoe", "TwoPoint params"),
        ("LogNormal", {"mu": -0.5, "sigma": 1.0, "rho": 0.5}, "rho", "LogNormal params"),
        ("CCCGarch", {"arch": 0.35, "garch": 0.25, "zmap": [0]}, "zmap", "CCCGarch params"),
        ("BekkDiag", {"coeff": [[1.0]], "noise": None}, "noise", "BekkDiag params"),
        ("Custom", {"atoms": ATOMS, "b": None}, "b", "Custom atoms params"),
        ("Custom", {"atoms": {**ATOMS, "w": [1.0]}}, "w", "Custom atoms table"),
        ("Custom", {"sampler": lambda rng, n: None, "label": "x"}, "label", "Custom callable params"),
        ("TwoPoint", {**TWO, "b": {"dist": "pareto", "alpha": 3.0}}, "alpha", "noise law 'pareto'"),
        # shared belongs to the dict form of a noise spec only
        ("TwoPoint", {**TWO, "b": [{"dist": "normal", "shared": True}]}, "shared", "noise law 'normal'"),
    ],
)
def test_unknown_keys_are_refused_by_level(family, params, key, level):
    with pytest.raises(ConfigurationError, match=re.escape(f"unknown key {key!r} in {level};")):
        ModelSpec(family, 1, params)


@pytest.mark.parametrize(
    "edit",
    [{"d": 2.0}, {"d": True}, {"d": "2"}, {"d": 0}, {"sigma_margin": "x"}, {"sigma_margin": 0.0},
     {"sigma_margin": math.inf}, {"sigma_margin": False}, {"family": ["TwoPoint"]}, {"sigma_margn": 1.0}],
)
def test_model_document_is_read_through_its_keys(edit):
    doc = {"family": "TwoPoint", "d": 1, "params": TWO, **edit}
    with pytest.raises(ConfigurationError, match=re.escape(repr(next(iter(edit))))):
        ModelSpec.from_json(doc)
    if "sigma_margn" not in edit:  # the constructor reads its arguments the same way
        with pytest.raises(ConfigurationError):
            ModelSpec(**doc)


def test_noise_and_family_defaults_are_declared():
    # an absent key takes its declared default: no noise, rate 1, independent
    spec = ModelSpec("TwoPoint", 2, {**TWO, "b": {"dist": "exponential"}})
    assert spec.b_moment_exact(1, 1.0) == 1.0
    assert spec.to_json()["params"]["comonotone"] is False
    assert ModelSpec("TwoPoint", 1, TWO).b_is_zero(0) is True
    none = ModelSpec("TwoPoint", 1, {**TWO, "b": None})
    assert none.fingerprint() == ModelSpec("TwoPoint", 1, TWO).fingerprint()
    assert ModelSpec("TwoPoint", 1, TWO).to_json()["params"]["b"] == {"dist": "constant", "value": 0.0}


# the parent's fingerprints: the params read back through the declared keys
# must hash as before
FINGERPRINTS = {
    "bekk": "92095bd23a5f89325e2db4dea38a203c0ab2521eafd939895a5af5b1a69917d1",
    "ccc-shared-factor": "dfe17827cd6563bf0ee4e35e3bf26b42241ad2a3e1301a730d679c9e773513b3",
    "custom-atoms": "3552a258bc8f835e0cce8b39608f58a5088eecf552cb1757e4d854d9c410b406",
    "lognormal-corr": "4745ce8071c683d6ebe465ae10de4d235e17f55f97f8723fd0a44479026f056b",
    "noise-list": "3fd34fb36ee2d4cbe5755894fe8cc351898332cfbeb1c6faba7a908f6d4836bf",
    "shared-noise": "769ceb7120b6d2fa5c9928b245cf9a25a5de94a4dc39ffd12dd01fea149610cc",
    "two-point": "1dc6edccd86c868bcc4e95fc06f1d20e48dd3ecb5f1c5b6e17f4bf81122f8337",
    "two-point-comonotone": "addee46848fdc5e925048df740db071c4748bb6a9abdda71cb55d5a95a2afd36",
}


@pytest.mark.parametrize("name", sorted(FINGERPRINTS))
def test_every_family_roundtrips_through_its_keys(name):
    spec = FILL_MODELS[name]
    assert spec.fingerprint() == FINGERPRINTS[name]
    clone = ModelSpec.from_json(json.loads(json.dumps(spec.to_json())))
    assert clone.to_json() == spec.to_json()
    assert clone.fingerprint() == FINGERPRINTS[name]


# -- serialization ------------------------------------------------------------


def test_json_roundtrip_preserves_model():
    spec = ModelSpec(
        "CCCGarch",
        3,
        {"arch": [0.35, 0.35, 0.15], "garch": [0.25, 0.25, 0.55], "z_map": [0, 0, 1]},
    )
    doc = spec.to_json()
    clone = ModelSpec.from_json(json.loads(json.dumps(doc)))
    assert clone.fingerprint() == spec.fingerprint()
    a1, b1 = spec.sample_coeffs(RNG(8), 64)
    a2, b2 = clone.sample_coeffs(RNG(8), 64)
    assert np.array_equal(a1, a2)
    assert np.array_equal(b1, b2)


def test_from_json_requires_keys():
    with pytest.raises(ConfigurationError):
        ModelSpec.from_json({"family": "TwoPoint", "d": 1})


def test_fingerprint_separates_models():
    assert two_point().fingerprint() != two_point(p=0.25).fingerprint()
    assert two_point().fingerprint() == two_point().fingerprint()


# -- drift diagnostics --------------------------------------------------------


def test_log_moment_closed_form():
    lm = log_moment(two_point(), 0)
    assert lm.mean_given_nonzero.value == pytest.approx(-0.6 * math.log(2.0))
    assert lm.mean_given_nonzero.ci_lo == lm.mean_given_nonzero.ci_hi
    assert lm.zero_mass == 0.0
    assert lm.contractive is True
    assert lm.constant_magnitude is False


def test_log_moment_constant_magnitude_flag():
    spec = two_point(p=0.5, up=2.0, down=-2.0)
    lm = log_moment(spec, 0)
    assert lm.constant_magnitude is True
    assert lm.contractive is False


def test_log_moment_zero_mass_contracts():
    lm = log_moment(two_point(p=0.2, up=2.0, down=0.0), 0)
    assert lm.zero_mass == pytest.approx(0.8)
    assert lm.contractive is True


def test_log_moment_monte_carlo():
    spec = ModelSpec("LogNormal", 1, {"mu": -0.5, "sigma": 1.0})
    lm = log_moment(spec, 0, n=200_000, rng=RNG(6), method="monte-carlo")
    assert lm.mean_given_nonzero.contains(-0.5)
    assert lm.contractive is True
    assert lm.mean_given_nonzero.ci_lo < lm.mean_given_nonzero.ci_hi


def test_log_moment_monte_carlo_needs_rng():
    with pytest.raises(ValueError):
        log_moment(two_point(), 0, method="monte-carlo")


def test_log_moment_non_contractive_detected():
    lm = log_moment(two_point(p=0.8), 0)
    # E log A = 0.6 log 2 > 0
    assert lm.contractive is False
