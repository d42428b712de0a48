import hashlib
import inspect
import json
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import special

from heavytail_sre import ConfigurationError, LogMoment, ModelSpec, log_moment

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
    assert spec.drift_exact(0)[0] == pytest.approx(-0.6 * math.log(2.0))
    # at alpha = 2: 0.2*4*log2 + 0.8*0.25*log(1/2) = 0.6 log 2
    assert spec.goldie_mean_exact(0, 2.0) == pytest.approx(0.6 * math.log(2.0))


def test_two_point_zero_atom():
    spec = two_point(down=0.0)
    assert spec.drift_exact(0)[1] == pytest.approx(0.8)
    # conditional mean only sees the surviving atom
    assert spec.drift_exact(0)[0] == pytest.approx(math.log(2.0))
    assert spec.kappa_exact(0, 0.0) == pytest.approx(0.2)


def test_lognormal_kappa_and_goldie():
    spec = ModelSpec("LogNormal", 1, {"mu": -0.5, "sigma": 1.0})
    # exp(mu s + sigma^2 s^2 / 2) = 1 at s = 1
    assert spec.kappa_exact(0, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert spec.drift_exact(0)[0] == -0.5
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


def test_ccc_without_arch_is_its_garch_constant():
    # A_j = garch_j a.s.: kappa g^s, log mean log g, Goldie mean g^alpha log g;
    # with garch 0 too, A_j = 0 a.s.
    spec = ModelSpec("CCCGarch", 2, {"arch": 0.0, "garch": [0.5, 0.0]})
    assert spec.kappa_exact(0, 3.0) == 0.125
    assert spec.drift_exact(0)[0] == math.log(0.5)
    assert spec.goldie_mean_exact(0, 2.0) == 0.25 * math.log(0.5)
    assert spec.kappa_exact(1, 3.0) == spec.kappa_exact(1, 0.0) == 0.0
    assert spec.drift_exact(1)[0] is None
    assert spec.goldie_mean_exact(1, 2.0) == 0.0


def test_bekk_zero_column_is_a_zero_coefficient():
    # coeff column 1 is zero, so A_1 = 0 a.s.
    spec = ModelSpec("BekkDiag", 2, {"coeff": [[0.8, 0.0], [0.6, 0.0]]})
    a, _ = spec.sample_coeffs(RNG(0), 1_000)
    assert np.all(a[:, 1] == 0.0)
    assert spec.kappa_exact(1, 2.0) == spec.kappa_exact(1, 0.0) == 0.0
    assert spec.drift_exact(1)[0] is None
    assert spec.goldie_mean_exact(1, 2.0) == 0.0
    # E|A_0|^s |A_1|^u: 0 for u > 0, and E|A_0|^s for u = 0 (0^0 = 1)
    assert spec.joint_moment_exact(0, 1, 1.0, 2.0) == 0.0
    assert spec.joint_moment_exact(0, 1, 2.0, 0.0) == spec.kappa_exact(0, 2.0)


def test_overflowing_closed_form_powers_are_infinite_without_a_warning():
    # a numpy scalar power warns when it overflows and a Python float power
    # raises; both moments are inf, as an overflowing exp is
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rare = ModelSpec("TwoPoint", 1, {"p": 1e-30, "up": 1e10, "down": 0.5,
                                         "b": {"dist": "exponential"}})
        assert rare.kappa_exact(0, 40.0) == math.inf
        squared = ModelSpec("CCCGarch", 1, {"arch": 1e10, "garch": 0.0})
        assert squared.kappa_exact(0, 40.0) == math.inf
        assert two_point(b={"dist": "constant", "value": 1e10}).b_moment_exact(0, 40.0) == math.inf


def test_closed_form_moments_out_of_float_range_are_inf_or_their_value():
    # E|N|^400 overflows and 0.01^200 underflows, yet 0.01^200 E|N|^400 =
    # exp(77.6) is a float; the rest are past the float range
    squared = ModelSpec("CCCGarch", 1, {"arch": 0.01, "garch": 0.0})
    log_want = 200.0 * math.log(0.01) + 200.0 * math.log(2.0) + special.gammaln(200.5) \
        - special.gammaln(0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert squared.kappa_exact(0, 200.0) == pytest.approx(math.exp(log_want), rel=1e-12)
        assert ModelSpec("BekkDiag", 1, {"coeff": [[1.0]]}).kappa_exact(0, 400.0) == math.inf
        for law, s in [({"dist": "pareto", "index": 100.0, "scale": 1e10}, 40.0),
                       ({"dist": "uniform", "high": 1e10}, 40.0),
                       ({"dist": "normal", "mean": 0.0}, 400.0)]:
            assert two_point(b=law).b_moment_exact(0, s) == math.inf, law
        rare = ModelSpec("TwoPoint", 1, {"p": 1e-30, "up": 1e10, "down": 0.5})
        assert rare.goldie_mean_exact(0, 40.0) == math.inf


# (low, high, s, E|B|^s): the ends' |v|^(s+1) overflow on one side of zero
# (inf - inf) or on both (inf / finite), although only the first moment is
# past the float range
UNIFORM_PAST_THE_RANGE = [
    (1e9, 2e9, 40.0, math.inf),
    (1e300, 2e300, 0.1, 2e300 ** 0.1 * (1.0 - 0.5 ** 1.1) / (1.1 * 0.5)),
    (-1e300, 1e300, 0.1, 1e300 ** 0.1 / 1.1),
]


@pytest.mark.parametrize("low, high, s, want", UNIFORM_PAST_THE_RANGE)
def test_uniform_noise_moment_past_the_float_range(low, high, s, want):
    spec = two_point(b={"dist": "uniform", "low": low, "high": high})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert spec.b_moment_exact(0, s) == pytest.approx(want, rel=1e-12)


def test_exponential_noise_moment_whose_gamma_overflows():
    # Gamma(173) overflows a float before the division by 2^172, but
    # Gamma(173) / 2^172 = 172! / 2^172 does not; the log form loses some
    # 600 ulps at a log of about 598
    spec = two_point(b={"dist": "exponential", "rate": 2.0})
    assert spec.b_moment_exact(0, 172.0) == pytest.approx(math.factorial(172) / 2**172, rel=1e-12)


def test_bekk_unit_correlation_joint_moment_below_the_float_range():
    # rho = 1: E|A_0|^100 |A_1|^100 = 0.01^100 0.02^100 E|N|^200, with
    # E|N|^200 = 199!! exactly; 0.01^100 0.02^100 underflows to 0 first
    spec = ModelSpec("BekkDiag", 2, {"coeff": [[0.01, 0.02]]})
    want = float(Fraction(0.01) ** 100 * Fraction(0.02) ** 100 * math.prod(range(1, 200, 2)))
    assert spec.joint_moment_exact(0, 1, 100.0, 100.0) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_gaussian_coefficient_kappa():
    spec = ModelSpec("BekkDiag", 1, {"coeff": [[1.0]]})
    assert spec.kappa_exact(0, 2.0) == pytest.approx(1.0, rel=1e-12)
    assert spec.kappa_exact(0, 1.0) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-12)
    # E log|N| = -(gamma + log 2)/2
    want = -0.5 * (np.euler_gamma + math.log(2.0))
    assert spec.drift_exact(0)[0] == pytest.approx(want, rel=1e-12)


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


def test_noise_moments_of_degenerate_and_centred_laws():
    # E|B|^0 = 1 for every law; a constant, or a normal of std 0, gives
    # |value|^s; a centred normal gives std^s E|N|^s
    constant = two_point(b={"dist": "constant", "value": -1.5})
    assert constant.b_moment_exact(0, 0.0) == 1.0
    assert constant.b_moment_exact(0, 2.0) == 2.25
    assert two_point(b={"dist": "normal", "mean": -2.0, "std": 0.0}).b_moment_exact(0, 3.0) == 8.0
    centred = two_point(b={"dist": "normal", "mean": 0.0, "std": 2.0})
    assert centred.b_moment_exact(0, 2.0) == pytest.approx(4.0, rel=1e-14)
    want = 2.0 * math.sqrt(2.0 / math.pi)
    assert centred.b_moment_exact(0, 1.0) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("rate, want", [(1e-12, math.inf), (1e12, 0.0)])
def test_exponential_noise_moment_at_extreme_rates(rate, want):
    # rate ** 32 underflows to 0 (1e-12) or overflows (1e12); the moment
    # Gamma(33) / rate ** 32 is then taken in log space
    spec = two_point(b={"dist": "exponential", "rate": rate})
    assert spec.b_moment_exact(0, 32.0) == want
    # an ordinary power keeps the plain quotient, bit for bit
    assert spec.b_moment_exact(0, 2.0) == math.exp(special.gammaln(3.0)) / rate ** 2.0


# the tail indices the readme-run (closed form) and bekk-mc (Monte Carlo,
# seed 11) pipelines solve
PIPELINE_ALPHAS = [1.9999999999999998, 1.747007869365476, 1.9983168630876187, 2.3404842813988624]


def cephes_arguments():
    """Arguments in every branch of lgam and psi: fixed-seed samples per
    branch range, the integers, the quarter-integers, inf and both sides of
    each branch edge."""
    rng = np.random.default_rng(23)
    args = [v for lo, hi in [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 10.0), (10.0, 13.0)]
            for v in rng.uniform(lo, hi, 2_000)]
    for lo, hi in [(1e-300, 1e-8), (13.0, 1e3), (1e3, 1e8), (1e8, 1e17), (1e17, 1e300)]:
        args += list(np.exp(rng.uniform(math.log(lo), math.log(hi), 2_000)))
    args += [k / 4 for k in range(1, 401)] + [math.inf, 2.556348e305, 2.6e305]
    args += [math.nextafter(edge, side) for edge in (1.0, 2.0, 3.0, 10.0, 13.0, 1e3, 1e8, 1e17)
             for side in (0.0, math.inf)]
    return [float(v) for v in args]


def test_cephes_ports_match_scipy_bit_for_bit():
    # the closed forms need only log Gamma and psi; the ports keep
    # scipy.special off the import path, so they must have its bits
    from heavytail_sre.model import _digamma, _gammaln, _log_abs_normal_moment

    args = cephes_arguments()
    hexes = lambda values: [float(v).hex() for v in values]
    assert hexes(map(_gammaln, args)) == hexes(special.gammaln(args))
    assert hexes(map(_digamma, args)) == hexes(special.digamma(args))
    # the moment orders of the two pipelines: abscissa scan, positivity grid,
    # noise margin and cross-moment probes
    orders = [0.5 * k for k in range(1, 17)]
    for a in PIPELINE_ALPHAS:
        orders += [a, a + 0.5, 0.25 * a, 0.5 * a, 0.75 * a]
        orders += list(np.geomspace(max(0.5, 0.5 * a), max(32.0, 4.0 * a), 13))
    orders = [float(s) for s in orders]
    spec = two_point()  # exponential noise of rate 1
    assert hexes(spec.b_moment_exact(0, s) for s in orders) == hexes(
        math.exp(special.gammaln(s + 1.0)) for s in orders)
    assert hexes(map(_log_abs_normal_moment, orders)) == hexes(
        0.5 * s * math.log(2.0) + special.gammaln(0.5 * (s + 1.0)) - special.gammaln(0.5)
        for s in orders)
    psi_args = [0.5] + [0.5 * (a + 1.0) for a in PIPELINE_ALPHAS] + [a + 0.5 for a in PIPELINE_ALPHAS]
    assert hexes(map(_digamma, psi_args)) == hexes(special.digamma(psi_args))


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


# (low, high): low >= 0, high <= 0, ends at +0 and -0 on either side, and a
# law straddling zero; the orders include the README model's closed-form alpha
UNIFORM_LAWS = [(0.5, 2.0), (0.0, 1.5), (-0.0, 1.5), (-3.0, -0.25), (-2.0, 0.0), (-2.0, -0.0),
                (-1.0, 2.5)]
UNIFORM_ORDERS = [0.5, 1.0, 2.0, 1.9999999999999998, 10.5]


def test_uniform_noise_moments_keep_their_bits():
    digest = hashlib.sha256()
    for low, high in UNIFORM_LAWS:
        spec = two_point(b={"dist": "uniform", "low": low, "high": high})
        digest.update(json.dumps([spec.b_moment_exact(0, s).hex() for s in UNIFORM_ORDERS]).encode())
    assert digest.hexdigest() == "0f2de5bf7b85566c258544a249611bb6be33513fd3383f536533b9105d60e043"


def test_zero_noise_flag():
    spec = two_point(b={"dist": "constant", "value": 0.0})
    assert spec.b_moment_exact(0, 1.0) == 0.0


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
    with pytest.raises(ValueError, match="n must be positive"):
        spec.sample_coeffs(RNG(17), 0)


@pytest.mark.parametrize("name", sorted(FILL_MODELS))
def test_kept_coordinates_are_the_full_draws_columns(name):
    from heavytail_sre import model

    spec, chunk = FILL_MODELS[name], model._CHUNK
    # one record, one below a chunk, one chunk, and one or two chunks with a
    # short last one, of one record (a matrix-vector product) or of seven
    for n in (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1, 2 * chunk + 7):
        rng = RNG(23)
        a, b = spec.sample_coeffs(rng, n)
        after = rng.random()
        singles = [(j,) for j in range(spec.d)]
        pairs = [(i, j) for i in range(spec.d) for j in range(spec.d)]
        for coords in singles + pairs:
            rng = RNG(23)
            ka, kb = spec.sample_coeffs(rng, n, coords=coords)
            assert ka.shape == kb.shape == (n, len(coords)), (name, n, coords)
            assert np.array_equal(ka, a[:, coords]), (name, n, coords)
            assert np.array_equal(kb, b[:, coords]), (name, n, coords)
            # the same draws: the generator ends where the full draw leaves it
            assert rng.random() == after, (name, n, coords)
    with pytest.raises(ValueError, match="coordinate index -1 out of range"):
        spec.sample_coeffs(RNG(23), 5, coords=(0, -1))
    with pytest.raises(ValueError, match=f"coordinate index {spec.d} out of range"):
        spec.sample_coeffs(RNG(23), 5, coords=(spec.d,))
    with pytest.raises(ValueError, match="coords cannot be given with out"):
        spec.sample_coeffs(RNG(23), 5, out=(np.empty((spec.d, 5)), np.empty((spec.d, 5))),
                           coords=(0,))


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
    assert spec.b_abscissa(0) == math.inf
    a, b = spec.sample_coeffs(RNG(2), 100_000)
    # b = 1 exactly when a = 2
    assert np.all((a[:, 0] == 2.0) == (b[:, 0] == 1.0))
    assert np.mean(a[:, 0] == 2.0) == pytest.approx(0.2, abs=0.01)


# (p, up, down): the README atoms, a zero atom, a negative atom, a weightless
# atom, equal magnitudes and two atoms below one
ATOM_SETS = [(0.2, 2.0, 0.5), (0.3, 0.0, 1.4), (0.25, -2.0, 0.6), (1.0, 3.0, 0.5),
             (0.7, -1.2, 1.2), (0.45, 0.9, 0.35)]
ORDERS = [0.0, 0.5, 1.0, 1.5, 2.0, 3.7, 8.0]


def marginal_bits(spec):
    """float.hex of every marginal closed-form hook of coordinate 0."""
    bits = [spec.kappa_exact(0, s) for s in ORDERS] + [spec.goldie_mean_exact(0, s) for s in ORDERS]
    mean, zero_mass, const = spec.drift_exact(0)
    return [float(v).hex() for v in bits + [zero_mass, mean]] + [str(const)]


def test_two_point_hooks_are_the_atom_path_bit_for_bit():
    # TwoPoint and Custom atoms answer the marginal hooks through one atom
    # path; the digest pins the TwoPoint bits to those recorded before they
    # shared it
    digest = hashlib.sha256()
    for p, up, down in ATOM_SETS:
        two = marginal_bits(ModelSpec("TwoPoint", 1, {"p": p, "up": up, "down": down}))
        table = {"prob": [p, 1.0 - p], "a": [[up], [down]], "b": [[0.0], [0.0]]}
        assert marginal_bits(ModelSpec("Custom", 1, {"atoms": table})) == two, (p, up, down)
        digest.update(json.dumps(two).encode())
    assert digest.hexdigest() == "3fab41d5449eb36b1916d88dc73d18206f8e38282c5f644258010123a2ce4879"


# the closed-form families in each of their branches: LogNormal with corr;
# CCCGarch with both coefficients, with arch 0, with garch 0 and with a
# shared factor; BekkDiag with a zero column and columns 0 and 2 at rho = -1.
# The noise lists walk every noise law, the normal with and without a mean
CLOSED_FORM_MODELS = [
    ("LogNormal", 2, {"mu": [-0.5, -0.2], "sigma": [1.0, 0.6], "corr": [[1.0, 0.7], [0.7, 1.0]],
                      "b": [{"dist": "exponential", "rate": 2.0},
                            {"dist": "pareto", "index": 3.0, "scale": 0.5}]}),
    ("CCCGarch", 2, {"arch": [0.35, 0.2], "garch": [0.25, 0.5], "corr": [[1.0, 0.3], [0.3, 1.0]],
                     "b": [{"dist": "uniform", "low": -1.0, "high": 2.5},
                           {"dist": "normal", "mean": 0.0, "std": 2.0}]}),
    ("CCCGarch", 2, {"arch": [0.0, 0.3], "garch": [0.5, 0.4],
                     "b": [{"dist": "normal", "mean": 1.0, "std": 0.5},
                           {"dist": "lognormal", "mu": 0.1, "sigma": 0.4}]}),
    ("CCCGarch", 2, {"arch": [0.6, 0.3], "garch": [0.0, 0.4],
                     "b": [{"dist": "constant", "value": -1.5}, {"dist": "exponential"}]}),
    ("CCCGarch", 3, {"arch": 0.3, "garch": 0.4, "z_map": [0, 0, 1],
                     "b": {"dist": "pareto", "index": 2.5, "shared": True}}),
    ("BekkDiag", 3, {"coeff": [[0.8, 0.0, -0.4], [0.6, 0.0, -0.3]],
                     "b": [{"dist": "normal", "mean": -2.0, "std": 0.0},
                           {"dist": "uniform", "low": 0.5, "high": 2.0},
                           {"dist": "constant", "value": 0.0}]}),
]
JOINT_ORDERS = [(0.0, 0.0), (0.0, 1.5), (1.0, 2.0), (3.7, 0.5)]


def closed_form_bits(spec):
    """float.hex (None, or a bool as text, where a hook gives one) of every
    closed-form hook at every coordinate."""
    hexed = lambda v: None if v is None else str(bool(v)) if isinstance(v, (bool, np.bool_)) \
        else float(v).hex()
    bits = []
    for j in range(spec.d):
        bits += [spec.kappa_exact(j, s) for s in ORDERS]
        bits += [spec.goldie_mean_exact(j, s) for s in ORDERS]
        bits += spec.drift_exact(j)
        bits += [spec.b_moment_exact(j, s) for s in ORDERS] + [spec.b_abscissa(j)]
        bits += [spec.joint_moment_exact(i, j, s, u) for i in range(spec.d) for s, u in JOINT_ORDERS]
    return [hexed(v) for v in bits]


def test_closed_form_hooks_of_every_family_keep_their_bits():
    digest = hashlib.sha256()
    for family, d, params in CLOSED_FORM_MODELS:
        digest.update(json.dumps(closed_form_bits(ModelSpec(family, d, params))).encode())
    assert digest.hexdigest() == "22584000748eacc9dcc35855aa07f7499759ccf3f904980e00a7a9ee31780909"


# every closed-form hook of ModelSpec, called at coordinate j
HOOKS = {
    "kappa_exact": lambda spec, j: spec.kappa_exact(j, 1.0),
    "drift_exact": lambda spec, j: spec.drift_exact(j),
    "goldie_mean_exact": lambda spec, j: spec.goldie_mean_exact(j, 2.0),
    "joint_moment_exact[i]": lambda spec, j: spec.joint_moment_exact(j, 0, 1.0, 1.0),
    "joint_moment_exact[j]": lambda spec, j: spec.joint_moment_exact(0, j, 1.0, 1.0),
    "b_moment_exact": lambda spec, j: spec.b_moment_exact(j, 1.0),
    "b_abscissa": lambda spec, j: spec.b_abscissa(j),
}


# the three quantities drift_exact answers together, each read at coordinate j
DRIFT_PARTS = {
    "log_abs_mean_exact": lambda spec, j: spec.drift_exact(j)[0],
    "zero_mass_exact": lambda spec, j: spec.drift_exact(j)[1],
    "constant_magnitude_exact": lambda spec, j: spec.drift_exact(j)[2],
}


@pytest.mark.parametrize("hook", sorted(HOOKS | DRIFT_PARTS))
@pytest.mark.parametrize("j", [2, -1])
def test_hooks_check_coordinate_index(hook, j):
    spec = ModelSpec("TwoPoint", 2, {"p": 0.2, "up": 2.0, "down": 0.5})
    with pytest.raises(ValueError, match="out of range"):
        (HOOKS | DRIFT_PARTS)[hook](spec, j)


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


def test_kappa_and_noise_moment_closed_forms_come_together():
    # every moment routine but cross_kappa routes on the model's one flag,
    # with no hook asked: every family answers all five marginal hooks at
    # every order, E|A_j|^s and E|B_j|^s alike, or none of them
    from heavytail_sre.model import _FAMILY_CLASSES

    assert {type(spec._impl) for spec in FILL_MODELS.values()} == set(_FAMILY_CLASSES.values())
    for name, spec in FILL_MODELS.items():
        for j in range(spec.d):
            for s in (0.0, 0.5, 2.0, 7.5):
                answers = (spec.kappa_exact(j, s), spec.b_moment_exact(j, s),
                           spec.goldie_mean_exact(j, s), spec.drift_exact(j), spec.b_abscissa(j))
                assert {v is not None for v in answers} == {spec.closed_forms}, (name, j, s)


def test_every_family_closed_form_is_a_hook():
    # ModelSpec finds a family's closed forms by name, so a misspelt method
    # would silently leave its quantity to Monte Carlo
    from heavytail_sre.model import _FAMILY_CLASSES

    is_hook = lambda name: name.endswith("_exact") or name.startswith("b_")
    hooks = {name for name in vars(ModelSpec) if is_hook(name)}
    assert hooks == {name.split("[")[0] for name in HOOKS}
    answered = set()
    for family in _FAMILY_CLASSES.values():
        names = {name for name in dir(family) if is_hook(name)}
        assert names <= hooks, (family.__name__, names - hooks)
        answered |= names
    assert answered == hooks


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
    assert ModelSpec("TwoPoint", 1, TWO).b_moment_exact(0, 1.0) == 0.0
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
    assert repr(clone) == repr(spec) == "ModelSpec(family='CCCGarch', d=3)"
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


def test_log_moment_of_zero_coefficient_on_both_routes():
    # A = 0 a.s.: no conditional mean, all mass at zero, contractive
    spec = two_point(up=0.0, down=0.0)
    for lm in (log_moment(spec, 0), log_moment(spec, 0, n=1_000, rng=RNG(6), method="monte-carlo")):
        assert lm.mean_given_nonzero is None
        assert lm.zero_mass == 1.0
        assert lm.contractive is True
        assert lm.constant_magnitude is True


@pytest.mark.parametrize("prob", [[0.7, 0.2, 0.1], [0.1, 0.7, 0.2]])
def test_log_moment_of_zero_atoms_does_not_depend_on_their_order(prob):
    # in the first order the zero mass sums to 1.0000000000000002
    spec = ModelSpec("Custom", 1, {"atoms": {"prob": prob, "a": [[0.0]] * 3, "b": [[1.0]] * 3}})
    for method in ("auto", "closed-form"):
        assert log_moment(spec, 0, method=method) == LogMoment(None, 1.0, True, True)


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
