import collections
import functools
import math

import numpy as np
import pytest
from scipy import optimize

from heavytail_sre import (
    ModelSpec,
    TailIndexError,
    cross_kappa,
    goldie_mean,
    kappa,
    log_moment,
    moment_abscissa,
    positivity_check,
    solve_alpha,
)
from heavytail_sre.moments import _brentq, _log_kappa, noise_margin_ok

RNG = lambda s: np.random.default_rng(s)


def two_point(**overrides):
    params = {"p": 0.2, "up": 2.0, "down": 0.5, "b": {"dist": "exponential", "rate": 1.0}}
    params.update(overrides)
    return ModelSpec("TwoPoint", 1, params)


CCC3 = ModelSpec(
    "CCCGarch",
    3,
    {"arch": [0.35, 0.35, 0.15], "garch": [0.25, 0.25, 0.55], "z_map": [0, 0, 1]},
)


# -- kappa ---------------------------------------------------------------------


def test_kappa_closed_form_is_exact():
    est = kappa(two_point(), 0, 2.0)
    assert est.value == pytest.approx(1.0, abs=1e-15)
    assert est.ci_lo == est.ci_hi == est.value
    assert est.method == "closed-form"


def test_kappa_zero_exponent_drops_zero_mass():
    # kappa(0) = P(A != 0), not 1
    spec = ModelSpec("TwoPoint", 1, {"p": 0.5, "up": 0.0, "down": 0.5})
    assert kappa(spec, 0, 0.0).value == pytest.approx(0.5)


def test_kappa_rejects_negative_exponent():
    with pytest.raises(ValueError):
        kappa(two_point(), 0, -1.0)


def test_kappa_monte_carlo_brackets_truth():
    est = kappa(two_point(), 0, 1.0, method="monte-carlo", rng=RNG(0), n=200_000)
    assert est.contains(0.8)
    assert est.flag is None


def test_kappa_monte_carlo_flags_unstable_moment():
    # E A^8 = e^32 for a standard lognormal; no finite sample stabilizes it
    ln = ModelSpec("LogNormal", 1, {"mu": 0.0, "sigma": 1.0})
    est = kappa(ln, 0, 8.0, method="monte-carlo", rng=RNG(3), n=200_000)
    assert est.flag == "possibly-infinite"


# -- solve_alpha -----------------------------------------------------------------


def test_alpha_two_point_oracle():
    root = solve_alpha(two_point(), 0)
    assert root.alpha == pytest.approx(2.0, abs=1e-8)
    assert root.residual <= 1e-8
    assert root.method == "closed-form"
    assert root.bracket[0] < 2.0 < root.bracket[1]


def test_alpha_lognormal_oracle():
    spec = ModelSpec("LogNormal", 1, {"mu": -0.5, "sigma": 1.0})
    assert solve_alpha(spec, 0).alpha == pytest.approx(1.0, abs=1e-8)


def test_alpha_squared_gaussian_oracle():
    spec = ModelSpec("CCCGarch", 1, {"arch": 1.0, "garch": 0.0})
    assert solve_alpha(spec, 0).alpha == pytest.approx(1.0, abs=1e-6)


def test_alpha_gaussian_coefficient_oracle():
    spec = ModelSpec("BekkDiag", 1, {"coeff": [[1.0]]})
    assert solve_alpha(spec, 0).alpha == pytest.approx(2.0, abs=1e-8)


def test_alpha_shared_factor_garch_oracles():
    # expanding E(0.35 z^2 + 0.25)^3 against normal moments gives exactly 1
    r0 = solve_alpha(CCC3, 0)
    assert r0.alpha == pytest.approx(3.0, abs=1e-9)
    r2 = solve_alpha(CCC3, 2)
    assert r2.alpha == pytest.approx(6.132413738371657, rel=1e-9)


def test_alpha_requires_negative_drift():
    with pytest.raises(TailIndexError):
        solve_alpha(two_point(p=0.5, up=2.0, down=0.5), 0)
    with pytest.raises(TailIndexError):
        solve_alpha(two_point(p=0.8), 0)
    # E log A = 0.6 log 2 > 0: the sampled drift's interval lies above 0
    with pytest.raises(TailIndexError, match="negative log drift not certified"):
        solve_alpha(two_point(p=0.8), 0, method="monte-carlo", n=10_000, rng=RNG(0))


def test_alpha_degenerate_zero_coefficient():
    for method in ("auto", "monte-carlo"):
        with pytest.raises(TailIndexError, match="A = 0 a.s."):
            solve_alpha(two_point(up=0.0, down=0.0), 0, method=method, n=1_000, rng=RNG(0))


def test_alpha_bracket_shrinks_below_an_infinite_kappa(monkeypatch):
    # a rare huge atom: the drift pilot (clipped to 1000) starts the bracket
    # at [500, 2000], where 1e-6 * (1e10)^s overflows to inf; the bottom
    # halves below the root and the top shrinks back to finite kappa
    spec = ModelSpec("TwoPoint", 1, {"p": 1e-6, "up": 1e10, "down": 0.5})
    probes = {}
    exact = spec.kappa_exact
    monkeypatch.setattr(spec, "kappa_exact", lambda j, s: probes.setdefault(s, exact(j, s)))
    root = solve_alpha(spec, 0)
    assert probes[2000.0] == math.inf
    lo, hi = root.bracket
    assert probes[lo] < 1.0 < probes[hi] < math.inf
    assert root.residual <= 1e-8
    assert exact(0, root.alpha) == pytest.approx(1.0, abs=1e-8)


def test_alpha_refuses_a_kappa_that_jumps_to_infinity(monkeypatch):
    # below 1 up to s = 0.5, infinite beyond: from the pilot bracket
    # [0.5, 2] the top shrinks onto the bottom and never meets kappa = 1
    spec = two_point()
    monkeypatch.setattr(spec, "kappa_exact", lambda j, s: 0.5 ** s if s <= 0.5 else math.inf)
    with pytest.raises(TailIndexError, match="jumps from below 1 to infinity near s = 0.5"):
        solve_alpha(spec, 0)


def test_alpha_residual_over_tol_is_refused(monkeypatch):
    # kappa steps over 1 at s = 1: the solver closes in on the step, where
    # |kappa - 1| stays 0.5 or 1
    spec = two_point()
    monkeypatch.setattr(spec, "kappa_exact", lambda j, s: 0.5 if s < 1.0 else 2.0)
    with pytest.raises(TailIndexError, match="root residual .* exceeds tol 1e-08"):
        solve_alpha(spec, 0)


def test_alpha_no_root_below_one():
    # |A| <= 1 a.s. keeps kappa below 1 for every s > 0
    with pytest.raises(TailIndexError):
        solve_alpha(two_point(p=0.5, up=0.9, down=0.5), 0)


def test_alpha_monte_carlo_route():
    root = solve_alpha(two_point(), 0, method="monte-carlo", rng=RNG(5), n=400_000)
    assert root.method == "monte-carlo"
    assert root.n == 400_000
    assert root.alpha == pytest.approx(2.0, abs=0.05)


def test_alpha_monte_carlo_needs_rng():
    with pytest.raises(ValueError):
        solve_alpha(two_point(), 0, method="monte-carlo")


def test_alpha_root_to_dict():
    doc = solve_alpha(two_point(), 0).to_dict()
    assert set(doc) == {"alpha", "residual", "method", "bracket", "n"}
    assert isinstance(doc["bracket"], list)


def _outcome(solver, f, a, b, args, xtol, rtol, maxiter) -> str:
    """The root as float.hex, or the exception's type and message."""
    try:
        return float(solver(f, a, b, args=args, xtol=xtol, rtol=rtol, maxiter=maxiter)).hex()
    except (ValueError, RuntimeError) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_brentq_port_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(20240611)
    shapes = (
        lambda x, c: x ** 3 - c,
        lambda x, c: math.expm1(x) - c,
        lambda x, c: 1e-3 * math.tanh(x - c),
        lambda x, c: (x - c) ** 9,  # flat at the root
        lambda x, c: -1.0 if x < c else 1.0,  # a step: secant steps divide by zero
        lambda x, c: math.nan if x > c + 1.0 else x - c,  # NaN beyond c + 1
    )
    settings = ((1e-14, 8.9e-16, 200), (2e-12, 8.881784197001252e-16, 100), (1e-6, 1e-10, 8))
    problems = []
    for k in range(720):
        c = float(rng.uniform(-2.0, 2.0))
        a, b = c - float(rng.exponential(2.0)), c + float(rng.exponential(2.0))
        problems.append((shapes[k % 6], *((a, b) if k % 12 < 6 else (b, a)), (c,)))
    for k in range(600):
        # closed-form log kappa; every bracket [lo, hi] has lo < alpha < hi
        if k % 2:
            spec = ModelSpec("BekkDiag", 1, {"coeff": [[float(rng.uniform(0.3, 1.8))]]})
        else:
            spec = two_point(p=float(rng.uniform(0.05, 0.4)), up=float(rng.uniform(1.5, 4.0)),
                             down=float(rng.uniform(0.1, 0.7)))
        kap = functools.partial(spec.kappa_exact, 0)
        if _log_kappa(1e-3, kap) >= 0.0:
            continue
        alpha = solve_alpha(spec, 0).alpha
        lo, hi = alpha * float(rng.uniform(0.05, 0.95)), alpha * float(rng.uniform(1.05, 4.0))
        problems.append((_log_kappa, lo, hi, (kap,)))
    readme = functools.partial(two_point().kappa_exact, 0)
    assert _log_kappa(2.0, readme) == 0.0  # an endpoint where f = 0
    problems += [(_log_kappa, 1.0, 2.0, (readme,)), (_log_kappa, 2.0, 5.0, (readme,))]
    assert len(problems) >= 1000
    outcomes = collections.Counter()
    for n, (f, a, b, args) in enumerate(problems):
        xtol, rtol, maxiter = settings[n % 3] if n % 7 else (1e-14, 8.9e-16, 3)
        want = _outcome(optimize.brentq, f, a, b, args, xtol, rtol, maxiter)
        assert _outcome(_brentq, f, a, b, args, xtol, rtol, maxiter) == want, (n, a, b, args)
        outcomes[want.split(":")[0] if "Error" in want else "root"] += 1
    # every outcome occurs: roots, sign and NaN ValueErrors, non-convergence
    assert min(outcomes[key] for key in ("root", "ValueError", "RuntimeError")) >= 50, outcomes


# -- goldie_mean -----------------------------------------------------------------


def test_goldie_mean_oracles():
    est = goldie_mean(two_point(), 0, 2.0)
    assert est.value == pytest.approx(0.6 * math.log(2.0), rel=1e-12)
    assert est.ci_lo == est.ci_hi
    ln = ModelSpec("LogNormal", 1, {"mu": -0.5, "sigma": 1.0})
    assert goldie_mean(ln, 0, 1.0).value == pytest.approx(0.5, rel=1e-12)


def test_goldie_mean_monte_carlo_contains_truth():
    est = goldie_mean(two_point(), 0, 2.0, method="monte-carlo", rng=RNG(2), n=400_000)
    assert est.contains(0.6 * math.log(2.0))
    assert est.ci_lo < est.ci_hi


def test_goldie_mean_validates_alpha():
    with pytest.raises(ValueError):
        goldie_mean(two_point(), 0, 0.0)


# every family, with the branches its goldie_mean_exact takes
GOLDIE_ROUTED = {
    "two-point": two_point(),
    "two-point-zero-mass": two_point(down=0.0),
    "lognormal": ModelSpec("LogNormal", 1, {"mu": -0.5, "sigma": 1.0}),
    "ccc-garch": ModelSpec("CCCGarch", 3, {"arch": [0.35, 0.0, 0.4], "garch": [0.25, 0.5, 0.0]}),
    "ccc-garch-zero": ModelSpec("CCCGarch", 1, {"arch": 0.0, "garch": 0.0}),
    "bekk-diag": ModelSpec("BekkDiag", 2, {"coeff": [[0.8, 0.0], [0.6, 0.0]]}),
    "custom-atoms": ModelSpec("Custom", 1, {"atoms": {"prob": [0.3, 0.7], "a": [[1.5], [0.6]],
                                                      "b": [[1.0], [0.5]]}}),
    "custom-callable": ModelSpec("Custom", 1, {"sampler": lambda rng, n: (np.ones((n, 1)),) * 2}),
}


@pytest.mark.parametrize("model", sorted(GOLDIE_ROUTED))
def test_goldie_mean_routes_without_the_value_of_alpha(model):
    # the solve-alpha stage takes goldie_mean's route, and draws, before
    # alpha is known: the route reads the model's flag, which must hold at
    # every alpha
    spec = GOLDIE_ROUTED[model]
    for j in range(spec.d):
        routes = {spec.goldie_mean_exact(j, alpha) is None for alpha in (0.1, 1.0, 2.5, 7.0)}
        assert routes == {not spec.closed_forms} == {model == "custom-callable"}, j


def test_monte_carlo_routes_evaluate_no_closed_form(monkeypatch):
    # CCCGarch's closed forms are quadratures: a Monte Carlo route that
    # probed one to find its route would run one and throw it away
    def quad(*args):
        raise AssertionError("a closed form was evaluated on a Monte Carlo route")

    spec = ModelSpec("CCCGarch", 1, {"arch": 0.35, "garch": 0.25})
    monkeypatch.setattr("heavytail_sre.model._quad", quad)
    mc = {"method": "monte-carlo", "n": 20_000}
    root = solve_alpha(spec, 0, rng=RNG(4), **mc)
    assert root.method == "monte-carlo"
    assert goldie_mean(spec, 0, root.alpha, rng=RNG(5), **mc).method == "monte-carlo"
    assert moment_abscissa(spec, 0, rng=RNG(6), **mc).method == "monte-carlo"


# -- cross_kappa -----------------------------------------------------------------


def test_cross_kappa_same_coordinate_is_kappa():
    est = cross_kappa(two_point(), 0, 0, 2.0, 2.0, xi=0.5)
    assert est.value == pytest.approx(1.0, abs=1e-12)
    assert est.ci_lo == est.ci_hi


def test_cross_kappa_independent_pair_oracle():
    spec = ModelSpec("TwoPoint", 2, {"p": 0.2, "up": 2.0, "down": 0.5})
    est = cross_kappa(spec, 0, 1, 2.0, 2.0, xi=0.5)
    # E A^1 E A^1 = 0.8 * 0.8
    assert est.value == pytest.approx(0.64, abs=1e-15)


def test_cross_kappa_endpoints_reduce_to_marginals():
    spec = ModelSpec("TwoPoint", 2, {"p": 0.2, "up": 2.0, "down": 0.5})
    assert cross_kappa(spec, 0, 1, 2.0, 2.0, xi=0.0).value == pytest.approx(1.0, abs=1e-12)
    assert cross_kappa(spec, 0, 1, 2.0, 2.0, xi=1.0).value == pytest.approx(1.0, abs=1e-12)


def test_cross_kappa_zero_power_convention():
    # 0^0 = 1 per factor: the zero atom of coordinate 0 does not zero the
    # xi = 0 endpoint
    spec = ModelSpec("TwoPoint", 2, {"p": 0.5, "up": 0.0, "down": 0.5})
    est = cross_kappa(spec, 0, 1, 1.0, 1.0, xi=0.0)
    assert est.value == pytest.approx(0.25, abs=1e-15)


def test_cross_kappa_shared_factor_pair():
    est = cross_kappa(CCC3, 0, 1, 3.0, 3.0, xi=0.5)
    assert est.value == pytest.approx(1.0, abs=1e-12)
    other = cross_kappa(CCC3, 0, 2, 3.0, 6.132413738371657, xi=0.5)
    assert other.value < 0.5


def test_cross_kappa_monte_carlo():
    spec = ModelSpec("TwoPoint", 2, {"p": 0.2, "up": 2.0, "down": 0.5})
    est = cross_kappa(spec, 0, 1, 2.0, 2.0, xi=0.5, method="monte-carlo", rng=RNG(4), n=400_000)
    assert est.contains(0.64)


# Each closed form below must lie inside the 95% Monte-Carlo interval at
# n = 10^6 for every xi.  The seeds are fixed, so each test is deterministic;
# at fresh seeds a correct closed form would miss at least one of k intervals
# with probability 1 - 0.95^k (14% for k = 3, 19% for k = 4).
CUSTOM2 = ModelSpec("Custom", 2, {"atoms": {
    "prob": [0.2, 0.3, 0.5], "a": [[2.0, 0.4], [0.5, 1.5], [0.7, 0.6]],
    "b": [[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]]}})


def test_cross_kappa_custom_atoms_closed_form_matches_monte_carlo():
    alphas = [solve_alpha(CUSTOM2, j).alpha for j in range(2)]
    for xi in (0.25, 0.5, 0.75):
        closed = cross_kappa(CUSTOM2, 0, 1, *alphas, xi=xi)
        assert closed.method == "closed-form"
        mc = cross_kappa(CUSTOM2, 0, 1, *alphas, xi=xi, method="monte-carlo", rng=RNG(4),
                         n=10 ** 6)
        assert mc.contains(closed.value), (xi, closed.value, mc)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_cross_kappa_bekk_unit_correlation_closed_form_matches_monte_carlo(sign):
    # A_1 = 2 sign A_0, so |rho| = 1 and the joint moment is one normal moment
    spec = ModelSpec("BekkDiag", 2, {"coeff": [[0.6, sign * 1.2], [0.3, sign * 0.6]]})
    alphas = [solve_alpha(spec, j).alpha for j in range(2)]
    for xi in (0.25, 0.5):
        closed = cross_kappa(spec, 0, 1, *alphas, xi=xi)
        assert closed.method == "closed-form"
        mc = cross_kappa(spec, 0, 1, *alphas, xi=xi, method="monte-carlo", rng=RNG(3), n=10 ** 6)
        assert mc.contains(closed.value), (xi, closed.value, mc)
    # at an endpoint one exponent is 0, and the other coordinate's kappa is left
    assert cross_kappa(spec, 0, 1, *alphas, xi=0.0).value == spec.kappa_exact(1, alphas[1])
    assert cross_kappa(spec, 0, 1, *alphas, xi=1.0).value == spec.kappa_exact(0, alphas[0])


def test_cross_kappa_of_correlated_garch_factors_holds_a_quadrature_value():
    # distinct factors with corr 0.6 have no closed form, so cross_kappa
    # samples; Z_1 = 0.6 Z_0 + 0.8 W, and 120-node Gauss-Hermite quadrature
    # over (Z_0, W) gives E|A_0|^s |A_1|^u to about 1e-9
    spec = ModelSpec("CCCGarch", 2, {"arch": [0.35, 0.15], "garch": [0.25, 0.55],
                                     "corr": [[1.0, 0.6], [0.6, 1.0]]})
    assert spec.joint_moment_exact(0, 1, 1.0, 1.0) is None
    alphas = [solve_alpha(spec, j).alpha for j in range(2)]
    z, w = np.polynomial.hermite_e.hermegauss(120)
    a0 = 0.35 * z[:, None] ** 2 + 0.25
    a1 = 0.15 * (0.6 * z[:, None] + 0.8 * z[None, :]) ** 2 + 0.55
    weights = np.outer(w, w) / w.sum() ** 2
    for xi in (0.25, 0.5, 0.75):
        want = float((weights * a0 ** (alphas[0] * xi) * a1 ** (alphas[1] * (1.0 - xi))).sum())
        mc = cross_kappa(spec, 0, 1, *alphas, xi=xi, rng=RNG(3), n=10 ** 6)
        assert mc.method == "monte-carlo"
        assert mc.contains(want), (xi, want, mc)


def test_cross_kappa_validates_xi():
    with pytest.raises(ValueError):
        cross_kappa(two_point(), 0, 0, 2.0, 2.0, xi=1.5)


# -- moment_abscissa ---------------------------------------------------------------


def test_abscissa_closed_forms():
    scan = moment_abscissa(two_point(), 0)
    assert scan.s_inf == math.inf
    assert scan.method == "closed-form"
    pareto = two_point(b={"dist": "pareto", "index": 3.0, "scale": 1.0})
    assert moment_abscissa(pareto, 0).s_inf == 3.0


def test_abscissa_monte_carlo_detects_divergence():
    pareto = two_point(b={"dist": "pareto", "index": 3.0, "scale": 1.0})
    scan = moment_abscissa(pareto, 0, rng=RNG(0), method="monte-carlo")
    # the doubling heuristic stops at or before the true abscissa
    assert 1.5 <= scan.s_inf < 3.0
    assert scan.method == "monte-carlo"
    assert len(scan.a_stable) == len(scan.grid)


def test_abscissa_monte_carlo_of_noise_with_every_moment_is_infinite():
    # every order of the grid is stable, and uniform noise has all moments
    spec = two_point(b={"dist": "uniform", "low": 0.0, "high": 1.0})
    scan = moment_abscissa(spec, 0, rng=RNG(0), method="monte-carlo")
    assert all(scan.a_stable) and all(scan.b_stable)
    assert scan.s_inf == math.inf and scan.flag is None


def test_abscissa_grid_limited_flag():
    pareto = two_point(b={"dist": "pareto", "index": 20.0, "scale": 1.0})
    scan = moment_abscissa(pareto, 0, rng=RNG(0), method="monte-carlo")
    assert scan.flag == "grid-limited"
    assert scan.s_inf == scan.grid[-1]


# -- positivity_check --------------------------------------------------------------


def test_positivity_bounded_noise_satisfied():
    spec = two_point(b={"dist": "uniform", "low": 0.0, "high": 1.0})
    report = positivity_check(spec, 0, 2.0)
    assert report.status == "satisfied"
    assert report.degenerate_b is False
    assert report.s_inf == math.inf


def test_positivity_unbounded_noise_inconclusive():
    # Gamma(s+1) outgrows every geometric kappa, so the bounded-ratio probe
    # cannot certify the sufficient condition
    assert positivity_check(two_point(), 0, 2.0).status == "inconclusive"


def test_positivity_zero_noise_degenerate():
    report = positivity_check(two_point(b={"dist": "constant", "value": 0.0}), 0, 2.0)
    assert report.status == "satisfied"
    assert report.degenerate_b is True
    assert report.ratios == ()


@pytest.mark.parametrize("law", [{"dist": "normal", "mean": 0.0, "std": 0.0},
                                 {"dist": "uniform", "low": -1e-170, "high": 1e-170}])
def test_positivity_noise_of_zero_mean_magnitude_is_degenerate(law):
    # E|B| = 0 marks the noise degenerate: a normal of std 0 at mean 0, and
    # a law whose E|B| underflows to 0
    report = positivity_check(two_point(b=law), 0, 2.0)
    assert (report.status, report.degenerate_b, report.ratios) == ("satisfied", True, ())


def test_positivity_finite_abscissa_ratios():
    spec = two_point(b={"dist": "pareto", "index": 3.0, "scale": 1.0})
    report = positivity_check(spec, 0, 2.0, rng=RNG(0))
    assert report.s_inf == 3.0
    assert report.status == "inconclusive"
    assert len(report.ratios) == len(report.grid)


def test_positivity_without_a_stable_order_is_inconclusive():
    # Pareto(0.3) noise has no stable order on the scan, so no grid below
    # s_inf = 0 is left to probe
    def sampler(rng, n):
        u = rng.uniform(size=(n, 1))
        return np.where(u < 0.2, 2.0, 0.5), rng.pareto(0.3, (n, 1))

    spec = ModelSpec("Custom", 1, {"sampler": sampler})
    assert moment_abscissa(spec, 0, n=50_000, rng=RNG(1)).s_inf == 0.0
    report = positivity_check(spec, 0, 2.0, n=50_000, rng=RNG(1))
    assert report.to_dict() == {
        "status": "inconclusive", "s_inf": 0.0, "grid": [], "ratios": [], "degenerate_b": False}


def test_noise_margin_closed_form():
    # alpha = 2 with the default sigma_margin 0.5 needs E|B|^2.5 < inf
    assert noise_margin_ok(two_point(), 0, 2.0, 1_000, None) is True
    heavy = two_point(b={"dist": "pareto", "index": 2.2})
    assert noise_margin_ok(heavy, 0, 2.0, 1_000, None) is False


# -- route contract ----------------------------------------------------------------

PAIR = ModelSpec("TwoPoint", 2, {"p": 0.2, "up": 2.0, "down": 0.5})
CALLABLE = ModelSpec(
    "Custom", 2, {"sampler": lambda rng, n: (rng.uniform(0.2, 0.8, (n, 2)), np.ones((n, 2)))}
)
ROUTED = {
    "kappa": lambda spec, **kw: kappa(spec, 0, 1.0, n=100, **kw),
    "solve_alpha": lambda spec, **kw: solve_alpha(spec, 0, n=100, **kw),
    "goldie_mean": lambda spec, **kw: goldie_mean(spec, 0, 2.0, n=100, **kw),
    "cross_kappa": lambda spec, **kw: cross_kappa(spec, 0, 1, 2.0, 2.0, n=100, **kw),
    "moment_abscissa": lambda spec, **kw: moment_abscissa(spec, 0, n=100, **kw),
    "log_moment": lambda spec, **kw: log_moment(spec, 0, n=100, **kw),
}


@pytest.mark.parametrize("route", sorted(ROUTED))
@pytest.mark.parametrize(
    "spec, method, rng, message",
    [
        (PAIR, "bogus", RNG(0), "method must be"),
        (CALLABLE, "closed-form", RNG(0), "no closed.form"),
        (PAIR, "monte-carlo", None, "needs an rng"),
    ],
    ids=["unknown-method", "no-closed-form", "monte-carlo-without-rng"],
)
def test_route_contract(route, spec, method, rng, message):
    with pytest.raises(ValueError, match=message):
        ROUTED[route](spec, method=method, rng=rng)
