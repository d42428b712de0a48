"""Joint-tail decay diagnostics for coordinate pairs in separate classes.

Coordinates in different classes are asymptotically independent: the
normalized joint exceedance t * P(|X_i|^a_i > t r_1, |X_j|^a_j > t r_2)
decays to zero, at a rate controlled through a submultiplicative weight
tau on the coefficient pairs.  The certified moment bound
k(gamma) = E tau(A_i, A_j)^gamma |A_i|^{a_i xi} |A_j|^{a_j (1 - xi)} < 1
turns that qualitative decay into an explicit power of 1 + log t.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .common import REQUIRED, AmbiguousPartitionError, ConfigurationError, Estimate, Record, given
from .common import TauHeavinessError, check_coords, joint_pow, mean_estimate, number, ranged
from .common import read_keys, require
from .model import ModelSpec
from .moments import cross_kappa
from .geometry import _as_weights, magnitude_power
from .tails import DEFAULT_MIN_TOP, _ladder, _scaled_binomials


class Tau:
    """Submultiplicative weight on coefficient pairs, tau(g1, g2) = f1(g1) * f2(g2).

    A single-argument weight has no f2: tau(g) = f1(g), and tau(g1, g2)
    weighs both coefficients with f1; a two-argument weight refuses one
    argument.  Submultiplicativity, tau(g * h) <= tau(g) tau(h), holds for
    every kind build_tau makes; for any other weight it is the caller's
    claim.  growth, when declared, is (C1, C2) with
    tau(g) <= C1 * (1 + |g|)^C2 in each argument.
    """

    def __init__(self, name: str, f1, f2=None, growth: tuple[float, float] | None = None):
        self.name, self.f1, self.f2, self.growth = name, f1, f2, growth

    def __call__(self, g1, g2=None):
        if g2 is None and self.f2 is not None:
            raise ValueError(f"{self.name} needs two arguments")
        v = self.f1(np.asarray(g1, dtype=float))
        return v if g2 is None else v * (self.f2 or self.f1)(np.asarray(g2, dtype=float))


def _factors(value) -> list:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError("must be a list of two tau documents")
    return [build_tau(doc) for doc in value]


def _product(factors: list) -> Tau:
    left, right = factors
    if left.f2 is not None or right.f2 is not None:
        raise ValueError("product factors must be single-argument weights")
    growth = (left.growth[0] * right.growth[0], max(left.growth[1], right.growth[1]))
    return Tau(f"product({left.name}, {right.name})", left.f1, right.f1, growth)


_BETA = {"beta": (ranged(number, lambda v: v >= 0.0, "nonnegative"), 1.0)}

# each tau kind's weight, and the keys it reads beside 'kind'
_TAU_KINDS = {
    "power": (lambda beta: Tau(f"power({beta:g})", lambda g: np.abs(g) ** beta,
                               growth=(1.0, beta)), _BETA),
    "log": (lambda beta: Tau(f"log({beta:g})", lambda g: (1.0 + np.log1p(np.abs(g))) ** beta,
                             growth=(1.0, beta)), _BETA),
    "loglog": (lambda: Tau("loglog", lambda g: 1.0 + np.log1p(np.log1p(np.abs(g))),
                           growth=(1.0, 1.0)), {}),
    "product": (_product, {"factors": (_factors, REQUIRED)}),
}


def build_tau(doc: dict) -> Tau:
    """Construct a weight from its JSON document; a document that does not
    describe one raises ConfigurationError."""
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if not isinstance(kind, str) or kind not in _TAU_KINDS:
        raise ConfigurationError(f"tau 'kind' {kind!r} is not one of {', '.join(_TAU_KINDS)}")
    make, keys = _TAU_KINDS[kind]
    params = read_keys(doc, {"kind": (given, None), **keys}, f"tau {kind!r}")
    del params["kind"]
    try:
        return make(**params)
    except ValueError as exc:
        raise ConfigurationError(f"tau {kind!r}: {exc}") from None


@dataclasses.dataclass(frozen=True)
class SubmultiplicativityCheck(Record):
    """Randomized audit of tau(g h) <= tau(g) tau(h)."""

    passed: bool
    worst_ratio: float
    worst_args: tuple
    n: int
    growth_ok: bool | None


def submultiplicativity_check(
    tau: Tau,
    rng: np.random.Generator,
    n: int = 100_000,
) -> SubmultiplicativityCheck:
    """Probe tau(g h) <= tau(g) tau(h) on signed log-uniform pairs with
    magnitudes in [1e-6, 1e6], up to a relative tolerance of 1e-9.

    Also audits the declared polynomial growth bound when there is one.
    A failure reports the worst offending pair so it can be rechecked by
    hand.
    """
    if n < 1:
        raise ValueError("n must be positive")

    cols = 1 if tau.f2 is None else 2  # one column per argument of tau

    def draw() -> np.ndarray:
        mags = np.exp(rng.uniform(math.log(1e-6), math.log(1e6), size=(n, cols)))
        signs = rng.integers(0, 2, size=(n, cols)) * 2 - 1
        return mags * signs

    g, h = draw(), draw()
    with np.errstate(over="ignore"):
        num = tau(*(g * h).T)
        den = tau(*g.T) * tau(*h.T)
    # compare in log space; overflowed num and den together are
    # indeterminate and dropped rather than reported as nan
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_ratio = np.log(num) - np.log(den)
    valid = ~np.isnan(log_ratio)
    if not np.any(valid):
        raise ValueError("every probed ratio was indeterminate")
    worst = int(np.argmax(np.where(valid, log_ratio, -np.inf)))
    worst_ratio = float(np.exp(min(log_ratio[worst], 709.0)))
    worst_args = tuple(tuple(map(float, x[worst])) if cols == 2 else float(x[worst, 0])
                       for x in (g, h))
    passed = bool(log_ratio[worst] <= math.log1p(1e-9))

    growth_ok: bool | None = None
    if tau.growth is not None:
        c1, c2 = tau.growth
        with np.errstate(over="ignore"):
            caps = c1 * np.prod((1.0 + np.abs(g)) ** c2, axis=1)
            growth_ok = bool(np.all(tau(*g.T) <= caps * (1.0 + 1e-12)))
    return SubmultiplicativityCheck(passed, worst_ratio, worst_args, n, growth_ok)


@dataclasses.dataclass(frozen=True)
class JointExceedance(Record):
    """Normalized joint exceedance ladder for one coordinate pair.

    normalized[r] estimates t_r * P(|X_i|^a_i > t_r r1, |X_j|^a_j > t_r r2);
    under asymptotic independence it decays along the ladder while the
    marginal analogue stabilizes.
    """

    i: int
    j: int
    r1: float
    r2: float
    thresholds: tuple[float, ...]
    counts: tuple[int, ...]
    prob: tuple[float, ...]
    normalized: tuple[Estimate, ...]
    n: int
    decaying: bool


def joint_exceedance(
    pool,
    i: int,
    j: int,
    alphas,
    r1: float = 1.0,
    r2: float = 1.0,
    ladder=None,
    min_top: int = DEFAULT_MIN_TOP,
) -> JointExceedance:
    """Ladder of normalized joint exceedance levels for the pair (i, j).

    The joint event is expressed through the single statistic
    min(|x_i|^a_i / r1, |x_j|^a_j / r2) > t.  Rungs with zero hits get a
    rule-of-three upper bound rather than an error, so custom ladders can
    probe beyond the data.
    """
    alphas = _as_weights(alphas, pool.d)
    check_coords(pool.d, i, j)
    if i == j:
        raise ValueError("need two distinct coordinates")
    r1, r2 = require(r1, "r1"), require(r2, "r2")
    stat = magnitude_power(pool.x_post[:, i], alphas[i])
    stat /= r1
    sj = magnitude_power(pool.x_post[:, j], alphas[j])
    sj /= r2
    np.minimum(stat, sj, out=stat)
    del sj
    ladder, counts = _ladder(stat, ladder, min_top if ladder is None else 0)
    n = stat.size
    norm = _scaled_binomials(counts, n, ladder)
    vals = [e.value for e in norm[-3:]]
    decaying = bool(len(vals) == 3 and vals[0] > vals[1] > vals[2])
    return JointExceedance(
        i=i,
        j=j,
        r1=r1,
        r2=r2,
        thresholds=tuple(float(t) for t in ladder),
        counts=tuple(counts),
        prob=tuple(k / n for k in counts),
        normalized=norm,
        n=n,
        decaying=decaying,
    )


@dataclasses.dataclass(frozen=True)
class DecayFit(Record):
    """Least-squares decay exponent of log y against log(1 + log t)."""

    beta: float
    intercept: float
    residual_rms: float
    n_used: int


def decay_rate_fit(thresholds, normalized) -> DecayFit:
    """Fit y(t) ~ C (1 + log t)^-beta on the positive rungs with t >= 1.

    Needs at least three usable rungs.  beta is reported positive when
    the levels decay.
    """
    t = np.asarray(thresholds, dtype=float).ravel()
    y = np.asarray(
        [e.value if isinstance(e, Estimate) else float(e) for e in normalized]
    )
    if t.shape != y.shape:
        raise ValueError("thresholds and normalized levels must align")
    keep = (t >= 1.0) & (y > 0.0) & np.isfinite(y)
    if int(keep.sum()) < 3:
        raise ValueError("need at least three positive rungs with t >= 1")
    x = np.log1p(np.log(t[keep]))
    z = np.log(y[keep])
    slope, intercept = np.polyfit(x, z, 1)
    resid = z - (slope * x + intercept)
    return DecayFit(
        beta=float(-slope),
        intercept=float(intercept),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        n_used=int(keep.sum()),
    )


@dataclasses.dataclass(frozen=True)
class GammaBound(Record):
    """Largest certified gamma with k(gamma) < 1 on a grid plus bisection."""

    gamma0: float
    gammas: tuple[float, ...]
    k_values: tuple[float, ...]
    k_zero: Estimate
    k_at_gamma0: Estimate
    cross: Estimate
    xi: float
    tau_name: str
    refined: bool


def tau_gamma_bound(
    spec: ModelSpec,
    i: int,
    j: int,
    alpha_i: float,
    alpha_j: float,
    tau: Tau,
    rng: np.random.Generator,
    xi: float = 0.5,
    gammas=None,
    n: int = 1_000_000,
    cross_method: str = "auto",
) -> GammaBound:
    """Certify the largest gamma with k(gamma) < 1 for a cross-class pair.

    k(gamma) = E tau(A_i, A_j)^gamma |A_i|^{alpha_i xi} |A_j|^{alpha_j (1-xi)}
    is estimated on one common draw across the whole gamma grid; gamma
    passes only when the whole 95% interval sits below 1, so the reported
    k(gamma0) keeps a noise margin from the boundary.  The first grid point
    that fails is refined by 20 bisection steps from the last one that
    passed.  The precondition is a cross moment certified below 1, or
    AmbiguousPartitionError names the pair; a weight so heavy that even the
    smallest grid point fails raises TauHeavinessError.
    """
    if i == j:
        raise ValueError("need two distinct coordinates")
    if not 0.0 < xi < 1.0:
        raise ValueError("xi must lie strictly inside (0, 1)")
    if gammas is None:
        gammas = np.geomspace(1e-3, 1.0, 32)
    gammas = np.asarray(gammas, dtype=float).ravel()
    if gammas.size == 0 or np.any(gammas <= 0.0) or np.any(np.diff(gammas) <= 0.0):
        raise ValueError("gammas must be positive and strictly increasing")

    cross = cross_kappa(
        spec, i, j, alpha_i, alpha_j, xi=xi, method=cross_method, n=n, rng=rng
    )
    if not cross.ci_hi < 1.0:
        raise AmbiguousPartitionError(
            f"cross moment at xi={xi} is not certified below 1 (interval [{cross.ci_lo:.6g}, "
            f"{cross.ci_hi:.6g}]); the pair may share a class", pair=(i, j))

    a, b = spec.sample_coeffs(rng, n, coords=(i, j))
    ai, aj = a[:, 0], a[:, 1]
    w, scratch = b[:, 0], b[:, 1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        joint_pow(np.abs(ai, out=w), alpha_i * xi, w)
        np.multiply(w, joint_pow(np.abs(aj, out=scratch), alpha_j * (1.0 - xi), scratch), out=w)
        tv = np.asarray(tau(ai, aj), dtype=float)
    # overflow artifacts (inf, or nan from inf * 0) are kept as inf: an
    # unbounded weight can never certify k < 1 and lands in
    # TauHeavinessError below
    tv = np.where(np.isnan(tv), np.inf, tv)
    if np.any(tv < 0.0):
        raise ValueError("tau must be nonnegative on the coefficients")
    k_zero = mean_estimate(w, scratch=scratch)
    if not k_zero.ci_hi < 1.0:
        raise AmbiguousPartitionError("sampled cross moment not certified below 1; increase n "
                                      "or revisit the pair", pair=(i, j))

    # k(gamma) sums exp(gamma log tau) w where tau > 0 and w > 0, else 0: the
    # terms fill the A_i row, free once tau is taken, and the rest are zeroed
    off = ~((tv > 0.0) & (w > 0.0))
    with np.errstate(divide="ignore"):
        log_tv = np.log(tv, out=tv)
    terms = ai

    def k_hat(gamma: float) -> Estimate:
        with np.errstate(over="ignore", invalid="ignore"):
            np.exp(np.multiply(gamma, log_tv, out=terms), out=terms)
            np.multiply(terms, w, out=terms)
        np.copyto(terms, 0.0, where=off)
        return mean_estimate(terms, scratch=scratch)

    def passes(est: Estimate) -> bool:
        return math.isfinite(est.value) and est.ci_hi < 1.0

    k_values = []
    last_pass = 0.0
    last_est = k_zero
    first_fail = None
    for g in gammas:
        est = k_hat(float(g))
        k_values.append(est.value)
        if passes(est):
            last_pass, last_est = float(g), est
        else:
            first_fail = float(g)
            break
    if first_fail == float(gammas[0]):
        raise TauHeavinessError(
            f"tau is too heavy for this pair: k({gammas[0]:g}) = "
            f"{k_values[0]:.6g} is not certified below 1"
        )

    if first_fail is not None:
        lo, hi = last_pass, first_fail
        for _ in range(20):
            mid = 0.5 * (lo + hi)
            est = k_hat(mid)
            if passes(est):
                lo, last_est = mid, est
            else:
                hi = mid
        last_pass = lo
    return GammaBound(
        gamma0=float(last_pass),
        gammas=tuple(float(g) for g in gammas[: len(k_values)]),
        k_values=tuple(float(v) for v in k_values),
        k_zero=k_zero,
        k_at_gamma0=last_est,
        cross=cross,
        xi=float(xi),
        tau_name=tau.name,
        refined=first_fail is not None,
    )
