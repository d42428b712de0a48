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

from .common import REQUIRED, ConfigurationError, Estimate, Record, TauHeavinessError, given
from .common import joint_pow, mean_estimate, number, read_keys
from .model import ModelSpec
from .moments import cross_kappa
from .geometry import magnitude_power
from .tails import DEFAULT_MIN_TOP, _exceedances, _ladder, _scaled_binomials


class Tau:
    """Submultiplicative weight on coefficient pairs.

    Subclasses implement value(g) >= 1-ish pointwise weights with
    tau(g * h) <= tau(g) * tau(h); two-argument weights override value2.
    growth_bound returns (C1, C2) with tau(g) <= C1 * (1 + |g|)^C2, or
    None when no polynomial bound is declared.
    """

    name = "tau"
    two_arg = False

    def value(self, g):
        raise NotImplementedError

    def value2(self, g1, g2):
        v1, v2 = self.value(g1), self.value(g2)
        return v1 * v2

    def growth_bound(self) -> tuple[float, float] | None:
        return None

    def to_doc(self) -> dict:
        raise NotImplementedError(f"{self.name} cannot be serialized")


class PowerTau(Tau):
    """tau(g) = |g|^beta."""

    def __init__(self, beta: float = 1.0):
        beta = float(beta)
        if not (math.isfinite(beta) and beta >= 0.0):
            raise ValueError("beta must be nonnegative and finite")
        self.beta = beta
        self.name = f"power({beta:g})"

    def value(self, g):
        return np.abs(np.asarray(g, dtype=float)) ** self.beta

    def growth_bound(self):
        return (1.0, self.beta)

    def to_doc(self):
        return {"kind": "power", "beta": self.beta}


class LogTau(Tau):
    """tau(g) = (1 + log(1 + |g|))^beta."""

    def __init__(self, beta: float = 1.0):
        beta = float(beta)
        if not (math.isfinite(beta) and beta >= 0.0):
            raise ValueError("beta must be nonnegative and finite")
        self.beta = beta
        self.name = f"log({beta:g})"

    def value(self, g):
        return (1.0 + np.log1p(np.abs(np.asarray(g, dtype=float)))) ** self.beta

    def growth_bound(self):
        return (1.0, self.beta)

    def to_doc(self):
        return {"kind": "log", "beta": self.beta}


class LogLogTau(Tau):
    """tau(g) = 1 + log(1 + log(1 + |g|))."""

    name = "loglog"

    def value(self, g):
        return 1.0 + np.log1p(np.log1p(np.abs(np.asarray(g, dtype=float))))

    def growth_bound(self):
        return (1.0, 1.0)

    def to_doc(self):
        return {"kind": "loglog"}


class ProductTau(Tau):
    """tau(g1, g2) = tau_1(g1) * tau_2(g2); genuinely two-argument."""

    two_arg = True

    def __init__(self, left: Tau, right: Tau):
        if left.two_arg or right.two_arg:
            raise ValueError("product factors must be single-argument weights")
        self.left = left
        self.right = right
        self.name = f"product({left.name}, {right.name})"

    def value(self, g):
        raise ValueError("product weight needs two arguments; use value2")

    def value2(self, g1, g2):
        return self.left.value(g1) * self.right.value(g2)

    def growth_bound(self):
        gl, gr = self.left.growth_bound(), self.right.growth_bound()
        if gl is None or gr is None:
            return None
        return (gl[0] * gr[0], max(gl[1], gr[1]))

    def to_doc(self):
        return {
            "kind": "product",
            "factors": [self.left.to_doc(), self.right.to_doc()],
        }


class CustomTau(Tau):
    """Wrap an arbitrary callable; submultiplicativity is the caller's claim."""

    def __init__(self, fn, name: str = "custom", two_arg: bool = False,
                 growth: tuple[float, float] | None = None):
        if not callable(fn):
            raise ValueError("fn must be callable")
        self._fn = fn
        self.name = name
        self.two_arg = bool(two_arg)
        self._growth = None if growth is None else (float(growth[0]), float(growth[1]))

    def value(self, g):
        if self.two_arg:
            raise ValueError(f"{self.name} needs two arguments; use value2")
        return np.asarray(self._fn(np.asarray(g, dtype=float)), dtype=float)

    def value2(self, g1, g2):
        if self.two_arg:
            return np.asarray(
                self._fn(np.asarray(g1, dtype=float), np.asarray(g2, dtype=float)),
                dtype=float,
            )
        return super().value2(g1, g2)

    def growth_bound(self):
        return self._growth


def _factors(value) -> list:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError("must be a list of two tau documents")
    return [build_tau(doc) for doc in value]


# each tau kind's weight, and the keys it reads beside 'kind'
_TAU_KINDS = {
    "power": (PowerTau, {"beta": (number, 1.0)}),
    "log": (LogTau, {"beta": (number, 1.0)}),
    "loglog": (LogLogTau, {}),
    "product": (lambda factors: ProductTau(*factors), {"factors": (_factors, REQUIRED)}),
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
    lo: float = 1e-6,
    hi: float = 1e6,
    rtol: float = 1e-9,
) -> SubmultiplicativityCheck:
    """Probe tau(g h) <= tau(g) tau(h) on signed log-uniform pairs.

    Also audits the declared polynomial growth bound when there is one.
    A failure reports the worst offending pair so it can be rechecked by
    hand.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 < lo < hi:
        raise ValueError("need 0 < lo < hi")

    def draw(cols: int) -> np.ndarray:
        mags = np.exp(rng.uniform(math.log(lo), math.log(hi), size=(n, cols)))
        signs = rng.integers(0, 2, size=(n, cols)) * 2 - 1
        return mags * signs

    with np.errstate(over="ignore"):
        if tau.two_arg:
            g = draw(2)
            h = draw(2)
            num = tau.value2(g[:, 0] * h[:, 0], g[:, 1] * h[:, 1])
            den = tau.value2(g[:, 0], g[:, 1]) * tau.value2(h[:, 0], h[:, 1])
        else:
            g = draw(1)[:, 0]
            h = draw(1)[:, 0]
            num = tau.value(g * h)
            den = tau.value(g) * tau.value(h)
    # compare in log space; overflowed num and den together are
    # indeterminate and dropped rather than reported as nan
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_ratio = np.log(num) - np.log(den)
    valid = ~np.isnan(log_ratio)
    if not np.any(valid):
        raise ValueError("every probed ratio was indeterminate; shrink [lo, hi]")
    worst = int(np.argmax(np.where(valid, log_ratio, -np.inf)))
    worst_ratio = float(np.exp(min(log_ratio[worst], 709.0)))
    if tau.two_arg:
        worst_args = (
            (float(g[worst, 0]), float(g[worst, 1])),
            (float(h[worst, 0]), float(h[worst, 1])),
        )
    else:
        worst_args = (float(g[worst]), float(h[worst]))
    passed = bool(log_ratio[worst] <= math.log1p(rtol))

    growth_ok: bool | None = None
    bound = tau.growth_bound()
    if bound is not None:
        c1, c2 = bound
        with np.errstate(over="ignore"):
            if tau.two_arg:
                vals = tau.value2(g[:, 0], g[:, 1])
                caps = c1 * (1.0 + np.abs(g[:, 0])) ** c2 * (1.0 + np.abs(g[:, 1])) ** c2
            else:
                vals = tau.value(g)
                caps = c1 * (1.0 + np.abs(g)) ** c2
        growth_ok = bool(np.all(vals <= caps * (1.0 + 1e-12)))
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
    alphas = np.asarray(alphas, dtype=float)
    if i == j:
        raise ValueError("need two distinct coordinates")
    if not (r1 > 0.0 and r2 > 0.0 and math.isfinite(r1) and math.isfinite(r2)):
        raise ValueError("r1 and r2 must be positive and finite")
    stat = magnitude_power(pool.x_post[:, i], alphas[i])
    stat /= r1
    sj = magnitude_power(pool.x_post[:, j], alphas[j])
    sj /= r2
    np.minimum(stat, sj, out=stat)
    del sj
    ladder = _ladder(stat, ladder, min_top, custom_top=0)
    n = stat.size
    counts = _exceedances(stat, ladder)
    norm = _scaled_binomials(counts, n, ladder)
    vals = [e.value for e in norm[-3:]]
    decaying = bool(len(vals) == 3 and vals[0] > vals[1] > vals[2])
    return JointExceedance(
        i=i,
        j=j,
        r1=float(r1),
        r2=float(r2),
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
    refine_steps: int = 20,
) -> GammaBound:
    """Certify the largest gamma with k(gamma) < 1 for a cross-class pair.

    k(gamma) = E tau(A_i, A_j)^gamma |A_i|^{alpha_i xi} |A_j|^{alpha_j (1-xi)}
    is estimated on one common draw across the whole gamma grid; gamma
    passes only when the whole 95% interval sits below 1, so the reported
    k(gamma0) keeps a noise margin from the boundary.  The precondition is
    a cross moment certified below 1; a weight so heavy that even the
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
        raise ValueError(
            f"cross moment at xi={xi} is not certified below 1 "
            f"(interval [{cross.ci_lo:.6g}, {cross.ci_hi:.6g}]); "
            "the pair may share a class"
        )

    a, b = spec.sample_coeffs(rng, n)
    ai, aj = a[:, i], a[:, j]
    w, scratch = b[:, i], b[:, j]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        joint_pow(np.abs(ai, out=w), alpha_i * xi, w)
        np.multiply(w, joint_pow(np.abs(aj, out=scratch), alpha_j * (1.0 - xi), scratch), out=w)
        tv = np.asarray(tau.value2(ai, aj), dtype=float)
    # overflow artifacts (inf, or nan from inf * 0) are kept as inf: an
    # unbounded weight can never certify k < 1 and lands in
    # TauHeavinessError below
    tv = np.where(np.isnan(tv), np.inf, tv)
    if np.any(tv < 0.0):
        raise ValueError("tau must be nonnegative on the coefficients")
    k_zero = mean_estimate(w, scratch=scratch)
    if not k_zero.ci_hi < 1.0:
        raise ValueError(
            "sampled cross moment not certified below 1; increase n or "
            "revisit the pair"
        )

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
    if last_pass == 0.0 and first_fail is not None and first_fail == float(gammas[0]):
        raise TauHeavinessError(
            f"tau is too heavy for this pair: k({gammas[0]:g}) = "
            f"{k_values[0]:.6g} is not certified below 1"
        )

    refined = False
    if first_fail is not None and refine_steps > 0:
        lo, hi = last_pass, first_fail
        for _ in range(refine_steps):
            mid = 0.5 * (lo + hi)
            est = k_hat(mid)
            if passes(est):
                lo, last_est = mid, est
            else:
                hi = mid
        last_pass = lo
        refined = True
    gamma0 = last_pass
    k_at = last_est
    return GammaBound(
        gamma0=float(gamma0),
        gammas=tuple(float(g) for g in gammas[: len(k_values)]),
        k_values=tuple(float(v) for v in k_values),
        k_zero=k_zero,
        k_at_gamma0=k_at,
        cross=cross,
        xi=float(xi),
        tau_name=tau.name,
        refined=refined,
    )
