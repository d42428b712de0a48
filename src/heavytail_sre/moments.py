"""Moment functions of the coefficient law and the tail-index equation.

kappa_j(s) = E|A_j|^s is log-convex with kappa_j(0) <= 1 (mass at A_j = 0,
when present, is excluded so kappa is continuous at s = 0).  When the log
drift E log|A_j| is negative and kappa grows beyond 1, the equation
kappa_j(s) = 1 has a unique positive root alpha_j, the marginal tail
exponent.  The companion quantities are

    m_j    = E |A_j|^alpha_j log|A_j|        (positive, finite),
    s_inf  = sup { s : E|A_j|^s + E|B_j|^s < inf },

and the cross moment E |A_i|^(alpha_i xi) |A_j|^(alpha_j (1-xi)) for
xi in [0, 1], which is strictly below 1 for coordinates whose rescaled
magnitudes |A_i|^alpha_i and |A_j|^alpha_j are not a.s. equal.

Monte Carlo routes reuse one coefficient draw across all evaluations of a
root search (common random numbers), so the estimated kappa is a smooth
deterministic function of s within a call.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from scipy import optimize

from .common import (
    STABLE_REL_CHANGE,
    Estimate,
    Record,
    TailIndexError,
    abs_pow,
    doubling_change,
    exact,
    joint_pow,
    mean_estimate,
    use_closed_form,
)
from .model import ModelSpec

_MAX_BRACKET_STEPS = 60


class _KappaHat:
    """Empirical s -> mean(|a|^s) over one frozen draw of a coefficient column."""

    def __init__(self, abs_col: np.ndarray):
        nonzero = abs_col[abs_col > 0.0]
        self.logs = np.log(nonzero)
        self.n = abs_col.size
        self.zero_mass = 1.0 - nonzero.size / abs_col.size

    def __call__(self, s: float) -> float:
        if s == 0.0:
            return 1.0 - self.zero_mass
        if self.logs.size == 0:
            return 0.0
        with np.errstate(over="ignore"):
            return float(np.exp(s * self.logs).sum()) / self.n


def _require_exponent(s: float) -> float:
    s = float(s)
    if not (math.isfinite(s) and s >= 0.0):
        raise ValueError("moment order s must be finite and nonnegative")
    return s


def kappa(
    spec: ModelSpec,
    j: int,
    s: float,
    method: str = "auto",
    n: int = 10 ** 6,
    rng: np.random.Generator | None = None,
) -> Estimate:
    """E|A_j|^s with the mass at zero excluded.

    method "auto" prefers the closed form and falls back to Monte Carlo;
    estimates whose mean has not stabilized under sample doubling carry a
    "possibly-infinite" flag.
    """
    s = _require_exponent(s)
    closed = spec.kappa_exact(j, s)
    if use_closed_form(method, closed is not None, "kappa", rng):
        return exact(closed)
    a, _ = spec.sample_coeffs(rng, n)
    w = abs_pow(np.abs(a[:, j]), s)
    flag = "possibly-infinite" if doubling_change(w) > STABLE_REL_CHANGE else None
    return mean_estimate(w, flag=flag)


@dataclasses.dataclass(frozen=True)
class AlphaRoot(Record):
    """Positive root of kappa_j(s) = 1 with the achieved residual."""

    alpha: float
    residual: float
    method: str
    bracket: tuple[float, float]
    n: int


def _pilot_from_drift(mean_log: float, var_log: float) -> float:
    """Quadratic-in-s approximation of log kappa gives the pilot -2 m / v."""
    if not (math.isfinite(mean_log) and math.isfinite(var_log)) or var_log <= 0.0:
        return 1.0
    pilot = -2.0 * mean_log / var_log
    if not math.isfinite(pilot) or pilot <= 0.0:
        return 1.0
    return min(max(pilot, 1e-3), 1e3)


def solve_alpha(
    spec: ModelSpec,
    j: int,
    tol: float | None = None,
    method: str = "auto",
    n: int = 10 ** 6,
    rng: np.random.Generator | None = None,
) -> AlphaRoot:
    """Solve kappa_j(alpha) = 1 for the marginal tail exponent.

    Requires a certified negative log drift; otherwise, and whenever kappa
    never reaches 1 again, raises TailIndexError("... does not exist ...").
    The bracket starts at [pilot/2, 2 pilot] around a drift-based pilot and
    expands (or shrinks away from infinite moments) for at most 60 steps;
    the returned root satisfies |kappa(alpha) - 1| <= tol.

    Monte Carlo calls freeze a single coefficient draw and solve on the
    empirical kappa, so the achieved tolerance is relative to that draw.
    """
    if use_closed_form(method, spec.kappa_exact(j, 1.0) is not None, "solve_alpha", rng):
        tol = 1e-8 if tol is None else float(tol)
        zero_mass = spec.zero_mass_exact(j)
        mean_log = spec.log_abs_mean_exact(j)
        if zero_mass is not None and zero_mass >= 1.0:
            raise TailIndexError(f"tail index does not exist for coordinate {j}: A = 0 a.s.")
        if (zero_mass or 0.0) == 0.0 and mean_log is not None and mean_log >= 0.0:
            raise TailIndexError(
                f"tail index does not exist for coordinate {j}: "
                f"E log|A| = {mean_log:.6g} >= 0"
            )
        kap = lambda s: spec.kappa_exact(j, s)
        # curvature of log kappa near 0 from a finite difference
        h = 1e-3
        var_proxy = 2.0 * (math.log(kap(h)) - (mean_log or 0.0) * h) / h ** 2
        pilot = _pilot_from_drift(mean_log if mean_log is not None else -1.0, var_proxy)
        used_n = 0
        tag = "closed-form"
    else:
        tol = 1e-3 if tol is None else float(tol)
        a, _ = spec.sample_coeffs(rng, n)
        khat = _KappaHat(np.abs(a[:, j]))
        if khat.logs.size == 0:
            raise TailIndexError(f"tail index does not exist for coordinate {j}: A = 0 a.s.")
        if khat.zero_mass == 0.0:
            drift = mean_estimate(khat.logs)
            if drift.ci_hi >= 0.0:
                raise TailIndexError(
                    f"tail index does not exist for coordinate {j}: negative log drift "
                    f"not certified (95% CI [{drift.ci_lo:.4g}, {drift.ci_hi:.4g}])"
                )
        kap = khat
        pilot = _pilot_from_drift(float(khat.logs.mean()), float(khat.logs.var()))
        used_n = n
        tag = "monte-carlo"

    lo, hi = 0.5 * pilot, 2.0 * pilot

    def g(s: float) -> float:
        v = kap(s)
        return math.log(v) if v > 0.0 else -math.inf

    for _ in range(_MAX_BRACKET_STEPS):
        if g(lo) >= 0.0:
            lo *= 0.5
            continue
        ghi = g(hi)
        if not math.isfinite(ghi) and ghi > 0.0:
            # kappa infinite at the probe: shrink geometrically toward lo
            if hi / lo < 1.0 + 1e-9:
                raise TailIndexError(
                    f"tail index does not exist for coordinate {j}: "
                    f"E|A|^s jumps from below 1 to infinity near s = {hi:.6g}"
                )
            hi = math.sqrt(lo * hi)
            continue
        if ghi < 0.0:
            hi *= 2.0
            continue
        break
    else:
        raise TailIndexError(
            f"tail index does not exist for coordinate {j}: "
            f"E|A|^s stays below 1 on (0, {hi:.6g}]"
        )

    root = float(optimize.brentq(g, lo, hi, xtol=1e-14, rtol=8.9e-16, maxiter=200))
    residual = abs(kap(root) - 1.0)
    if residual > tol:
        raise TailIndexError(
            f"root residual {residual:.3g} exceeds tol {tol:.3g} for coordinate {j}"
        )
    return AlphaRoot(root, residual, tag, (lo, hi), used_n)


def goldie_mean(
    spec: ModelSpec,
    j: int,
    alpha: float,
    method: str = "auto",
    n: int = 10 ** 6,
    rng: np.random.Generator | None = None,
) -> Estimate:
    """E |A_j|^alpha log|A_j|, the renewal normalizer of the tail constants.

    Finiteness of the Monte Carlo estimate is only checked through the
    sample-doubling heuristic ("unstable" flag); it cannot be certified
    from finitely many draws.
    """
    alpha = float(alpha)
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError("alpha must be finite and positive")
    closed = spec.goldie_mean_exact(j, alpha)
    if use_closed_form(method, closed is not None, "goldie_mean", rng):
        return exact(closed)
    a, _ = spec.sample_coeffs(rng, n)
    col = np.abs(a[:, j])
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        w = np.where(col > 0.0, col ** alpha * np.log(col), 0.0)
    flag = "unstable" if doubling_change(w) > STABLE_REL_CHANGE else None
    return mean_estimate(w, flag=flag)


def cross_kappa(
    spec: ModelSpec,
    i: int,
    j: int,
    alpha_i: float,
    alpha_j: float,
    xi: float = 0.5,
    method: str = "auto",
    n: int = 10 ** 6,
    rng: np.random.Generator | None = None,
) -> Estimate:
    """E |A_i|^(alpha_i xi) |A_j|^(alpha_j (1 - xi)) for xi in [0, 1].

    Equals kappa_i(alpha_i) = 1 when i == j (or when the rescaled
    magnitudes agree a.s.), and is strictly below 1 across genuinely
    distinct coordinates; zero factors use the convention 0^0 = 1 so the
    endpoints xi in {0, 1} reduce to the single-coordinate moments.
    """
    xi = float(xi)
    if not 0.0 <= xi <= 1.0:
        raise ValueError("xi must lie in [0, 1]")
    for name, val in (("alpha_i", alpha_i), ("alpha_j", alpha_j)):
        if not (math.isfinite(val) and val > 0.0):
            raise ValueError(f"{name} must be finite and positive")
    s = float(alpha_i) * xi
    u = float(alpha_j) * (1.0 - xi)

    closed = spec.kappa_exact(j, s + u) if i == j else None
    if closed is None:
        closed = spec.joint_moment_exact(i, j, s, u)
    if use_closed_form(method, closed is not None, "cross_kappa", rng):
        return exact(closed)
    a, _ = spec.sample_coeffs(rng, n)
    ai = np.abs(a[:, i])
    aj = np.abs(a[:, j])
    with np.errstate(over="ignore"):
        w = joint_pow(ai, s) * joint_pow(aj, u)
    flag = "possibly-infinite" if doubling_change(w) > STABLE_REL_CHANGE else None
    return mean_estimate(w, flag=flag)


@dataclasses.dataclass(frozen=True)
class AbscissaScan(Record):
    """Moment abscissa s_inf = sup { s : E|A|^s + E|B|^s < inf }."""

    s_inf: float
    method: str
    grid: tuple[float, ...]
    a_stable: tuple[bool, ...] | None
    b_stable: tuple[bool, ...] | None
    flag: str | None = None


def _default_abscissa_grid() -> np.ndarray:
    return np.arange(0.5, 8.001, 0.5)


def moment_abscissa(
    spec: ModelSpec,
    j: int,
    grid=None,
    n: int = 200_000,
    rng: np.random.Generator | None = None,
    method: str = "auto",
) -> AbscissaScan:
    """Largest probed moment order at which E|A_j|^s and E|B_j|^s both look
    finite.

    Families with known abscissas answer in closed form (possibly +inf).
    The Monte Carlo scan walks the grid upward and calls an order stable
    when the estimate moves by less than 5% under sample doubling; the
    reported s_inf is the last stable grid point before the first unstable
    one.  This is a cheap divergence heuristic, not a proof.
    """
    grid = _default_abscissa_grid() if grid is None else np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or np.any(np.diff(grid) <= 0) or grid[0] <= 0:
        raise ValueError("grid must be a positive increasing vector")
    a_abs = spec.a_abscissa(j)
    b_abs = spec.b_abscissa(j)
    if use_closed_form(method, a_abs is not None and b_abs is not None, "moment_abscissa", rng):
        return AbscissaScan(float(min(a_abs, b_abs)), "closed-form", tuple(grid), None, None)
    a, b = spec.sample_coeffs(rng, 2 * n)
    ca = np.abs(a[:, j])
    cb = np.abs(b[:, j])
    a_stable, b_stable = [], []
    s_inf = 0.0
    hit_unstable = False
    for s in grid:
        sa = doubling_change(abs_pow(ca, s)) <= STABLE_REL_CHANGE
        sb = doubling_change(abs_pow(cb, s)) <= STABLE_REL_CHANGE
        a_stable.append(bool(sa))
        b_stable.append(bool(sb))
        if not hit_unstable and sa and sb:
            s_inf = float(s)
        else:
            hit_unstable = True
    flag = None
    if not hit_unstable:
        if a_abs == math.inf and b_abs == math.inf:
            s_inf = math.inf
        else:
            flag = "grid-limited"
    return AbscissaScan(s_inf, "monte-carlo", tuple(grid), tuple(a_stable), tuple(b_stable), flag)


@dataclasses.dataclass(frozen=True)
class PositivityReport(Record):
    """Sufficient-condition check for strictly positive tail constants.

    status is "satisfied" when the probed ratio E|B|^s / kappa(s) stays
    bounded up to an infinite abscissa, or visibly decays to zero near a
    finite one; otherwise "inconclusive" (the condition is sufficient, so
    failure to verify it never proves a zero constant).
    """

    status: str
    s_inf: float
    grid: tuple[float, ...]
    ratios: tuple[float, ...]
    degenerate_b: bool


def positivity_check(
    spec: ModelSpec,
    j: int,
    alpha: float,
    grid=None,
    n: int = 200_000,
    rng: np.random.Generator | None = None,
) -> PositivityReport:
    """Probe E|B_j|^s / kappa_j(s) on a grid below the moment abscissa.

    A noise coordinate that is identically zero short-circuits to
    "satisfied" with the degenerate flag set: the fixed point is then the
    zero path and every tail constant is trivially zero.
    """
    alpha = float(alpha)
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError("alpha must be finite and positive")
    scan = moment_abscissa(spec, j, n=n, rng=rng)
    s_inf = scan.s_inf
    if spec.b_is_zero(j):
        return PositivityReport("satisfied", s_inf, (), (), True)
    if grid is None:
        if math.isinf(s_inf):
            grid = np.geomspace(max(0.5, 0.5 * alpha), max(32.0, 4.0 * alpha), 13)
        else:
            grid = np.linspace(0.45 * s_inf, 0.95 * s_inf, 11)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 3 or np.any(np.diff(grid) <= 0) or grid[0] <= 0:
        raise ValueError("grid must be a positive increasing vector with >= 3 points")

    draw = None
    ratios = []
    for s in grid:
        num = spec.b_moment_exact(j, float(s))
        den = spec.kappa_exact(j, float(s))
        if num is None or den is None:
            if rng is None:
                raise ValueError("Monte Carlo positivity_check needs an rng")
            if draw is None:
                a, b = spec.sample_coeffs(rng, n)
                draw = (np.abs(a[:, j]), np.abs(b[:, j]))
            ca, cb = draw
            with np.errstate(over="ignore"):
                num = float(abs_pow(cb, s).mean()) if num is None else num
                den = float(abs_pow(ca, s).mean()) if den is None else den
        ratios.append(math.inf if den == 0.0 else num / den)
    r = np.asarray(ratios)

    if math.isinf(s_inf):
        cut = max(1, (2 * r.size) // 3)
        bounded = np.all(np.isfinite(r)) and r[cut:].max() <= 2.0 * max(r[:cut].max(), 1e-300)
        status = "satisfied" if bounded else "inconclusive"
    else:
        finite = np.all(np.isfinite(r))
        decaying = finite and r[-1] <= 0.1 * r.max() and r[-1] <= r[-2] <= r[-3]
        status = "satisfied" if decaying else "inconclusive"
    return PositivityReport(status, s_inf, tuple(float(g) for g in grid), tuple(ratios), False)


def noise_margin_ok(
    spec: ModelSpec, j: int, alpha: float, n: int, rng: np.random.Generator | None
) -> bool:
    """Whether E|B_j|^(alpha + sigma_margin) looks finite, as the tail
    limits need: exactly for known noise laws, otherwise by the doubling
    heuristic on n fresh noise draws."""
    probe = alpha + spec.sigma_margin
    closed = spec.b_moment_exact(j, probe)
    if use_closed_form("auto", closed is not None, "noise_margin_ok", rng):
        return bool(math.isfinite(closed))
    _, b = spec.sample_coeffs(rng, n)
    return bool(doubling_change(abs_pow(np.abs(b[:, j]), probe)) <= STABLE_REL_CHANGE)

