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
deterministic function of s within a call.  Each routine draws only the
coordinates it reads (sample_coeffs' coords) and computes in their rows.
Routes follow ModelSpec.closed_forms, one fact per model, through
model.route; only cross_kappa asks its pair's hook for None.
solve_alpha, goldie_mean and moment_abscissa are split at their draw:
route takes the route and draws, <name>_on computes on the draw, so a
caller can hand the arithmetic to another process and draw on.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math

import numpy as np

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
    nonzero_logs,
    normal_interval,
    require,
    use_closed_form,
    variance,
)
from .model import ModelSpec, route

_MAX_BRACKET_STEPS = 60


def _log_kappa(s: float, kap) -> float:
    """log kap(s), -inf where kap(s) = 0."""
    v = kap(s)
    return math.log(v) if v > 0.0 else -math.inf


def _brentq(f, xa: float, xb: float, args: tuple, xtol: float, rtol: float, maxiter: int) -> float:
    """scipy.optimize.brentq (Brent 1973), ported line for line from SciPy's C
    brentq: the same float operations in the same order give the same root
    bits.  A NaN value of f or a bracket without a sign change raises
    ValueError; no convergence in maxiter steps raises RuntimeError."""
    def call(x):
        if math.isnan(fx := f(x, *args)):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return float(fx)

    xpre, xcur, xblk, fblk, spre, scur = float(xa), float(xb), 0.0, 0.0, 0.0, 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0 or fcur == 0:
        return xpre if fpre == 0 else xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # untried, or divided by zero (inf or nan in C): bisect
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            with contextlib.suppress(ZeroDivisionError):
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
            spre, scur = scur, stry
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


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
    s = require(s, "moment order s", "nonnegative")
    if (draw := route(spec, j, "kappa", method, n, rng)) is None:
        return exact(spec.kappa_exact(j, s))
    a, b = draw
    w = a[:, 0]
    abs_pow(np.abs(w, out=w), s, w)
    flag = "possibly-infinite" if doubling_change(w) > STABLE_REL_CHANGE else None
    return mean_estimate(w, flag=flag, scratch=b[:, 0])


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
    return solve_alpha_on(spec, j, route(spec, j, "solve_alpha", method, n, rng), tol)


def solve_alpha_on(spec: ModelSpec, j: int, draw, tol: float | None = None) -> AlphaRoot:
    """solve_alpha on the route that route took for it."""
    if draw is None:
        tol = 1e-8 if tol is None else float(tol)
        mean_log, zero_mass, _ = spec.drift_exact(j)
        if zero_mass >= 1.0:
            raise TailIndexError(f"tail index does not exist for coordinate {j}: A = 0 a.s.")
        if zero_mass == 0.0 and mean_log >= 0.0:
            raise TailIndexError(
                f"tail index does not exist for coordinate {j}: "
                f"E log|A| = {mean_log:.6g} >= 0"
            )
        kap = lambda s: spec.kappa_exact(j, s)
        # curvature of log kappa near 0 from a finite difference
        h = 1e-3
        var_proxy = 2.0 * (math.log(kap(h)) - mean_log * h) / h ** 2
        pilot = _pilot_from_drift(mean_log, var_proxy)
        n = 0
    else:
        tol = 1e-3 if tol is None else float(tol)
        a, b = draw
        n = len(a)
        logs = nonzero_logs(np.abs(a[:, 0], out=a[:, 0]))  # in place in the A row
        buf = b[: logs.size, 0]  # the spare noise row takes the powers
        if logs.size == 0:
            raise TailIndexError(f"tail index does not exist for coordinate {j}: A = 0 a.s.")
        mean_log = float(logs.mean())
        var_log = variance(logs, mean_log, buf) if math.isfinite(mean_log) else math.nan
        drift = normal_interval(mean_log, var_log, n)
        if logs.size == n and drift.ci_hi >= 0.0:
            raise TailIndexError(
                f"tail index does not exist for coordinate {j}: negative log drift "
                f"not certified (95% CI [{drift.ci_lo:.4g}, {drift.ci_hi:.4g}])"
            )

        def kap(s):  # the empirical mean |a|^s, called at s > 0 only
            with np.errstate(over="ignore"):
                np.exp(np.multiply(s, logs, out=buf), out=buf)
            return float(buf.sum()) / n

        pilot = _pilot_from_drift(mean_log, var_log)

    lo, hi = 0.5 * pilot, 2.0 * pilot
    for _ in range(_MAX_BRACKET_STEPS):
        if _log_kappa(lo, kap) >= 0.0:
            lo *= 0.5
            continue
        ghi = _log_kappa(hi, kap)
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

    root = _brentq(_log_kappa, lo, hi, args=(kap,), xtol=1e-14, rtol=8.9e-16, maxiter=200)
    residual = abs(kap(root) - 1.0)
    if residual > tol:
        raise TailIndexError(
            f"root residual {residual:.3g} exceeds tol {tol:.3g} for coordinate {j}"
        )
    return AlphaRoot(root, residual, "closed-form" if draw is None else "monte-carlo", (lo, hi), n)


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
    alpha = require(alpha, "alpha")
    return goldie_mean_on(spec, j, route(spec, j, "goldie_mean", method, n, rng), alpha)


def goldie_mean_on(spec: ModelSpec, j: int, draw, alpha: float) -> Estimate:
    """goldie_mean at alpha on the route that route took for it."""
    if draw is None:
        return exact(spec.goldie_mean_exact(j, alpha))
    a, b = draw
    w, logs = a[:, 0], b[:, 0]
    np.abs(w, out=w)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        np.log(w, out=logs)
        np.multiply(np.power(w, alpha, out=w), logs, out=w)
    # 0 * log 0 and a nan magnitude are the only nan terms; both count as 0
    if math.isnan(w.sum()):
        w[np.isnan(w)] = 0.0
    flag = "unstable" if doubling_change(w) > STABLE_REL_CHANGE else None
    return mean_estimate(w, flag=flag, scratch=logs)


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
    s = require(alpha_i, "alpha_i") * xi
    u = require(alpha_j, "alpha_j") * (1.0 - xi)

    closed = spec.kappa_exact(j, s + u) if i == j else spec.joint_moment_exact(i, j, s, u)
    if use_closed_form(method, closed is not None, "cross_kappa", rng):
        return exact(closed)
    a, b = spec.sample_coeffs(rng, n, coords=(i, j) if i != j else (i,))
    w, v = a[:, 0], b[:, -1]
    np.abs(a[:, -1], out=v)  # first: i may equal j
    with np.errstate(over="ignore"):
        np.multiply(joint_pow(np.abs(w, out=w), s, w), joint_pow(v, u, v), out=w)
    flag = "possibly-infinite" if doubling_change(w) > STABLE_REL_CHANGE else None
    return mean_estimate(w, flag=flag, scratch=v)


@dataclasses.dataclass(frozen=True)
class AbscissaScan(Record):
    """Moment abscissa s_inf = sup { s : E|A|^s + E|B|^s < inf }."""

    s_inf: float
    method: str
    grid: tuple[float, ...]
    a_stable: tuple[bool, ...] | None
    b_stable: tuple[bool, ...] | None
    flag: str | None = None


def moment_abscissa(
    spec: ModelSpec,
    j: int,
    n: int = 200_000,
    rng: np.random.Generator | None = None,
    method: str = "auto",
) -> AbscissaScan:
    """Largest probed moment order at which E|A_j|^s and E|B_j|^s both look
    finite.

    Every family but a Custom callable has A moments of all orders, so
    where the noise abscissa is known it is the closed form (possibly
    +inf).  The Monte Carlo scan walks the orders 0.5, 1, ..., 8 upward and
    calls an order stable when the estimate moves by less than 5% under
    sample doubling; the reported s_inf is the last stable order before the
    first unstable one.  This is a cheap divergence heuristic, not a proof.
    """
    return moment_abscissa_on(spec, j, moment_abscissa_draw(spec, j, n, rng, method))


def moment_abscissa_draw(spec: ModelSpec, j: int, n: int, rng, method: str):
    """moment_abscissa's route, taken: the 2n-row draw of its Monte Carlo
    route, or None for the closed form."""
    return route(spec, j, "moment_abscissa", method, 2 * n, rng)


def moment_abscissa_on(spec: ModelSpec, j: int, draw) -> AbscissaScan:
    """moment_abscissa on the route that moment_abscissa_draw took."""
    grid = np.arange(0.5, 8.001, 0.5)
    b_abs = spec.b_abscissa(j)
    if draw is None:
        return AbscissaScan(float(b_abs), "closed-form", tuple(grid), None, None)
    a, b = draw
    ca, cb = np.abs(a[:, 0], out=a[:, 0]), np.abs(b[:, 0], out=b[:, 0])
    buf = np.empty(len(a))
    a_stable = [bool(doubling_change(abs_pow(ca, s, buf)) <= STABLE_REL_CHANGE) for s in grid]
    b_stable = [bool(doubling_change(abs_pow(cb, s, buf)) <= STABLE_REL_CHANGE) for s in grid]
    # the first order where either moment is unstable, or the grid's end
    k = next((k for k, ok in enumerate(zip(a_stable, b_stable)) if not all(ok)), grid.size)
    s_inf = float(grid[k - 1]) if k else 0.0
    flag = None
    if k == grid.size:
        if b_abs == math.inf:
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
    n: int = 200_000,
    rng: np.random.Generator | None = None,
) -> PositivityReport:
    """Probe E|B_j|^s / kappa_j(s) on a grid below the moment abscissa.

    A noise coordinate with E|B_j| = 0 (identically zero, or so small that
    E|B_j| underflows) short-circuits to "satisfied" with the degenerate
    flag set: the fixed point is then the zero path and every tail constant
    is trivially zero.  A moment scan that finds no stable order leaves no
    grid to probe: "inconclusive".
    """
    alpha = require(alpha, "alpha")
    scan = moment_abscissa(spec, j, n=n, rng=rng)
    s_inf = scan.s_inf
    if spec.b_moment_exact(j, 1.0) == 0.0:
        return PositivityReport("satisfied", s_inf, (), (), True)
    if s_inf == 0.0:
        return PositivityReport("inconclusive", 0.0, (), (), False)
    if math.isinf(s_inf):
        grid = np.geomspace(max(0.5, 0.5 * alpha), max(32.0, 4.0 * alpha), 13)
    else:
        grid = np.linspace(0.45 * s_inf, 0.95 * s_inf, 11)

    if (draw := route(spec, j, "positivity_check", "auto", n, rng)) is None:
        moments = [(spec.b_moment_exact(j, float(s)), spec.kappa_exact(j, float(s))) for s in grid]
    else:
        a, b = draw
        ca, cb = np.abs(a[:, 0], out=a[:, 0]), np.abs(b[:, 0], out=b[:, 0])
        buf = np.empty(n)
        with np.errstate(over="ignore"):
            moments = [(float(abs_pow(cb, s, buf).mean()), float(abs_pow(ca, s, buf).mean()))
                       for s in grid]
    ratios = [math.inf if den == 0.0 else num / den for num, den in moments]
    r = np.asarray(ratios)

    finite = np.all(np.isfinite(r))
    if math.isinf(s_inf):  # bounded
        cut = max(1, (2 * r.size) // 3)
        ok = finite and r[cut:].max() <= 2.0 * max(r[:cut].max(), 1e-300)
    else:  # decaying
        ok = finite and r[-1] <= 0.1 * r.max() and r[-1] <= r[-2] <= r[-3]
    status = "satisfied" if ok else "inconclusive"
    return PositivityReport(status, s_inf, tuple(float(g) for g in grid), tuple(ratios), False)


def noise_margin_ok(
    spec: ModelSpec, j: int, alpha: float, n: int, rng: np.random.Generator | None
) -> bool:
    """Whether E|B_j|^(alpha + sigma_margin) looks finite, as the tail
    limits need: exactly for known noise laws, otherwise by the doubling
    heuristic on n fresh noise draws."""
    probe = alpha + spec.sigma_margin
    if (draw := route(spec, j, "noise_margin_ok", "auto", n, rng)) is None:
        return bool(math.isfinite(spec.b_moment_exact(j, probe)))
    w = draw[1][:, 0]
    return bool(doubling_change(abs_pow(np.abs(w, out=w), probe, w)) <= STABLE_REL_CHANGE)

