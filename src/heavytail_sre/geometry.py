"""Weighted max norm, anisotropic dilations, and polar coordinates.

The norm is |x| = max_j |x_j|^alpha_j for a vector of positive weights
alpha.  It is one-homogeneous under the dilation family

    dilate(t, x)_j = t^(1/alpha_j) * x_j,      t > 0,

meaning alpha_norm(dilate(t, x)) = t * alpha_norm(x), and the dilations
compose as a group: dilate(t, dilate(s, x)) = dilate(t*s, x).  The norm
satisfies the quasi triangle inequality

    |x + y| <= c * (|x| + |y|),   c = max_j max(1, 2^(alpha_j - 1)).
"""

from __future__ import annotations

import math

import numpy as np

# Results are capped at 1e300; coordinates with |x_j| > 10^(200/alpha_j)
# are routed through log space to avoid intermediate overflow.
NORM_CAP = 1e300
_LOG_CAP = math.log(NORM_CAP)


def _as_weights(alphas, d: int | None = None) -> np.ndarray:
    a = np.asarray(alphas, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise ValueError("alphas must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(a)) or np.any(a <= 0.0):
        raise ValueError("alphas must be finite and strictly positive")
    if d is not None and a.size != d:
        raise ValueError(f"alphas must have shape ({d},)")
    return a


def subadditivity_constant(alphas) -> float:
    """Smallest valid quasi-norm constant of the analytic bound.

    c = max_j max(1, 2^(alpha_j - 1)); equals 1 when every weight is <= 1.
    """
    a = _as_weights(alphas)
    return float(max(1.0, 2.0 ** (float(a.max()) - 1.0)))


def alpha_norm(x, alphas, powers=None):
    """max_j |x_j|^alpha_j, row-wise for 2-d input.

    Parameters
    ----------
    x : array, shape (d,) or (n, d)
    alphas : array, shape (d,)
    powers : d arrays of shape (n,), optional
        The columns |x_j|^alpha_j (``magnitude_power``) when the caller has
        them already; they are read, never written.

    Rows with some |x_j| > 10^(200/alpha_j), or a non-finite power, are
    computed in log space and capped at NORM_CAP.  Returns a float for a
    single vector, else an array of shape (n,).
    """
    a = _as_weights(alphas)
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    xx = x.reshape(1, -1) if single else x
    if xx.ndim != 2 or xx.shape[1] != a.size:
        raise ValueError(f"x must have {a.size} coordinates on its last axis")
    out, hot = None, np.zeros(len(xx), bool)
    for j, aj in enumerate(a):
        # the threshold itself may overflow to inf for small alpha; such
        # rows are still caught by the finiteness check on out
        with np.errstate(over="ignore"):
            limit = 10.0 ** (200.0 / aj)
        hot |= xx[:, j] > limit
        hot |= xx[:, j] < -limit
        # column by column, so numpy takes the same power path (and gives
        # the same bits) whatever the memory layout of x
        p = magnitude_power(xx[:, j], aj) if powers is None else powers[j]
        if out is None:
            out = p if powers is None else p.copy()
        else:
            np.maximum(out, p, out=out)
    hot |= ~np.isfinite(out)
    if np.any(hot):
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = a * np.log(np.abs(xx[hot]))
        logs[np.isnan(logs)] = -np.inf  # 0 * log(0) rows
        out[hot] = np.exp(np.minimum(np.max(logs, axis=1), _LOG_CAP))
    return float(out[0]) if single else out


def magnitude_power(x: np.ndarray, alpha: float) -> np.ndarray:
    """|x|^alpha as a new array, with inf where the power overflows.

    The power is taken in place with ``**=``, which keeps numpy's
    sqrt, copy and square fast paths for the exponents 0.5, 1 and 2.
    """
    p = np.abs(x)
    with np.errstate(over="ignore"):
        p **= alpha
    return p


def dilate(t, x, alphas):
    """Apply the anisotropic dilation dilate(t, x)_j = t^(1/alpha_j) x_j.

    t may be a positive scalar or an array matching the rows of x.
    """
    a = _as_weights(alphas)
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0) or not np.all(np.isfinite(t)):
        raise ValueError("dilation parameter t must be positive and finite")
    with np.errstate(over="ignore"):
        out = (t if t.ndim == 0 else t[..., None]) ** (1.0 / a) * x
    # an overflowing factor times an exactly-zero coordinate must stay zero
    return np.where(x == 0.0, 0.0, out)


def polar(x, alphas):
    """Split x into (radius, direction) under the dilation group.

    radius = alpha_norm(x) and direction = dilate(1/radius, x), which lies
    on the unit sphere of the norm.  The inverse map is dilate(radius,
    direction).  Zero vectors have no direction and raise ValueError.
    """
    s = alpha_norm(x, alphas)
    if np.any(np.asarray(s) == 0.0):
        raise ValueError("polar coordinates are undefined at the origin")
    with np.errstate(over="ignore"):
        omega = dilate(1.0 / np.asarray(s), x, alphas)
    return s, omega
