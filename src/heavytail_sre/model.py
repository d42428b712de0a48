"""Coefficient models for diagonal affine recursions.

A model describes the i.i.d. coefficient pairs (A, B) of the d-dimensional
recursion X_n = A_n * X_{n-1} + B_n (componentwise product, A diagonal).
Built-in families:

* ``TwoPoint``   A_j = up_j with probability p_j, else down_j.
* ``LogNormal``  A_j = exp(mu_j + sigma_j N_j), N multivariate normal.
* ``CCCGarch``   A_j = arch_j Z_j^2 + garch_j with standard normal factors
                 Z; coordinates may share a factor through ``z_map``.
* ``BekkDiag``   A_j = sum_i m_i coeff[i, j] with i.i.d. standard normal m.
* ``Custom``     finite atom table (JSON-able) or a user callable.

The noise B is described by a per-coordinate distribution spec under the
``"b"`` key (constant, exponential, pareto, uniform, normal, lognormal),
drawn independently across coordinates unless ``"shared": true``.  Custom
atom tables carry their own joint (a, b) columns instead.

A is diagonal, so each coordinate runs its own scalar recursion, and every
family draws straight into coordinate-major (d, n) rows, the layout of the
simulation slabs.  ``ModelSpec.sample_coeffs`` fills the rows it is given
with ``out=``, or allocates them and returns their (n, d) transposes.

Closed-form moment hooks return None when the family cannot provide the
quantity analytically; callers then fall back to Monte Carlo.  For the
CCCGarch family the hooks are deterministic Gaussian quadratures, reported
under the "closed-form" method tag.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import json
import math

import numpy as np
from scipy import integrate, special

from .common import REQUIRED, ConfigurationError, Estimate, Record, choice, exact, flag, given
from .common import integer, mean_estimate, nonzero_logs, number, ranged, read_keys
from .common import use_closed_form

_SQRT_2PI = math.sqrt(2.0 * math.pi)

FAMILIES = ("TwoPoint", "LogNormal", "CCCGarch", "BekkDiag", "Custom")


def _phi(z: float) -> float:
    return math.exp(-0.5 * z * z) / _SQRT_2PI


def _quad(f, lo, hi):
    val, _err = integrate.quad(f, lo, hi, epsabs=1e-13, epsrel=1e-11, limit=200)
    return val


def _abs_normal_moment(s: float) -> float:
    """E|N|^s for standard normal N, s > -1."""
    return math.exp(0.5 * s * math.log(2.0) + special.gammaln(0.5 * (s + 1.0)) - special.gammaln(0.5))


def _exp(x: float) -> float:
    """math.exp, with math.inf where the result overflows a float."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _pow_abs(v: float, s: float) -> float:
    """|v|^s with 0^s = 0 for every s >= 0 (zero mass excluded)."""
    if v == 0.0:
        return 0.0
    return abs(v) ** s


def _pow_abs1(v: float, s: float) -> float:
    """|v|^s with the factor convention 0^0 = 1 (used in joint moments)."""
    if s == 0.0:
        return 1.0
    if v == 0.0:
        return 0.0
    return abs(v) ** s


def _as_vector(value, d: int, name: str) -> np.ndarray:
    """A scalar or length-d sequence of finite numbers, no booleans, as a (d,) array."""
    values = value if isinstance(value, (list, tuple)) or np.ndim(value) else [value] * d
    try:
        arr = np.array([number(v) for v in values], dtype=float)
    except TypeError as exc:
        raise ConfigurationError(f"{name}: {exc}") from None
    if arr.shape != (d,):
        raise ConfigurationError(f"{name} must be a scalar or length-{d} sequence")
    return arr


def _numbers(value):
    """A number, or nested sequences of numbers, each read through common.number."""
    if isinstance(value, (list, tuple)) or np.ndim(value):
        return [_numbers(v) for v in value]
    return number(value)


def _matrix(value) -> np.ndarray:
    """The cast of an array param: no booleans, every element finite."""
    return np.array(_numbers(value), dtype=float)


def _optional_matrix(value) -> np.ndarray | None:
    return None if value is None else _matrix(value)


def _corr_factor(corr, k: int, name: str) -> np.ndarray:
    """Validate a correlation matrix and factor it once (Cholesky, else
    spectral for PSD-singular input).  Non-PSD input is a hard error."""
    c = np.asarray(corr, dtype=float)
    if c.shape != (k, k):
        raise ConfigurationError(f"{name} must be a {k}x{k} matrix")
    if not np.allclose(c, c.T, atol=1e-12):
        raise ConfigurationError(f"{name} must be symmetric")
    if not np.allclose(np.diag(c), 1.0, atol=1e-12):
        raise ConfigurationError(f"{name} must have unit diagonal")
    try:
        return np.linalg.cholesky(c)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(c)
        if w.min() < -1e-10:
            raise ConfigurationError(f"{name} is not positive semidefinite") from None
        return v * np.sqrt(np.clip(w, 0.0, None))


# ---------------------------------------------------------------------------
# Noise (B) distribution specs


_NO_NOISE = {"dist": "constant", "value": 0.0}  # the "b" of a family that gives none
# each noise law's params with their defaults, and the check they must pass
_NOISE_LAWS = {
    "constant": ({"value": 0.0}, lambda b: True, ""),
    "exponential": ({"rate": 1.0}, lambda b: b.rate > 0, "rate must be positive"),
    "pareto": ({"index": 1.0, "scale": 1.0}, lambda b: min(b.index, b.scale) > 0,
               "index and scale must be positive"),
    "uniform": ({"low": 0.0, "high": 1.0}, lambda b: b.low < b.high, "needs low < high"),
    "normal": ({"mean": 0.0, "std": 1.0}, lambda b: b.std >= 0, "std must be nonnegative"),
    "lognormal": ({"mu": 0.0, "sigma": 1.0}, lambda b: b.sigma >= 0, "sigma must be nonnegative"),
}


class _BDist:
    """One scalar noise distribution with closed-form absolute moments;
    ``doc`` keeps it as given (less ``shared``) for the fingerprint."""

    def __init__(self, doc: dict, shared_ok: bool = False):
        kind = doc.get("dist") if isinstance(doc, dict) else None
        if not isinstance(kind, str) or kind not in _NOISE_LAWS:
            raise ConfigurationError(f"noise dist {kind!r} is not one of {', '.join(_NOISE_LAWS)}")
        defaults, valid, problem = _NOISE_LAWS[kind]
        keys = {"dist": (given, None), **{k: (number, v) for k, v in defaults.items()}}
        if shared_ok:
            keys["shared"] = (flag, False)
        vars(self).update(read_keys(doc, keys, f"noise law {kind!r}"))
        if not valid(self):
            raise ConfigurationError(f"noise law {kind!r}: {problem}")
        self.doc = {k: v for k, v in doc.items() if k != "shared"}

    def fill(self, rng: np.random.Generator, row: np.ndarray) -> None:
        """Draw into one C-contiguous row in place, as numpy's own sampler would."""
        k = self.dist
        if k == "constant":
            row.fill(self.value)
        elif k == "exponential":
            rng.standard_exponential(out=row)
            row *= 1.0 / self.rate
        elif k == "pareto":
            rng.random(out=row)
            row **= -1.0 / self.index
            row *= self.scale
        elif k == "uniform":
            rng.random(out=row)
            row *= self.high - self.low
            row += self.low
        else:
            rng.standard_normal(out=row)
            row *= self.std if k == "normal" else self.sigma
            row += self.mean if k == "normal" else self.mu
            if k == "lognormal":
                np.exp(row, out=row)

    def abs_moment(self, s: float) -> float:
        """E|B|^s; may be math.inf."""
        k = self.dist
        if s == 0.0:
            return 1.0
        if k == "constant":
            return _pow_abs(self.value, s)
        if k == "exponential":
            try:
                scale = self.rate ** s
            except OverflowError:
                scale = math.inf
            if scale == 0.0 or math.isinf(scale):
                # rate ** s leaves the float range: divide in log space
                return _exp(special.gammaln(s + 1.0) - s * math.log(self.rate))
            return _exp(special.gammaln(s + 1.0)) / scale
        if k == "pareto":
            if s >= self.index:
                return math.inf
            return self.index * self.scale ** s / (self.index - s)
        if k == "uniform":
            lo, hi = self.low, self.high
            if lo >= 0.0:
                return (hi ** (s + 1.0) - lo ** (s + 1.0)) / ((s + 1.0) * (hi - lo))
            if hi <= 0.0:
                return ((-lo) ** (s + 1.0) - (-hi) ** (s + 1.0)) / ((s + 1.0) * (hi - lo))
            return (hi ** (s + 1.0) + (-lo) ** (s + 1.0)) / ((s + 1.0) * (hi - lo))
        if k == "normal":
            if self.std == 0.0:
                return _pow_abs(self.mean, s)
            if self.mean == 0.0:
                return self.std ** s * _abs_normal_moment(s)
            mu, sd = self.mean, self.std
            f = lambda x: abs(x) ** s * _phi((x - mu) / sd) / sd
            return _quad(f, -math.inf, 0.0) + _quad(f, 0.0, math.inf)
        return _exp(self.mu * s + 0.5 * self.sigma ** 2 * s ** 2)

    def abscissa(self) -> float:
        return self.index if self.dist == "pareto" else math.inf

    def is_zero(self) -> bool:
        return self.dist == "constant" and self.value == 0.0


class _BSpec:
    """Per-coordinate noise description with an optional shared draw."""

    def __init__(self, doc, d: int):
        if doc is None or isinstance(doc, dict):
            dist = _BDist(_NO_NOISE if doc is None else doc, shared_ok=True)
            self.shared = dist.shared
            self.dists = [dist] * d
        elif isinstance(doc, list):
            if len(doc) != d:
                raise ConfigurationError(f"per-coordinate noise spec needs {d} entries")
            self.shared = False
            self.dists = [_BDist(entry) for entry in doc]
        else:
            raise ConfigurationError("noise spec must be a dict or a list of dicts")

    def fill(self, rng: np.random.Generator, rows: np.ndarray) -> None:
        """Draw coordinate by coordinate into the (d, n) rows; a shared spec
        draws its first row and copies it into the others."""
        if self.shared:
            self.dists[0].fill(rng, rows[0])
            rows[1:] = rows[0]
            return
        for row, dist in zip(rows, self.dists):
            dist.fill(rng, row)

    def to_doc(self):
        if self.shared:
            doc = dict(self.dists[0].doc)
            doc["shared"] = True
            return doc
        docs = [dict(d.doc) for d in self.dists]
        if all(d == docs[0] for d in docs):
            return docs[0]
        return docs


# ---------------------------------------------------------------------------
# Families


class _Family:
    """Base of the coefficient families.

    The constructor gets the params read through ``KEYS``.  A family
    defines the closed-form hooks of ModelSpec it can answer; the noise
    hooks answer from the per-coordinate noise spec ``b``, if any.  fill
    draws the A block, then the B block, in place into C-contiguous (d, n)
    rows, one coordinate per row: the family's fill_a writes A and the
    noise spec writes B.  The Custom families draw (a, b) jointly.
    """

    b: _BSpec | None = None

    def fill(self, rng, a, b):
        self.fill_a(rng, a)
        self.b.fill(rng, b)

    def params_doc(self) -> dict:
        """The params in JSON form, read back from the attributes KEYS names."""
        return {k: self.b.to_doc() if k == "b" else np.asarray(getattr(self, k)).tolist()
                for k in self.KEYS}

    def b_moment_exact(self, j, s):
        return None if self.b is None else self.b.dists[j].abs_moment(s)

    def b_abscissa(self, j):
        return None if self.b is None else self.b.dists[j].abscissa()

    def b_is_zero(self, j):
        return None if self.b is None else self.b.dists[j].is_zero()


class _TwoPoint(_Family):
    KEYS = {"p": (given, REQUIRED), "up": (given, REQUIRED), "down": (given, REQUIRED),
            "comonotone": (flag, False), "b": (given, _NO_NOISE)}

    def __init__(self, d: int, params: dict):
        self.d = d
        self.p = _as_vector(params["p"], d, "p")
        if np.any(self.p < 0) or np.any(self.p > 1):
            raise ConfigurationError("p must lie in [0, 1]")
        self.up = _as_vector(params["up"], d, "up")
        self.down = _as_vector(params["down"], d, "down")
        self.comonotone = params["comonotone"]
        self.b = _BSpec(params["b"], d)

    def fill_a(self, rng, rows):
        # one uniform per coordinate, or one for all when comonotone
        u = rng.random((rows.shape[1], 1 if self.comonotone else self.d))
        for j, row in enumerate(rows):
            uj = u[:, 0 if self.comonotone else j]
            row[...] = np.where(uj < self.p[j], self.up[j], self.down[j])

    def _atoms(self, j):
        return ((self.p[j], self.up[j]), (1.0 - self.p[j], self.down[j]))

    def kappa_exact(self, j, s):
        return sum(w * _pow_abs(v, s) for w, v in self._atoms(j))

    def zero_mass_exact(self, j):
        return sum(w for w, v in self._atoms(j) if v == 0.0)

    def log_abs_mean_exact(self, j):
        zm = self.zero_mass_exact(j)
        if zm >= 1.0:
            return None
        tot = sum(w * math.log(abs(v)) for w, v in self._atoms(j) if v != 0.0 and w > 0.0)
        return tot / (1.0 - zm)

    def goldie_mean_exact(self, j, alpha):
        return sum(
            w * abs(v) ** alpha * math.log(abs(v))
            for w, v in self._atoms(j)
            if v != 0.0 and w > 0.0
        )

    def joint_moment_exact(self, i, j, s, u):
        if not self.comonotone:
            return self.kappa_joint_factor(i, s) * self.kappa_joint_factor(j, u)
        pi, pj = self.p[i], self.p[j]
        q1, q2 = min(pi, pj), max(pi, pj)
        ai_mid = self.up[i] if pi > pj else self.down[i]
        aj_mid = self.up[j] if pj > pi else self.down[j]
        pieces = (
            (q1, self.up[i], self.up[j]),
            (q2 - q1, ai_mid, aj_mid),
            (1.0 - q2, self.down[i], self.down[j]),
        )
        return sum(w * _pow_abs1(vi, s) * _pow_abs1(vj, u) for w, vi, vj in pieces if w > 0.0)

    def kappa_joint_factor(self, j, s):
        return sum(w * _pow_abs1(v, s) for w, v in self._atoms(j))

    def constant_magnitude_exact(self, j):
        mags = {abs(v) for w, v in self._atoms(j) if w > 0.0}
        return len(mags) <= 1

    def a_abscissa(self, j):
        return math.inf


class _LogNormal(_Family):
    KEYS = {"mu": (given, REQUIRED), "sigma": (given, REQUIRED), "corr": (_optional_matrix, None),
            "b": (given, _NO_NOISE)}

    def __init__(self, d: int, params: dict):
        self.d = d
        self.mu = _as_vector(params["mu"], d, "mu")
        self.sigma = _as_vector(params["sigma"], d, "sigma")
        if np.any(self.sigma < 0):
            raise ConfigurationError("sigma must be nonnegative")
        corr = params["corr"]
        self.corr = np.eye(d) if corr is None else corr
        self.factor = _corr_factor(self.corr, d, "corr")
        self.b = _BSpec(params["b"], d)

    def fill_a(self, rng, rows):
        np.matmul(self.factor, rng.standard_normal((rows.shape[1], self.d)).T, out=rows)
        rows *= self.sigma[:, None]
        rows += self.mu[:, None]
        np.exp(rows, out=rows)

    def kappa_exact(self, j, s):
        return _exp(self.mu[j] * s + 0.5 * (self.sigma[j] * s) ** 2)

    def zero_mass_exact(self, j):
        return 0.0

    def log_abs_mean_exact(self, j):
        return float(self.mu[j])

    def goldie_mean_exact(self, j, alpha):
        return (self.mu[j] + self.sigma[j] ** 2 * alpha) * self.kappa_exact(j, alpha)

    def joint_moment_exact(self, i, j, s, u):
        rho = self.corr[i, j]
        si, sj = self.sigma[i], self.sigma[j]
        quad_form = (si * s) ** 2 + 2.0 * rho * si * sj * s * u + (sj * u) ** 2
        return _exp(self.mu[i] * s + self.mu[j] * u + 0.5 * quad_form)

    def constant_magnitude_exact(self, j):
        return self.sigma[j] == 0.0

    def a_abscissa(self, j):
        return math.inf


class _CCCGarch(_Family):
    KEYS = {"arch": (given, REQUIRED), "garch": (given, REQUIRED),
            "z_map": (lambda v: None if v is None else list(map(integer, v)), None),
            "corr": (_optional_matrix, None), "b": (given, _NO_NOISE)}

    def __init__(self, d: int, params: dict):
        self.d = d
        self.arch = _as_vector(params["arch"], d, "arch")
        self.garch = _as_vector(params["garch"], d, "garch")
        if np.any(self.arch < 0) or np.any(self.garch < 0):
            raise ConfigurationError("arch and garch coefficients must be nonnegative")
        z_map = params["z_map"]
        self.z_map = list(range(d)) if z_map is None else z_map
        if len(self.z_map) != d or min(self.z_map) < 0:
            raise ConfigurationError(f"z_map must be {d} nonnegative factor indices")
        self.n_factors = max(self.z_map) + 1
        corr = params["corr"]
        self.corr = np.eye(self.n_factors) if corr is None else corr
        self.factor = _corr_factor(self.corr, self.n_factors, "corr")
        self.b = _BSpec(params["b"], d)

    def fill_a(self, rng, rows):
        # row j is factor z_map[j]; A_j = (arch_j Z_j) Z_j + garch_j
        z = rng.standard_normal((rows.shape[1], self.n_factors))
        np.matmul(self.factor[self.z_map], z.T, out=rows)
        rows *= self.arch[:, None] * rows
        rows += self.garch[:, None]

    def kappa_exact(self, j, s):
        a, g = self.arch[j], self.garch[j]
        if s == 0.0:
            return 1.0 if (a > 0.0 or g > 0.0) else 0.0
        if a == 0.0:
            return _pow_abs(g, s)
        if g == 0.0:
            return a ** s * _abs_normal_moment(2.0 * s)
        return 2.0 * _quad(lambda z: (a * z * z + g) ** s * _phi(z), 0.0, math.inf)

    def zero_mass_exact(self, j):
        return 1.0 if (self.arch[j] == 0.0 and self.garch[j] == 0.0) else 0.0

    def log_abs_mean_exact(self, j):
        a, g = self.arch[j], self.garch[j]
        if a == 0.0:
            return math.log(g) if g > 0.0 else None
        if g == 0.0:
            return math.log(a) + special.digamma(0.5) + math.log(2.0)
        return 2.0 * _quad(lambda z: math.log(a * z * z + g) * _phi(z), 0.0, math.inf)

    def goldie_mean_exact(self, j, alpha):
        a, g = self.arch[j], self.garch[j]
        if a == 0.0:
            return _pow_abs(g, alpha) * math.log(g) if g > 0.0 else 0.0
        if g == 0.0:
            kap = self.kappa_exact(j, alpha)
            return kap * (math.log(a) + math.log(2.0) + special.digamma(alpha + 0.5))
        return 2.0 * _quad(
            lambda z: (a * z * z + g) ** alpha * math.log(a * z * z + g) * _phi(z),
            0.0,
            math.inf,
        )

    def joint_moment_exact(self, i, j, s, u):
        ai, gi = self.arch[i], self.garch[i]
        aj, gj = self.arch[j], self.garch[j]
        fi, fj = self.z_map[i], self.z_map[j]
        if fi == fj:
            f = lambda z: _pow_abs1(ai * z * z + gi, s) * _pow_abs1(aj * z * z + gj, u) * _phi(z)
            return 2.0 * _quad(f, 0.0, math.inf)
        if self.corr[fi, fj] == 0.0:
            ki = self.kappa_exact(i, s) if s > 0.0 else 1.0
            kj = self.kappa_exact(j, u) if u > 0.0 else 1.0
            return ki * kj
        return None

    def constant_magnitude_exact(self, j):
        return self.arch[j] == 0.0

    def a_abscissa(self, j):
        return math.inf


class _BekkDiag(_Family):
    KEYS = {"coeff": (_matrix, REQUIRED), "b": (given, _NO_NOISE)}

    def __init__(self, d: int, params: dict):
        self.d = d
        coeff = params["coeff"]
        if coeff.ndim != 2 or coeff.shape[1] != d:
            raise ConfigurationError(f"coeff must be a (factors x {d}) matrix")
        self.coeff = coeff
        self.n_factors = coeff.shape[0]
        self.sigma = np.sqrt((coeff ** 2).sum(axis=0))
        self.b = _BSpec(params["b"], d)

    def fill_a(self, rng, rows):
        np.matmul(self.coeff.T, rng.standard_normal((rows.shape[1], self.n_factors)).T, out=rows)

    def kappa_exact(self, j, s):
        sig = self.sigma[j]
        if sig == 0.0:
            return 0.0
        if s == 0.0:
            return 1.0
        return sig ** s * _abs_normal_moment(s)

    def zero_mass_exact(self, j):
        return 1.0 if self.sigma[j] == 0.0 else 0.0

    def log_abs_mean_exact(self, j):
        sig = self.sigma[j]
        if sig == 0.0:
            return None
        return math.log(sig) + 0.5 * (special.digamma(0.5) + math.log(2.0))

    def goldie_mean_exact(self, j, alpha):
        sig = self.sigma[j]
        if sig == 0.0:
            return 0.0
        kap = self.kappa_exact(j, alpha)
        return kap * (math.log(sig) + 0.5 * (math.log(2.0) + special.digamma(0.5 * (alpha + 1.0))))

    def joint_moment_exact(self, i, j, s, u):
        fi = 1.0 if s == 0.0 else self.kappa_exact(i, s)
        fj = 1.0 if u == 0.0 else self.kappa_exact(j, u)
        si, sj = self.sigma[i], self.sigma[j]
        if si == 0.0 or sj == 0.0:
            return fi * fj
        rho = float(self.coeff[:, i] @ self.coeff[:, j]) / (si * sj)
        if rho == 0.0:
            return fi * fj
        if abs(abs(rho) - 1.0) <= 1e-12:
            if s == 0.0 or u == 0.0:
                return fi * fj
            return si ** s * sj ** u * _abs_normal_moment(s + u)
        return None

    def constant_magnitude_exact(self, j):
        return self.sigma[j] == 0.0

    def a_abscissa(self, j):
        return math.inf


class _CustomAtoms(_Family):
    KEYS = {"atoms": (given, REQUIRED)}
    TABLE = {"prob": (_matrix, REQUIRED), "a": (_matrix, REQUIRED), "b": (_matrix, REQUIRED)}

    def __init__(self, d: int, params: dict):
        atoms = read_keys(params["atoms"], self.TABLE, "Custom atoms table")
        prob, a, bvals = atoms["prob"], atoms["a"], atoms["b"]
        if prob.ndim != 1 or prob.size == 0:
            raise ConfigurationError("atom probabilities must be a nonempty vector")
        if np.any(prob < 0) or abs(prob.sum() - 1.0) > 1e-9:
            raise ConfigurationError("atom probabilities must be nonnegative and sum to 1")
        k = prob.size
        if a.shape != (k, d) or bvals.shape != (k, d):
            raise ConfigurationError(f"atom tables must have shape ({k}, {d})")
        self.d = d
        self.prob = prob / prob.sum()
        self.a = a
        self.bvals = bvals
        self.cum = np.cumsum(self.prob)
        self.cum[-1] = 1.0

    def params_doc(self):
        return {
            "atoms": {
                "prob": self.prob.tolist(),
                "a": self.a.tolist(),
                "b": self.bvals.tolist(),
            }
        }

    def fill(self, rng, a, b):
        idx = np.searchsorted(self.cum, rng.random(a.shape[1]), side="right")
        np.take(self.a.T, idx, axis=1, out=a)
        np.take(self.bvals.T, idx, axis=1, out=b)

    def kappa_exact(self, j, s):
        return float(sum(w * _pow_abs(v, s) for w, v in zip(self.prob, self.a[:, j])))

    def zero_mass_exact(self, j):
        return float(self.prob[self.a[:, j] == 0.0].sum())

    def log_abs_mean_exact(self, j):
        zm = self.zero_mass_exact(j)
        if zm >= 1.0:
            return None
        mask = self.a[:, j] != 0.0
        tot = float((self.prob[mask] * np.log(np.abs(self.a[mask, j]))).sum())
        return tot / (1.0 - zm)

    def goldie_mean_exact(self, j, alpha):
        mask = self.a[:, j] != 0.0
        vals = np.abs(self.a[mask, j])
        return float((self.prob[mask] * vals ** alpha * np.log(vals)).sum())

    def joint_moment_exact(self, i, j, s, u):
        wi = np.array([_pow_abs1(v, s) for v in self.a[:, i]])
        wj = np.array([_pow_abs1(v, u) for v in self.a[:, j]])
        return float((self.prob * wi * wj).sum())

    def constant_magnitude_exact(self, j):
        mags = np.abs(self.a[self.prob > 0.0, j])
        return bool(np.all(mags == mags[0]))

    def a_abscissa(self, j):
        return math.inf

    def b_moment_exact(self, j, s):
        return float(sum(w * _pow_abs1(v, s) for w, v in zip(self.prob, self.bvals[:, j])))

    def b_abscissa(self, j):
        return math.inf

    def b_is_zero(self, j):
        return bool(np.all(self.bvals[self.prob > 0.0, j] == 0.0))


class _CustomCallable(_Family):
    KEYS = {"sampler": (given, REQUIRED), "name": (given, None)}

    def __init__(self, d: int, params: dict):
        sampler, name = params["sampler"], params["name"]
        if not callable(sampler):
            raise ConfigurationError("Custom callable spec needs a callable 'sampler'")
        self.d = d
        self.sampler = sampler
        self.label = str(getattr(sampler, "__name__", "sampler") if name is None else name)

    def fill(self, rng, a, b):
        # the sampler's contract is (n, d), so its draw is copied in transposed
        draws = [np.asarray(v, dtype=float) for v in self.sampler(rng, a.shape[1])]
        if [v.shape for v in draws] != [a.T.shape] * 2:
            raise ConfigurationError(f"custom sampler must return arrays of shape {a.T.shape}")
        a[...], b[...] = (v.T for v in draws)


# ---------------------------------------------------------------------------
# Facade

# the model document; each family reads its params through its own KEYS
MODEL_KEYS = {"family": (choice(*FAMILIES), REQUIRED),
              "d": (ranged(integer, lambda v: v > 0, "positive"), REQUIRED),
              "params": (given, REQUIRED),
              "sigma_margin": (ranged(number, lambda v: v > 0, "positive"), 0.5)}
_FAMILY_CLASSES = {"TwoPoint": _TwoPoint, "LogNormal": _LogNormal, "CCCGarch": _CCCGarch,
                   "BekkDiag": _BekkDiag, "Custom atoms": _CustomAtoms,
                   "Custom callable": _CustomCallable}


def _hook(declared):
    """A closed-form hook of ModelSpec: the family's method of the same name
    answers, or None when the family has none.  The coordinates (i, j) are
    range-checked, the exponents passed as floats."""
    signature = inspect.signature(declared)

    @functools.wraps(declared)
    def hook(self, *args, **kwargs):
        _, *bound = signature.bind(self, *args, **kwargs).arguments.items()
        values = [self._check_j(v) if name in ("i", "j") else float(v) for name, v in bound]
        answer = getattr(self._impl, declared.__name__, None)
        return None if answer is None else answer(*values)

    return hook


class ModelSpec:
    """Validated coefficient model.

    Parameters are checked at construction and correlation matrices are
    factorized once here; non-PSD input is a hard error.  ``sigma_margin``
    is the extra noise-moment margin probed by the moment diagnostics
    (E|B_j|^(alpha_j + sigma_margin) must be finite for the tail limits to
    apply).

    Whether the model is contractive on average (E log|A_j| < 0) is not a
    construction requirement; it is checked by ``log_moment`` and enforced
    by the simulation entry points.
    """

    def __init__(self, family: str, d: int, params: dict, sigma_margin: float = 0.5):
        doc = {"family": family, "d": d, "params": params, "sigma_margin": sigma_margin}
        doc = read_keys(doc, MODEL_KEYS, "model")
        self.family, self.d, self.sigma_margin = doc["family"], doc["d"], doc["sigma_margin"]
        if family == "Custom":
            family += " callable" if isinstance(params, dict) and "sampler" in params else " atoms"
        impl = _FAMILY_CLASSES[family]
        self._impl = impl(self.d, read_keys(params, impl.KEYS, f"{family} params"))

    # -- sampling -----------------------------------------------------------

    def sample_coeffs(
        self, rng: np.random.Generator, n: int, out: tuple[np.ndarray, np.ndarray] | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw n i.i.d. coefficient pairs; returns (a, b) of shape (n, d).

        The draw order is fixed (A block first, then B block) so a given
        generator state always yields the same pairs.  Each coordinate is
        drawn into its own row: (a, b) are the (n, d) transposes of one
        (2, d, n) array.

        ``out=(a, b)`` takes two C-contiguous float64 arrays of shape (d, n)
        and fills them instead: row j receives column j of the draw above,
        from the same random numbers.  The filled pair is returned.
        """
        if n < 1:
            raise ValueError("n must be positive")
        if out is None:
            rows = np.empty((2, self.d, n))
            self._impl.fill(rng, rows[0], rows[1])
            return rows[0].T, rows[1].T
        if any(r.shape != (self.d, n) or r.dtype != float or not r.flags.c_contiguous for r in out):
            raise ValueError(f"out must be two C-contiguous float64 arrays of shape ({self.d}, {n})")
        self._impl.fill(rng, *out)
        return out

    # -- closed-form hooks (None when unavailable) ---------------------------

    @_hook
    def kappa_exact(self, j: int, s: float) -> float | None: ...
    @_hook
    def zero_mass_exact(self, j: int) -> float | None: ...
    @_hook
    def log_abs_mean_exact(self, j: int) -> float | None:
        """E[log|A_j| given A_j != 0], or None when unknown/undefined."""
    @_hook
    def goldie_mean_exact(self, j: int, alpha: float) -> float | None: ...
    @_hook
    def joint_moment_exact(self, i: int, j: int, s: float, u: float) -> float | None:
        """E |A_i|^s |A_j|^u, or None when no closed form is available."""
    @_hook
    def constant_magnitude_exact(self, j: int) -> bool | None: ...
    @_hook
    def a_abscissa(self, j: int) -> float | None: ...
    @_hook
    def b_moment_exact(self, j: int, s: float) -> float | None: ...
    @_hook
    def b_abscissa(self, j: int) -> float | None: ...
    @_hook
    def b_is_zero(self, j: int) -> bool | None: ...

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        if isinstance(self._impl, _CustomCallable):
            raise ConfigurationError("callable Custom models are not JSON-serializable")
        return {
            "family": self.family,
            "d": self.d,
            "params": self._impl.params_doc(),
            "sigma_margin": self.sigma_margin,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ModelSpec":
        return cls(**read_keys(doc, MODEL_KEYS, "model"))

    def fingerprint(self) -> str:
        """Stable hash of the model; callable Custom models get a label-based
        fingerprint that is not portable across processes."""
        try:
            payload = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        except ConfigurationError:
            payload = f"custom-callable:{self._impl.label}:d={self.d}"
        return hashlib.sha256(payload.encode()).hexdigest()

    def _check_j(self, j: int) -> int:
        if not 0 <= int(j) < self.d:
            raise ValueError(f"coordinate index {j} out of range for d={self.d}")
        return j

    def __repr__(self):
        return f"ModelSpec(family={self.family!r}, d={self.d})"


@dataclasses.dataclass(frozen=True)
class LogMoment(Record):
    """Drift diagnostics for one coordinate.

    ``mean_given_nonzero`` is E[log|A_j| | A_j != 0] (None when A_j = 0
    a.s.); ``zero_mass`` is P(A_j = 0), reported separately because any
    mass at zero sends the unconditional mean to -inf and certifies
    contraction by itself.  ``constant_magnitude`` flags |A_j| being a.s.
    constant, in which case log|A_j| is concentrated on a single point and
    renewal-type tail behaviour cannot be taken for granted; the flag is
    informational, not an error.
    """

    mean_given_nonzero: Estimate | None
    zero_mass: float
    contractive: bool
    constant_magnitude: bool


def log_moment(
    spec: ModelSpec,
    j: int,
    n: int = 100_000,
    rng: np.random.Generator | None = None,
    method: str = "auto",
) -> LogMoment:
    """Estimate E log|A_j| and certify the negative-drift condition.

    Closed-form families return exact values with degenerate intervals.
    The Monte Carlo route certifies contraction only when the 95% interval
    lies strictly below zero (or when mass at zero is observed).
    """
    exact_mean = spec.log_abs_mean_exact(j)
    exact_zero = spec.zero_mass_exact(j)
    have_exact = exact_zero is not None and (exact_mean is not None or exact_zero == 1.0)
    if use_closed_form(method, have_exact, "log_moment", rng):
        const = spec.constant_magnitude_exact(j)
        if exact_zero == 1.0:
            return LogMoment(None, 1.0, True, True)
        return LogMoment(
            exact(float(exact_mean)),
            float(exact_zero),
            bool(exact_zero > 0.0 or exact_mean < 0.0),
            bool(const) if const is not None else False,
        )
    a, b = spec.sample_coeffs(rng, n)
    logs = nonzero_logs(np.abs(a[:, j], out=a[:, j]))
    zero_mass = 1.0 - logs.size / n
    if logs.size == 0:
        return LogMoment(None, 1.0, True, True)
    est = mean_estimate(logs, scratch=b[: logs.size, j])
    spread = float(logs.max() - logs.min())
    return LogMoment(
        est,
        float(zero_mass),
        bool(zero_mass > 0.0 or est.ci_hi < 0.0),
        bool(spread <= 1e-12),
    )
