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
quantity; ``ModelSpec.closed_forms`` says once which routes exist.  For the
CCCGarch family the hooks are deterministic Gaussian quadratures, reported
under the "closed-form" method tag.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import mmap

import numpy as np

from .common import REQUIRED, ConfigurationError, Estimate, Record, choice, exact, flag, given
from .common import integer, mean_estimate, nonzero_logs, number, optional, ranged, read_keys
from .common import check_coords, use_closed_form

_SQRT_2PI = math.sqrt(2.0 * math.pi)

FAMILIES = ("TwoPoint", "LogNormal", "CCCGarch", "BekkDiag", "Custom")
_CHUNK = 1 << 12  # records per chunk of a draw that keeps some coordinates


def _phi(z: float) -> float:
    return math.exp(-0.5 * z * z) / _SQRT_2PI


def _quad(f, lo, hi):
    from scipy import integrate  # on first use: only CCCGarch and shifted normal noise need it
    return integrate.quad(f, lo, hi, epsabs=1e-13, epsrel=1e-11, limit=200)[0]


def _even_mean(f) -> float:
    """E f(Z) for standard normal Z and even f: twice the integral of f phi over [0, inf)."""
    return 2.0 * _quad(lambda z: f(z) * _phi(z), 0.0, math.inf)


def _polevl(x: float, coef) -> float:
    """Horner's rule, highest power first, as cephes polevl."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


# cephes lgam: Stirling's series (A, cut short as L from 1000 on) and the rational B/C on [2, 3]
_LGAM_A = (8.11614167470508450300E-4, -5.95061904284301438324E-4, 7.93650340457716943945E-4,
           -2.77777777730099687205E-3, 8.33333333333331927722E-2)
_LGAM_L = (7.9365079365079365079365e-4, -2.7777777777777777777778e-3, 0.0833333333333333333333)
_LGAM_B = (-1.37825152569120859100E3, -3.88016315134637840924E4, -3.31612992738871184744E5,
           -1.16237097492762307383E6, -1.72173700820839662146E6, -8.53555664245765465627E5)
_LGAM_C = (1.0, -3.51815701436523470549E2, -1.70642106651881159223E4, -2.20528590553854454839E5,
           -1.13933444367982507207E6, -2.53252307177582951285E6, -2.01889141433532773231E6)


def _gammaln(x: float) -> float:
    """log Gamma(x) for 0 < x <= inf, the only arguments callers pass: an
    op-for-op port of cephes lgam, so it has scipy.special.gammaln's bits."""
    if x < 13.0:
        z, p, u = 1.0, 0.0, x  # shift u into [2, 3), collecting the factors in z
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        x += p - 2.0
        return math.log(z) + x * _polevl(x, _LGAM_B) / _polevl(x, _LGAM_C)
    if x > 2.556348e305:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + 0.91893853320467274178  # + log sqrt(2 pi)
    p = 1.0 / (x * x)
    return q + _polevl(p, _LGAM_A if x < 1000.0 else _LGAM_L) / x


# cephes psi: the asymptotic series, and Boost's rational on [1, 2]
_PSI_A = (8.33333333333333333333E-2, -2.10927960927960927961E-2, 7.57575757575757575758E-3,
          -4.16666666666666666667E-3, 3.96825396825396825397E-3, -8.33333333333333333333E-3,
          8.33333333333333333333E-2)
_PSI_P = (-0.0020713321167745952, -0.045251321448739056, -0.28919126444774784,
          -0.65031853770896507, -0.32555031186804491, 0.25479851061131551)
_PSI_Q = (-0.55789841321675513e-6, 0.0021284987017821144, 0.054151797245674225,
          0.43593529692665969, 1.4606242909763515, 2.0767117023730469, 1.0)


def _digamma(x: float) -> float:
    """psi(x) for 0 < x <= inf, the only arguments callers pass: an
    op-for-op port of cephes psi, so it has scipy.special.digamma's bits."""
    y = 0.0
    if x <= 10.0 and x == math.floor(x):
        for i in range(1, int(x)):
            y += 1.0 / i
        return y - 0.5772156649015329  # - Euler's gamma
    if x < 1.0:  # the recurrence into [1, 2]
        y -= 1.0 / x
        x += 1.0
    elif x < 10.0:
        while x > 2.0:
            x -= 1.0
            y += 1.0 / x
    if 1.0 <= x <= 2.0:
        # (x - root) (Y + R(x - 1)), with the positive root in three parts and Boost's float32 Y
        g = x - 1569415565.0 / 1073741824.0 - 381566830.0 / 1073741824.0 / 1073741824.0
        g -= 0.9016312093258695918615325266959189453125e-19
        r = _polevl(x - 1.0, _PSI_P) / _polevl(x - 1.0, _PSI_Q)
        return y + (g * 0.99558162689208984375 + g * r)
    z = 1.0 / (x * x)
    tail = z * _polevl(z, _PSI_A) if x < 1.0e17 else 0.0
    return y + (math.log(x) - 0.5 / x - tail)


def _log_abs_normal_moment(s: float) -> float:
    """log E|N|^s for standard normal N, s > -1."""
    return 0.5 * s * math.log(2.0) + _gammaln(0.5 * (s + 1.0)) - _gammaln(0.5)


def _scaled_normal_moment(r: float, *factors) -> float:
    """The product of c^s over the (c, s) factors, c > 0, times E|N|^r for
    standard normal N, through _in_range: an underflowing c^s or an
    overflowing E|N|^r cannot make it 0 * inf."""
    log_m = _log_abs_normal_moment(r)
    return _in_range(math.prod(_pow_abs(c, s) for c, s in factors) * _exp(log_m),
                     sum(s * math.log(c) for c, s in factors) + log_m)


def _in_range(v: float, log_v: float) -> float:
    """v where it is a positive float, else exp(log_v): the one rule for a
    closed form whose direct product or quotient leaves the float range."""
    return v if 0.0 < v < math.inf else _exp(log_v)


def _exp(x: float) -> float:
    """math.exp, with math.inf where the result overflows a float."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _pow_abs(v: float, s: float) -> float:
    """|v|^s with 0^s = 0 for every s >= 0 (zero mass excluded), and math.inf
    where the power overflows a float."""
    if v == 0.0:
        return 0.0
    try:  # libm pow either way; a Python float raises where a numpy scalar warns
        return float(abs(v)) ** s
    except OverflowError:
        return math.inf


def _pow_abs1(v: float, s: float) -> float:
    """|v|^s with the factor convention 0^0 = 1 (used in joint moments)."""
    return 1.0 if s == 0.0 else _pow_abs(v, s)


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


def _corr_factor(corr, k: int, name: str) -> tuple[np.ndarray, np.ndarray]:
    """A correlation matrix, the identity if corr is None, and its one factor
    (Cholesky, else spectral for PSD-singular input).  Non-PSD input is a hard error."""
    c = np.eye(k) if corr is None else np.asarray(corr, dtype=float)
    if c.shape != (k, k):
        raise ConfigurationError(f"{name} must be a {k}x{k} matrix")
    if not np.allclose(c, c.T, atol=1e-12):
        raise ConfigurationError(f"{name} must be symmetric")
    if not np.allclose(np.diag(c), 1.0, atol=1e-12):
        raise ConfigurationError(f"{name} must have unit diagonal")
    try:
        return c, np.linalg.cholesky(c)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(c)
        if w.min() < -1e-10:
            raise ConfigurationError(f"{name} is not positive semidefinite") from None
        return c, v * np.sqrt(np.clip(w, 0.0, None))


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
            if self.rate != 1.0:  # x * 1.0 is x: skip the no-op pass
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
        if k == "exponential":  # Gamma(s + 1) / rate^s
            log_g, scale = _gammaln(s + 1.0), _pow_abs(self.rate, s)
            return _in_range(_exp(log_g) / scale if scale else math.inf,
                             log_g - s * math.log(self.rate))
        if k == "pareto":
            if s >= self.index:
                return math.inf
            return self.index * _pow_abs(self.scale, s) / (self.index - s)
        if k == "uniform":
            # x |x|^s / (s + 1) is an antiderivative of |x|^s on either side of zero;
            # where that leaves the float range, take it in units of the larger end, m
            def mean(low, high):
                lo, hi = (math.copysign(_pow_abs(v, s + 1.0), v) for v in (low, high))
                return (hi - lo) / ((s + 1.0) * (high - low))
            v, m = mean(self.low, self.high), max(abs(self.low), abs(self.high))
            return v if math.isfinite(v) else _pow_abs(m, s) * mean(self.low / m, self.high / m)
        if k == "normal":
            if self.std == 0.0:
                return _pow_abs(self.mean, s)
            if self.mean == 0.0:
                return _scaled_normal_moment(s, (self.std, s))
            f = lambda x: _pow_abs(x, s) * _phi((x - self.mean) / self.std) / self.std
            return _quad(f, -math.inf, 0.0) + _quad(f, 0.0, math.inf)
        return _exp(self.mu * s + 0.5 * _pow_abs(self.sigma, 2.0) * _pow_abs(s, 2.0))

    def abscissa(self) -> float:
        return self.index if self.dist == "pareto" else math.inf


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

    def fill(self, rng: np.random.Generator, rows: np.ndarray, coords) -> None:
        """Draw coordinate by coordinate, all n at once, into the rows that
        hold it (row r holds coords[r]), or a chunk at a time into a spare
        row; a shared spec draws its first row once, for every row."""
        n, spare = rows.shape[1], np.empty(min(rows.shape[1], _CHUNK))
        for j, dist in enumerate(self.dists[:1] if self.shared else self.dists):
            if at := [r for r, c in enumerate(coords) if c == j or self.shared]:
                dist.fill(rng, rows[at[0]])
                for r in at[1:]:
                    rows[r] = rows[at[0]]
            else:
                for lo in range(0, n, _CHUNK):
                    dist.fill(rng, spare[: n - lo])

    def to_doc(self):
        if self.shared:
            return {**self.dists[0].doc, "shared": True}
        docs = [dict(d.doc) for d in self.dists]
        return docs[0] if all(d == docs[0] for d in docs) else docs


# ---------------------------------------------------------------------------
# Families


class _Family:
    """Base of the coefficient families that have closed forms.

    The constructor gets the params read through ``KEYS``.  A family
    answers ModelSpec's six closed-form hooks: ``kappa_exact``,
    ``drift_exact``, ``goldie_mean_exact`` and ``joint_moment_exact`` from
    its law of A, ``b_moment_exact`` and ``b_abscissa`` here, from the
    per-coordinate noise spec ``b``.  fill draws the A block, then the B
    block, in place into C-contiguous rows, one per kept coordinate: the
    family's fill_a writes A and the noise spec writes B.  Custom atoms
    draw (a, b) jointly and answer the noise hooks from their table.
    """

    def fill(self, rng, a, b, coords=None):
        self._in_chunks(self.fill_a, rng, (a,), coords)
        self.b.fill(rng, b, range(self.d) if coords is None else coords)

    def _in_chunks(self, fill, rng, groups, coords) -> None:
        """fill(rng, *groups), a record-major draw into (d, n) blocks; with
        coords, fill on fresh (d, m) blocks of _CHUNK records in turn instead,
        the same random numbers, and each block's coords rows copied out."""
        if coords is None:
            return fill(rng, *groups)
        n = groups[0].shape[1]
        for lo in range(0, n, _CHUNK):
            blocks = np.empty((len(groups), self.d, min(_CHUNK, n - lo)))
            fill(rng, *blocks)
            for kept, block in zip(groups, blocks):
                kept[:, lo:lo + _CHUNK] = block[list(coords)]

    def params_doc(self) -> dict:
        """The params in JSON form, read back from the attributes KEYS names."""
        return {k: self.b.to_doc() if k == "b" else np.asarray(getattr(self, k)).tolist()
                for k in self.KEYS}

    def b_moment_exact(self, j, s):
        return self.b.dists[j].abs_moment(s)

    def b_abscissa(self, j):
        return self.b.dists[j].abscissa()


class _Atoms(_Family):
    """A family whose A_j takes finitely many values: ``_atoms(j)`` gives
    the (weight, value) pairs of coordinate j, and the marginal hooks sum
    over them."""

    def kappa_exact(self, j, s):
        return sum(w * _pow_abs(v, s) for w, v in self._atoms(j))

    def drift_exact(self, j):
        atoms = list(self._atoms(j))  # listed once: _CustomAtoms gives a one-shot zip
        zm = sum(w for w, v in atoms if v == 0.0)
        logs = sum(w * math.log(abs(v)) for w, v in atoms if v != 0.0 and w > 0.0)
        const = len({abs(v) for w, v in atoms if w > 0.0}) <= 1
        return (None if zm >= 1.0 else logs / (1.0 - zm)), zm, const

    def goldie_mean_exact(self, j, alpha):
        return sum(
            w * _pow_abs(v, alpha) * math.log(abs(v))
            for w, v in self._atoms(j)
            if v != 0.0 and w > 0.0
        )


class _TwoPoint(_Atoms):
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


class _Gaussian(_Family):
    """A family drawn from k i.i.d. standard normal factors Z: its A rows
    are ``transform`` of load Z, for the (d, k) ``load`` fixed at
    construction."""

    def fill_a(self, rng, rows):
        np.matmul(self.load, rng.standard_normal((rows.shape[1], self.load.shape[1])).T, out=rows)
        self.transform(rows)

    def transform(self, rows):
        """The family's elementwise map of the rows, in place: none by default."""


class _LogNormal(_Gaussian):
    KEYS = {"mu": (given, REQUIRED), "sigma": (given, REQUIRED), "corr": (optional(_matrix), None),
            "b": (given, _NO_NOISE)}

    def __init__(self, d: int, params: dict):
        self.d = d
        self.mu = _as_vector(params["mu"], d, "mu")
        self.sigma = _as_vector(params["sigma"], d, "sigma")
        if np.any(self.sigma < 0):
            raise ConfigurationError("sigma must be nonnegative")
        self.corr, self.load = _corr_factor(params["corr"], d, "corr")
        self.b = _BSpec(params["b"], d)

    def transform(self, rows):
        rows *= self.sigma[:, None]
        rows += self.mu[:, None]
        np.exp(rows, out=rows)

    def kappa_exact(self, j, s):
        return _exp(self.mu[j] * s + 0.5 * _pow_abs(self.sigma[j] * s, 2.0))

    def drift_exact(self, j):
        return float(self.mu[j]), 0.0, self.sigma[j] == 0.0

    def goldie_mean_exact(self, j, alpha):
        return (self.mu[j] + _pow_abs(self.sigma[j], 2.0) * alpha) * self.kappa_exact(j, alpha)

    def joint_moment_exact(self, i, j, s, u):
        rho = self.corr[i, j]
        si, sj = self.sigma[i], self.sigma[j]
        quad_form = _pow_abs(si * s, 2.0) + 2.0 * rho * si * sj * s * u + _pow_abs(sj * u, 2.0)
        return _exp(self.mu[i] * s + self.mu[j] * u + 0.5 * quad_form)


class _CCCGarch(_Gaussian):
    KEYS = {"arch": (given, REQUIRED), "garch": (given, REQUIRED),
            "z_map": (optional(lambda v: list(map(integer, v))), None),
            "corr": (optional(_matrix), None), "b": (given, _NO_NOISE)}

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
        self.corr, load = _corr_factor(params["corr"], max(self.z_map) + 1, "corr")
        self.load = load[self.z_map]  # row j is factor z_map[j]
        self.b = _BSpec(params["b"], d)

    def transform(self, rows):
        # A_j = (arch_j Z_j) Z_j + garch_j
        rows *= self.arch[:, None] * rows
        rows += self.garch[:, None]

    def kappa_exact(self, j, s):
        a, g = self.arch[j], self.garch[j]
        if s == 0.0:
            return 1.0 if (a > 0.0 or g > 0.0) else 0.0
        if a == 0.0:
            return _pow_abs(g, s)
        if g == 0.0:
            return _scaled_normal_moment(2.0 * s, (a, s))
        return _even_mean(lambda z: _pow_abs(a * z * z + g, s))

    def drift_exact(self, j):
        a, g = self.arch[j], self.garch[j]
        if a == 0.0:
            return (math.log(g), 0.0, True) if g > 0.0 else (None, 1.0, True)
        if g == 0.0:
            return math.log(a) + _digamma(0.5) + math.log(2.0), 0.0, False
        return _even_mean(lambda z: math.log(a * z * z + g)), 0.0, False

    def goldie_mean_exact(self, j, alpha):
        a, g = self.arch[j], self.garch[j]
        if a == 0.0:
            return _pow_abs(g, alpha) * math.log(g) if g > 0.0 else 0.0
        if g == 0.0:
            return self.kappa_exact(j, alpha) * (math.log(a) + math.log(2.0) + _digamma(alpha + 0.5))
        return _even_mean(lambda z: _pow_abs(a * z * z + g, alpha) * math.log(a * z * z + g))

    def joint_moment_exact(self, i, j, s, u):
        ai, gi = self.arch[i], self.garch[i]
        aj, gj = self.arch[j], self.garch[j]
        fi, fj = self.z_map[i], self.z_map[j]
        if fi == fj:
            f = lambda z: _pow_abs1(ai * z * z + gi, s) * _pow_abs1(aj * z * z + gj, u)
            return _even_mean(f)
        if self.corr[fi, fj] == 0.0:
            ki = self.kappa_exact(i, s) if s > 0.0 else 1.0
            kj = self.kappa_exact(j, u) if u > 0.0 else 1.0
            return ki * kj
        return None


class _BekkDiag(_Gaussian):
    KEYS = {"coeff": (_matrix, REQUIRED), "b": (given, _NO_NOISE)}

    def __init__(self, d: int, params: dict):
        self.d = d
        coeff = params["coeff"]
        if coeff.ndim != 2 or coeff.shape[1] != d:
            raise ConfigurationError(f"coeff must be a (factors x {d}) matrix")
        self.coeff = coeff
        self.load = coeff.T  # a view: a contiguous copy could change BLAS's strides and bits
        self.sigma = np.sqrt((coeff ** 2).sum(axis=0))
        self.b = _BSpec(params["b"], d)

    def kappa_exact(self, j, s):
        sig = self.sigma[j]
        if sig == 0.0:
            return 0.0
        return _scaled_normal_moment(s, (sig, s))

    def drift_exact(self, j):
        sig = self.sigma[j]
        if sig == 0.0:
            return None, 1.0, True
        return math.log(sig) + 0.5 * (_digamma(0.5) + math.log(2.0)), 0.0, False

    def goldie_mean_exact(self, j, alpha):
        sig = self.sigma[j]
        if sig == 0.0:
            return 0.0
        kap = self.kappa_exact(j, alpha)
        return kap * (math.log(sig) + 0.5 * (math.log(2.0) + _digamma(0.5 * (alpha + 1.0))))

    def joint_moment_exact(self, i, j, s, u):
        fi = 1.0 if s == 0.0 else self.kappa_exact(i, s)
        fj = 1.0 if u == 0.0 else self.kappa_exact(j, u)
        si, sj = self.sigma[i], self.sigma[j]
        # a coordinate with sigma 0 is 0 a.s., independent of every other
        rho = 0.0 if 0.0 in (si, sj) else float(self.coeff[:, i] @ self.coeff[:, j]) / (si * sj)
        if rho == 0.0:
            return fi * fj
        if abs(abs(rho) - 1.0) <= 1e-12:  # a zero order's factor is c^0 = 1
            return _scaled_normal_moment(s + u, (si, s), (sj, u))
        return None


class _CustomAtoms(_Atoms):
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

    def fill(self, rng, a, b, coords=None):
        if coords is not None:  # one uniform per record, so it chunks as A does
            return self._in_chunks(self.fill, rng, (a, b), coords)
        idx = np.searchsorted(self.cum, rng.random(a.shape[1]), side="right")
        np.take(self.a.T, idx, axis=1, out=a)
        np.take(self.bvals.T, idx, axis=1, out=b)

    def _atoms(self, j):
        return zip(self.prob, self.a[:, j])

    def joint_moment_exact(self, i, j, s, u):
        wi = np.array([_pow_abs1(v, s) for v in self.a[:, i]])
        wj = np.array([_pow_abs1(v, u) for v in self.a[:, j]])
        return float((self.prob * wi * wj).sum())

    def b_moment_exact(self, j, s):
        return float(sum(w * _pow_abs1(v, s) for w, v in zip(self.prob, self.bvals[:, j])))

    def b_abscissa(self, j):
        return math.inf


class _CustomCallable:
    """A user sampler: no closed forms, so every moment is Monte Carlo."""

    KEYS = {"sampler": (given, REQUIRED), "name": (given, None)}

    def __init__(self, d: int, params: dict):
        sampler, name = params["sampler"], params["name"]
        if not callable(sampler):
            raise ConfigurationError("Custom callable spec needs a callable 'sampler'")
        self.d = d
        self.sampler = sampler
        self.label = str(getattr(sampler, "__name__", "sampler") if name is None else name)

    def fill(self, rng, a, b, coords=None):
        # the sampler's contract is (n, d), all n at once: its draw is copied in transposed
        shape = (a.shape[1], self.d)
        draws = [np.asarray(v, dtype=float) for v in self.sampler(rng, shape[0])]
        if [v.shape for v in draws] != [shape] * 2:
            raise ConfigurationError(f"custom sampler must return arrays of shape {shape}")
        for rows, v in zip((a, b), draws):  # row by row: no temporary beside the draw
            for r, j in enumerate(range(self.d) if coords is None else coords):
                rows[r] = v[:, j]


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

    Six closed-form hooks read the family: ``kappa_exact``, ``drift_exact``,
    ``goldie_mean_exact``, ``joint_moment_exact``, ``b_moment_exact`` and
    ``b_abscissa``.  ``closed_forms`` is False for a Custom callable, which
    answers None to all six; every other family answers the five marginal
    hooks at every order, and only ``joint_moment_exact`` may give None.
    """

    def __init__(self, family: str, d: int, params: dict, sigma_margin: float = 0.5):
        doc = {"family": family, "d": d, "params": params, "sigma_margin": sigma_margin}
        doc = read_keys(doc, MODEL_KEYS, "model")
        self.family, self.d, self.sigma_margin = doc["family"], doc["d"], doc["sigma_margin"]
        if family == "Custom":
            family += " callable" if isinstance(params, dict) and "sampler" in params else " atoms"
        impl = _FAMILY_CLASSES[family]
        self._impl = impl(self.d, read_keys(params, impl.KEYS, f"{family} params"))
        self.closed_forms = impl is not _CustomCallable

    # -- sampling -----------------------------------------------------------

    def sample_coeffs(
        self, rng: np.random.Generator, n: int, out: tuple[np.ndarray, np.ndarray] | None = None,
        *, coords: tuple[int, ...] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw n i.i.d. coefficient pairs; returns (a, b) of shape (n, d),
        the transposes of one (2, d, n) array, a coordinate per row.  The A
        block is drawn first, then B, so a generator state fixes the pairs.

        ``out=(a, b)``, two C-contiguous float64 (d, n) arrays, is filled
        instead and returned: row j gets column j, the same random numbers.
        ``coords`` (never with ``out``) keeps those columns only, in that order,
        the same random numbers; no (d, n) block is held, and the kept rows
        are an anonymous map of their own, given back to the OS once freed.
        """
        if n < 1:
            raise ValueError("n must be positive")
        if out is None:
            check_coords(self.d, *(coords or ()))
            rows = np.empty((2, self.d, n)) if coords is None else np.frombuffer(
                mmap.mmap(-1, 16 * len(coords) * n, mmap.MAP_PRIVATE)).reshape(2, -1, n)
            self._impl.fill(rng, rows[0], rows[1], coords)
            return rows[0].T, rows[1].T
        if coords is not None:
            raise ValueError("coords cannot be given with out")
        if any(r.shape != (self.d, n) or r.dtype != float or not r.flags.c_contiguous for r in out):
            raise ValueError(f"out must be two C-contiguous float64 arrays of shape ({self.d}, {n})")
        self._impl.fill(rng, *out)
        return out

    # -- closed-form hooks (None when unavailable) ---------------------------

    def _closed(self, name: str, coords: tuple, *orders):
        """The family's closed form ``name`` at checked coordinates, or None if it has none."""
        check_coords(self.d, *coords)
        answer = getattr(self._impl, name, None)
        return None if answer is None else answer(*coords, *map(float, orders))

    def kappa_exact(self, j: int, s: float) -> float | None:
        return self._closed("kappa_exact", (j,), s)
    def drift_exact(self, j: int) -> tuple | None:
        """(E[log|A_j| given A_j != 0] or None where A_j = 0 a.s., P(A_j = 0),
        whether |A_j| is a.s. constant), or None when unknown."""
        return self._closed("drift_exact", (j,))
    def goldie_mean_exact(self, j: int, alpha: float) -> float | None:
        return self._closed("goldie_mean_exact", (j,), alpha)
    def joint_moment_exact(self, i: int, j: int, s: float, u: float) -> float | None:
        """E |A_i|^s |A_j|^u, or None when no closed form is available."""
        return self._closed("joint_moment_exact", (i, j), s, u)
    def b_moment_exact(self, j: int, s: float) -> float | None:
        return self._closed("b_moment_exact", (j,), s)
    def b_abscissa(self, j: int) -> float | None:
        return self._closed("b_abscissa", (j,))

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

    def __repr__(self):
        return f"ModelSpec(family={self.family!r}, d={self.d})"


def route(spec: ModelSpec, j: int, what: str, method: str, n: int, rng):
    """The route of moment routine ``what`` at coordinate j, taken through
    common.use_closed_form on ``spec.closed_forms``: None for the closed
    form, or the n-row draw of coordinate j for Monte Carlo."""
    use = use_closed_form(method, spec.closed_forms, what, rng)
    return None if use else spec.sample_coeffs(rng, n, coords=(j,))


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
    if (draw := route(spec, j, "log_moment", method, n, rng)) is None:
        mean, zero_mass, const = spec.drift_exact(j)
        if zero_mass >= 1.0:  # a sum of atom weights may pass 1 by an ulp
            return LogMoment(None, 1.0, True, True)
        return LogMoment(exact(float(mean)), float(zero_mass), bool(zero_mass > 0.0 or mean < 0.0),
                         bool(const))
    a, b = draw
    logs = nonzero_logs(np.abs(a[:, 0], out=a[:, 0]))
    zero_mass = 1.0 - logs.size / n
    if logs.size == 0:
        return LogMoment(None, 1.0, True, True)
    est = mean_estimate(logs, scratch=b[: logs.size, 0])
    spread = float(logs.max() - logs.min())
    return LogMoment(
        est,
        float(zero_mass),
        bool(zero_mass > 0.0 or est.ci_hi < 0.0),
        bool(spread <= 1e-12),
    )
