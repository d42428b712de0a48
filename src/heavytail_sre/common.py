"""Shared result containers, error types, RNG stream derivation, file writes,
forked workers."""

from __future__ import annotations

import contextlib
import dataclasses
import math
import numbers
import os
import pickle
import signal
import warnings

import numpy as np

# Two-sided 95% normal quantile, used for every confidence interval.
Z95 = 1.959963984540054

# Relative change under sample doubling below which a Monte Carlo mean is
# considered stabilized.  A heuristic, not a proof of finiteness.
STABLE_REL_CHANGE = 0.05


class ConfigurationError(ValueError):
    """Invalid model parameters or run configuration."""


# Config schemas: each config level declares its keys once, as a dict of
# key -> (cast, default).  A cast returns the value to use, or raises
# TypeError or ValueError for a value it refuses.
REQUIRED = object()  # the default of a key that must be given
METHODS = ("auto", "closed-form", "monte-carlo")  # the routes of use_closed_form


def read_keys(doc, keys: dict, level: str) -> dict:
    """Every declared key of a config object: a given value through its
    cast, an absent one as its default.  An undeclared key, a missing
    REQUIRED one or a refused value raises ConfigurationError naming the
    key and the level (a stage, a family, a noise law, ...)."""
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{level} must be an object")
    extra = [key for key in doc if key not in keys]
    if extra:
        accepted = ", ".join(keys) or "none"
        raise ConfigurationError(f"unknown key {extra[0]!r} in {level}; accepted keys: {accepted}")
    out = {}
    for key, (cast, default) in keys.items():
        if key not in doc and default is REQUIRED:
            raise ConfigurationError(f"{level} is missing the key {key!r}")
        try:
            out[key] = cast(doc[key]) if key in doc else default
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"{level} key {key!r}: {exc}") from None
    return out


def given(value):
    """The cast of a key whose reader checks it."""
    return value


def integer(value) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"must be an integer, got {value!r}")
    return int(value)


def number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise TypeError(f"must be a finite number, got {value!r}")
    return float(value)


def flag(value) -> bool:
    if not isinstance(value, (bool, np.bool_)):
        raise TypeError(f"must be true or false, got {value!r}")
    return bool(value)


def ranged(cast, ok, what: str):
    """The cast that takes a value through cast, then refuses it unless ok(value)."""

    def checked(value):
        value = cast(value)
        if not ok(value):
            raise ValueError(f"must be {what}, got {value!r}")
        return value

    return checked


def optional(cast):
    """The cast of a key that takes null, or a value through cast."""
    return lambda value: None if value is None else cast(value)


def choice(*options):
    """The cast of a key that takes one of the given strings."""

    def cast(value):
        if not isinstance(value, str) or value not in options:
            raise ValueError(f"must be one of {', '.join(options)}, got {value!r}")
        return value

    return cast


class TailIndexError(RuntimeError):
    """The moment equation kappa(s) = 1 has no admissible positive root."""


class NonContractiveError(RuntimeError):
    """A simulation was requested for a model without negative log drift."""


class DivergenceError(RuntimeError):
    """A simulated trajectory left the representable range."""

    def __init__(self, message: str, step: int | None = None, chain: int | None = None):
        super().__init__(message)
        self.step = step
        self.chain = chain


class LadderError(ValueError):
    """A threshold ladder leaves too few exceedances to estimate from."""


class AmbiguousPartitionError(RuntimeError):
    """Sample-path and moment evidence disagree about coordinate blocks."""

    def __init__(self, message: str, pair: tuple[int, int] | None = None):
        super().__init__(message)
        self.pair = pair


class TauHeavinessError(RuntimeError):
    """A weight function has no finite moment at the smallest probed exponent."""


def _plain(value):
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return value


class Record:
    """Base of the result dataclasses: ``to_dict`` maps each field by name.

    Nested records go through their own ``to_dict`` and tuples or lists
    become lists; numpy scalars and non-finite floats are left as they are
    for the JSON writer to coerce.
    """

    def to_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in dataclasses.fields(self)}


@dataclasses.dataclass(frozen=True)
class Estimate(Record):
    """Point estimate with a two-sided 95% confidence interval.

    Closed-form values carry a degenerate interval (ci_lo == ci_hi == value)
    and n == 0.  ``method`` is "closed-form" or "monte-carlo"; ``flag``
    records soft diagnostics such as "possibly-infinite" or "unstable".
    """

    value: float
    ci_lo: float
    ci_hi: float
    n: int
    method: str
    flag: str | None = None

    @property
    def half_width(self) -> float:
        return 0.5 * (self.ci_hi - self.ci_lo)

    def contains(self, x: float) -> bool:
        return self.ci_lo <= x <= self.ci_hi

    def scaled(self, t: float) -> "Estimate":
        """The value and both interval ends times t > 0."""
        return dataclasses.replace(self, value=t * self.value, ci_lo=t * self.ci_lo,
                                   ci_hi=t * self.ci_hi)

    def to_dict(self) -> dict:
        out = super().to_dict()
        if self.flag is None:
            del out["flag"]
        return out


def exact(value: float) -> Estimate:
    """Wrap a closed-form value as a degenerate Estimate."""
    v = float(value)
    return Estimate(v, v, v, 0, "closed-form")


def mean_estimate(samples: np.ndarray, flag: str | None = None, scratch=None) -> Estimate:
    """Sample mean with a normal-approximation interval; see variance for scratch."""
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise ValueError("no samples")
    m = float(x.mean())
    return normal_interval(m, variance(x, m, scratch) if math.isfinite(m) else math.nan, x.size,
                           flag)


def normal_interval(m: float, var: float, size: int, flag: str | None = None) -> Estimate:
    """The interval of mean_estimate from the sample mean m and variance var."""
    if not math.isfinite(m):
        return Estimate(m, m, m, size, "monte-carlo", flag or "possibly-infinite")
    hw = Z95 * math.sqrt(var) / math.sqrt(size)
    return Estimate(m, m - hw, m + hw, size, "monte-carlo", flag)


def variance(x: np.ndarray, mean: float, scratch=None) -> float:
    """x.var() given mean == x.mean(), in numpy's own steps; the deviations
    go into ``scratch``, an array of x's shape, when it is given."""
    dev = np.subtract(x, mean, out=scratch)
    np.square(dev, out=dev)
    return float(np.add.reduce(dev, axis=None) / x.size)


def doubling_change(samples: np.ndarray) -> float:
    """Relative change of the sample mean when the sample doubles.

    Compares the mean over the first half against the mean over the whole
    array.  Returns inf when either mean is not finite.
    """
    x = np.asarray(samples, dtype=float)
    if x.size < 2:
        raise ValueError("need at least two samples")
    half = float(x[: x.size // 2].mean())
    full = float(x.mean())
    if not (math.isfinite(half) and math.isfinite(full)):
        return math.inf
    scale = max(abs(full), abs(half))
    if scale == 0.0:
        return 0.0
    return abs(full - half) / scale


def require(value: float, name: str, sign: str = "positive") -> float:
    """float(value); ValueError naming it unless finite and positive (or nonnegative)."""
    value = float(value)
    if not (math.isfinite(value) and (value >= 0.0 if sign == "nonnegative" else value > 0.0)):
        raise ValueError(f"{name} must be finite and {sign}")
    return value


def check_coords(d: int, *coords) -> None:
    """ValueError naming the first coordinate index outside 0..d-1."""
    if bad := [c for c in coords if not 0 <= int(c) < d]:
        raise ValueError(f"coordinate index {bad[0]} out of range for d={d}")


def use_closed_form(method: str, available: bool, what: str, rng) -> bool:
    """Route one moment computation: True for the closed form, False for
    Monte Carlo.

    "auto" takes the closed form when the model has one, "closed-form"
    insists on it, "monte-carlo" always samples.  Raises ValueError for an
    unknown method, a closed form the model lacks, or a Monte Carlo route
    without an rng; ``what`` names the quantity in the message.
    """
    if method not in METHODS:
        raise ValueError("method must be auto, closed-form, or monte-carlo")
    if method != "monte-carlo" and available:
        return True
    if method == "closed-form":
        raise ValueError(f"no closed form for {what} in this model")
    if rng is None:
        raise ValueError(f"Monte Carlo {what} needs an rng")
    return False


def abs_pow(mag: np.ndarray, s: float, out: np.ndarray) -> np.ndarray:
    """mag**s into ``out`` (which may be mag) for magnitudes mag >= 0 and
    exponents s >= 0, with 0 -> 0 for every s (mass at zero is excluded)
    and nan -> 0; overflow goes to inf silently.  Returns out."""
    if s == 0.0:
        return np.greater(mag, 0.0, out=out)
    with np.errstate(over="ignore"):
        return np.fmax(np.power(mag, s, out=out), 0.0, out=out)


def joint_pow(mag: np.ndarray, s: float, out: np.ndarray) -> np.ndarray:
    """One factor of a joint moment: abs_pow, except that a zero exponent
    gives a factor 1 everywhere (the convention 0^0 = 1)."""
    return abs_pow(mag, s, out) if s != 0.0 else np.power(mag, 0.0, out=out)


def nonzero_logs(mag: np.ndarray) -> np.ndarray:
    """log of the entries of mag > 0: in place when that is all of them."""
    nonzero = mag > 0.0
    logs = mag if nonzero.all() else mag[nonzero]
    return np.log(logs, out=logs)


def binomial_ci(k: int, n: int) -> Estimate:
    """Normal-approximation interval for a binomial proportion.

    A zero count falls back to the rule-of-three upper bound so empty rungs
    still carry a usable one-sided bound.
    """
    if n <= 0:
        raise ValueError("need n > 0")
    p = k / n
    if k == 0:
        return Estimate(0.0, 0.0, min(1.0, 3.0 / n), n, "binomial", "rule-of-three")
    if k == n:
        return Estimate(1.0, max(0.0, 1.0 - 3.0 / n), 1.0, n, "binomial", "rule-of-three")
    hw = Z95 * math.sqrt(p * (1.0 - p) / n)
    return Estimate(p, max(0.0, p - hw), min(1.0, p + hw), n, "binomial")


# Spawn-key namespaces.  Chain streams, stage streams, and diagnostic
# streams must never collide for one master seed.
_NS_CHAIN = 0
_NS_STAGE = 1
_NS_DIAG = 2


def _stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=key))


def chain_stream(seed: int, chain: int) -> np.random.Generator:
    """Generator for one chain, derived from the master seed by chain index.

    The derivation depends only on (seed, chain), never on how chains are
    batched into blocks, so pooled output is invariant under chain
    batching.
    """
    return _stream(seed, _NS_CHAIN, int(chain))


def stage_stream(seed: int, stage_id: int) -> np.random.Generator:
    """Generator for one pipeline stage, independent of the chain streams."""
    return _stream(seed, _NS_STAGE, int(stage_id))


def diagnostic_stream(seed: int) -> np.random.Generator:
    """Generator reserved for internal validation draws (drift checks)."""
    return _stream(seed, _NS_DIAG)


@contextlib.contextmanager
def atomic_write(path, mode: str = "w", **kwargs):
    """Write through ``path + '.tmp'`` and rename it over ``path`` on success.

    On failure the temporary file is removed and ``path`` is left as it was.
    """
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def value(outcome):
    """A call's result: its outcome, raised if that is an exception."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


class Workers:
    """Calls run in forked workers, at most one alive per usable CPU beyond
    this process; on one CPU every call runs here.  ``call`` returns the
    getter of its outcome: the result, or the ``Exception`` the call raised.
    A worker pickles its outcome through a pipe; one that dies (a
    non-``Exception`` raise included) gives ``RuntimeError("exit status N")``.
    Leaving the block only kills and reaps the workers still alive.  Each
    caller reads its outcomes in its own fixed order, so the failure it
    reports does not depend on the CPU count.
    """

    def __init__(self):  # the CPUs this process may run on; 1 where the OS does not say
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
        self.cap, self._calls = cpus - 1, 0
        self._live: list[tuple[int, int, int]] = []  # (call, pid, read end), oldest first
        self._done: dict = {}  # call -> outcome of a collected worker

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._live:
            _, pid, r = self._live[-1]
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(r)
            self._live.pop()

    def call(self, fn, *args, fork: bool = True):
        """fn(*args): in a worker unless there is one CPU or fork is false,
        in which case it runs here at once."""

        def run():
            try:
                return fn(*args)
            except Exception as exc:
                return exc

        k, self._calls = self._calls, self._calls + 1
        if not (fork and self.cap):
            out = run()
            return lambda: out
        while len(self._live) >= self.cap:
            self._collect()
        r, w = os.pipe()
        with warnings.catch_warnings():  # Python >= 3.12: BLAS threads, see README
            warnings.filterwarnings("ignore", ".*use of fork", DeprecationWarning)
            pid = os.fork()
        if pid == 0:  # leaves only through os._exit: no handler, atexit hook or flush
            status = 1
            try:
                data = memoryview(pickle.dumps(run()))
                while data:
                    data = data[os.write(w, data):]
                status = 0
            finally:
                os._exit(status)
        os.close(w)
        self._live.append((k, pid, r))
        return lambda: self._outcome(k)

    def _outcome(self, k: int):
        while k not in self._done:
            self._collect()
        return self._done[k]

    def _collect(self) -> None:
        """Await the oldest worker and keep its outcome."""
        k, pid, r = self._live[0]
        data = b"".join(iter(lambda: os.read(r, 1 << 16), b""))
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        del self._live[0]
        os.close(r)
        self._done[k] = RuntimeError(f"exit status {status}") if status else pickle.loads(data)
