"""Trajectory iteration and stationary sample pools.

A pool row records one transition of one chain: (x_pre, a, b, x_post) with
x_post = a * x_pre + b componentwise, where x_pre is the chain state just
before the step.  Coefficients are i.i.d. across steps, so x_pre is
independent of (a, b) within a row; several estimators rely on exactly
this independence and must use x_pre, never x_post.

Chain c draws from a generator derived from (master seed, c) alone.  The
pooled records are therefore a pure function of the arguments, invariant
under how chains are batched into blocks, and a pool with more chains
extends a pool with fewer chains record for record.

A diagonal A acts coordinate by coordinate, so the simulation slabs are
coordinate-major, (chain, coordinate, step): one step is one strided run,
and each chain's coefficients are drawn straight into its slab rows.
"""

from __future__ import annotations

import dataclasses
import json
import math
import mmap
import pathlib

import numpy as np

from .common import (DivergenceError, NonContractiveError, Workers, atomic_write, chain_stream,
                     diagnostic_stream, value)
from .model import LogMoment, ModelSpec, log_moment

POOL_SCHEMA = "pool-columnar-v1"
_FLOAT_GROUPS = ("x_pre", "a", "b", "x_post")

# Chain blocks are sized so each of the two slabs, summed over the processes
# that step them, holds about 6e6 floats (~96 MB for both) at any chain length.
_BLOCK_TARGET_FLOATS = 6_000_000


@dataclasses.dataclass
class SamplePool:
    """Columnar record pool with provenance metadata: each float group is the
    (n, d) transpose of a (d, n) block, as in pool.bin, so columns are contiguous."""

    x_pre: np.ndarray
    a: np.ndarray
    b: np.ndarray
    x_post: np.ndarray
    chain: np.ndarray
    step: np.ndarray
    meta: dict

    def __len__(self) -> int:
        return self.x_post.shape[0]

    @property
    def d(self) -> int:
        return self.x_post.shape[1]

    def save(self, bin_path) -> None:
        """Write raw little-endian columns plus a JSON sidecar (name.meta.json
        beside name.bin).

        Layout: chain and step as int64, then each float64 group
        coordinate by coordinate, every column contiguous.  Both files are
        replaced atomically, and the sidecar, removed first, is written last:
        a failed save leaves no pool that loads.
        """
        bin_path = str(bin_path)
        meta_path = bin_path.removesuffix(".bin") + ".meta.json"
        pathlib.Path(meta_path).unlink(missing_ok=True)
        with atomic_write(bin_path, "wb") as fh:
            fh.write(np.ascontiguousarray(self.chain, dtype="<i8").view(np.uint8))
            fh.write(np.ascontiguousarray(self.step, dtype="<i8").view(np.uint8))
            for group in _FLOAT_GROUPS:
                # one (d, n) block, written as its flat byte view: no copy
                # for a pool in the coordinate-major layout it is built in
                block = np.ascontiguousarray(getattr(self, group).T, "<f8")
                fh.write(block.reshape(-1).view(np.uint8))
        doc = {
            "format": POOL_SCHEMA,
            "n_records": len(self),
            "d": self.d,
            "columns": ["chain", "step"]
            + [f"{g}_{j}" for g in _FLOAT_GROUPS for j in range(self.d)],
            "byte_order": "little",
            "meta": self.meta,
        }
        with atomic_write(meta_path) as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, bin_path) -> "SamplePool":
        """The saved pool, its columns read-only views of one map of the file."""
        bin_path = str(bin_path)
        with open(bin_path.removesuffix(".bin") + ".meta.json") as fh:
            doc = json.load(fh)
        if doc.get("format") != POOL_SCHEMA:
            raise ValueError(f"unsupported pool format {doc.get('format')!r}")
        n, d = int(doc["n_records"]), int(doc["d"])
        raw = np.memmap(bin_path, dtype=np.uint8, mode="r")
        expected = n * 8 * (2 + 4 * d)
        if raw.size != expected:
            raise ValueError(f"pool file has {raw.size} bytes, expected {expected}")
        chain, step = np.frombuffer(raw, "<i8", count=2 * n).reshape(2, n)
        floats = np.frombuffer(raw, "<f8", offset=16 * n).reshape(4, d, n)
        return cls(*(group.T for group in floats), chain, step, doc.get("meta", {}))


def iterate(spec: ModelSpec, x0, n: int, rng: np.random.Generator) -> np.ndarray:
    """Run x_t = a_t * x_{t-1} + b_t for t = 1..n, returning the n states.

    All coefficients are drawn up front in one call, so a chain generator
    advanced here matches the pooled simulation step for step.
    """
    x0 = _start(x0, spec.d)
    a, b = spec.sample_coeffs(rng, n)  # raises for n < 1 before it draws
    if (lost := _recur(a.T, b.T, x0)) is not None:
        t = lost[0]
        raise DivergenceError(f"trajectory left the representable range at step {t}", step=t)
    return b.copy()  # (n, d) in C order, not a view that keeps the a draw alive


def _start(x0, d: int) -> np.ndarray:
    """x0 as a float vector, checked to be finite and of length d."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (d,) or not np.all(np.isfinite(x0)):
        raise ValueError(f"x0 must be a finite vector of length {d}")
    return x0


def _recur(a: np.ndarray, x: np.ndarray, x0: np.ndarray) -> tuple[int, int] | None:
    """The one stepping kernel: overwrite the (rows, steps) b slab x with the
    states x_t = a_t * x_{t-1} + b_t of each row from x0, multiply then add.
    Returns the earliest (step, row) whose state is not finite, or None."""
    product, prev = np.empty(len(x0)), x0
    # overflow here is the divergence being detected, not an anomaly
    with np.errstate(over="ignore", invalid="ignore"):
        for ai, xi in zip(a.T, x.T):
            np.multiply(ai, prev, out=product)
            prev = np.add(product, xi, out=xi)
    # a non-finite state stays non-finite, so the last one tells
    if np.isfinite(prev).all():
        return None
    lost = ~np.isfinite(x)
    i = int(lost.any(axis=0).argmax())
    return i + 1, int(lost[:, i].argmax())


def default_burn_in(drifts) -> int:
    """ceil(20 / |median log drift|), at least 1.

    Coordinates with mass at A_j = 0 enter as a drift of -inf.
    """
    # np.median's middle, without the numpy.ma import of its NaN check
    s = sorted(float(v) for v in drifts)
    med = (s[(len(s) - 1) // 2] + s[len(s) // 2]) / 2 if s else math.nan
    if not med < 0.0 or any(map(math.isnan, s)):
        raise ValueError("burn-in default needs a negative median drift")
    return max(1, math.ceil(20.0 / abs(med)))  # 1 at a drift of -inf


def drift_diagnostics(
    spec: ModelSpec, seed: int, n: int = 100_000
) -> tuple[LogMoment, ...]:
    """Per-coordinate log-drift checks on a dedicated diagnostic stream."""
    rng = diagnostic_stream(seed)
    return tuple(log_moment(spec, j, n=n, rng=rng) for j in range(spec.d))


def stationary_pool(
    spec: ModelSpec,
    seed: int,
    chains: int,
    n_per_chain: int,
    burn_in: int | None = None,
    thin: int = 10,
    x0=None,
) -> SamplePool:
    """Simulate independent chains and pool their post-burn-in records.

    Record k of chain c is the transition at step t = burn_in + (k+1)*thin.
    Chains run in blocks through two reused (chain, coordinate, step) slabs
    per process, in forked processes up to one per usable CPU.
    Refuses to run unless every coordinate has a certified negative log
    drift.  The default burn-in is ceil(20 / |median_j E log|A_j||).

    Whatever the chain batching, the lowest chain that raises is raised as
    itself; failing that, a divergence reports the earliest failing step and,
    among the chains failing there, the lowest chain.
    """
    if chains < 1 or n_per_chain < 1 or thin < 1:
        raise ValueError("chains, n_per_chain, and thin must be positive")
    d = spec.d
    x0 = _start(np.zeros(d) if x0 is None else x0, d)

    diags = drift_diagnostics(spec, seed)
    bad = [j for j, lm in enumerate(diags) if not lm.contractive]
    if bad:
        raise NonContractiveError(
            f"negative log drift not certified for coordinates {bad}; refusing to simulate"
        )
    if burn_in is None:
        drifts = [
            -math.inf if lm.zero_mass > 0.0 else lm.mean_given_nonzero.value for lm in diags
        ]
        burn_in = default_burn_in(drifts)
    burn_in = int(burn_in)
    if burn_in < 0:
        raise ValueError("burn_in must be nonnegative")

    steps = burn_in + n_per_chain * thin
    # slab index of the first recorded step; records sit at first::thin
    first = burn_in + thin - 1
    # one process would step blocks of `block` chains; up to one process per
    # CPU, block and chain split that budget, in a multiple of procs blocks
    n_blocks = -(-chains // max(1, min(chains, _BLOCK_TARGET_FLOATS // (steps * d) + 1)))
    block = -(-chains // n_blocks)
    procs = min(Workers().cap + 1, n_blocks, block)
    block = -(-chains // (-(-chains // (block // procs * procs)) * procs))
    starts = range(0, chains, block)
    # shared with the workers: the float groups in pool.bin order, every column contiguous
    floats = np.frombuffer(mmap.mmap(-1, 32 * d * chains * n_per_chain)).reshape(4, d, -1)
    # (chain, coordinate, record) views of the output, matching the slabs
    x_pre, a_rec, b_rec, x_post = (g.reshape(d, chains, n_per_chain).swapaxes(0, 1) for g in floats)

    def run_share(k: int) -> list[tuple]:
        """Step share k; return the (step, chain) where each block first diverged,
        then (-1, chain, exception) if a chain raised, which ends the share."""
        # the a and b slabs; the recursion overwrites the b slab with states
        slabs, lost_at = np.empty((2, block, d, steps)), []
        for i in range(k, len(starts), procs):
            c0 = starts[i]
            nb = min(block, chains - c0)
            rows = slice(c0, c0 + nb)
            a, x = slabs[:, :nb]
            try:
                for c in range(nb):
                    spec.sample_coeffs(chain_stream(seed, c0 + c), steps, out=(a[c], x[c]))
            except Exception as exc:
                return [*lost_at, (-1, c0 + c, exc)]
            a_rec[rows] = a[:, :, first::thin]
            b_rec[rows] = x[:, :, first::thin]
            # row c * d + j of the flat slabs is coordinate j of chain c
            lost = _recur(a.reshape(nb * d, steps), x.reshape(nb * d, steps), np.tile(x0, nb))
            if lost is not None:
                lost_at.append((lost[0], c0 + lost[1] // d))
                continue
            x_post[rows] = x[:, :, first::thin]
            if first:
                x_pre[rows] = x[:, :, first - 1 : -1 : thin]
            else:
                x_pre[rows, :, 0] = x0
                x_pre[rows, :, 1:] = x[:, :, :-1]
        return lost_at

    # share 0 here and share k, 0 < k < procs, in forked workers
    with Workers() as workers:
        shares = [workers.call(run_share, k) for k in range(1, procs)]
        diverged = run_share(0) + [at for share in shares for at in value(share())]
    if diverged:  # as one process: the lowest chain that raised, else the earliest divergence
        t, c, *raised = min(diverged)
        if raised:
            raise raised[0]
        raise DivergenceError(
            f"chain {c} left the representable range at step {t}", step=t, chain=c
        )

    meta = {
        "burn_in": burn_in,
        "chains": chains,
        "d": d,
        "n_per_chain": n_per_chain,
        "seed": int(seed),
        "spec_fingerprint": spec.fingerprint(),
        "thin": thin,
        "x0": x0.tolist(),
    }
    chain_col = np.repeat(np.arange(chains, dtype=np.int64), n_per_chain)
    step_col = np.tile(burn_in + thin * np.arange(1, n_per_chain + 1, dtype=np.int64), chains)
    return SamplePool(*(g.T for g in floats), chain_col, step_col, meta)
