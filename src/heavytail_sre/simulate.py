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
import pathlib

import numpy as np

from .common import DivergenceError, NonContractiveError, atomic_write, chain_stream, diagnostic_stream
from .model import LogMoment, ModelSpec, log_moment

POOL_SCHEMA = "pool-columnar-v1"
_FLOAT_GROUPS = ("x_pre", "a", "b", "x_post")

# Chain blocks are sized so each of the two slabs, allocated once per pool,
# holds about 6e6 floats (~96 MB for both) regardless of steps per chain.
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

    def column_names(self) -> list[str]:
        names = ["chain", "step"]
        for group in _FLOAT_GROUPS:
            names.extend(f"{group}_{j}" for j in range(self.d))
        return names

    def select(self, index) -> "SamplePool":
        """Sub-pool at the given row slice, mask or index array (copies)."""
        rows = np.arange(*index.indices(len(self))) if isinstance(index, slice) else index
        return SamplePool(
            self.x_pre[rows],
            self.a[rows],
            self.b[rows],
            self.x_post[rows],
            self.chain[rows],
            self.step[rows],
            dict(self.meta),
        )

    def save(self, bin_path, meta_path=None) -> None:
        """Write raw little-endian columns plus a JSON sidecar.

        Layout: chain and step as int64, then each float64 group
        coordinate by coordinate, every column contiguous.  Both files are
        replaced atomically, and the sidecar, removed first, is written last:
        a failed save leaves no pool that loads.
        """
        bin_path = str(bin_path)
        meta_path = _sidecar_path(bin_path) if meta_path is None else str(meta_path)
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
            "columns": self.column_names(),
            "byte_order": "little",
            "meta": self.meta,
        }
        with atomic_write(meta_path) as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, bin_path, meta_path=None) -> "SamplePool":
        bin_path = str(bin_path)
        meta_path = _sidecar_path(bin_path) if meta_path is None else str(meta_path)
        with open(meta_path) as fh:
            doc = json.load(fh)
        if doc.get("format") != POOL_SCHEMA:
            raise ValueError(f"unsupported pool format {doc.get('format')!r}")
        n, d = int(doc["n_records"]), int(doc["d"])
        raw = np.fromfile(bin_path, dtype=np.uint8)
        expected = n * 8 * (2 + 4 * d)
        if raw.size != expected:
            raise ValueError(f"pool file has {raw.size} bytes, expected {expected}")
        chain, step = np.frombuffer(raw, "<i8", count=2 * n).reshape(2, n)
        floats = np.frombuffer(raw, "<f8", offset=16 * n).reshape(4, d, n)
        return cls(*(group.T for group in floats), chain, step, doc.get("meta", {}))

    def to_csv(self, path) -> None:
        """RFC 4180 export (CRLF, header row, full float precision)."""
        data = np.column_stack(
            [self.chain.astype(float), self.step.astype(float)]
            + [getattr(self, g)[:, j] for g in _FLOAT_GROUPS for j in range(self.d)]
        )
        fmt = ["%d", "%d"] + ["%.17g"] * (4 * self.d)
        with atomic_write(path, newline="") as fh:
            np.savetxt(
                fh, data, fmt=fmt, delimiter=",", newline="\r\n",
                header=",".join(self.column_names()), comments="",
            )


def _sidecar_path(bin_path: str) -> str:
    base = bin_path[:-4] if bin_path.endswith(".bin") else bin_path
    return base + ".meta.json"


def iterate(spec: ModelSpec, x0, n: int, rng: np.random.Generator) -> np.ndarray:
    """Run x_t = a_t * x_{t-1} + b_t for t = 1..n, returning the n states.

    All coefficients are drawn up front in one call, so a chain generator
    advanced here matches the pooled simulation step for step.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (spec.d,):
        raise ValueError(f"x0 must have shape ({spec.d},)")
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be finite")
    if n < 1:
        raise ValueError("n must be positive")
    a, b = spec.sample_coeffs(rng, n)
    out = np.empty((n, spec.d))
    x = x0
    for t in range(n):
        # overflow here is the divergence being detected, not an anomaly
        with np.errstate(over="ignore", invalid="ignore"):
            x = a[t] * x + b[t]
        if not np.isfinite(x).all():
            raise DivergenceError(
                f"trajectory left the representable range at step {t + 1}", step=t + 1
            )
        out[t] = x
    return out


def default_burn_in(drifts) -> int:
    """ceil(20 / |median log drift|), at least 1.

    Coordinates with mass at A_j = 0 enter as a drift of -inf.
    """
    med = float(np.median(np.asarray(drifts, dtype=float)))
    if med == 0.0 or not med < 0.0:
        raise ValueError("burn-in default needs a negative median drift")
    if math.isinf(med):
        return 1
    return max(1, math.ceil(20.0 / abs(med)))


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
    contractivity: tuple[LogMoment, ...] | None = None,
    drift_check_n: int = 100_000,
) -> SamplePool:
    """Simulate independent chains and pool their post-burn-in records.

    Record k of chain c is the transition at step t = burn_in + (k+1)*thin.
    Chains run in blocks through two reused (chain, coordinate, step) slabs.
    Refuses to run unless every coordinate has a certified negative log
    drift (pass ``contractivity`` to reuse a previous check).  The default
    burn-in is ceil(20 / |median_j E log|A_j||).

    A divergence reports the earliest failing step and, among the chains
    failing there, the lowest chain, whatever the chain batching.
    """
    if chains < 1 or n_per_chain < 1 or thin < 1:
        raise ValueError("chains, n_per_chain, and thin must be positive")
    d = spec.d
    if x0 is None:
        x0 = np.zeros(d)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (d,) or not np.all(np.isfinite(x0)):
        raise ValueError(f"x0 must be a finite vector of length {d}")

    diags = contractivity if contractivity is not None else drift_diagnostics(spec, seed, drift_check_n)
    if len(diags) != d:
        raise ValueError("contractivity diagnostics must cover every coordinate")
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
    n_records = chains * n_per_chain
    # the float groups in pool.bin order, so every column is contiguous
    floats = np.empty((4, d, n_records))
    # (chain, coordinate, record) views of the output, matching the slabs
    x_pre, a_rec, b_rec, x_post = (g.reshape(d, chains, n_per_chain).swapaxes(0, 1) for g in floats)
    failures = []

    # as many blocks as the target needs, all of one size up to the last
    # chain, so the slabs hold no rows that no block fills
    n_blocks = -(-chains // max(1, min(chains, _BLOCK_TARGET_FLOATS // (steps * d) + 1)))
    block = -(-chains // n_blocks)
    # the a and b slabs; the recursion overwrites the b slab with states
    slabs = np.empty((2, block, d, steps))
    for c0 in range(0, chains, block):
        nb = min(block, chains - c0)
        rows = slice(c0, c0 + nb)
        a, x = slabs[:, :nb]
        for c in range(nb):
            spec.sample_coeffs(chain_stream(seed, c0 + c), steps, out=(a[c], x[c]))
        a_rec[rows] = a[:, :, first::thin]
        b_rec[rows] = x[:, :, first::thin]
        # step i of every (chain, coordinate) pair is one 1-D strided view
        a_steps, x_steps = (s.reshape(nb * d, steps).T for s in (a, x))
        product = np.empty(nb * d)
        prev = np.tile(x0, nb)
        # overflow here is the divergence being detected, not an anomaly
        with np.errstate(over="ignore", invalid="ignore"):
            for ai, xi in zip(a_steps, x_steps):
                np.multiply(ai, prev, out=product)
                prev = np.add(product, xi, out=xi)
        # a non-finite state stays non-finite, so the last one tells
        if not np.isfinite(prev).all():
            lost = ~np.isfinite(x).all(axis=1)
            i = int(lost.any(axis=0).argmax())
            failures.append((i + 1, c0 + int(lost[:, i].argmax())))
            continue
        x_post[rows] = x[:, :, first::thin]
        if first:
            x_pre[rows] = x[:, :, first - 1 : -1 : thin]
        else:
            x_pre[rows, :, 0] = x0
            x_pre[rows, :, 1:] = x[:, :, :-1]
    # free the slabs, and every view that keeps them alive, before the
    # chain and step columns are built
    del slabs, a, x, a_steps, x_steps, ai, xi, prev
    if failures:
        t, c = min(failures)
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
