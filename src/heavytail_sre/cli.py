"""Command-line pipeline over JSON model configs.

Stages write machine-readable artifacts into one output directory:
<stage>.report.json files are byte-identical across reruns with the same
config and seed (wall-clock state lives only in manifest.json), pools go
to pool.bin plus pool.meta.json, and tabular series to <stage>.<name>.csv.
Every report carries its provenance: the stage, the model fingerprint,
the seed, and the sha256 of each upstream artifact it read (inputs).
Exit code 2 flags configuration problems, including an upstream artifact
that is corrupt, records another model or seed, or was computed from
inputs that have since changed on disk; exit code 1 flags a runtime
failure and names the stage on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import hashlib
import itertools
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy  # its version: the quadrature bits depend on the SciPy build

from . import __version__
from .blocks import DEFAULT_XI_PROBES, BlockPartition, detect_blocks
from .common import (
    METHODS,
    REQUIRED,
    ConfigurationError,
    LadderError,
    Workers,
    atomic_write,
    choice,
    given,
    integer,
    number,
    optional,
    ranged,
    read_keys,
    stage_stream,
    value,
)
from .geometry import magnitude_power
from .independence import (
    build_tau,
    decay_rate_fit,
    joint_exceedance,
    submultiplicativity_check,
    tau_gamma_bound,
)
from .model import ModelSpec, log_moment, route
from .moments import (goldie_mean_on, moment_abscissa_draw, moment_abscissa_on, positivity_check,
                      solve_alpha_on)
from .simulate import SamplePool, stationary_pool
from .tails import (
    DEFAULT_MIN_TOP,
    SPECTRAL_MIN_TOP,
    block_tail_constant,
    empirical_tail_constant,
    goldie_constant,
    hill_estimate,
    moment_estimate,
    spectral_measure,
)

# each stage in pipeline order, with the stages whose artifacts it reads
STAGE_DEPS = {
    "solve-alpha": (),
    "simulate": ("solve-alpha",),
    "blocks": ("solve-alpha",),
    "tails": ("solve-alpha", "simulate"),
    "spectral": ("solve-alpha", "simulate", "blocks"),
    "independence": ("solve-alpha", "simulate"),
    "report": (),
}
STAGE_ORDER = tuple(STAGE_DEPS)
STAGE_IDS = {name: k + 1 for k, name in enumerate(STAGE_ORDER)}
# the waves of run: no stage reads an artifact of its own wave or a later one (tails and
# independence read blocks.report.json when it exists, report reads every report)
WAVES = dict(zip(STAGE_ORDER, (0, 1, 1, 2, 2, 2, 3)))


def _count(least: int):
    return ranged(integer, lambda v: v >= least, f"an integer >= {least}")


def _many(cast):
    """The cast of one value or a list of values, each through cast, as a tuple."""
    return lambda value: tuple(map(cast, value if isinstance(value, (list, tuple)) else [value]))


_positive, _numbers = _count(1), _many(number)
_fraction = ranged(number, lambda v: 0.0 < v < 1.0, "strictly inside (0, 1)")
_above_zero = ranged(number, lambda v: v > 0.0, "positive")
_tau = ranged(given, build_tau, "a tau document")  # build_tau refuses a bad one by name
_rungs = optional(ranged(  # a ladder or a gamma grid
    _numbers, lambda v: v and v[0] > 0.0 and all(a < b for a, b in zip(v, v[1:])),
    "a nonempty list of positive, strictly increasing numbers"))


def _pairs(value) -> list:
    if not isinstance(value, list) or not all(isinstance(p, list) and len(p) == 2 for p in value):
        raise TypeError(f"must be a list of [i, j] coordinate pairs, got {value!r}")
    pairs = [tuple(map(_count(0), p)) for p in value]
    if any(i == j for i, j in pairs):
        raise ValueError(f"each pair needs two distinct coordinates, got {value!r}")
    return pairs


def _pipeline(value) -> list:
    if not isinstance(value, list):
        raise TypeError(f"must be a list, got {value!r}")
    return [_pipeline_entry(entry) for entry in value]


def _pipeline_entry(entry) -> tuple[str, dict, dict]:
    """(stage, params as given, params as read through STAGE_PARAMS)"""
    doc = {"stage": entry} if isinstance(entry, str) else entry
    doc = read_keys(doc, {"stage": (choice(*STAGE_ORDER), REQUIRED), "params": (given, {})},
                    "pipeline entry")
    name = doc["stage"]
    params = read_keys(doc["params"], STAGE_PARAMS[name], f"stage {name!r} params")
    return name, dict(doc["params"]), params


# the config's top level; --seed and --out stand in for their keys
CONFIG_KEYS = {"model": (given, REQUIRED), "seed": (_count(0), None), "out": (Path, None),
               "pipeline": (optional(_pipeline), None)}

# Every stage param: name -> (cast, default).  The simulate, blocks and
# spectral params are keyword arguments of stationary_pool, detect_blocks
# and spectral_measure, and are passed through as read.
# Each value is checked to the range its stage accepts (x0 and the pairs
# against d in _load_plan), so a bad value exits 2 before any stage writes.
STAGE_PARAMS = {
    "solve-alpha": {"method": (choice(*METHODS), "auto"), "tol": (optional(_above_zero), None),
                    "n": (_positive, 1_000_000), "abscissa_n": (_positive, 200_000)},
    "simulate": {"chains": (_positive, 1000), "n_per_chain": (_positive, 1000),
                 "burn_in": (optional(_count(0)), None), "thin": (_positive, 10),
                 "x0": (optional(_numbers), None)},
    "blocks": {"n": (_count(2), 100_000), "tol_rel": (number, 1e-9),
               "xi_probes": (_many(_fraction), DEFAULT_XI_PROBES),
               "cross_n": (_positive, 200_000), "cross_method": (choice(*METHODS), "auto"),
               "cross_tol": (number, 5e-3)},
    "tails": {"min_top": (_count(0), DEFAULT_MIN_TOP), "hill_k": (optional(_count(5)), None),
              "ladder": (_rungs, None)},
    "spectral": {"ladder": (_rungs, None), "bins": (_count(2), 16),
                 "eps": (_fraction, 0.05), "min_top": (_count(0), SPECTRAL_MIN_TOP)},
    "independence": {"pairs": (optional(_pairs), None),
                     "tau": (_tau, {"kind": "log", "beta": 1.0}), "xi": (_fraction, 0.5),
                     "n": (_positive, 1_000_000), "submult_n": (_positive, 50_000),
                     "r1": (_above_zero, 1.0), "r2": (_above_zero, 1.0),
                     "ladder": (_rungs, None), "min_top": (_count(0), DEFAULT_MIN_TOP),
                     "gammas": (_rungs, None)},
    "report": {},
}


def _jsonable(obj):
    """Coerce numpy scalars and non-finite floats into portable JSON."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if math.isfinite(f) else str(f)  # "nan", "inf" or "-inf"
    return obj


def _dump_json(path: Path, doc) -> None:
    with atomic_write(path) as fh:
        json.dump(_jsonable(doc), fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def _report_name(stage: str) -> str:
    return "report.json" if stage == "report" else f"{stage}.report.json"


def _refusal(name: str, problem: str) -> ConfigurationError:
    """Exit-2 error naming an upstream artifact and the stage that rewrites it."""
    stage = "simulate" if name.startswith("pool.") else name.removesuffix(".report.json")
    return ConfigurationError(
        f"{name} {problem}; rerun {stage!r} or point --out at another directory"
    )


def _csv_cell(v) -> str:
    # no cell is a bool, no name needs quoting, and %.17g prints a count (< 2**53) as an integer
    if isinstance(v, str):
        return v
    return "%.17g" % float(v)


def _write_csv(path: Path, header, rows) -> None:
    with atomic_write(path, newline="") as fh:
        for row in [header, *rows]:
            fh.write(",".join(_csv_cell(v) for v in row) + "\r\n")


class _DirLock:
    """Exclusive flock on out/.lock, so two runs never share an output
    directory.  The kernel drops the lock when its process ends, however it
    ends; the PID written into the file is for information only."""

    def __init__(self, out: Path):
        self.path = out / ".lock"
        self.fd = None

    def __enter__(self):
        while self.fd is None:
            fd = os.open(self.path, os.O_CREAT | os.O_WRONLY, 0o644)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                # a holder unlinks its file before it lets go: retry on a fresh one
                with contextlib.suppress(FileNotFoundError):
                    if os.path.samestat(os.fstat(fd), os.stat(self.path)):
                        self.fd = fd
            except BlockingIOError:
                raise RuntimeError(
                    f"output directory is locked by another run ({self.path} is held)"
                ) from None
            finally:
                if self.fd is None:
                    os.close(fd)
        os.truncate(self.fd, 0)
        os.write(self.fd, f"{os.getpid()}\n".encode())
        return self

    def __exit__(self, *exc):
        # unlink while still holding the lock, so no run can take the old file
        with contextlib.suppress(FileNotFoundError):
            os.unlink(self.path)
        os.close(self.fd)


def _load_plan(args) -> _Runner:
    """The runner of the config, read through its declared keys.  Every
    pipeline entry is read whichever subcommand runs, so the subcommands
    refuse the same configs as run does."""
    cfg_path = Path(args.config)
    try:
        raw = cfg_path.read_bytes()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {cfg_path}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigurationError("config must be a JSON object")
    flags = {key: getattr(args, key) for key in ("seed", "out") if getattr(args, key) is not None}
    top = read_keys({**doc, **flags}, CONFIG_KEYS, "config")
    model = ModelSpec.from_json(top["model"])
    if top["seed"] is None:
        raise ConfigurationError("a seed is required (config 'seed' or --seed)")
    if top["out"] is None:
        raise ConfigurationError("an output directory is required (config 'out' or --out)")

    pipeline = top["pipeline"] or []
    if args.command == "run" and not pipeline:
        raise ConfigurationError("run needs a non-empty 'pipeline' list in the config")
    names = [name for name, _, _ in pipeline]
    for k, name in enumerate(names):
        if name in names[:k]:
            raise ConfigurationError(f"stage {name!r} appears twice in the pipeline")
        # stages listed out of dependency order are a config error even
        # when artifacts could fill the gap
        for dep in STAGE_DEPS[name]:
            if dep in names[k + 1:]:
                raise ConfigurationError(
                    f"stage {name!r} must run after {dep!r}; fix the pipeline order"
                )
    if "independence" in names and model.d < 2:
        raise ConfigurationError("independence analysis needs at least two coordinates")
    for pair in (pair for _, _, params in pipeline for pair in params.get("pairs") or ()):
        if max(pair) >= model.d:
            raise ConfigurationError(f"stage 'independence' params key 'pairs': coordinate "
                                     f"{max(pair)} is out of range for d={model.d}")
    for x0 in (params["x0"] for name, _, params in pipeline if name == "simulate"):
        if x0 is not None and len(x0) != model.d:
            raise ConfigurationError(f"stage 'simulate' params key 'x0': must have {model.d} "
                                     f"entries for d={model.d}, got {len(x0)}")
    if args.command != "run":
        mine = [entry for entry in pipeline if entry[0] == args.command]
        pipeline = mine or [_pipeline_entry(args.command)]

    sha = hashlib.sha256(
        json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    return _Runner(model, top["seed"], top["out"], pipeline, sha)


class _Runner:
    def __init__(self, spec: ModelSpec, seed: int, out: Path, pipeline: list, config_sha: str):
        self.spec, self.seed, self.out, self.config_sha = spec, seed, out, config_sha
        self.pipeline = pipeline  # (stage, params as given, params as read) per entry
        self.origin = {"model_fingerprint": spec.fingerprint(), "seed": seed}
        self.current_stage: str | None = None  # execute sets the rest of the run state

    # ---- artifact plumbing -------------------------------------------

    def preflight(self) -> None:
        listed = {name for name, _, _ in self.pipeline}
        for name, _, _ in self.pipeline:
            for dep in STAGE_DEPS[name]:
                files = ["pool.bin", "pool.meta.json"] if dep == "simulate" else [_report_name(dep)]
                if dep not in listed and not all((self.out / f).exists() for f in files):
                    raise ConfigurationError(
                        f"stage {name!r} needs {dep!r} first; add it to the "
                        f"pipeline or point --out at a directory holding its artifacts"
                    )

    def _read(self, name: str, *keys: str) -> dict:
        """Load a stage report or pool.meta.json and note its sha256 among
        the current stage's inputs.

        Refuses an artifact that is missing or corrupt, lacks one of the
        given keys, records another model or seed, or records an input
        whose file on disk no longer has the recorded sha256.
        """
        try:
            raw = (self.out / name).read_bytes()
            doc = json.loads(raw)
        except FileNotFoundError:
            raise _refusal(name, "is missing") from None
        except (OSError, ValueError) as exc:
            raise _refusal(name, f"is corrupt ({exc})") from None
        if not isinstance(doc, dict) or not doc.keys() >= set(keys):
            raise _refusal(name, f"is not a JSON object with the keys {list(keys)}")
        # the pool sidecar keeps its provenance in the pool's own meta block
        if name == "pool.meta.json":
            meta = doc.get("meta", {})
            recorded = {
                "model_fingerprint": meta.get("spec_fingerprint"),
                "seed": meta.get("seed"),
            }
        else:
            recorded = doc
        for key, value in self.origin.items():
            if recorded.get(key) != value:
                raise _refusal(
                    name, f"records {key} {recorded.get(key)!r} but this run has {value!r}"
                )
        for dep, digest in doc.get("inputs", {}).items():
            try:
                current = hashlib.sha256((self.out / dep).read_bytes()).hexdigest()
            except FileNotFoundError:
                current = None
            if current != digest:
                raise _refusal(name, f"was computed from a {dep} other than the one on disk")
        self._inputs[name] = hashlib.sha256(raw).hexdigest()
        return doc

    def _solved(self) -> tuple[np.ndarray, list[float]]:
        """One alpha and one Goldie mean per coordinate, from solve-alpha."""
        name = "solve-alpha.report.json"
        doc = self._read(name, "alphas", "coordinates")
        try:
            alphas = np.asarray(doc["alphas"], dtype=float)
            goldie = [float(c["goldie_mean"]["value"]) for c in doc["coordinates"]]
        except (TypeError, KeyError, ValueError) as exc:
            raise _refusal(name, f"is misshapen ({exc!r})") from None
        if alphas.shape != (self.spec.d,) or len(goldie) != self.spec.d:
            raise _refusal(name, f"does not hold {self.spec.d} alphas and Goldie means")
        return alphas, goldie

    def _get_pool(self) -> SamplePool:
        # pool.bin is a pure function of its sidecar, which is written after
        # it, so the sidecar stands in for the pool among the inputs
        self._read("pool.meta.json")
        try:
            return SamplePool.load(self.out / "pool.bin")
        except (OSError, ValueError) as exc:
            raise _refusal("pool.bin", f"is corrupt ({exc})") from None

    def _get_partition(self, required: bool) -> BlockPartition | None:
        if not required and not (self.out / "blocks.report.json").exists():
            return None
        doc = self._read("blocks.report.json", "classes", "permutation")
        try:
            part = BlockPartition.from_json(doc)
            part.check(self.spec.d)
        except (TypeError, ValueError) as exc:
            raise _refusal("blocks.report.json", f"is misshapen ({exc})") from None
        return part

    def _write_report(self, doc: dict, *artifacts: str) -> dict:
        """Write the current stage's report under its provenance envelope;
        returns the stage's manifest entry, which lists everything it wrote."""
        stage = self.current_stage
        name = _report_name(stage)
        _dump_json(self.out / name, {**doc, "stage": stage, **self.origin, "inputs": self._inputs})
        return {
            "artifacts": sorted([name, *artifacts]),
            "completed_utc": datetime.now(timezone.utc).isoformat(),
            "params": self._params_given,
        }

    # ---- stages -------------------------------------------------------

    def execute(self) -> None:
        self.out.mkdir(parents=True, exist_ok=True)
        with _DirLock(self.out):
            self.preflight()
            # a manifest that is missing, corrupt or misshapen starts afresh
            try:
                stages = json.loads((self.out / "manifest.json").read_text())["stages"]
            except (OSError, ValueError, TypeError, KeyError):
                stages = None
            manifest = {
                "config_sha256": self.config_sha,
                **self.origin,
                "stages": stages if isinstance(stages, dict) else {},
                "versions": {
                    "numpy": np.__version__,
                    "package": __version__,
                    "python": sys.version.split()[0],
                    "scipy": scipy.__version__,
                },
            }
            # a wave's first stages fork, the rest run here; the manifest stops at the first failure
            for _, wave in itertools.groupby(self.pipeline, lambda entry: WAVES[entry[0]]):
                wave, steps = list(wave), []
                with Workers() as workers:
                    forks = min(workers.cap, len(wave) - 1)
                    for k, args in enumerate(wave):
                        steps.append(workers.call(self._step, *args, fork=k < forks))
                        if k >= forks and isinstance(steps[-1](), Exception):
                            break
                    # in pipeline order; a raise leaves the block, which kills the later workers
                    for (self.current_stage, _, _), step in zip(wave, steps):
                        manifest["stages"][self.current_stage] = value(step())
                        _dump_json(self.out / "manifest.json", manifest)
            self.current_stage = None

    def _step(self, name: str, given: dict, params: dict) -> dict:
        """Run one stage; returns its manifest entry."""
        self.current_stage, self._params_given, self._inputs = name, given, {}
        return getattr(self, "_stage_" + name.replace("-", "_"))(params)

    def _stage_solve_alpha(self, params: dict) -> dict:
        rng = stage_stream(self.seed, STAGE_IDS["solve-alpha"])
        method, n, scan_n = params["method"], params["n"], params["abscissa_n"]
        spec = self.spec
        # Every draw is made here, from the one stream in its order.  The
        # arithmetic on a Monte Carlo draw goes to a forked worker, which
        # computes while the next block is drawn; this process drops the
        # draw at once, so it holds one at a time.
        with Workers() as workers:

            def on(fn, j, draw, *args):  # fn on the draw, forked off if there is one
                return workers.call(fn, spec, j, draw, *args, fork=draw is not None)

            def read(j):  # j's forked outcomes in call order, then the checks on its scan
                c = coords[j]
                for key in ("goldie_mean", "abscissa"):
                    c[key] = value(c[key]()).to_dict()
                alpha, s_inf = c["alpha"], c["abscissa"]["s_inf"]  # j's one abscissa
                c["positivity"] = positivity_check(spec, j, alpha, s_inf, scan_n, rng).to_dict()
                c["margin_ok"] = alpha + spec.sigma_margin < s_inf

            coords = []
            for j in range(spec.d):
                drift = log_moment(spec, j, n=min(n, 200_000), rng=rng, method=method)
                root = on(solve_alpha_on, j, route(spec, j, "solve_alpha", method, n, rng),
                          params["tol"])
                draw = route(spec, j, "goldie_mean", method, n, rng)  # while the root is solved
                if j:  # the last coordinate's outcomes come before this root
                    read(j - 1)
                solver = value(root())
                gm = on(goldie_mean_on, j, draw, solver.alpha)
                del draw
                scan = on(moment_abscissa_on, j, moment_abscissa_draw(spec, j, scan_n, rng, method))
                coords.append({"abscissa": scan, "alpha": solver.alpha, "goldie_mean": gm,
                               "alpha_solver": solver.to_dict(), "log_moment": drift.to_dict()})
            read(spec.d - 1)
        doc = {"alphas": [c["alpha"] for c in coords], "coordinates": coords,
               "sigma_margin": spec.sigma_margin}
        return self._write_report(doc)

    def _stage_simulate(self, params: dict) -> dict:
        pool = stationary_pool(self.spec, seed=self.seed, **params)
        pool.save(self.out / "pool.bin")
        doc = {
            "burn_in": pool.meta["burn_in"],
            "chains": pool.meta["chains"],
            "column_mean_x_post": pool.x_post.mean(axis=0).tolist(),
            "d": pool.d,
            "n_per_chain": pool.meta["n_per_chain"],
            "n_records": len(pool),
            "thin": pool.meta["thin"],
        }
        return self._write_report(doc, "pool.bin", "pool.meta.json")

    def _stage_blocks(self, params: dict) -> dict:
        rng = stage_stream(self.seed, STAGE_IDS["blocks"])
        alphas, _ = self._solved()
        part = detect_blocks(self.spec, alphas, rng=rng, **params)
        return self._write_report(part.to_dict())

    def _stage_tails(self, params: dict) -> dict:
        pool = self._get_pool()
        alphas, goldie = self._solved()
        part = self._get_partition(required=False)
        min_top, hill_k = params["min_top"], params["hill_k"]
        csv_rows = []
        coord_docs = []
        ladders = []
        # |x_j|^alpha_j once per coordinate: the ladder statistic, the y half
        # of the Goldie summands and the block norms all read it
        powers = [magnitude_power(pool.x_post[:, j], a) for j, a in enumerate(alphas)]
        for j, a in enumerate(alphas):  # an inf power would read as a pool too small
            if powers[j].max() == math.inf:
                raise LadderError(f"coordinate {j}: |x|^alpha overflows a float at alpha {a}")
        for j in range(pool.d):
            mag = np.abs(pool.x_post[:, j])
            pos = mag[mag > 0.0]
            k = hill_k if hill_k is not None else max(10, int(pos.size**0.6))
            k = min(k, pos.size - 1)
            hill = hill_estimate(pos, k)
            del mag, pos  # two dead columns otherwise held across the block norms
            ladder = empirical_tail_constant(
                pool, j, alphas[j], params["ladder"], min_top, power=powers[j]
            )
            gold = goldie_constant(pool, j, alphas[j], goldie[j], power=powers[j])
            checks = [
                moment_estimate(pool, j, s).to_dict()
                for s in (0.5 * alphas[j], 2.0 * alphas[j])
            ]
            ladders.append(ladder)
            coord_docs.append(
                {
                    "coordinate": j,
                    "goldie_constant": gold.to_dict(),
                    "hill": hill.to_dict(),
                    "ladder": ladder.to_dict(),
                    "moment_checks": checks,
                }
            )
            for r, t in enumerate(ladder.thresholds):
                for label in ("plus", "minus", "total"):
                    e = getattr(ladder, label)[r]
                    csv_rows.append((f"coord{j}_{label}", t, e.value, e.ci_lo, e.ci_hi))
        doc = {"coordinates": coord_docs}
        # without a partition, one of no classes: the whole-vector c_inf alone
        block_ladder = block_tail_constant(pool, part or BlockPartition((), (), {}), alphas,
                                           min_top=min_top, powers=powers)
        if part is not None:
            doc["blocks"] = block_ladder.to_dict()
            for r, t in enumerate(block_ladder.thresholds):
                for l, series in enumerate(block_ladder.block):
                    e = series[r]
                    csv_rows.append((f"block{l}", t, e.value, e.ci_lo, e.ci_hi))
                e = block_ladder.c_inf[r]
                csv_rows.append(("c_inf", t, e.value, e.ci_lo, e.ci_hi))
        doc["tail_constants"] = {
            "c_plus": [lad.plus[-1].to_dict() for lad in ladders],
            "c_minus": [lad.minus[-1].to_dict() for lad in ladders],
            "c_block": [series[-1].to_dict() for series in block_ladder.block],
            "c_inf": block_ladder.c_inf[-1].to_dict()}
        _write_csv(
            self.out / "tails.ladders.csv",
            ["series", "threshold", "value", "ci_lo", "ci_hi"],
            csv_rows,
        )
        return self._write_report(doc, "tails.ladders.csv")

    def _stage_spectral(self, params: dict) -> dict:
        pool = self._get_pool()
        alphas, _ = self._solved()
        part = self._get_partition(required=True)
        est = spectral_measure(pool, part, alphas, **params)
        rows = []
        for r, t in enumerate(est.thresholds):
            for j, hist in enumerate(est.marginals[r]):
                for b, mass in enumerate(hist):
                    rows.append((t, j, est.bin_edges[b], est.bin_edges[b + 1], mass))
        _write_csv(
            self.out / "spectral.angular.csv",
            ["threshold", "coordinate", "bin_lo", "bin_hi", "mass"],
            rows,
        )
        return self._write_report(est.to_dict(), "spectral.angular.csv")

    def _stage_independence(self, params: dict) -> dict:
        rng = stage_stream(self.seed, STAGE_IDS["independence"])
        part = self._get_partition(required=False)
        pairs = params["pairs"]
        # a pair inside one class has cross moment E|A|^alpha = 1 for every xi
        if part is not None and any(part.class_of(i) == part.class_of(j) for i, j in pairs or ()):
            raise ConfigurationError(f"stage 'independence' params key 'pairs': a pair lies in "
                                     f"one block class, {list(map(list, pairs))}; pair two classes")
        if pairs is None:  # the first two classes; none when the partition has one
            heads = [0, 1] if part is None else [c[0] for c in part.classes]
            pairs = [tuple(heads[:2])] if len(heads) >= 2 else []
        if pairs:  # with no pair left, the pool and the alphas are not read
            pool = self._get_pool()
            alphas, _ = self._solved()
        tau = build_tau(params["tau"])
        xi = params["xi"]
        check = submultiplicativity_check(tau, rng, n=params["submult_n"])
        pair_docs = []
        artifacts = []
        for i, j in pairs:
            joint = joint_exceedance(pool, i, j, alphas, r1=params["r1"], r2=params["r2"],
                                     ladder=params["ladder"], min_top=params["min_top"])
            try:
                fit = decay_rate_fit(joint.thresholds, joint.normalized).to_dict()
            except ValueError:
                fit = None
            bound = tau_gamma_bound(self.spec, i, j, alphas[i], alphas[j], tau, rng=rng, xi=xi,
                                    gammas=params["gammas"], n=params["n"])
            pair_docs.append(
                {
                    "decay_fit": fit,
                    "gamma_bound": bound.to_dict(),
                    "i": i,
                    "j": j,
                    "joint": joint.to_dict(),
                }
            )
            name = f"independence.pair_{i}_{j}.csv"
            _write_csv(
                self.out / name,
                ["threshold", "count", "prob", "normalized", "ci_lo", "ci_hi"],
                [
                    (t, joint.counts[r], joint.prob[r], e.value, e.ci_lo, e.ci_hi)
                    for r, (t, e) in enumerate(zip(joint.thresholds, joint.normalized))
                ],
            )
            artifacts.append(name)
        doc = {"pairs": pair_docs, "submultiplicativity": check.to_dict(), "tau": params["tau"],
               "xi": xi}
        return self._write_report(doc, *artifacts)

    def _stage_report(self, params: dict) -> dict:
        stages = {
            name: self._read(_report_name(name))
            for name in STAGE_ORDER[:-1]
            if (self.out / _report_name(name)).exists()
        }
        return self._write_report({"stages": stages})


def _emit_error(kind: str, stage: str | None, exc: BaseException) -> None:
    doc = {"error": kind, "detail": str(exc)}
    if stage is not None:
        doc["stage"] = stage
    json.dump(doc, sys.stderr, sort_keys=True)
    sys.stderr.write("\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heavytail-sre",
        description="Simulation and tail analysis pipeline for diagonal "
        "stochastic recurrence equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run",) + STAGE_ORDER:
        p = sub.add_parser(
            name,
            help="run the configured pipeline" if name == "run" else f"run the {name} stage",
        )
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output directory")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    runner = None
    try:
        runner = _load_plan(args)
        runner.execute()
    except ConfigurationError as exc:
        _emit_error("validation", runner and runner.current_stage, exc)
        return 2
    except Exception as exc:  # a runtime failure: name its type and the stage
        _emit_error(type(exc).__name__, runner and runner.current_stage, exc)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
