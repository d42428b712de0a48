"""Timing spans around heavytail_sre's public functions, from outside.

``Tracer.install`` replaces each traced function at every package module
that bound the name (``heavytail_sre.cli.stationary_pool``,
``heavytail_sre.tails.alpha_norm``, ...) and patches three methods on their
classes.  Each call records a span: name, start, end, parent span, whether
an exception escaped, and the work counts of that call.  Spans stay in
memory until ``dump``.  ``layer_metrics`` turns a span list into the
per-layer metrics; it needs only the stdlib, so the harness can run it.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

PACKAGE = "heavytail_sre"
LAYERS = ("model", "moments", "simulate", "geometry", "blocks", "tails", "independence",
          "cli", "common")

# module-level functions: (module, attribute)
FUNCTIONS = (
    ("common", "chain_stream"),
    ("model", "log_moment"),
    ("simulate", "stationary_pool"),
    ("geometry", "alpha_norm"),
    ("moments", "solve_alpha"),
    ("moments", "goldie_mean"),
    ("moments", "moment_abscissa"),
    ("moments", "positivity_check"),
    ("moments", "cross_kappa"),
    ("blocks", "detect_blocks"),
    ("tails", "hill_estimate"),
    ("tails", "empirical_tail_constant"),
    ("tails", "goldie_constant"),
    ("tails", "moment_estimate"),
    ("tails", "quantile_ladder"),
    ("tails", "block_tail_constant"),
    ("tails", "spectral_measure"),
    ("independence", "joint_exceedance"),
    ("independence", "tau_gamma_bound"),
    ("independence", "submultiplicativity_check"),
    ("independence", "decay_rate_fit"),
    ("cli", "main"),
)
# methods: (module, class, attribute); spans are named <module>.<attribute>
METHODS = (
    ("model", "ModelSpec", "sample_coeffs"),
    ("simulate", "SamplePool", "save"),
    ("simulate", "SamplePool", "load"),
)


def _rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def _count_sample_coeffs(args, kwargs, result, before):
    return {"rows": int(_arg(args, kwargs, 2, "n"))}


def _count_alpha_norm(args, kwargs, result, before):
    shape = getattr(_arg(args, kwargs, 0, "x"), "shape", ())
    return {"rows": int(shape[0]) if len(shape) == 2 else 1}


def _count_pool(args, kwargs, result, before):
    m = result.meta
    steps = m["chains"] * (m["burn_in"] + m["n_per_chain"] * m["thin"]) * m["d"]
    return {"steps": int(steps), "records": len(result)}


def _count_save(args, kwargs, result, before):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "bin_path"))}


def _count_load(args, kwargs, result, before):
    return {
        "bytes": os.path.getsize(_arg(args, kwargs, 1, "bin_path")),  # args[0] is the class
        "rss_growth": _rss_bytes() - before,
    }


def _count_method(args, kwargs, result, before):
    return {"monte_carlo": int(getattr(result, "method", None) == "monte-carlo")}


def _count_main(args, kwargs, result, before):
    return {"rc": int(result)}


# per-span counters: span name -> (before-call probe or None, after-call counter)
COUNTERS = {
    "model.sample_coeffs": (None, _count_sample_coeffs),
    "geometry.alpha_norm": (None, _count_alpha_norm),
    "simulate.stationary_pool": (None, _count_pool),
    "simulate.save": (None, _count_save),
    "simulate.load": (_rss_bytes, _count_load),
    "cli.main": (None, _count_main),
    **{
        f"moments.{fn}": (None, _count_method)
        for fn in ("solve_alpha", "goldie_mean", "moment_abscissa", "cross_kappa")
    },
}


class Tracer:
    """Span recorder for one process; spans are [name, start, end, parent,
    failed, counts] lists appended in call order."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        before_fn, count_fn = COUNTERS.get(name, (None, None))
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = before_fn() if before_fn is not None else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, False, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count_fn is not None:
                span[5] = count_fn(args, kwargs, result, before)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod_name, attr in FUNCTIONS:
            orig = getattr(importlib.import_module(f"{PACKAGE}.{mod_name}"), attr)
            traced = self._wrap(f"{mod_name}.{attr}", orig)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, key, traced)
        for mod_name, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(f"{PACKAGE}.{mod_name}"), cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self._wrap(f"{mod_name}.{attr}", raw.__func__)))
            else:
                setattr(cls, attr, self._wrap(f"{mod_name}.{attr}", raw))

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "failed", "counts")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


# ---------------------------------------------------------------------------
# Per-layer metrics from a span list

SELF_TIMED = (
    "common.chain_stream", "model.sample_coeffs", "model.log_moment",
    "simulate.stationary_pool", "geometry.alpha_norm",
    "moments.solve_alpha", "moments.goldie_mean", "moments.moment_abscissa",
    "moments.positivity_check", "moments.cross_kappa", "blocks.detect_blocks",
    "tails.hill_estimate", "tails.empirical_tail_constant", "tails.goldie_constant",
    "tails.moment_estimate", "tails.quantile_ladder", "tails.block_tail_constant",
    "tails.spectral_measure", "independence.joint_exceedance",
    "independence.tau_gamma_bound", "independence.submultiplicativity_check",
    "independence.decay_rate_fit",
)
CALL_COUNTED = ("common.chain_stream", "model.sample_coeffs", "geometry.alpha_norm",
                "simulate.load", "cli.main")

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    [(f"{s}.calls", "count", "lower") for s in CALL_COUNTED]
    + [(f"{s}.self_s", "s", "lower") for s in SELF_TIMED]
    + [
        ("model.sample_coeffs.rows", "rows", "lower"),
        ("simulate.stationary_pool.steps", "count", "lower"),
        ("simulate.records_per_s", "records/s", "higher"),
        ("simulate.save.s", "s", "lower"),
        ("simulate.save.bytes", "B", "lower"),
        ("simulate.load.s", "s", "lower"),
        ("simulate.load.bytes", "B", "lower"),
        ("simulate.load.rss_growth_mb", "MB", "lower"),
        ("geometry.alpha_norm.rows", "rows", "lower"),
        ("moments.monte_carlo_calls", "count", "lower"),
        ("cli.self_s", "s", "lower"),
        ("cli.cpu_s", "s", "lower"),
        ("cli.artifact_bytes", "B", "lower"),
    ]
    + [(f"{layer}.failed", "count", "lower") for layer in LAYERS]
    + [
        ("trace.overhead_s", "s", "lower"),
        ("trace.unaccounted_s", "s", "lower"),
    ]
)
# counts that must repeat exactly between traced runs at one seed
EXACT_COUNTS = tuple(f"{s}.calls" for s in CALL_COUNTED) + (
    "simulate.stationary_pool.steps", "model.sample_coeffs.rows",
    "geometry.alpha_norm.rows", "simulate.load.bytes",
)


def span_stats(spans: list[dict]) -> dict:
    """Per span name: calls, total_s, self_s, failed, and summed counts.
    A span's self time is its duration minus its children's durations."""
    child_s = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_s[s["parent"]] += s["end"] - s["start"]
    stats: dict[str, dict] = {}
    for k, s in enumerate(spans):
        st = stats.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                          "failed": 0, "counts": {}, "max": {}})
        dur = s["end"] - s["start"]
        st["calls"] += 1
        st["total_s"] += dur
        st["self_s"] += dur - child_s[k]
        counts = s["counts"] or {}
        st["failed"] += int(s["failed"] or counts.get("rc", 0) != 0)
        for key, v in counts.items():
            st["counts"][key] = st["counts"].get(key, 0) + v
            st["max"][key] = max(st["max"].get(key, v), v)
    return stats


def layer_metrics(spans: list[dict], traced_s: float, untraced_s: float,
                  cpu_s: float, artifact_bytes: int) -> dict:
    stats = span_stats(spans)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "failed": 0, "counts": {}, "max": {}}

    def get(name):
        return stats.get(name, empty)

    values = {f"{s}.calls": get(s)["calls"] for s in CALL_COUNTED}
    values.update({f"{s}.self_s": get(s)["self_s"] for s in SELF_TIMED})
    pool = get("simulate.stationary_pool")
    save, load = get("simulate.save"), get("simulate.load")
    values.update({
        "model.sample_coeffs.rows": get("model.sample_coeffs")["counts"].get("rows", 0),
        "simulate.stationary_pool.steps": pool["counts"].get("steps", 0),
        "simulate.records_per_s": (pool["counts"].get("records", 0) / pool["total_s"]
                                   if pool["total_s"] > 0 else 0.0),
        "simulate.save.s": save["total_s"],
        "simulate.save.bytes": save["counts"].get("bytes", 0),
        "simulate.load.s": load["total_s"],
        "simulate.load.bytes": load["counts"].get("bytes", 0),
        "simulate.load.rss_growth_mb": load["max"].get("rss_growth", 0) / 2**20,
        "geometry.alpha_norm.rows": get("geometry.alpha_norm")["counts"].get("rows", 0),
        "moments.monte_carlo_calls": sum(st["counts"].get("monte_carlo", 0)
                                         for name, st in stats.items()
                                         if name.startswith("moments.")),
        "cli.self_s": get("cli.main")["self_s"],
        "cli.cpu_s": cpu_s,
        "cli.artifact_bytes": artifact_bytes,
    })
    for layer in LAYERS:
        values[f"{layer}.failed"] = sum(st["failed"] for name, st in stats.items()
                                        if name.split(".")[0] == layer)
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.unaccounted_s"] = traced_s - sum(st["self_s"] for st in stats.values())
    return values
