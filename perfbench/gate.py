"""Output gate: every benchmark iteration checks what the pipeline wrote.

At a workload's default seed, the sha256 of ``pool.bin`` and a named set
of report values must equal the values pinned in ``pinned.json`` exactly.
Whole-report digests are deliberately not pinned, so that adding a report
key is not a failure.  At any other seed the gate checks invariants that
hold whatever the seed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from workloads import STAGES, Workload

PINNED_PATH = Path(__file__).resolve().parent / "pinned.json"


def named_values(report: dict) -> dict:
    """The report values the gate pins: alphas, block classes, top-rung
    c_plus per coordinate, top-rung c_inf, top-rung angular mass, gamma_0."""
    st = report["stages"]
    constants = st["tails"]["tail_constants"]
    return {
        "alphas": st["solve-alpha"]["alphas"],
        "classes": st["blocks"]["classes"],
        "c_plus": [e["value"] for e in constants["c_plus"]],
        "c_inf": constants["c_inf"]["value"],
        "angular_mass": st["spectral"]["block_mass"][-1],
        "gamma0": [p["gamma_bound"]["gamma0"] for p in st["independence"]["pairs"]],
    }


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 22), b""):
            h.update(chunk)
    return h.hexdigest()


def _bad_intervals(node, path: str):
    if isinstance(node, dict):
        if {"value", "ci_lo", "ci_hi"} <= node.keys():
            trio = (node["ci_lo"], node["value"], node["ci_hi"])
            finite = all(
                isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
                for v in trio
            )
            if not (finite and trio[0] <= trio[1] <= trio[2]):
                yield f"{path or '.'}: interval {list(trio)}"
        for key, child in node.items():
            yield from _bad_intervals(child, f"{path}.{key}")
    elif isinstance(node, list):
        for k, child in enumerate(node):
            yield from _bad_intervals(child, f"{path}[{k}]")


def invariant_problems(workload: Workload, report: dict, out: Path) -> list[str]:
    """Violations of what must hold at every seed: the model's alphas and
    block classes, the configured record count and pool size, finite
    ordered intervals, and angular masses summing to 1 at every rung."""
    problems = []
    st = report["stages"]
    missing = [s for s in STAGES if s != "report" and s not in st]
    if missing:
        return [f"report lacks stages {missing}"]
    alphas = st["solve-alpha"]["alphas"]
    if len(alphas) != workload.d or any(
        not abs(a - ref) <= workload.alpha_rtol * ref for a, ref in zip(alphas, workload.alphas)
    ):
        problems.append(f"alphas {alphas} not within {workload.alpha_rtol} of {workload.alphas}")
    if st["blocks"]["classes"] != workload.classes:
        problems.append(f"block classes {st['blocks']['classes']} != {workload.classes}")
    if st["simulate"]["n_records"] != workload.n_records:
        problems.append(f"n_records {st['simulate']['n_records']} != {workload.n_records}")
    size = (out / "pool.bin").stat().st_size
    if size != workload.pool_bytes:
        problems.append(f"pool.bin has {size} bytes, layout gives {workload.pool_bytes}")
    spectral = st["spectral"]
    for r, (masses, off) in enumerate(zip(spectral["block_mass"], spectral["off_block_mass"])):
        if abs(sum(masses) + off - 1.0) > 1e-9:
            problems.append(f"angular masses at rung {r} sum to {sum(masses) + off}")
    problems.extend(_bad_intervals(report, ""))
    return problems


def check_outputs(workload: Workload, seed: int, out: Path) -> list[str]:
    """Problems found in the output directory; an empty list passes."""
    try:
        report = json.loads((out / "report.json").read_text())
        problems = invariant_problems(workload, report, out)
        if seed == workload.default_seed:
            pinned = json.loads(PINNED_PATH.read_text())[workload.name]
            digest = sha256_file(out / "pool.bin")
            if digest != pinned["pool_sha256"]:
                problems.append(f"pool.bin sha256 {digest} != pinned {pinned['pool_sha256']}")
            for key, got in named_values(report).items():
                if got != pinned["values"][key]:
                    problems.append(f"{key} {got} != pinned {pinned['values'][key]}")
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
    return problems
