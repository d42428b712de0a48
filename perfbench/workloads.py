"""Workload definitions for the heavytail-sre pipeline benchmark.

A workload is a CLI config (without seed and output directory) plus the
list of subcommands the closed loop issues against it, one ``cli.main``
call each.  The benchmark fills in the seed and a fresh output directory
per iteration; the program receives only the generated config file.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

STAGES = ("solve-alpha", "simulate", "blocks", "tails", "spectral", "independence", "report")

TWO_POINT = {
    "family": "TwoPoint",
    "d": 2,
    "params": {
        "p": 0.2,
        "up": 2.0,
        "down": 0.5,
        "b": {"dist": "exponential", "rate": 1.0},
    },
}

BEKK = {
    "family": "BekkDiag",
    "d": 3,
    "params": {
        "coeff": [[0.8, 0.5, 0.0], [0.6, -0.8, 0.0], [0.0, 0.0, 1.05]],
        "b": {"dist": "exponential", "rate": 1.0},
    },
}


def _readme_pipeline(chains: int, n_per_chain: int) -> list:
    return [
        "solve-alpha",
        {"stage": "simulate", "params": {"chains": chains, "n_per_chain": n_per_chain}},
        "blocks",
        "tails",
        "spectral",
        {"stage": "independence", "params": {"n": 200000}},
        "report",
    ]


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    model: dict
    pipeline: list
    commands: tuple[str, ...]
    default_seed: int
    # seed-free expectations checked at every seed
    classes: list
    alphas: list
    alpha_rtol: float

    @property
    def d(self) -> int:
        return int(self.model["d"])

    @property
    def n_records(self) -> int:
        for entry in self.pipeline:
            if isinstance(entry, dict) and entry["stage"] == "simulate":
                p = entry["params"]
                return int(p["chains"]) * int(p["n_per_chain"])
        raise ValueError(f"workload {self.name} has no simulate stage")

    @property
    def pool_bytes(self) -> int:
        """pool.bin size computed from the column layout: chain and step
        int64 columns plus four float64 groups of d columns each."""
        return self.n_records * 8 * (2 + 4 * self.d)

    def write_config(self, path: Path, seed: int, out: Path) -> None:
        doc = {"model": self.model, "seed": int(seed), "out": str(out), "pipeline": self.pipeline}
        path.write_text(json.dumps(doc, indent=2) + "\n")

    def calls(self, config_path: Path) -> list[list[str]]:
        return [[cmd, "--config", str(config_path)] for cmd in self.commands]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="readme-run",
            model=TWO_POINT,
            pipeline=_readme_pipeline(1000, 1000),
            commands=("run",),
            default_seed=11,
            classes=[[0], [1]],
            alphas=[2.0, 2.0],
            alpha_rtol=1e-8,
        ),
        Workload(
            name="staged-1m",
            model=TWO_POINT,
            pipeline=_readme_pipeline(2000, 500),
            commands=STAGES,
            default_seed=202,
            classes=[[0], [1]],
            alphas=[2.0, 2.0],
            alpha_rtol=1e-8,
        ),
        Workload(
            name="bekk-mc",
            model=BEKK,
            pipeline=[
                {
                    "stage": "solve-alpha",
                    "params": {"method": "monte-carlo", "n": 2000000, "abscissa_n": 500000},
                },
                {"stage": "simulate", "params": {"chains": 500, "n_per_chain": 500}},
                {"stage": "blocks", "params": {"cross_n": 1000000}},
                "tails",
                "spectral",
                {"stage": "independence", "params": {"n": 1000000}},
                "report",
            ],
            commands=("run",),
            default_seed=11,
            classes=[[0], [1], [2]],
            # Monte-Carlo roots of sigma_j^s E|Z|^s = 1; coordinate 0 has
            # sigma = 1 and so root exactly 2
            alphas=[2.0, 2.34, 1.75],
            alpha_rtol=0.02,
        ),
    )
}
