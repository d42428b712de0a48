"""Behaviour lock: sha256 digests of every artifact of four small CLI runs,
and of five pools built directly by ``stationary_pool``.

manifest.json is skipped because it is the one artifact that carries
wall-clock state.  The recorded digests pin the numbers the pipeline
produces on this numpy/scipy build; a digest change is a behaviour change
to be explained, never a table to refresh until the test passes.  The same
runs are kept as text under tests/golden/ (see golden_diff.py), so a failed
digest lists each JSON path and CSV cell that moved.
"""

import hashlib
import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

import golden_diff
from golden_diff import GOLDEN, LEFT_OUT, moved
from test_simulate import use_cpus
from heavytail_sre import ModelSpec, stationary_pool
from heavytail_sre.cli import main

TWO_POINT = {
    "family": "TwoPoint",
    "d": 2,
    "params": {"p": 0.2, "up": 2.0, "down": 0.5, "b": {"dist": "exponential", "rate": 1.0}},
}
# shared factor for coordinates 0 and 1: the quadrature and blocks route
CCC_SHARED = {
    "family": "CCCGarch",
    "d": 3,
    "params": {
        "arch": [0.35, 0.35, 0.15],
        "garch": [0.25, 0.25, 0.55],
        "z_map": [0, 0, 1],
        "b": {"dist": "exponential", "rate": 1.0},
    },
}
# 0 < |rho_01| < 1, so the 0-1 cross moment takes the Monte Carlo route
BEKK = {
    "family": "BekkDiag",
    "d": 3,
    "params": {
        "coeff": [[0.8, 0.5, 0.0], [0.6, -0.8, 0.0], [0.0, 0.0, 1.05]],
        "b": {"dist": "exponential", "rate": 1.0},
    },
}
SIMULATE = {"stage": "simulate", "params": {"chains": 200, "n_per_chain": 250}}
INDEPENDENCE = {"stage": "independence", "params": {"n": 20_000, "submult_n": 5_000}}
ALL_STAGES = ["solve-alpha", SIMULATE, "blocks", "tails", "spectral", INDEPENDENCE, "report"]

CONFIGS = {
    "two-point-all-stages": (TWO_POINT, ALL_STAGES),
    "ccc-shared-factor": (CCC_SHARED, ALL_STAGES),
    "bekk-monte-carlo": (
        BEKK,
        [
            {
                "stage": "solve-alpha",
                "params": {"method": "monte-carlo", "n": 100_000, "abscissa_n": 50_000},
            },
        ]
        + ALL_STAGES[1:],
    ),
    # no blocks stage: tails takes c_inf from the whole vector
    "two-point-no-blocks": (TWO_POINT, ["solve-alpha", SIMULATE, "tails", "report"]),
}

DIGESTS = {
    "bekk-monte-carlo": {
        "blocks.report.json": "a40729ebf2545145559cd051cd82cc6ce449c7d1ac0b82b448a30948a2a9b166",
        "independence.pair_0_1.csv": "57eebb389630f69d1066b165aef8a447c1321bf36fadba6f7ece0db0a1117fc6",
        "independence.report.json": "47ed7754bd11ddfc60ec9463e28652417c268f659d4ebf295b818a12c13713fb",
        "pool.bin": "d49e90f003fc277c48080bc1ec79ad1b3333638de045ebea401137824ed666c2",
        "pool.meta.json": "d64a0b6b7f7a095ed56877f1c0207a222721e59056527840fd6cdd3b3c6e6231",
        "report.json": "24bc4833374c5d8509bdd1fd9b55507f7a378787d418f7fca20d8df4bbe96ef6",
        "simulate.report.json": "7bac3e33406d53706d6e156b6ed1f0843deae651809bc3bef852f3c6df5a3eb1",
        "solve-alpha.report.json": "b8765df3ea0dd9cf9b0e7b32a806faf55f27a8c1352df7aab85ed5e8821f9b7a",
        "spectral.angular.csv": "c5b30069e3aa714496c75c37961ad5262d3b558e9a6ec5e23000ee077d740612",
        "spectral.report.json": "9affbbbf219938bd999053680fcd9051bd092403201275840abc18654dfb483f",
        "tails.ladders.csv": "db30d43623eca95326fb51fdb5961c45495f644561fb5ac11ff77b3769e21c92",
        "tails.report.json": "c1324223968a5f952d376949c8dd2c5dd830a4190ecba3b18a378210d03e27b2",
    },
    "ccc-shared-factor": {
        "blocks.report.json": "48029e4bd0c4785098f0a9edbd93fbcd903a4bd7b0c6a7cf1895e393ba32f525",
        "independence.pair_0_2.csv": "86af84812d9129875305a037fe40c93081dfefb263ace0bdc50f7472d30749f0",
        "independence.report.json": "bb4a829d793706145c275b1ddce2f656c2c354843c2667e6cd66381f18dc9f58",
        "pool.bin": "a73230de70ef790adade1f3e5108c4171e18eb615e67138946637a7d18513755",
        "pool.meta.json": "9419e14a91a2086b72034af782a798c8afc2609339503ef06f0dab9e7b4c69a5",
        "report.json": "b27d82c81da65f2f4abcf91f79a81b16e4b09c0cc657498fc305e24c1733a225",
        "simulate.report.json": "78ba218990114246c80034bd2a5546cd3f8e7bcdf2e02fc5b352fcd6e36f5cb5",
        "solve-alpha.report.json": "48a4062ad0be03aa88577a00a29c430f573c0e4fe8f034d234feb69ae3c5785f",
        "spectral.angular.csv": "7b981c528b8b8c095f944690ea4d40964526f481384881528ea038a2a184b999",
        "spectral.report.json": "e946b8ec05d83d07d5ceac5d7548588a5c15df2b70f8cf413aa04fd9b4825e4b",
        "tails.ladders.csv": "0f43288645dc9251e6c50ae38ee1d7c984ca8f18c86aebfcf6cf7af8453d65c2",
        "tails.report.json": "9c60d544241b4a7ef46cc2206b6ad1fb18763afa50da3c9fafde23b1ace13814",
    },
    "two-point-all-stages": {
        "blocks.report.json": "4713f8fc0d9ce13c9bf25f402ec3ef97350e1cb6afbd544f0f0b2a6da8ca1c53",
        "independence.pair_0_1.csv": "d763471584b528c74f6d59ba5c5babb0e0089b573690502ef33fdedfa8e893a0",
        "independence.report.json": "f65f210d5cd657f390a9f3f6d76855f69a17bb27e266530b35b14ffb550193c1",
        "pool.bin": "49f0ce5717a88352930a81a08fa40c83ed7aea138984bfe5e287d5665397e182",
        "pool.meta.json": "bda4366711e488603eafd2ac43f038f6f8a4ebc4acea24860f04ad9e90ece461",
        "report.json": "c48dfc4fc720b5b6b379875f12befb16bf6a032c5eb3b9af2524f1e438e28f00",
        "simulate.report.json": "8956eda8a670110b7e154d3cc4a40c65249bfa131b26fb8907e723d28cb5b3ff",
        "solve-alpha.report.json": "d7ede8c53fc4efd3c69d5e0981708a749c6248a98a78f9759b9e142a6a741c77",
        "spectral.angular.csv": "883129463c52c0e2fc1e7695ebf939165f704cd16c85777128197c2a48f9a13f",
        "spectral.report.json": "5da462e0797142bb300773de9f22838717301ed76d8e9ddfe459b5c1ff802013",
        "tails.ladders.csv": "766390ea0a48ddb706d1c569d6418db5685006045d175becd5c57b3664146401",
        "tails.report.json": "ebf8a7862ef9be62a8eb3fe2d291aee8bd3f1be4b56da9cdbc4985a1232f8101",
    },
    "two-point-no-blocks": {
        "pool.bin": "49f0ce5717a88352930a81a08fa40c83ed7aea138984bfe5e287d5665397e182",
        "pool.meta.json": "bda4366711e488603eafd2ac43f038f6f8a4ebc4acea24860f04ad9e90ece461",
        "report.json": "97f3c3bbcd18a1cff5596847d54f0603253bfa6d8e056b0b0fef4134c1bfccd1",
        "simulate.report.json": "8956eda8a670110b7e154d3cc4a40c65249bfa131b26fb8907e723d28cb5b3ff",
        "solve-alpha.report.json": "d7ede8c53fc4efd3c69d5e0981708a749c6248a98a78f9759b9e142a6a741c77",
        "tails.ladders.csv": "abb858aaf228358aaaf94ecf32cf659a953c72c7a10aecdb5b0157071bea9634",
        "tails.report.json": "616fdcd8852d9b8348c06a442e5a67b55936db6897202a045214b3ae471857c9",
    },
}


def run_digests(name: str, root) -> dict:
    model, pipeline = CONFIGS[name]
    out = root / "out"
    cfg = root / "config.json"
    cfg.write_text(json.dumps({"model": model, "seed": 11, "out": str(out), "pipeline": pipeline}))
    assert main(["run", "--config", str(cfg)]) == 0
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.name != "manifest.json"
    }


# at 2 CPUs a run forks the stages of a wave; one that read an artifact
# of its own wave before it was written would show as moved paths
@pytest.mark.parametrize("name, procs", [
    pytest.param(name, procs, id=name if procs == 1 else f"{name}-{procs}-cpus")
    for name in sorted(CONFIGS) for procs in (1, 2)
])
def test_artifact_digests(name, procs, tmp_path, monkeypatch):
    use_cpus(monkeypatch, procs)
    got = run_digests(name, tmp_path)
    assert got == DIGESTS[name], "\n".join(
        ["moved from tests/golden:", *moved(GOLDEN / name, tmp_path / "out")]
    )


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_text_has_the_digested_bytes(name):
    # every artifact is kept as text but those left out; report.json is kept
    # without its stage copies, so it alone differs from its digest
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (GOLDEN / name).iterdir()}
    assert files.keys() == DIGESTS[name].keys() - set(LEFT_OUT)
    assert {k: v for k, v in files.items() if v != DIGESTS[name][k]}.keys() == {"report.json"}


def test_a_forced_mismatch_lists_each_moved_path_and_cell(tmp_path):
    # a copy of a golden run with one JSON float 2 ulps up, one JSON count
    # one up and one CSV cell 1 ulp down
    name = "two-point-no-blocks"
    out = tmp_path / "out"
    shutil.copytree(GOLDEN / name, out)
    report = out / "tails.report.json"
    doc = json.loads(report.read_text())
    c_inf = doc["tail_constants"]["c_inf"]
    old_value = c_inf["value"]
    c_inf["value"] = math.nextafter(math.nextafter(old_value, math.inf), math.inf)
    c_inf["n"] += 1
    report.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    ladders = out / "tails.ladders.csv"
    rows = [row.split(",") for row in ladders.read_bytes().decode().split("\r\n")]
    old_cell = rows[2][3]
    rows[2][3] = "%.17g" % math.nextafter(float(old_cell), -math.inf)
    ladders.write_bytes("\r\n".join(",".join(row) for row in rows).encode())
    assert moved(GOLDEN / name, out) == [
        f"tails.ladders.csv row 2 ci_lo: {old_cell!r} -> {rows[2][3]!r} (1 ulp)",
        f"tails.report.json.tail_constants.c_inf.n: {c_inf['n'] - 1} -> {c_inf['n']}",
        f"tails.report.json.tail_constants.c_inf.value: {old_value!r} -> {c_inf['value']!r} (2 ulp)",
    ]


def test_a_record_prints_digests_and_rewrites_the_golden_text(tmp_path, monkeypatch, capsys):
    # a re-record copies the printed table over DIGESTS as it stands
    monkeypatch.setattr(golden_diff, "GOLDEN", tmp_path)
    golden_diff.record()
    source = Path(__file__).read_text()
    start = source.index("DIGESTS = {")
    assert capsys.readouterr().out == source[start : source.index("\n}\n", start) + 3]
    for name in CONFIGS:
        kept = {p.name: p.read_bytes() for p in (GOLDEN / name).iterdir()}
        assert {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()} == kept


# distinct per-coordinate atoms, so a coordinate mix-up changes the digest
POOL_MODEL = ModelSpec(
    "TwoPoint",
    3,
    {
        "p": [0.2, 0.5, 0.7],
        "up": [2.0, 1.5, 1.2],
        "down": [0.5, 0.3, 0.4],
        "b": {"dist": "exponential", "rate": 1.0},
    },
)
# one uniform drives every A_j, and one noise draw every B_j
COMONOTONE_SHARED = ModelSpec(
    "TwoPoint",
    3,
    {
        "p": [0.2, 0.5, 0.7],
        "up": [2.0, 1.5, 1.2],
        "down": [0.5, 0.3, 0.4],
        "comonotone": True,
        "b": {"dist": "pareto", "index": 3.0, "scale": 1.0, "shared": True},
    },
)
# A through a correlated Gaussian factor, B from a different law per coordinate
LOGNORMAL_CORR = ModelSpec(
    "LogNormal",
    3,
    {
        "mu": [-0.5, -0.3, -0.2],
        "sigma": [0.6, 0.5, 0.4],
        "corr": [[1.0, 0.6, -0.3], [0.6, 1.0, 0.2], [-0.3, 0.2, 1.0]],
        "b": [
            {"dist": "uniform", "low": -1.0, "high": 2.0},
            {"dist": "normal", "mean": 0.5, "std": 2.0},
            {"dist": "lognormal", "mu": 0.0, "sigma": 0.5},
        ],
    },
)
# joint (a, b) rows from a table lookup
CUSTOM_ATOMS = ModelSpec(
    "Custom",
    2,
    {
        "atoms": {
            "prob": [0.3, 0.5, 0.2],
            "a": [[1.6, 0.2], [0.4, 0.9], [0.1, 1.3]],
            "b": [[1.0, -0.5], [0.0, 2.0], [3.0, 0.25]],
        }
    },
)

# case -> (model, burn_in, thin, digest).  (burn_in, thin) = (0, 1) takes x0
# as the first x_pre row; the CLI configs above all use the default thin of
# 10 and never reach it
POOL_CASES = {
    "0-1": (POOL_MODEL, 0, 1, "c2c6e532a7d518bb771df85039889080a99764fc344576e4a5670d9561efb8a0"),
    "7-4": (POOL_MODEL, 7, 4, "8d1925473bc560c81917aa3dfd062f2863b50b11b32461b5f79651cb9b2c8164"),
    "comonotone-shared-noise": (
        COMONOTONE_SHARED, 3, 2, "bf4aba56a8a248a7e60d9a85df00d13f8d7744aa44d504207410d19d5a642149"
    ),
    "lognormal-corr-list-noise": (
        LOGNORMAL_CORR, 3, 2, "05111d1032e131f9759679db5c9063231a7ea6020d3e8d72a61fa27517d4a187"
    ),
    "custom-atoms": (
        CUSTOM_ATOMS, 3, 2, "099283f7d3c2be6af3cfa44e77e82a214c0e3096390b38f0a359cc181f11e63b"
    ),
}


@pytest.mark.parametrize("case", sorted(POOL_CASES))
def test_pool_digests(case):
    model, burn_in, thin, want = POOL_CASES[case]
    pool = stationary_pool(model, seed=11, chains=5, n_per_chain=40, burn_in=burn_in, thin=thin)
    digest = hashlib.sha256()
    for name in ("chain", "step", "x_pre", "a", "b", "x_post"):
        digest.update(np.ascontiguousarray(getattr(pool, name)).tobytes())
    assert digest.hexdigest() == want
