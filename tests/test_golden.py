"""Behaviour lock: sha256 digests of every artifact of four small CLI runs,
and of five pools built directly by ``stationary_pool``.

manifest.json is skipped because it is the one artifact that carries
wall-clock state.  The recorded digests pin the numbers the pipeline
produces on this numpy/scipy build; a digest change is a behaviour change
to be explained, never a table to refresh until the test passes.
"""

import hashlib
import json

import numpy as np
import pytest

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
        "blocks.report.json": "710429a7263a7f4febaca8037845d63fe27272bfbaa201faeb0182c7670a57fc",
        "independence.pair_0_1.csv": "57eebb389630f69d1066b165aef8a447c1321bf36fadba6f7ece0db0a1117fc6",
        "independence.report.json": "cb3ec858050d47bf118510e031e939724dfe2a8d5ed16a7b0f73f1b83605ca00",
        "pool.bin": "d49e90f003fc277c48080bc1ec79ad1b3333638de045ebea401137824ed666c2",
        "pool.meta.json": "d64a0b6b7f7a095ed56877f1c0207a222721e59056527840fd6cdd3b3c6e6231",
        "report.json": "b8aba53168b9688267770dd05eb6a7180e9d8a9c6b715e6634e43f077271620f",
        "simulate.report.json": "6c9a2c3011eb5e6fb2aa793ff5865f6b7fdaf375b2d2f7c4763d7ad693a504d3",
        "solve-alpha.report.json": "5b2e33543ec13b8750aa295ce05d8230c3ec7e2c68c5abc37f05c1ec62de66a8",
        "spectral.angular.csv": "c5b30069e3aa714496c75c37961ad5262d3b558e9a6ec5e23000ee077d740612",
        "spectral.report.json": "5f650f7de82fea59194b64209e09b5abd2b84f9dccc756ebe5c834ecc827dea1",
        "tails.ladders.csv": "db30d43623eca95326fb51fdb5961c45495f644561fb5ac11ff77b3769e21c92",
        "tails.report.json": "38e6f2241a898d5c8257f90ca33b145f5d8c16d85a2525772a72e1bf7eed2852",
    },
    "ccc-shared-factor": {
        "blocks.report.json": "dfbb83ebe7d796bbc91b220c23561fe3bca44249f37d4c9bfd86a26a988becb6",
        "independence.pair_0_2.csv": "86af84812d9129875305a037fe40c93081dfefb263ace0bdc50f7472d30749f0",
        "independence.report.json": "41a0eb57303a7b6dd8995e693b2182550a28d74840eb4776a4b2f1d4a607a0bd",
        "pool.bin": "a73230de70ef790adade1f3e5108c4171e18eb615e67138946637a7d18513755",
        "pool.meta.json": "9419e14a91a2086b72034af782a798c8afc2609339503ef06f0dab9e7b4c69a5",
        "report.json": "2400806a9bbe57621e68a0f9c551c88804e6f8a446f38e3fe4c8562e8966c7e9",
        "simulate.report.json": "419cbed629b0165f2eb123af28307aa79a117034963818ad9360d05da2b2a60e",
        "solve-alpha.report.json": "6e65cb166d31084c55f69938f06925c55604fe7fa02ca3517d68a36b62f317d2",
        "spectral.angular.csv": "7b981c528b8b8c095f944690ea4d40964526f481384881528ea038a2a184b999",
        "spectral.report.json": "dc19aa38dfd14ddc5cdee9c0dc22ce9a78fb34586f057d410d7ac73fa47836ee",
        "tails.ladders.csv": "0f43288645dc9251e6c50ae38ee1d7c984ca8f18c86aebfcf6cf7af8453d65c2",
        "tails.report.json": "44ace5451b11284a888a8567d2517c880f16ad8f8d152d501721239e24688984",
    },
    "two-point-all-stages": {
        "blocks.report.json": "5e71087390036bf3ed3d2bf467cc93d140c2ef0a8abda889a3df47d0aa527920",
        "independence.pair_0_1.csv": "d763471584b528c74f6d59ba5c5babb0e0089b573690502ef33fdedfa8e893a0",
        "independence.report.json": "670598dd861df0c1b8d30ecf147d183c0e0e352db809462f30181a14aba935a3",
        "pool.bin": "49f0ce5717a88352930a81a08fa40c83ed7aea138984bfe5e287d5665397e182",
        "pool.meta.json": "bda4366711e488603eafd2ac43f038f6f8a4ebc4acea24860f04ad9e90ece461",
        "report.json": "fe86c3b0428a2c6e0d361223901f4b512dc1f6ae4e53cb49e332c952ce636139",
        "simulate.report.json": "f9c0152ee3051fbd0b45471c3dde6970a38dbaba9d049beaf05612a7d45385a6",
        "solve-alpha.report.json": "ea07eb84678f87b5574ef26720da9bab53a23c1e2afc8a999cd633ea83fca102",
        "spectral.angular.csv": "883129463c52c0e2fc1e7695ebf939165f704cd16c85777128197c2a48f9a13f",
        "spectral.report.json": "fb4cf83e5d5149ec1018f5d3a44d9c59fad935c9e024a978b9f86a19a0a1d793",
        "tails.ladders.csv": "766390ea0a48ddb706d1c569d6418db5685006045d175becd5c57b3664146401",
        "tails.report.json": "a3ec3ae70fadbe2189a4209ff8332579ec42b6e9d34d038724ad748ad49f5086",
    },
    "two-point-no-blocks": {
        "pool.bin": "49f0ce5717a88352930a81a08fa40c83ed7aea138984bfe5e287d5665397e182",
        "pool.meta.json": "bda4366711e488603eafd2ac43f038f6f8a4ebc4acea24860f04ad9e90ece461",
        "report.json": "880d73429917d487031ba9af7807e50fdffacff43a85c7eda8a5335947df65e0",
        "simulate.report.json": "f9c0152ee3051fbd0b45471c3dde6970a38dbaba9d049beaf05612a7d45385a6",
        "solve-alpha.report.json": "ea07eb84678f87b5574ef26720da9bab53a23c1e2afc8a999cd633ea83fca102",
        "tails.ladders.csv": "abb858aaf228358aaaf94ecf32cf659a953c72c7a10aecdb5b0157071bea9634",
        "tails.report.json": "8adafa77d06df3af2e56857ff65ff1387ab0d7a14b1387887baf4a6052585964",
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


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_artifact_digests(name, tmp_path):
    assert run_digests(name, tmp_path) == DIGESTS[name]


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
