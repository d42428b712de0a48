"""End-to-end checks at realistic sample sizes.

Each test exercises one advertised guarantee of the package, from
closed-form tail indices through simulated ladder estimates to byte
reproducibility, at the pool sizes and tolerances the guarantees are
stated for.  Pools are module-scoped because several checks share them;
build time is charged against each consumer's runtime budget.
"""

import dataclasses
import gc
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from heavytail_sre import (
    ModelSpec,
    block_tail_constant,
    cross_kappa,
    detect_blocks,
    empirical_tail_constant,
    goldie_constant,
    hill_estimate,
    joint_exceedance,
    moment_estimate,
    solve_alpha,
    spectral_measure,
    stationary_pool,
    tau_gamma_bound,
)
from heavytail_sre.cli import main as cli_main
from heavytail_sre.geometry import alpha_norm, dilate, polar
from heavytail_sre.independence import build_tau

REFERENCE = ModelSpec(
    "TwoPoint",
    1,
    {"p": 0.2, "up": 2.0, "down": 0.5, "b": {"dist": "exponential", "rate": 1.0}},
)
TWO_BLOCK = ModelSpec(
    "TwoPoint",
    2,
    {"p": 0.2, "up": 2.0, "down": 0.5, "b": {"dist": "exponential", "rate": 1.0}},
)
ONE_BLOCK = ModelSpec(
    "TwoPoint",
    2,
    {
        "p": 0.2,
        "up": 2.0,
        "down": 0.5,
        "comonotone": True,
        "b": {"dist": "exponential", "rate": 1.0, "shared": True},
    },
)
SHARED_FACTOR = ModelSpec(
    "CCCGarch",
    3,
    {"arch": [0.35, 0.35, 0.15], "garch": [0.25, 0.25, 0.55], "z_map": [0, 0, 1]},
)

# one-step identity: E (A X + B)^2 - E (A X)^2 = 2 E A E X E B + E B^2 = 10,
# normalizer alpha * E A^2 log A = 1.2 log 2
C_PLUS = 10.0 / (1.2 * math.log(2.0))
GOLDIE_MEAN = 0.6 * math.log(2.0)
ALPHA = 2.0


@pytest.fixture(scope="module")
def reference_pool():
    t0 = time.perf_counter()
    pool = stationary_pool(REFERENCE, seed=101, chains=20_000, n_per_chain=500)
    return pool, time.perf_counter() - t0


@pytest.fixture(scope="module")
def two_block_pool():
    t0 = time.perf_counter()
    pool = stationary_pool(TWO_BLOCK, seed=202, chains=20_000, n_per_chain=500)
    return pool, time.perf_counter() - t0


def test_tail_index_closed_form_roots():
    t0 = time.perf_counter()
    two_point = solve_alpha(ModelSpec("TwoPoint", 1, {"p": 0.2, "up": 2.0, "down": 0.5}), 0)
    log_normal = solve_alpha(ModelSpec("LogNormal", 1, {"mu": -0.5, "sigma": 1.0}), 0)
    elapsed = time.perf_counter() - t0
    assert two_point.alpha == pytest.approx(2.0, abs=1e-8)
    assert log_normal.alpha == pytest.approx(1.0, abs=1e-8)
    assert elapsed < 1.0


def test_marginal_regular_variation(reference_pool):
    pool, build_s = reference_pool
    t0 = time.perf_counter()
    columns = ("x_pre", "a", "b", "x_post", "chain", "step")
    slab = dataclasses.replace(pool, **{c: getattr(pool, c)[:1_000_000] for c in columns})
    mag = np.abs(slab.x_post[:, 0])
    k = int(len(slab) ** 0.6)
    hill = hill_estimate(mag[mag > 0.0], k)
    assert abs(hill.alpha - ALPHA) / ALPHA <= 0.15

    ladder = empirical_tail_constant(slab, 0, ALPHA)
    top = ladder.plus[-3:]
    assert max(e.ci_lo for e in top) <= min(e.ci_hi for e in top)
    assert build_s + time.perf_counter() - t0 < 120.0


def test_goldie_formula_cross_validation(reference_pool):
    pool, build_s = reference_pool
    t0 = time.perf_counter()
    gold = goldie_constant(pool, 0, ALPHA, GOLDIE_MEAN)
    ladder = empirical_tail_constant(pool, 0, ALPHA)
    emp = ladder.total[-1].value
    assert abs(gold.total.value - emp) / emp <= 0.20
    # the formula side also agrees with its own closed form
    assert gold.total.ci_lo <= C_PLUS <= gold.total.ci_hi
    assert build_s + time.perf_counter() - t0 < 600.0


def test_dilation_geometry_invariants():
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    cases = 200_000
    for _ in range(5):
        d = int(rng.integers(1, 5))
        a = rng.uniform(0.3, 5.0, size=d)
        x = rng.uniform(-1e6, 1e6, size=(cases, d))
        x[np.abs(x) < 1e-30] = 0.0
        y = rng.uniform(-1e6, 1e6, size=(cases, d))
        t = rng.uniform(1e-4, 1e4, size=cases)
        s = rng.uniform(1e-4, 1e4, size=cases)

        norm_x = alpha_norm(x, a)
        lhs = alpha_norm(dilate(t, x, a), a)
        assert np.max(np.abs(lhs - t * norm_x) / (t * norm_x)) <= 1e-12

        radius, omega = polar(x, a)
        recon = dilate(radius, omega, a)
        scale = np.maximum(np.abs(x), 1e-300)
        assert np.max(np.abs(recon - x) / scale) <= 1e-12

        left = dilate(s, dilate(t, x, a), a)
        right = dilate(s * t, x, a)
        assert np.max(np.abs(left - right) / np.maximum(np.abs(right), 1e-300)) <= 1e-12

        c_alpha = max(max(1.0, 2.0 ** (aj - 1.0)) for aj in a)
        both = alpha_norm(x + y, a)
        bound = c_alpha * (alpha_norm(x, a) + alpha_norm(y, a))
        assert np.all(both <= bound * (1.0 + 1e-12))

    # magnitudes beyond the direct-power range switch to the log route;
    # the same identities hold there to nine digits
    a = np.array([1.0, 2.0])
    x = np.sign(rng.standard_normal((1_000_000, 2))) * 10.0 ** np.column_stack(
        [rng.uniform(205.0, 240.0, 1_000_000), rng.uniform(101.0, 120.0, 1_000_000)]
    )
    t = rng.uniform(1e-3, 1e3, size=1_000_000)
    norm_x = alpha_norm(x, a)
    lhs = alpha_norm(dilate(t, x, a), a)
    assert np.max(np.abs(lhs - t * norm_x) / (t * norm_x)) <= 1e-9
    radius, omega = polar(x, a)
    recon = dilate(radius, omega, a)
    assert np.max(np.abs(recon - x) / np.abs(x)) <= 1e-9
    assert time.perf_counter() - t0 < 30.0


def test_block_detection_shared_factor():
    t0 = time.perf_counter()
    alphas = [solve_alpha(SHARED_FACTOR, j).alpha for j in range(3)]
    assert alphas[0] == pytest.approx(3.0, abs=1e-9)
    assert alphas[1] == pytest.approx(3.0, abs=1e-9)

    part = detect_blocks(SHARED_FACTOR, alphas, rng=np.random.default_rng(5))
    assert part.classes == ((0, 1), (2,))

    same = cross_kappa(SHARED_FACTOR, 0, 1, alphas[0], alphas[1], 0.5)
    assert same.value == pytest.approx(1.0, abs=1e-3)
    cross = cross_kappa(SHARED_FACTOR, 0, 2, alphas[0], alphas[2], 0.5)
    assert cross.ci_hi < 1.0
    assert time.perf_counter() - t0 < 60.0


def test_asymptotic_independence_ladders(two_block_pool):
    pool, build_s = two_block_pool
    t0 = time.perf_counter()
    joint = joint_exceedance(pool, 0, 1, [ALPHA, ALPHA])
    vals = [e.value for e in joint.normalized]
    assert vals[-3] > vals[-2] > vals[-1]
    assert vals[-1] < 0.25 * C_PLUS

    # single class: the same ladder settles at the common constant
    contrast = stationary_pool(ONE_BLOCK, seed=203, chains=20_000, n_per_chain=500)
    flat = joint_exceedance(contrast, 0, 1, [ALPHA, ALPHA])
    top = flat.normalized[-3:]
    assert max(e.ci_lo for e in top) <= min(e.ci_hi for e in top)
    assert min(e.value for e in flat.normalized) > 0.5 * C_PLUS
    del contrast, flat
    gc.collect()
    assert build_s + time.perf_counter() - t0 < 600.0


def test_block_sum_identity(two_block_pool):
    pool, _ = two_block_pool
    part = detect_blocks(TWO_BLOCK, [ALPHA, ALPHA], rng=np.random.default_rng(5))
    assert part.classes == ((0,), (1,))
    blk = block_tail_constant(pool, part, [ALPHA, ALPHA])
    assert blk.consistent is True
    top_sum = sum(s[-1].value for s in blk.block)
    slack = blk.c_inf[-1].half_width + sum(s[-1].half_width for s in blk.block)
    assert abs(blk.c_inf[-1].value - top_sum) <= slack


def test_spectral_concentration(two_block_pool):
    pool, _ = two_block_pool
    part = detect_blocks(TWO_BLOCK, [ALPHA, ALPHA], rng=np.random.default_rng(5))
    # rungs thinner than 2000 exceedances are noisier than the remaining
    # distance to full concentration at this pool size
    est = spectral_measure(pool, part, [ALPHA, ALPHA], min_top=2000)
    totals = [sum(row) for row in est.block_mass]
    assert totals[-1] >= 0.9
    assert all(lo <= hi for lo, hi in zip(totals, totals[1:]))


def test_moment_dichotomy(reference_pool):
    pool, build_s = reference_pool
    t0 = time.perf_counter()
    below = moment_estimate(pool, 0, ALPHA / 2.0)
    above = moment_estimate(pool, 0, 2.0 * ALPHA)
    assert below.stable is True
    assert below.estimate.value == pytest.approx(5.0, rel=0.05)
    assert above.stable is False
    assert above.estimate.flag == "unstable"
    assert build_s + time.perf_counter() - t0 < 60.0


def test_cross_moment_and_gamma_bound():
    t0 = time.perf_counter()
    est = cross_kappa(TWO_BLOCK, 0, 1, ALPHA, ALPHA, 0.5)
    assert est.value == pytest.approx(0.64, abs=1e-3)
    bound = tau_gamma_bound(
        TWO_BLOCK, 0, 1, ALPHA, ALPHA, build_tau({"kind": "log"}), np.random.default_rng(3), n=400_000
    )
    assert bound.gamma0 > 0.0
    assert bound.k_at_gamma0.ci_hi < 1.0
    assert time.perf_counter() - t0 < 60.0


def test_reproducible_reports(tmp_path):
    def config(out: Path) -> str:
        cfg = tmp_path / f"cfg_{out.name}.json"
        cfg.write_text(
            json.dumps(
                {
                    "model": REFERENCE.to_json(),
                    "seed": 31,
                    "out": str(out),
                    "pipeline": [
                        "solve-alpha",
                        {
                            "stage": "simulate",
                            "params": {"chains": 150, "n_per_chain": 100, "thin": 2},
                        },
                        "tails",
                        "report",
                    ],
                }
            )
        )
        return str(cfg)

    # two whole runs, then the same stages as separate subcommands
    outs = [tmp_path / name for name in ("a", "b", "staged")]
    for out in outs[:2]:
        assert cli_main(["run", "--config", config(out)]) == 0
    staged_cfg = config(outs[2])
    for stage in ("solve-alpha", "simulate", "tails", "report"):
        assert cli_main([stage, "--config", staged_cfg]) == 0

    artifacts = [
        "solve-alpha.report.json",
        "simulate.report.json",
        "pool.bin",
        "pool.meta.json",
        "tails.report.json",
        "tails.ladders.csv",
        "report.json",
    ]
    baseline = {name: (outs[0] / name).read_bytes() for name in artifacts}
    for out in outs[1:]:
        for name in artifacts:
            assert (out / name).read_bytes() == baseline[name], (out.name, name)
