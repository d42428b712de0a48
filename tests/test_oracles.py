"""Closed-form oracles for the paper's limit objects, checked end to end.

The symmetric README model has equal axis masses, so a swap of classes
passes unseen there; the asymmetric two-block model below has
different constants per coordinate, so it cannot.  The signed model
below has A of both signs, where Goldie's c_+ = c_- holds.
"""

import json
import math

import pytest

from heavytail_sre import ModelSpec, goldie_constant, goldie_mean, solve_alpha, stationary_pool
from heavytail_sre.cli import main

# TwoPoint d = 2 with Exp(1) noise: E A_j^2 = 1 for both coordinates, so both
# alpha are 2, and independent draws make each coordinate its own class
P, UP, DOWN = (0.2, 0.1), (2.0, 3.0), (0.5, 1.0 / 3.0)
ASYMMETRIC = {"family": "TwoPoint", "d": 2,
              "params": {"p": list(P), "up": list(UP), "down": list(DOWN),
                         "b": {"dist": "exponential", "rate": 1.0}}}


def goldie_at_two(p: float, up: float, down: float) -> float:
    """Goldie's constant at alpha = 2 for A, B >= 0 with B ~ Exp(1):
    c = (2 E A E X E B + E B^2) / (2 m), with E X = E B / (1 - E A) and
    m = E A^2 log A."""
    mean_a = p * up + (1.0 - p) * down
    mean_b, mean_b2 = 1.0, 2.0
    mean_x = mean_b / (1.0 - mean_a)
    m = p * up**2 * math.log(up) + (1.0 - p) * down**2 * math.log(down)
    return (2.0 * mean_a * mean_x * mean_b + mean_b2) / (2.0 * m)


C = [goldie_at_two(*args) for args in zip(P, UP, DOWN)]
C_INF = sum(C)


def test_the_closed_form_constants():
    assert C == pytest.approx([12.022, 2.845], abs=1e-3)
    assert C_INF == pytest.approx(14.867, abs=1e-3)
    assert [c / C_INF for c in C] == pytest.approx([0.809, 0.191], abs=1e-3)


def contains(est: dict, x: float) -> bool:
    return est["ci_lo"] <= x <= est["ci_hi"]


@pytest.mark.parametrize("seed", [3, 4])
def test_asymmetric_two_block_model_recovers_its_constants_and_masses(seed, tmp_path):
    out = tmp_path / "out"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "model": ASYMMETRIC, "seed": seed, "out": str(out),
        "pipeline": ["solve-alpha",
                     {"stage": "simulate", "params": {"chains": 2_000, "n_per_chain": 500}},
                     "blocks", "tails", "spectral"],
    }))
    assert main(["run", "--config", str(config)]) == 0
    blocks, tails, spectral = (json.loads((out / f"{stage}.report.json").read_text())
                               for stage in ("blocks", "tails", "spectral"))
    assert blocks["classes"] == [[0], [1]]
    for coord, c in zip(tails["coordinates"], C):
        assert contains(coord["goldie_constant"]["total"], c), coord["coordinate"]
    constants = tails["tail_constants"]
    for est, c in zip(constants["c_block"], C):
        assert contains(est, c)
    assert contains(constants["c_inf"], C_INF)
    low = spectral["block_mass"][0]
    assert low[0] > low[1]
    for mass, c in zip(low, C):
        assert mass == pytest.approx(c / C_INF, abs=0.05)
    # tail_constants is the top rung of each ladder series, field by field
    ladders = [coord["ladder"] for coord in tails["coordinates"]]
    assert constants == {
        "c_plus": [lad["plus"][-1] for lad in ladders],
        "c_minus": [lad["minus"][-1] for lad in ladders],
        "c_block": [series[-1] for series in tails["blocks"]["block"]],
        "c_inf": tails["blocks"]["c_inf"][-1],
    }


# TwoPoint d = 1 with a negative down: E A^2 = 0.2 * 4 + 0.8 * 0.25 = 1, so
# alpha = 2, and E A = 0 drops the cross term of E (A X + B)^2 - (A X)^2, so
# c = E B^2 / (2 m) = 1 / m with m = 0.6 log 2, and c_+ = c_- = 1 / (2 m)
SIGNED = ModelSpec("TwoPoint", 1, {"p": 0.2, "up": 2.0, "down": -0.5,
                                    "b": {"dist": "exponential", "rate": 1.0}})
C_SIGNED = 1.0 / (2.0 * 0.6 * math.log(2.0))


@pytest.mark.parametrize("seed", [3, 4, 5, 6])
def test_signed_model_has_equal_goldie_halves_at_the_closed_form(seed):
    assert C_SIGNED == pytest.approx(1.2022, abs=1e-4)
    alpha = solve_alpha(SIGNED, 0).alpha
    pool = stationary_pool(SIGNED, seed=seed, chains=1_000, n_per_chain=500)
    got = goldie_constant(pool, 0, alpha, goldie_mean(SIGNED, 0, alpha).value)
    assert got.plus == got.minus
    assert got.plus.flag == "signed" and got.plus.value == got.total.value / 2
    assert got.plus.ci_lo <= C_SIGNED <= got.plus.ci_hi
