import tracemalloc

import numpy as np
import pytest

from heavytail_sre import (
    AmbiguousPartitionError,
    BlockPartition,
    ModelSpec,
    detect_blocks,
)
from heavytail_sre.moments import solve_alpha

RNG = lambda s: np.random.default_rng(s)


def test_independent_pair_splits():
    spec = ModelSpec("TwoPoint", 2, {"p": 0.2, "up": 2.0, "down": 0.5})
    part = detect_blocks(spec, [2.0, 2.0], RNG(0))
    assert part.classes == ((0,), (1,))
    assert part.permutation == (0, 1)
    ev = part.evidence["0-1"]
    assert ev["same_class"] is False
    assert ev["max_rel_dev"] > 0.1
    # independent same-marginal pair: cross moment 0.64 at xi = 1/2
    mid = ev["cross_kappa"]["0.5"]
    assert mid["value"] == pytest.approx(0.64, abs=1e-12)


def test_comonotone_pair_is_one_class():
    spec = ModelSpec(
        "TwoPoint", 2, {"p": 0.2, "up": 2.0, "down": 0.5, "comonotone": True}
    )
    part = detect_blocks(spec, [2.0, 2.0], RNG(1))
    assert part.classes == ((0, 1),)
    ev = part.evidence["0-1"]
    assert ev["same_class"] is True
    assert ev["max_rel_dev"] == 0.0
    assert ev["cross_kappa"]["0.5"]["value"] == pytest.approx(1.0, abs=1e-12)


def test_correlated_lognormal_blocks():
    corr = [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    spec = ModelSpec(
        "LogNormal", 3, {"mu": -0.5, "sigma": 1.0, "corr": corr}
    )
    part = detect_blocks(spec, [1.0, 1.0, 1.0], RNG(2))
    assert part.classes == ((0, 1), (2,))
    assert part.permutation == (0, 1, 2)
    assert part.class_of(1) == 0
    assert part.class_of(2) == 1


@pytest.mark.parametrize("seed, dev", [(21, 224.33465150345532), (26, 140.65375089475833)])
def test_max_rel_dev_keeps_its_bits(seed, dev):
    # alpha = 2 on every coordinate: |a|^2 must take the same pow path
    # whatever the memory layout of the draw
    corr = [[1.0, 0.5], [0.5, 1.0]]
    spec = ModelSpec("LogNormal", 2, {"mu": [-1.0, -1.0], "sigma": [1.0, 1.0], "corr": corr})
    part = detect_blocks(spec, [2.0, 2.0], RNG(seed))
    assert part.evidence["0-1"]["max_rel_dev"] == dev


def _peak_bytes(fn) -> int:
    fn()  # warm numpy's caches
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_detect_blocks_powers_stay_in_its_draw():
    # the |A_j|^alpha_j rows are built over the draw's own A rows, so only
    # one exponent row is added; the cross checks draw far fewer rows
    spec = ModelSpec(
        "BekkDiag", 3,
        {"coeff": [[0.8, 0.5, 0.0], [0.6, -0.8, 0.0], [0.0, 0.0, 1.05]],
         "b": {"dist": "exponential", "rate": 1.0}},
    )
    n = 100_000
    draw = _peak_bytes(lambda: spec.sample_coeffs(RNG(1), n))
    peak = _peak_bytes(lambda: detect_blocks(spec, [2.0, 2.34, 1.75], RNG(1), n=n, cross_n=10_000))
    assert peak <= draw + 8 * n + 65536


def test_shared_factor_garch_blocks():
    spec = ModelSpec(
        "CCCGarch",
        3,
        {"arch": [0.35, 0.35, 0.15], "garch": [0.25, 0.25, 0.55], "z_map": [0, 0, 1]},
    )
    alphas = [solve_alpha(spec, j).alpha for j in range(3)]
    part = detect_blocks(spec, alphas, RNG(3))
    assert part.classes == ((0, 1), (2,))
    # the cross-class moment is certified strictly below 1 at every probe
    for key in ("0-2", "1-2"):
        for probe in part.evidence[key]["cross_kappa"].values():
            assert probe["ci_hi"] < 1.0


def test_ambiguous_pair_raises():
    # nearly identical coordinates: samples split them, but a short Monte
    # Carlo check cannot certify the mixed moment below 1
    spec = ModelSpec(
        "CCCGarch", 2, {"arch": [0.35, 0.3499], "garch": [0.25, 0.2501], "z_map": [0, 0]}
    )
    alphas = [solve_alpha(spec, j).alpha for j in range(2)]
    with pytest.raises(AmbiguousPartitionError) as err:
        detect_blocks(spec, alphas, RNG(0), cross_method="monte-carlo", cross_n=20_000)
    assert err.value.pair == (0, 1)
    # the closed-form mixed moment settles the same pair
    part = detect_blocks(spec, alphas, RNG(0))
    assert part.classes == ((0,), (1,))


def test_detect_blocks_validates_input():
    spec = ModelSpec("TwoPoint", 2, {"p": 0.2, "up": 2.0, "down": 0.5})
    with pytest.raises(ValueError):
        detect_blocks(spec, [2.0], RNG(0))
    with pytest.raises(ValueError):
        detect_blocks(spec, [2.0, -1.0], RNG(0))
    with pytest.raises(ValueError):
        detect_blocks(spec, [2.0, 2.0], RNG(0), xi_probes=(0.0, 0.5))


def test_partition_json_roundtrip():
    spec = ModelSpec(
        "TwoPoint", 2, {"p": 0.2, "up": 2.0, "down": 0.5, "comonotone": True}
    )
    part = detect_blocks(spec, [2.0, 2.0], RNG(4))
    back = BlockPartition.from_json(part.to_json())
    assert back.classes == part.classes
    assert back.permutation == part.permutation
    assert back.evidence == part.evidence


def test_partition_json_validation():
    with pytest.raises(ValueError):
        BlockPartition.from_json('{"classes": [[0], [1]], "permutation": [1, 0]}')
    with pytest.raises(ValueError):
        BlockPartition.from_json('{"classes": [[0], [2]], "permutation": [0, 2]}')


def test_class_of_out_of_range():
    part = BlockPartition(((0,),), (0,), {})
    with pytest.raises(IndexError):
        part.class_of(1)
