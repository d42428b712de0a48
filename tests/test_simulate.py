import errno
import json
import math
import tracemalloc

import numpy as np
import pytest

from heavytail_sre import (
    DivergenceError,
    ModelSpec,
    NonContractiveError,
    SamplePool,
    default_burn_in,
    drift_diagnostics,
    iterate,
    stationary_pool,
)
from heavytail_sre import common, simulate
from heavytail_sre.common import chain_stream, exact
from heavytail_sre.model import LogMoment

RNG = lambda s: np.random.default_rng(s)


def reference(d):
    """TwoPoint with distinct atoms per coordinate; p 0.2, up 2, down 1/2 at d = 1."""
    return ModelSpec(
        "TwoPoint",
        d,
        {
            "p": [0.2, 0.5, 0.7][:d],
            "up": [2.0, 1.5, 1.2][:d],
            "down": [0.5, 0.3, 0.4][:d],
            "b": {"dist": "exponential", "rate": 1.0},
        },
    )


REFERENCE = reference(1)


def constant_model(a=0.5, b=1.0, d=1):
    return ModelSpec(
        "TwoPoint",
        d,
        {"p": 1.0, "up": a, "down": 0.0, "b": {"dist": "constant", "value": b}},
    )


# -- iterate -------------------------------------------------------------------


def test_iterate_deterministic_oracle():
    # a = 1/2, b = 1 from x0 = 0 gives x_n = 2 (1 - 2^{-n})
    out = iterate(constant_model(), np.zeros(1), 10, RNG(0))
    want = 2.0 * (1.0 - 0.5 ** np.arange(1, 11))
    np.testing.assert_allclose(out[:, 0], want, rtol=1e-15)


def test_iterate_validates_input():
    with pytest.raises(ValueError):
        iterate(REFERENCE, np.zeros(2), 5, RNG(0))
    with pytest.raises(ValueError):
        iterate(REFERENCE, np.array([np.inf]), 5, RNG(0))
    with pytest.raises(ValueError):
        iterate(REFERENCE, np.zeros(1), 0, RNG(0))


def test_iterate_divergence_error():
    bad = constant_model(a=2.0, b=1.0)
    with pytest.raises(DivergenceError) as err:
        iterate(bad, np.zeros(1), 5000, RNG(0))
    # x_t = 2^t - 1 first overflows at t = 1024
    assert err.value.step == 1024


# -- burn-in -------------------------------------------------------------------


def test_default_burn_in_values():
    assert default_burn_in([-0.4]) == 50
    assert default_burn_in([-20.0]) == 1
    assert default_burn_in([-math.inf]) == 1
    # median over coordinates
    assert default_burn_in([-0.1, -0.4, -2.0]) == 50


def test_default_burn_in_needs_negative_drift():
    with pytest.raises(ValueError):
        default_burn_in([0.1])
    with pytest.raises(ValueError):
        default_burn_in([-1.0, 1.0, 2.0])


def test_drift_diagnostics_reference_model():
    diags = drift_diagnostics(REFERENCE, seed=1)
    assert len(diags) == 1
    assert diags[0].contractive is True
    assert diags[0].mean_given_nonzero.value == pytest.approx(-0.6 * math.log(2.0))


# -- stationary_pool -----------------------------------------------------------


def test_pool_shapes_and_meta():
    pool = stationary_pool(REFERENCE, seed=7, chains=8, n_per_chain=25, thin=5)
    assert len(pool) == 200
    assert pool.d == 1
    assert pool.x_post.shape == (200, 1)
    # E log A = -0.6 log 2 so the default burn-in is ceil(20 / that) = 49
    assert pool.meta["burn_in"] == 49
    assert pool.meta["thin"] == 5
    assert pool.meta["seed"] == 7
    assert pool.meta["spec_fingerprint"] == REFERENCE.fingerprint()


def test_pool_records_are_consistent_transitions():
    for d in (1, 2, 3):
        # thin 1 from burn-in 0 takes x0 as the first x_pre
        for burn_in, thin in [(None, 10), (0, 1)]:
            pool = stationary_pool(
                reference(d), seed=3, chains=4, n_per_chain=50, burn_in=burn_in, thin=thin
            )
            np.testing.assert_array_equal(
                pool.x_post, pool.a * pool.x_pre + pool.b, err_msg=f"d={d} thin={thin}"
            )


def test_pool_record_order():
    pool = stationary_pool(REFERENCE, seed=3, chains=3, n_per_chain=4, thin=2, burn_in=5)
    np.testing.assert_array_equal(pool.chain, np.repeat([0, 1, 2], 4))
    np.testing.assert_array_equal(pool.step, np.tile([7, 9, 11, 13], 3))


def test_pool_chain_matches_iterate():
    burn_in, thin, n_per = 5, 3, 6
    n = burn_in + thin * n_per
    steps = burn_in + thin * np.arange(1, n_per + 1)
    for d in (1, 2, 3):
        spec = reference(d)
        pool = stationary_pool(spec, seed=11, chains=2, n_per_chain=n_per, thin=thin, burn_in=burn_in)
        # chain c consumes exactly the stream chain_stream(seed, c)
        for c in range(2):
            rows = pool.chain == c
            path = iterate(spec, np.zeros(d), n, chain_stream(11, c))
            a, b = spec.sample_coeffs(chain_stream(11, c), n)
            np.testing.assert_array_equal(pool.x_post[rows], path[steps - 1])
            np.testing.assert_array_equal(pool.x_pre[rows], path[steps - 2])
            np.testing.assert_array_equal(pool.a[rows], a[steps - 1])
            np.testing.assert_array_equal(pool.b[rows], b[steps - 1])


@pytest.mark.parametrize("burn_in, thin", [(0, 1), (5, 3)])
def test_pool_is_invariant_under_chain_blocks(monkeypatch, burn_in, thin):
    for d in (1, 2, 3):
        spec = reference(d)
        monkeypatch.setattr(simulate, "_BLOCK_TARGET_FLOATS", 6_000_000)
        one = stationary_pool(spec, seed=5, chains=7, n_per_chain=10, burn_in=burn_in, thin=thin)
        # targets of three and five chains: three blocks of ceil(7 / 3), 3 + 3 + 1,
        # and two blocks evened from 5 + 2 to 4 + 3, through slabs reused across blocks
        for target in (2, 4):
            monkeypatch.setattr(
                simulate, "_BLOCK_TARGET_FLOATS", target * (burn_in + 10 * thin) * d
            )
            split = stationary_pool(
                spec, seed=5, chains=7, n_per_chain=10, burn_in=burn_in, thin=thin
            )
            for name in ("x_pre", "a", "b", "x_post", "chain", "step"):
                np.testing.assert_array_equal(
                    getattr(split, name), getattr(one, name), err_msg=f"d={d} {name}"
                )
            assert split.meta == one.meta


def test_divergence_is_invariant_under_chain_blocks(monkeypatch):
    # E log A = 0.6 log 2 > 0: every chain drifts to overflow at its own step
    expanding = ModelSpec(
        "TwoPoint", 2, {"p": 0.8, "up": 2.0, "down": 0.5, "b": {"dist": "exponential", "rate": 1.0}}
    )
    fake = (LogMoment(exact(-1.0), 0.0, True, False),) * 2
    seed, chains, steps = 5, 7, 3000
    first = []
    for c in range(chains):
        with pytest.raises(DivergenceError) as err:
            iterate(expanding, np.zeros(2), steps, chain_stream(seed, c))
        first.append((err.value.step, c))
    want = min(first)
    # the earliest divergence lies outside the first block of three chains
    assert want[1] >= 3
    monkeypatch.setattr(simulate, "_BLOCK_TARGET_FLOATS", 2 * steps * 2)
    with pytest.raises(DivergenceError) as err:
        stationary_pool(
            expanding, seed=seed, chains=chains, n_per_chain=steps, thin=1,
            burn_in=0, contractivity=fake,
        )
    assert (err.value.step, err.value.chain) == want


def test_pool_extends_by_adding_chains():
    # the first chains of a larger pool replicate the smaller pool exactly
    small = stationary_pool(REFERENCE, seed=9, chains=4, n_per_chain=20)
    large = stationary_pool(REFERENCE, seed=9, chains=8, n_per_chain=20)
    np.testing.assert_array_equal(large.x_post[: len(small)], small.x_post)


def test_pool_refuses_non_contractive_model():
    expanding = ModelSpec("TwoPoint", 1, {"p": 0.8, "up": 2.0, "down": 0.5})
    with pytest.raises(NonContractiveError):
        stationary_pool(expanding, seed=0, chains=1, n_per_chain=10)


def test_pool_divergence_reports_chain():
    # forged diagnostics let an expanding chain start, then blow up
    expanding = constant_model(a=2.0, b=1.0)
    fake = (LogMoment(exact(-1.0), 0.0, True, False),)
    with pytest.raises(DivergenceError) as err:
        stationary_pool(
            expanding, seed=0, chains=2, n_per_chain=2000, thin=1,
            burn_in=0, contractivity=fake,
        )
    # x_t = 2^t - 1 first overflows at t = 1024, on every chain at once
    assert (err.value.step, err.value.chain) == (1024, 0)


def test_pool_validates_arguments():
    with pytest.raises(ValueError):
        stationary_pool(REFERENCE, seed=0, chains=0, n_per_chain=10)
    with pytest.raises(ValueError):
        stationary_pool(REFERENCE, seed=0, chains=1, n_per_chain=10, thin=0)
    with pytest.raises(ValueError):
        stationary_pool(REFERENCE, seed=0, chains=1, n_per_chain=10, x0=np.zeros(3))


def test_pool_frees_slabs_before_chain_columns():
    # numpy reports its buffers to tracemalloc; one block of 500 chains
    spec, chains, n, burn_in, thin = reference(2), 500, 200, 50, 5
    diags = drift_diagnostics(spec, 3, 1_000)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        stationary_pool(spec, 3, chains, n, burn_in=burn_in, thin=thin, contractivity=diags)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    slabs = 2 * chains * 2 * (burn_in + n * thin) * 8
    groups = 4 * chains * n * 2 * 8
    columns = 2 * chains * n * 8
    # a view of the slabs left alive would add the chain and step columns
    assert peak < slabs + groups + columns / 2


@pytest.mark.parametrize("d", [1, 2, 3])
def test_pool_is_laid_out_as_loaded(tmp_path, d):
    # coordinate-major, like pool.bin: every column is contiguous
    pool = stationary_pool(reference(d), seed=4, chains=3, n_per_chain=7)
    pool.save(tmp_path / "pool.bin")
    back = SamplePool.load(tmp_path / "pool.bin")
    for group in ("x_pre", "a", "b", "x_post"):
        built = getattr(pool, group)
        assert built.strides == getattr(back, group).strides, group
        assert all(built[:, j].flags.c_contiguous for j in range(d)), group


def test_pool_custom_start_point():
    a = stationary_pool(REFERENCE, seed=2, chains=1, n_per_chain=3, burn_in=0, thin=1)
    b = stationary_pool(REFERENCE, seed=2, chains=1, n_per_chain=3, burn_in=0, thin=1, x0=[100.0])
    assert not np.array_equal(a.x_post, b.x_post)
    assert b.meta["x0"] == [100.0]


def test_pool_mean_matches_stationary_mean():
    # E X = E B / (1 - E A) = 1 / 0.2 = 5 for the reference model
    pool = stationary_pool(REFERENCE, seed=13, chains=200, n_per_chain=500)
    assert np.mean(pool.x_post) == pytest.approx(5.0, rel=0.1)


# -- persistence ----------------------------------------------------------------


def test_save_load_roundtrip(tmp_path):
    pool = stationary_pool(REFERENCE, seed=4, chains=3, n_per_chain=7)
    path = tmp_path / "pool.bin"
    pool.save(path)
    assert (tmp_path / "pool.meta.json").exists()
    back = SamplePool.load(path)
    np.testing.assert_array_equal(back.x_post, pool.x_post)
    np.testing.assert_array_equal(back.x_pre, pool.x_pre)
    np.testing.assert_array_equal(back.a, pool.a)
    np.testing.assert_array_equal(back.b, pool.b)
    np.testing.assert_array_equal(back.chain, pool.chain)
    np.testing.assert_array_equal(back.step, pool.step)
    assert back.meta == pool.meta


def test_save_writes_the_same_bytes_from_a_record_major_pool(tmp_path):
    pool = stationary_pool(reference(2), seed=4, chains=3, n_per_chain=7)
    rows = pool.select(np.arange(len(pool)))
    assert rows.x_post.flags.c_contiguous
    pool.save(tmp_path / "cols.bin")
    rows.save(tmp_path / "rows.bin")
    assert (tmp_path / "cols.bin").read_bytes() == (tmp_path / "rows.bin").read_bytes()


def fill_disk(monkeypatch, fail_after, *modules):
    """Make files opened from the given modules raise ENOSPC once more
    than fail_after bytes have been written through them in total."""
    real_open = open
    written = 0

    class FullDisk:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.fh.__exit__(*exc)

        def write(self, data):
            nonlocal written
            written += len(data)
            if written > fail_after:
                raise OSError(errno.ENOSPC, "No space left on device")
            return self.fh.write(data)

    for module in modules:
        monkeypatch.setattr(
            module, "open", lambda *a, **k: FullDisk(real_open(*a, **k)), raising=False
        )


@pytest.mark.parametrize("fail_after", [500, 1_100])
def test_failed_save_leaves_no_loadable_pool(tmp_path, monkeypatch, fail_after):
    # the disk fills after fail_after bytes: inside pool.bin (1,008 bytes)
    # or inside the sidecar, while a previous pool sits in the same place
    (tmp_path / "out").mkdir()
    (tmp_path / "ref").mkdir()
    path = tmp_path / "out" / "pool.bin"
    stationary_pool(REFERENCE, seed=4, chains=3, n_per_chain=7).save(path)
    pool = stationary_pool(REFERENCE, seed=5, chains=3, n_per_chain=7)
    pool.save(tmp_path / "ref" / "pool.bin")
    old, new = path.read_bytes(), (tmp_path / "ref" / "pool.bin").read_bytes()
    fill_disk(monkeypatch, fail_after, common)
    with pytest.raises(OSError):
        pool.save(path)
    with pytest.raises(FileNotFoundError):
        SamplePool.load(path)
    assert [p.name for p in path.parent.iterdir()] == ["pool.bin"]
    # pool.bin is whole: the old one, or the new one when the sidecar failed
    assert path.read_bytes() == (old if fail_after < len(old) else new)


def test_load_rejects_truncated_file(tmp_path):
    pool = stationary_pool(REFERENCE, seed=4, chains=2, n_per_chain=5)
    path = tmp_path / "pool.bin"
    pool.save(path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ValueError):
        SamplePool.load(path)


def test_load_rejects_unknown_format(tmp_path):
    pool = stationary_pool(REFERENCE, seed=4, chains=2, n_per_chain=5)
    path = tmp_path / "pool.bin"
    pool.save(path)
    meta = json.loads((tmp_path / "pool.meta.json").read_text())
    meta["format"] = "pool-rowwise-v0"
    (tmp_path / "pool.meta.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError):
        SamplePool.load(path)


def test_csv_export_is_rfc4180(tmp_path):
    pool = stationary_pool(REFERENCE, seed=4, chains=2, n_per_chain=3)
    path = tmp_path / "pool.csv"
    pool.to_csv(path)
    raw = path.read_bytes()
    assert raw.count(b"\r\n") == len(pool) + 1
    lines = raw.decode().split("\r\n")
    assert lines[0] == "chain,step,x_pre_0,a_0,b_0,x_post_0"
    # %.17g column values parse back bit-exact
    data = np.array([line.split(",") for line in lines[1:-1]], dtype=float)
    np.testing.assert_array_equal(data[:, 5], pool.x_post[:, 0])


def test_failed_csv_export_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "pool.csv"
    stationary_pool(REFERENCE, seed=4, chains=3, n_per_chain=7).to_csv(path)
    old = path.read_bytes()
    pool = stationary_pool(REFERENCE, seed=5, chains=3, n_per_chain=7)
    # the disk fills halfway through the new CSV, whichever module opens it
    fill_disk(monkeypatch, len(old) // 2, common, simulate)
    with pytest.raises(OSError):
        pool.to_csv(path)
    assert [p.name for p in tmp_path.iterdir()] == ["pool.csv"]
    assert path.read_bytes() == old


def test_select_copies():
    pool = stationary_pool(REFERENCE, seed=4, chains=2, n_per_chain=5)
    # a slice, a mask and an index array all give a copy
    for index in (slice(5, None), pool.chain == 1, np.arange(5, 10)):
        sub = pool.select(index)
        assert len(sub) == 5 and np.all(sub.chain == 1)
        for name in ("x_pre", "a", "b", "x_post", "chain", "step"):
            assert not np.shares_memory(getattr(sub, name), getattr(pool, name)), name
        sub.x_post[:] = -1.0
        assert not np.any(pool.x_post == -1.0)
