import dataclasses
import errno
import json
import math
import os
import sys
import time
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
from heavytail_sre import cli, common, simulate
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
    monkeypatch.setattr(simulate, "drift_diagnostics", lambda spec, seed: fake)
    with pytest.raises(DivergenceError) as err:
        stationary_pool(expanding, seed=seed, chains=chains, n_per_chain=steps, thin=1, burn_in=0)
    assert (err.value.step, err.value.chain) == want


def use_cpus(monkeypatch, procs):
    """Make common.Workers and stationary_pool see procs usable CPUs, and count forks."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(procs)))
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_pool_bytes_do_not_depend_on_the_process_count(monkeypatch, tmp_path):
    # one process would step 4 blocks of 5 chains; 2 processes step 10
    # blocks of 2, 3 processes 20 blocks of 1 (7, 7 and 6 each)
    monkeypatch.setattr(simulate, "_BLOCK_TARGET_FLOATS", 5 * 45 * 2)
    spec = reference(2)
    digests = []
    for procs in (1, 2, 3):
        forks = use_cpus(monkeypatch, procs)
        pool = stationary_pool(spec, seed=5, chains=20, n_per_chain=20, burn_in=5, thin=2)
        assert len(forks) == procs - 1
        pool.save(tmp_path / f"pool{procs}.bin")
        digests.append((tmp_path / f"pool{procs}.bin").read_bytes())
        assert_no_child_left()
    assert digests[1] == digests[0] and digests[2] == digests[0]


def test_processes_split_one_slab_budget(monkeypatch):
    # a one-process block of 10 long chains; two processes hold 5 each, so
    # the slab pair of either is half the one-process pair
    spec = reference(2)
    diags = drift_diagnostics(spec, 5, 1_000)
    monkeypatch.setattr(simulate, "drift_diagnostics", lambda spec, seed: diags)
    monkeypatch.setattr(simulate, "_BLOCK_TARGET_FLOATS", 9 * 2010 * 2)
    peaks = []
    for procs in (1, 2):
        use_cpus(monkeypatch, procs)
        tracemalloc.start()
        try:
            stationary_pool(spec, 5, 40, 10, burn_in=2000, thin=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    slabs = 2 * 10 * 2 * 2010 * 8
    assert slabs < peaks[0] < 1.2 * slabs
    # the parent's own slab pair is half as large; a worker's is the same
    assert 0.45 * slabs < peaks[0] - peaks[1] < 0.55 * slabs


@pytest.mark.parametrize("procs", [2, 3])
def test_divergence_in_a_worker_share_reports_as_one_process(monkeypatch, procs):
    expanding = ModelSpec(
        "TwoPoint", 2, {"p": 0.8, "up": 2.0, "down": 0.5, "b": {"dist": "exponential", "rate": 1.0}}
    )
    fake = (LogMoment(exact(-1.0), 0.0, True, False),) * 2
    # blocks of one chain: process k steps chains k, k + procs, ...; at seed
    # 6 the earliest divergence (chain 5) falls to a worker, and the parent's
    # own chains diverge later
    monkeypatch.setattr(simulate, "_BLOCK_TARGET_FLOATS", 2 * 3000 * 2)
    monkeypatch.setattr(simulate, "drift_diagnostics", lambda spec, seed: fake)
    kwargs = dict(seed=6, chains=7, n_per_chain=3000, thin=1, burn_in=0)
    use_cpus(monkeypatch, 1)
    with pytest.raises(DivergenceError) as one:
        stationary_pool(expanding, **kwargs)
    assert one.value.chain % procs != 0
    forks = use_cpus(monkeypatch, procs)
    with pytest.raises(DivergenceError) as many:
        stationary_pool(expanding, **kwargs)
    assert len(forks) == procs - 1
    assert (many.value.step, many.value.chain) == (one.value.step, one.value.chain)
    assert str(many.value) == str(one.value)
    assert_no_child_left()


@pytest.mark.parametrize("procs", [1, 2, 3])
def test_a_chain_that_raises_comes_before_any_divergence(monkeypatch, procs):
    # the setup above, where every process meets a divergence before chain 6
    # raises; one process raises it, so every CPU count does
    def stream(seed, chain):
        if chain == 6:
            raise MemoryError("no room for chain 6")
        return chain_stream(seed, chain)

    expanding = ModelSpec(
        "TwoPoint", 2, {"p": 0.8, "up": 2.0, "down": 0.5, "b": {"dist": "exponential", "rate": 1.0}}
    )
    fake = (LogMoment(exact(-1.0), 0.0, True, False),) * 2
    monkeypatch.setattr(simulate, "_BLOCK_TARGET_FLOATS", 2 * 3000 * 2)
    monkeypatch.setattr(simulate, "drift_diagnostics", lambda spec, seed: fake)
    monkeypatch.setattr(simulate, "chain_stream", stream)
    use_cpus(monkeypatch, procs)
    with pytest.raises(MemoryError, match="no room for chain 6"):
        stationary_pool(expanding, seed=6, chains=7, n_per_chain=3000, thin=1, burn_in=0)
    assert_no_child_left()


@pytest.mark.parametrize("where", ["parent", "worker"])
@pytest.mark.parametrize("procs", [1, 2, 3])
def test_a_failing_share_raises_as_itself_at_every_cpu_count(monkeypatch, tmp_path, procs, where):
    # blocks of 5, 2 and 1 chains at 1, 2 and 3 processes (see above): chain 0
    # is the parent's, chain 2 a worker's wherever there is one
    parent, bad, raised = os.getpid(), 0 if where == "parent" else 2, tmp_path / "raised"

    def stream(seed, chain):
        if chain == bad:
            raised.write_text(str(os.getpid()))
            raise MemoryError("no room for the slab")
        return chain_stream(seed, chain)

    monkeypatch.setattr(simulate, "_BLOCK_TARGET_FLOATS", 5 * 45 * 2)
    monkeypatch.setattr(simulate, "chain_stream", stream)
    forks = use_cpus(monkeypatch, procs)
    exits = tmp_path / "exits"
    try:
        with pytest.raises(MemoryError) as err:
            stationary_pool(reference(2), seed=5, chains=20, n_per_chain=20, burn_in=5, thin=2)
    finally:
        # a worker leaves through os._exit, so only the parent gets here
        with open(exits, "a") as fh:
            fh.write(f"{os.getpid()}\n")
    assert type(err.value) is MemoryError and str(err.value) == "no room for the slab"
    assert (int(raised.read_text()) != parent) == (where == "worker" and procs > 1)
    assert len(forks) == procs - 1
    assert exits.read_text() == f"{parent}\n"
    assert_no_child_left()


@pytest.mark.parametrize("procs", [1, 2, 3])
def test_the_lowest_failing_chain_raises_at_every_cpu_count(monkeypatch, procs):
    # chain 0 is the parent's and chain 2 a worker's wherever there is one;
    # one process meets chain 0 first, so every CPU count raises its failure
    def stream(seed, chain):
        if chain in (0, 2):
            raise MemoryError(f"no room for chain {chain}")
        return chain_stream(seed, chain)

    monkeypatch.setattr(simulate, "_BLOCK_TARGET_FLOATS", 5 * 45 * 2)
    monkeypatch.setattr(simulate, "chain_stream", stream)
    forks = use_cpus(monkeypatch, procs)
    with pytest.raises(MemoryError) as err:
        stationary_pool(reference(2), seed=5, chains=20, n_per_chain=20, burn_in=5, thin=2)
    assert str(err.value) == "no room for chain 0"
    assert len(forks) == procs - 1
    assert_no_child_left()


@pytest.mark.parametrize("where", ["share", "wait"])
def test_interrupted_parent_kills_and_reaps_its_workers(monkeypatch, where):
    parent, waitpid, interrupts = os.getpid(), os.waitpid, [KeyboardInterrupt]

    def stream(seed, chain):
        if where == "share" and os.getpid() == parent:
            raise KeyboardInterrupt
        return chain_stream(seed, chain)

    def wait(pid, options):
        # the first wait for a worker is interrupted before it reaps
        if where == "wait" and interrupts:
            raise interrupts.pop()
        return waitpid(pid, options)

    monkeypatch.setattr(simulate, "_BLOCK_TARGET_FLOATS", 5 * 45 * 2)
    monkeypatch.setattr(simulate, "chain_stream", stream)
    monkeypatch.setattr(os, "waitpid", wait)
    forks = use_cpus(monkeypatch, 3)
    with pytest.raises(KeyboardInterrupt):
        stationary_pool(reference(2), seed=5, chains=20, n_per_chain=20, burn_in=5, thin=2)
    assert len(forks) == 2
    assert_no_child_left()


def fail(text):
    raise ValueError(text)


def test_workers_await_their_calls_in_call_order(monkeypatch):
    forks = use_cpus(monkeypatch, 2)
    with common.Workers() as workers:
        results = [workers.call(lambda k: (k, os.getpid()), k) for k in range(3)]
        got = [result() for result in results]
    assert [k for k, _ in got] == [0, 1, 2] and os.getpid() not in {pid for _, pid in got}
    assert len(forks) == 3
    assert_no_child_left()


@pytest.mark.parametrize("where", ["worker", "here"])
def test_a_failing_call_hands_back_its_exception(monkeypatch, where):
    # the getters are read against call order: neither raises
    use_cpus(monkeypatch, 3)
    with common.Workers() as workers:
        first, second = (workers.call(fail, text, fork=where == "worker") for text in ("1", "2"))
        got = [second(), first()]
    assert [type(e) for e in got] == [ValueError] * 2 and [str(e) for e in got] == ["2", "1"]
    assert_no_child_left()


def test_a_worker_that_dies_hands_back_its_exit_status(monkeypatch):
    use_cpus(monkeypatch, 2)
    with common.Workers() as workers:
        got = workers.call(os._exit, 3)()
    assert type(got) is RuntimeError and str(got) == "exit status 3"
    assert common.value(5) == 5
    with pytest.raises(RuntimeError, match="exit status 3"):
        common.value(got)
    # a BaseException that is not an Exception ends the worker as exit status 1
    with common.Workers() as workers:
        assert str(workers.call(sys.exit, "bye")()) == "exit status 1"
    assert_no_child_left()


def test_an_exception_in_the_block_leaves_at_once_and_kills_the_workers(monkeypatch):
    use_cpus(monkeypatch, 2)
    start = time.monotonic()
    with pytest.raises(ValueError, match="here"):
        with common.Workers() as workers:
            workers.call(time.sleep, 10)
            fail("here")
    assert time.monotonic() - start < 5
    assert_no_child_left()


def test_pool_extends_by_adding_chains():
    # the first chains of a larger pool replicate the smaller pool exactly
    small = stationary_pool(REFERENCE, seed=9, chains=4, n_per_chain=20)
    large = stationary_pool(REFERENCE, seed=9, chains=8, n_per_chain=20)
    np.testing.assert_array_equal(large.x_post[: len(small)], small.x_post)


def test_pool_refuses_non_contractive_model():
    expanding = ModelSpec("TwoPoint", 1, {"p": 0.8, "up": 2.0, "down": 0.5})
    with pytest.raises(NonContractiveError):
        stationary_pool(expanding, seed=0, chains=1, n_per_chain=10)


def test_pool_divergence_reports_chain(monkeypatch):
    # forged diagnostics let an expanding chain start, then blow up
    expanding = constant_model(a=2.0, b=1.0)
    fake = (LogMoment(exact(-1.0), 0.0, True, False),)
    monkeypatch.setattr(simulate, "drift_diagnostics", lambda spec, seed: fake)
    with pytest.raises(DivergenceError) as err:
        stationary_pool(expanding, seed=0, chains=2, n_per_chain=2000, thin=1, burn_in=0)
    # x_t = 2^t - 1 first overflows at t = 1024, on every chain at once
    assert (err.value.step, err.value.chain) == (1024, 0)


def test_pool_validates_arguments():
    with pytest.raises(ValueError):
        stationary_pool(REFERENCE, seed=0, chains=0, n_per_chain=10)
    with pytest.raises(ValueError):
        stationary_pool(REFERENCE, seed=0, chains=1, n_per_chain=10, thin=0)
    with pytest.raises(ValueError):
        stationary_pool(REFERENCE, seed=0, chains=1, n_per_chain=10, x0=np.zeros(3))
    with pytest.raises(ValueError, match="burn_in must be nonnegative"):
        stationary_pool(REFERENCE, seed=0, chains=1, n_per_chain=10, burn_in=-1)


def test_pool_frees_slabs_before_chain_columns(monkeypatch):
    # numpy reports its buffers to tracemalloc; one block of 500 chains
    spec, chains, n, burn_in, thin = reference(2), 500, 200, 50, 5
    diags = drift_diagnostics(spec, 3, 1_000)
    monkeypatch.setattr(simulate, "drift_diagnostics", lambda spec, seed: diags)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        stationary_pool(spec, 3, chains, n, burn_in=burn_in, thin=thin)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    slabs = 2 * chains * 2 * (burn_in + n * thin) * 8
    columns = 2 * chains * n * 8
    # the float groups sit in a shared mmap, which tracemalloc does not see;
    # a view of the slabs left alive would add the chain and step columns
    assert peak < slabs + columns / 2


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
    columns = ("x_pre", "a", "b", "x_post", "chain", "step")
    rows = dataclasses.replace(pool, **{c: np.ascontiguousarray(getattr(pool, c)) for c in columns})
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


def test_load_maps_the_file_instead_of_copying_it(tmp_path):
    # 10^5 records at d = 2 make an 8 MB pool.bin
    path = tmp_path / "pool.bin"
    stationary_pool(reference(2), seed=4, chains=200, n_per_chain=500).save(path)
    tracemalloc.start()
    try:
        back = SamplePool.load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(back) == 100_000 and path.stat().st_size == 8_000_000
    assert peak < path.stat().st_size / 10


def test_loaded_columns_are_read_only(tmp_path):
    stationary_pool(reference(2), seed=4, chains=3, n_per_chain=7).save(tmp_path / "pool.bin")
    back = SamplePool.load(tmp_path / "pool.bin")
    for group in ("x_pre", "a", "b", "x_post", "chain", "step"):
        assert not getattr(back, group).flags.writeable, group
    with pytest.raises(ValueError, match="read-only"):
        back.x_post[:, 0] *= 2.0


def test_failed_csv_export_keeps_the_old_file(tmp_path, monkeypatch):
    # every CSV of the pipeline is written through cli._write_csv
    path = tmp_path / "pool.csv"
    header = ["chain", "step", "x_post_0"]
    rows = lambda pool: zip(pool.chain, pool.step, pool.x_post[:, 0])
    cli._write_csv(path, header, rows(stationary_pool(REFERENCE, seed=4, chains=3, n_per_chain=7)))
    old = path.read_bytes()
    pool = stationary_pool(REFERENCE, seed=5, chains=3, n_per_chain=7)
    # the disk fills halfway through the new CSV
    fill_disk(monkeypatch, len(old) // 2, common)
    with pytest.raises(OSError):
        cli._write_csv(path, header, rows(pool))
    assert [p.name for p in tmp_path.iterdir()] == ["pool.csv"]
    assert path.read_bytes() == old

