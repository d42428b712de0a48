"""Monte Carlo moment routines: their bits, and the memory they leave behind.

The golden CLI digests reach the Monte Carlo routes only through BekkDiag,
which has no mass at zero and d = 3.  The digests here pin every Monte Carlo
moment routine on three more models:

* TwoPoint with ``down: 0`` on coordinate 0: the zero masks, the compaction
  of the empirical kappa, and a gamma scan whose summands are not all
  positive;
* a d = 1 model, whose draw has no spare A row;
* a Custom callable, the only family whose positivity check samples.
"""

import copy
import gc
import hashlib
import json
import mmap
import tracemalloc

import numpy as np
import pytest

from heavytail_sre import (
    ModelSpec,
    build_tau,
    cross_kappa,
    goldie_mean,
    kappa,
    log_moment,
    moment_abscissa,
    positivity_check,
    solve_alpha,
    tau_gamma_bound,
)
from heavytail_sre import model
from heavytail_sre.moments import noise_margin_ok

MC = "monte-carlo"
N = 20_000

TWO_POINT_ZERO = ModelSpec(
    "TwoPoint",
    2,
    {
        "p": [0.3, 0.4],
        "up": [2.0, 1.8],
        "down": [0.0, 0.5],
        "b": {"dist": "exponential", "rate": 1.0},
    },
)
ONE_COORDINATE = ModelSpec(
    "CCCGarch",
    1,
    {"arch": 0.35, "garch": 0.25, "b": {"dist": "pareto", "index": 3.0, "scale": 1.0}},
)


def _sampler(rng, n):
    # independent log-normal magnitudes, the second column negative
    z = rng.standard_normal((n, 2))
    a = np.exp(0.5 * z - 0.3)
    a[:, 1] *= -1.0
    return a, rng.standard_exponential((n, 2))


CUSTOM_CALLABLE = ModelSpec("Custom", 2, {"sampler": _sampler, "name": "lognormal-pair"})

MODELS = {
    "two-point-zero-mass": TWO_POINT_ZERO,
    "one-coordinate": ONE_COORDINATE,
    "custom-callable": CUSTOM_CALLABLE,
}


def routines(spec: ModelSpec, n: int) -> dict:
    """Every Monte Carlo moment routine, as name -> call(rng); the alphas are
    the ones the model's Monte Carlo solve gives at seed 1."""
    other = 1 if spec.d > 1 else 0
    alpha = [solve_alpha(spec, j, method=MC, n=n, rng=np.random.default_rng(1)).alpha
             for j in range(spec.d)]
    calls = {
        "kappa-0": lambda rng: kappa(spec, 0, 0.0, method=MC, n=n, rng=rng),
        "kappa-1.5": lambda rng: kappa(spec, 0, 1.5, method=MC, n=n, rng=rng),
        "solve_alpha": lambda rng: solve_alpha(spec, 0, method=MC, n=n, rng=rng),
        "goldie_mean": lambda rng: goldie_mean(spec, 0, alpha[0], method=MC, n=n, rng=rng),
        "cross_kappa-0.5": lambda rng: cross_kappa(
            spec, 0, other, alpha[0], alpha[other], xi=0.5, method=MC, n=n, rng=rng),
        "cross_kappa-1": lambda rng: cross_kappa(
            spec, 0, other, alpha[0], alpha[other], xi=1.0, method=MC, n=n, rng=rng),
        "moment_abscissa": lambda rng: moment_abscissa(spec, 0, n=n // 2, rng=rng, method=MC),
        "positivity_check": lambda rng: positivity_check(spec, 0, alpha[0], n=n // 2, rng=rng),
        "noise_margin_ok": lambda rng: noise_margin_ok(spec, 0, alpha[0], n, rng),
        "log_moment": lambda rng: log_moment(spec, 0, n=n, rng=rng, method=MC),
    }
    if spec.d > 1:
        calls["tau_gamma_bound"] = lambda rng: tau_gamma_bound(
            spec, 0, 1, alpha[0], alpha[1], build_tau({"kind": "log"}), rng=rng, n=n, cross_method=MC)
    return calls


def digest(result) -> str:
    doc = result.to_dict() if hasattr(result, "to_dict") else result
    text = json.dumps(doc, sort_keys=True, default=bool)
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of each routine's to_dict() (a bool for noise_margin_ok) at seed 7
DIGESTS = {
    "custom-callable": {
        "cross_kappa-0.5": "7d0fe1fbb9eafc24af0e019d6391c4312879dc3415258c3d11b8beb8817ee261",
        "cross_kappa-1": "54eb0f27c75de17e0cf33df9a6147b33ee1817489fdc9140a5db913a10a4c752",
        "goldie_mean": "fce646ca2c8d90628ce9b9cbc41d4f7ab6a4715799ce8ff5feeb58754d4c5433",
        "kappa-0": "1426abe334d17f4f40ef67710a07e9e2ee8bcd342f62d5fa61bbeb8e9251af80",
        "kappa-1.5": "b9f82256c7ec3a5d76644ca71939440eda855f9e90fd4e9ea27825ee0a38a949",
        "log_moment": "14b0c0cde7f4d4ad8044a5ee742114130e002bc7275ac8549df76eee8dbb9873",
        "moment_abscissa": "3275d5fbbc6438366298f66e99bb762a975531cee28e56045cfd4c4351f19074",
        "noise_margin_ok": "b5bea41b6c623f7c09f1bf24dcae58ebab3c0cdd90ad966bc43a45b44867e12b",
        "positivity_check": "1853f956ac3ef7b05106c85a5e3d2be4aa99ab87565f4bbfba007da9d195c32f",
        "solve_alpha": "44516b0740a246ab259df5be5e8c81c080d97f59c5a4769f29edbec93832a87e",
        "tau_gamma_bound": "2f7fad970e34f6749fea59912633882214e0b3c8bd534145c4845613f55720a3",
    },
    "one-coordinate": {
        "cross_kappa-0.5": "a287750b0dc6fd178f25f2cd471081ee2bd811cd4a731908cd5f1822f92bc5a2",
        "cross_kappa-1": "a287750b0dc6fd178f25f2cd471081ee2bd811cd4a731908cd5f1822f92bc5a2",
        "goldie_mean": "82482c9e9387847bfcd48e4b71e8fd90e9b1261bcbce04f97a3b3b207f8a75d9",
        "kappa-0": "1426abe334d17f4f40ef67710a07e9e2ee8bcd342f62d5fa61bbeb8e9251af80",
        "kappa-1.5": "a5511d17052c3c06c580c559ae16486629aa34b1a6eb2554278328c60c92bf4d",
        "log_moment": "52a4a5c4d573dd8c24214b5e06947bf4c1c24bad32c089bc591c6f9a1dad927b",
        "moment_abscissa": "30d96aa51647ba07f3498697703777700b7c6f5ac3729704f07afa96a44015a7",
        "noise_margin_ok": "fcbcf165908dd18a9e49f7ff27810176db8e9f63b4352213741664245224f8aa",
        "positivity_check": "0cd33d91144a6e2f7f493807f5d0df50f44f52a7e5a8bdc9a22671206a9f4cb3",
        "solve_alpha": "f69679721a608f180998545a404afed75753c82fc3b610a72b8c5c37d1740fa3",
    },
    "two-point-zero-mass": {
        "cross_kappa-0.5": "6706539d8349fce40e1b8ae5c91e1dc9098bc6a778f6285e38d1d10a33e9730f",
        "cross_kappa-1": "c798b3e7bb233f10e3b327620b131408ed8f20d609d4686b44af1e9bfc3ece6e",
        "goldie_mean": "6c1bea89238f3a50fa41d1872b5d89ffadcbc7ce77a88798f6f87629e2d894b5",
        "kappa-0": "26c50bf895efe57043cba62e0c8f2dcd55ffcb121ec242113e1e0feecaea9c43",
        "kappa-1.5": "ab8fec43524e525525025c5a3293af78e6807c0c41314b1d95e4ce30a398de47",
        "log_moment": "607bd5a05a5cb97a27400e9cbcefdb04d4f592e006cfb84f4b42987f490cf2e5",
        "moment_abscissa": "18541865dec420c9bf824179d9f6ee51588095fd2d10ba79921e2ddaf943258a",
        "noise_margin_ok": "b5bea41b6c623f7c09f1bf24dcae58ebab3c0cdd90ad966bc43a45b44867e12b",
        "positivity_check": "fe82dafbf03f8c8a6fe76d0c70e5861eb0584c0fa8ae115177f7e39614bfdb0e",
        "solve_alpha": "bb362642bac8f8c7fc858f9b03fc21220c54db65897da50adbf66d5865cbc5e7",
        "tau_gamma_bound": "efb157404cd2b195a4a70f23b9ebc56f88857f0213cfd02d971d6f3bb872cee2",
    },
}


@pytest.mark.parametrize("model", sorted(MODELS))
def test_monte_carlo_routines_keep_their_bits(model):
    calls = routines(MODELS[model], N)
    got = {name: digest(call(np.random.default_rng(7))) for name, call in calls.items()}
    assert got == DIGESTS[model]


BEKK = ModelSpec(
    "BekkDiag",
    3,
    {
        "coeff": [[0.8, 0.5, 0.0], [0.6, -0.8, 0.0], [0.0, 0.0, 1.05]],
        "b": {"dist": "exponential", "rate": 1.0},
    },
)


def traced(call):
    """(bytes left alive once the result is dropped, peak bytes) of call()"""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        del result
        left, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return left - base, peak - base


@pytest.mark.parametrize("model", sorted(MODELS) + ["bekk-diag"])
def test_no_draw_outlives_its_routine(model):
    # with the cyclic collector off, a draw kept alive by a reference cycle
    # (a closure held by the root finder, say) stays counted after return
    spec, n = MODELS.get(model, BEKK), 50_000
    calls = routines(spec, n)
    _, draw_peak = traced(lambda: spec.sample_coeffs(np.random.default_rng(7), n))
    row = 8 * n
    enabled = gc.isenabled()
    gc.disable()
    try:
        for name, call in calls.items():
            call(np.random.default_rng(7))  # lazy imports and caches settle first
            left, peak = traced(lambda: call(np.random.default_rng(7)))
            assert left < row // 100, (name, left)
            # every draw here has n rows; only the gamma scan holds its own
            # buffers and the weight beside the draw
            if name != "tau_gamma_bound":
                assert peak <= draw_peak + row, (name, peak, draw_peak)
    finally:
        if enabled:
            gc.enable()


class HeapMaps:
    """Stands in for the mmap module of heavytail_sre.model: an anonymous
    map becomes a bytearray, which tracemalloc counts."""

    MAP_PRIVATE = mmap.MAP_PRIVATE

    @staticmethod
    def mmap(fileno, length, flags):
        assert fileno == -1 and flags == mmap.MAP_PRIVATE
        return bytearray(length)


ONE_COORDINATE_ROUTINES = ("log_moment", "kappa-0", "kappa-1.5", "solve_alpha", "goldie_mean",
                           "moment_abscissa", "positivity_check", "noise_margin_ok")


@pytest.mark.parametrize("name", sorted(MODELS) + ["bekk-diag"])
def test_routines_hold_only_the_rows_they_read(monkeypatch, name):
    # The kept rows of a draw are an anonymous map, which tracemalloc does
    # not see; here they are bytearrays, which it does, so a kept draw that
    # outlives its routine, or is held twice, shows.  With every closed
    # form hidden, so that each routine samples: a routine that reads one
    # coordinate holds that coordinate's kept draw and at most one scratch
    # row; cross_kappa computes in its kept pair, or in one coordinate's
    # draw when i == j; tau_gamma_bound holds its kept pair and at most
    # three n-sized arrays of its own (the weights and the weight
    # function's temporaries).
    monkeypatch.setattr(model, "mmap", HeapMaps)
    spec, n = copy.copy(MODELS.get(name, BEKK)), 50_000
    for hook in ("kappa_exact", "drift_exact", "goldie_mean_exact", "b_moment_exact",
                 "b_abscissa", "joint_moment_exact"):
        monkeypatch.setattr(spec, hook, lambda *args: None)
    monkeypatch.setattr(spec, "closed_forms", False)
    row, other = 8 * n, 1 if spec.d > 1 else 0

    def draw_peak(**keep):
        spec.sample_coeffs(np.random.default_rng(7), n, **keep)  # caches settle first
        return traced(lambda: spec.sample_coeffs(np.random.default_rng(7), n, **keep))[1]

    one = draw_peak(coords=(0,))
    pair = draw_peak(coords=(0, other)) if other else one
    if name == "bekk-diag":
        # beside its two rows, a kept draw holds a few (d, chunk) blocks,
        # not n-sized ones; the full draw holds 2 d rows and the normal
        # temporary
        chunks, full = one - 2 * row, draw_peak()
        assert 0 < chunks < 4 * 8 * model._CHUNK * spec.d
        assert one + row < full / 2, (full, one)
    bounds = dict.fromkeys(ONE_COORDINATE_ROUTINES, one + row)
    bounds.update({"cross_kappa-0.5": pair + row // 100, "cross_kappa-1": pair + row // 100,
                   "tau_gamma_bound": pair + 3 * row})
    calls = routines(spec, n)  # every draw here has at most n records
    enabled = gc.isenabled()
    gc.disable()  # as above: a map kept alive by a cycle stays counted
    try:
        for routine, call in calls.items():
            call(np.random.default_rng(7))  # lazy imports and caches settle first
            left, peak = traced(lambda: call(np.random.default_rng(7)))
            assert left < row // 100, (routine, left)
            assert peak <= bounds[routine], (routine, peak, bounds[routine])
    finally:
        if enabled:
            gc.enable()
