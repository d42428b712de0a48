"""The report invariants of invariants.py: the checker itself, a seeded sweep
of small random configs over every closed-form family, noise law and sign
pattern, the findings it made that are mended, and the known finding that
still breaks a rule.

Each sweep run must exit 0 with reports that keep every invariant, or
refuse by design: exit 2 with a validation error, or exit 1 with one of the
package's own error types, on one stderr JSON line.  The models stay inside
the paper's hypotheses (a negative drift, a tail index of at most about 6,
noise moments finite beyond alpha + sigma_margin), where every rule holds.
"""

import contextlib
import io
import json
import random
import shutil
from pathlib import Path

import pytest

import invariants
from heavytail_sre import common
from heavytail_sre.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
# the package's own runtime errors; its ConfigurationError exits 2 as "validation"
DESIGNED = {name for name, cls in vars(common).items() if isinstance(cls, type)
            and issubclass(cls, Exception) and cls.__module__ == common.__name__} - {
    "ConfigurationError"}
SIMULATE = {"stage": "simulate", "params": {"chains": 40, "n_per_chain": 250}}


def run(root: Path, model: dict, seed: int, pipeline: list) -> tuple[int, list[str]]:
    """(exit code, stderr lines) of one in-process run into root / "out"."""
    config = root / "config.json"
    config.write_text(json.dumps({"model": model, "seed": seed, "out": str(root / "out"),
                                  "pipeline": pipeline}))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["run", "--config", str(config)])
    return code, err.getvalue().splitlines()


# -- the checker ---------------------------------------------------------------


def broken(tmp_path, name, artifact, edit):
    """The violations of a copy of a golden run with one report edited."""
    out = tmp_path / name
    shutil.copytree(GOLDEN / name, out)
    doc = json.loads((out / artifact).read_text())
    edit(doc)
    (out / artifact).write_text(json.dumps(doc))
    return invariants.violations(out)


def _set(path, value):
    def edit(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = value
    return edit


@pytest.mark.parametrize("artifact, path, value, found", [
    ("tails.report.json", ("coordinates", 0, "goldie_constant", "minus", "value"), -1.0,
     "tails.report.json.coordinates[0].goldie_constant.minus: tail constant -1.0 < 0"),
    ("tails.report.json", ("tail_constants", "c_inf", "ci_lo"), 1e9,
     "tails.report.json.tail_constants.c_inf: interval [1000000000.0,"),
    ("tails.report.json", ("coordinates", 1, "hill", "k"), 10**9,
     "tails.report.json.coordinates[1].hill.k: count 1000000000 is not an integer in [0, 50000]"),
    ("spectral.report.json", ("off_block_mass", 0), 0.5,
     "spectral.report.json.block_mass[0]: masses and off-block mass do not sum to 1"),
    ("spectral.report.json", ("block_mass", 1, 0), 1.5,
     "spectral.report.json.block_mass[1][0]: 1.5 is not in [0, 1]"),
    ("independence.report.json", ("pairs", 0, "joint", "counts", 0), 2.0,
     "independence.report.json.pairs[0].joint.counts[0]: count 2.0 is not an integer"),
    ("solve-alpha.report.json", ("coordinates", 0, "positivity", "s_inf"), 4.0,
     "solve-alpha.report.json.coordinates[0].positivity.s_inf: 4.0 is not s_inf inf"),
    ("solve-alpha.report.json", ("coordinates", 1, "margin_ok"), False,
     "solve-alpha.report.json.coordinates[1].margin_ok: False disagrees with s_inf inf"),
    ("solve-alpha.report.json", ("coordinates", 0, "abscissa", "s_inf"), 1.5,
     "solve-alpha.report.json.coordinates[0].alpha: 1.9999999999999998 is not below s_inf 1.5"),
])
def test_the_checker_names_each_broken_rule(tmp_path, artifact, path, value, found):
    lines = broken(tmp_path, "two-point-all-stages", artifact, _set(path, value))
    assert [line for line in lines if line.startswith(found)], lines


def test_the_checker_reads_the_manifest_against_the_disk(tmp_path):
    code, err = run(tmp_path, {"family": "TwoPoint", "d": 1,
                               "params": {"p": 0.2, "up": 2.0, "down": 0.5}}, 1, ["solve-alpha"])
    assert (code, err) == (0, [])
    assert invariants.violations(tmp_path / "out") == []
    (tmp_path / "out" / "stray.csv").write_text("")
    assert invariants.violations(tmp_path / "out") == [
        "manifest.json: lists [] not on disk, misses ['stray.csv']"]


# -- the sweep -----------------------------------------------------------------

NOISE = {
    "exponential": lambda r: {"rate": round(r.uniform(0.5, 2.0), 3)},
    "pareto": lambda r: {"index": round(r.uniform(8.0, 12.0), 3)},
    "uniform": lambda r: {"low": -1.0, "high": 1.0},
    "normal": lambda r: {"mean": 0.0, "std": 1.0},
    "lognormal": lambda r: {"mu": 0.0, "sigma": 0.5},
    "constant": lambda r: {"value": 1.0},
}


def random_model(seed: int) -> dict:
    """Seed k takes family k mod 4 and noise law k mod 6, so any 12
    consecutive seeds cover every pair; the rest is drawn from the seed."""
    r = random.Random(seed)
    family, d = ("TwoPoint", "LogNormal", "CCCGarch", "BekkDiag")[seed % 4], r.randint(1, 3)

    def u(lo, hi):
        return [round(r.uniform(lo, hi), 3) for _ in range(d)]

    if family == "TwoPoint":  # alpha up to 5.6; a negative down makes A signed
        params = {"p": u(0.1, 0.4), "up": u(1.5, 3.0),
                  "down": [round(r.choice((-1, 1)) * r.uniform(0.2, 0.5), 3) for _ in range(d)]}
    elif family == "LogNormal":  # alpha = -2 mu / sigma^2 in [1, 6]
        sigma, alpha = u(0.3, 0.8), u(1.0, 6.0)
        params = {"mu": [round(-a * s * s / 2, 4) for a, s in zip(alpha, sigma)], "sigma": sigma}
    elif family == "CCCGarch":  # alpha up to about 5.5, shared factors at random
        params = {"arch": u(0.2, 0.4), "garch": u(0.2, 0.5),
                  "z_map": [r.randrange(d) for _ in range(d)]}
    else:  # signed normal A_j of scale 0.7 to 1.3: alpha from about 1.5 to 4.9
        coeff = [u(-1.0, 1.0) for _ in range(d)]
        for j in range(d):
            scale = r.uniform(0.7, 1.3) / max(1e-3, sum(row[j] ** 2 for row in coeff) ** 0.5)
            for row in coeff:
                row[j] = round(row[j] * scale, 4)
        params = {"coeff": coeff}
    dist = sorted(NOISE)[seed % 6]
    params["b"] = {"dist": dist, **NOISE[dist](r)}
    return {"family": family, "d": d, "params": params}


def sweep_pipeline(d: int) -> list:
    """Every stage on 10,000 records; independence needs two coordinates."""
    return ["solve-alpha", SIMULATE, {"stage": "blocks", "params": {"n": 5_000, "cross_n": 20_000}},
            "tails", {"stage": "spectral", "params": {"min_top": 20}},
            *([{"stage": "independence",
                "params": {"n": 20_000, "submult_n": 2_000, "min_top": 10}}] if d > 1 else []),
            "report"]


@pytest.mark.parametrize("seed", range(20))
def test_a_random_config_keeps_the_invariants_or_refuses_by_design(seed, tmp_path):
    model = random_model(seed)
    code, err = run(tmp_path, model, seed, sweep_pipeline(model["d"]))
    if code == 0:
        assert err == []
        assert invariants.violations(tmp_path / "out") == []
    else:
        assert len(err) == 1, err
        kind = json.loads(err[0])["error"]
        assert (code, kind) == (2, "validation") or (code == 1 and kind in DESIGNED), err


# -- mended findings ----------------------------------------------------------


def test_an_uncertified_cross_moment_refuses_by_design(tmp_path):
    # CCCGarch with one factor for both coordinates, at the sweep's n = 20,000:
    # the sampled cross moment is not certified below 1, which is evidence
    # about blocks, not a bad argument
    model = {"family": "CCCGarch", "d": 2,
             "params": {"arch": [0.337, 0.337], "garch": [0.455, 0.256], "z_map": [0, 0],
                        "b": {"dist": "exponential", "rate": 1.461}}}
    code, err = run(tmp_path, model, 13, sweep_pipeline(2))
    assert code == 1 and json.loads(err[0])["error"] == "AmbiguousPartitionError", err
    assert "increase n" in json.loads(err[0])["detail"]


def test_a_huge_alpha_is_not_blamed_on_the_pool_size(tmp_path):
    # alpha = 587.17, where |x|^alpha overflows a float: the tails stage names
    # the overflow before any estimator reads the inf (under the suite's
    # RuntimeWarning filter, a warning would exit as "RuntimeWarning")
    model = {"family": "BekkDiag", "d": 1,
             "params": {"coeff": [[0.068]], "b": {"dist": "lognormal", "mu": 0.0, "sigma": 0.5}}}
    code, err = run(tmp_path, model, 0, ["solve-alpha", SIMULATE, "tails"])
    doc = json.loads(err[0])
    assert (code, doc["error"], doc["stage"]) == (1, "LadderError", "tails"), err
    assert "coordinate 0: |x|^alpha overflows a float at alpha 587.1" in doc["detail"], err


# -- known findings ------------------------------------------------------------


def known(finding: str):
    """A finding that breaks a rule today: the test fails on its assertion
    until the program is mended, and then must be un-marked."""
    return pytest.mark.xfail(raises=AssertionError, strict=True, reason=finding)


@known("above alpha = 2 the Goldie summand has no variance, and the plus half of an "
       "A >= 0 model reads -56")
def test_goldie_halves_stay_nonnegative_above_alpha_two(tmp_path):
    model = {"family": "LogNormal", "d": 2,
             "params": {"mu": [-0.459, -0.342], "sigma": [0.377, 0.333],
                        "b": {"dist": "normal", "mean": 0.0, "std": 1.0}}}
    code, err = run(tmp_path, model, 4, ["solve-alpha", SIMULATE, "tails"])
    assert (code, err) == (0, [])
    assert invariants.violations(tmp_path / "out") == []
