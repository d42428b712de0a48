import dataclasses
import importlib
import importlib.util
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import heavytail_sre
from heavytail_sre import cli
from heavytail_sre.common import Record
from heavytail_sre.independence import build_tau


def test_public_names_resolve():
    missing = [name for name in heavytail_sre.__all__ if not hasattr(heavytail_sre, name)]
    assert missing == []


def test_star_import():
    ns = {}
    exec("from heavytail_sre import *", ns)
    assert set(heavytail_sre.__all__) <= set(ns)


PAIR = heavytail_sre.ModelSpec(
    "TwoPoint",
    2,
    {"p": 0.2, "up": 2.0, "down": 0.5, "b": {"dist": "exponential", "rate": 1.0}},
)


def result_types() -> set:
    """Every dataclass with a to_dict defined in any module of the package."""
    modules = [
        importlib.import_module(f"heavytail_sre.{info.name}")
        for info in pkgutil.iter_modules(heavytail_sre.__path__)
    ]
    return {
        obj
        for module in modules
        for obj in vars(module).values()
        if isinstance(obj, type) and dataclasses.is_dataclass(obj) and hasattr(obj, "to_dict")
    }


@pytest.fixture(scope="module")
def results():
    """One instance of every result type, from the public functions."""
    hs = heavytail_sre
    rng = np.random.default_rng(5)
    pool = hs.stationary_pool(PAIR, seed=3, chains=40, n_per_chain=100)
    alphas = [hs.solve_alpha(PAIR, j).alpha for j in range(PAIR.d)]
    part = hs.detect_blocks(PAIR, alphas, rng, n=2_000)
    ladder = hs.empirical_tail_constant(pool, 0, alphas[0], min_top=10)
    blocks = hs.block_tail_constant(pool, part, alphas, min_top=10)
    return [
        hs.Estimate(0.5, 0.4, 0.6, 10, "monte-carlo"),
        hs.Estimate(float("inf"), float("inf"), float("inf"), 10, "monte-carlo", "unstable"),
        hs.solve_alpha(PAIR, 0),
        hs.moment_abscissa(PAIR, 0),
        hs.moment_abscissa(PAIR, 0, n=2_000, rng=rng, method="monte-carlo"),
        hs.positivity_check(PAIR, 0, alphas[0]),
        hs.log_moment(PAIR, 0),
        hs.hill_estimate(pool.x_post[:, 0], 50),
        hs.hill_estimate(np.ones(20), 5),
        ladder,
        hs.goldie_constant(pool, 0, alphas[0], hs.goldie_mean(PAIR, 0, alphas[0]).value),
        blocks,
        hs.spectral_measure(pool, part, alphas, min_top=10),
        hs.moment_estimate(pool, 0, 4.0),
        hs.TailConstants((ladder.c_plus,), (ladder.c_minus,), blocks.block_top, blocks.c_inf_top),
        hs.submultiplicativity_check(build_tau({"kind": "log"}), rng, n=1_000),
        hs.joint_exceedance(pool, 0, 1, alphas, min_top=5),
        hs.decay_rate_fit([1.0, 10.0, 100.0], [1.0, 0.5, 0.25]),
        hs.tau_gamma_bound(PAIR, 0, 1, alphas[0], alphas[1], build_tau({"kind": "log"}), rng, n=20_000),
        part,
    ]


def assert_plain(doc):
    """No tuple and no record survives anywhere inside a to_dict result."""
    assert not isinstance(doc, (tuple, Record))
    children = doc.values() if isinstance(doc, dict) else doc if isinstance(doc, list) else ()
    for child in children:
        assert_plain(child)


def test_every_result_type_is_a_record():
    types = result_types()
    assert heavytail_sre.Estimate in types
    assert all(issubclass(t, Record) for t in types)


def test_results_serialize_by_field_name(results):
    assert {type(r) for r in results} == result_types()
    for rec in results:
        doc = rec.to_dict()
        names = [f.name for f in dataclasses.fields(rec)]
        if isinstance(rec, heavytail_sre.Estimate) and rec.flag is None:
            names.remove("flag")
        assert list(doc) == names, type(rec).__name__
        assert_plain(doc)
        json.dumps(cli._jsonable(doc), allow_nan=False)


def test_traced_names_resolve():
    # perfbench/tracing.py wraps these by name; a missing one breaks --trace 1
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    package = tracing.PACKAGE
    for mod_name, attr in tracing.FUNCTIONS:
        module = importlib.import_module(f"{package}.{mod_name}")
        assert callable(getattr(module, attr, None)), f"{mod_name}.{attr}"
    for mod_name, cls_name, attr in tracing.METHODS:
        cls = getattr(importlib.import_module(f"{package}.{mod_name}"), cls_name)
        assert attr in vars(cls), f"{mod_name}.{cls_name}.{attr}"


def test_source_stays_under_the_line_cap():
    # the line count of `cat src/heavytail_sre/*.py | wc -l`, capped by ROADMAP item 1
    sources = Path(heavytail_sre.__file__).parent.glob("*.py")
    lines = sum(path.read_bytes().count(b"\n") for path in sources)
    assert lines <= 3990, f"src/heavytail_sre/*.py has {lines} lines, over the 3,990 cap"


def test_package_version_matches_pyproject():
    # manifest.json writes __version__, so it must be the packaged version
    tomllib = pytest.importorskip("tomllib")
    path = Path(__file__).resolve().parents[1] / "pyproject.toml"
    if not path.exists():
        pytest.skip("no pyproject.toml beside the tests")
    project = tomllib.loads(path.read_text())["project"]
    assert project["version"] == heavytail_sre.__version__


# Runs in a fresh interpreter, so no other test's imports leak into sys.modules.
IMPORT_GUARD = """
import json, sys
from heavytail_sre import ModelSpec, cli

codes = [cli.main(["run", "--config", path]) for path in sys.argv[1:]]
guarded = ("scipy.special", "scipy.optimize", "scipy.integrate", "numpy.ma")
loaded = sorted(m for m in guarded if m in sys.modules)
ccc = ModelSpec("CCCGarch", 2, {"arch": [0.35, 0.15], "garch": [0.25, 0.55]})
kappas = [ccc.kappa_exact(0, 1.5).hex(), ccc.kappa_exact(1, 2.0).hex()]
print(json.dumps({"codes": codes, "loaded": loaded, "kappas": kappas,
                  "integrate": "scipy.integrate" in sys.modules}))
"""


def test_pipelines_never_import_scipy_optimize_or_integrate(tmp_path):
    # scipy.special, scipy.optimize and scipy.integrate cost ~47 MB and
    # ~0.5 s of every start; only the quadrature hooks may load integrate,
    # and only on use.  numpy.ma costs ~17 ms of every process that loads it
    two_point = {"family": "TwoPoint", "d": 2, "params": {
        "p": 0.2, "up": 2.0, "down": 0.5, "b": {"dist": "exponential", "rate": 1.0}}}
    bekk = {"family": "BekkDiag", "d": 3, "params": {
        "coeff": [[0.8, 0.5, 0.0], [0.6, -0.8, 0.0], [0.0, 0.0, 1.05]],
        "b": {"dist": "exponential", "rate": 1.0}}}
    later = [{"stage": "simulate", "params": {"chains": 20, "n_per_chain": 50}}, "blocks",
             {"stage": "tails", "params": {"min_top": 10}},
             {"stage": "spectral", "params": {"bins": 4, "min_top": 10}},
             {"stage": "independence", "params": {"n": 20_000, "submult_n": 5_000, "min_top": 10}},
             "report"]
    solve_mc = {"stage": "solve-alpha",
                "params": {"method": "monte-carlo", "n": 20_000, "abscissa_n": 20_000}}
    configs = []
    for name, model, first in (("readme", two_point, "solve-alpha"), ("bekk", bekk, solve_mc)):
        path = tmp_path / f"{name}.json"
        doc = {"model": model, "seed": 11, "out": str(tmp_path / name), "pipeline": [first, *later]}
        path.write_text(json.dumps(doc))
        configs.append(str(path))
    proc = subprocess.run([sys.executable, "-c", IMPORT_GUARD, *configs],
                          capture_output=True, text=True, check=True)
    got = json.loads(proc.stdout)
    assert got["codes"] == [0, 0], proc.stderr
    assert got["loaded"] == []
    # the SciPy build fixes the quadrature bits, so every manifest names it
    for name in ("readme", "bekk"):
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        assert manifest["versions"]["scipy"] == scipy.__version__
    # the closed-form CCCGarch moments with garch > 0 still integrate, to the same bits
    assert got["kappas"] == ["0x1.2034e37232569p-1", "0x1.11eb851eb851fp-1"]
    assert got["integrate"]
