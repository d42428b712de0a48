import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from heavytail_sre import cli
from heavytail_sre.cli import main

ROOT = Path(__file__).resolve().parents[1]

REF_MODEL = {
    "family": "TwoPoint",
    "d": 1,
    "params": {"p": 0.2, "up": 2.0, "down": 0.5, "b": {"dist": "exponential", "rate": 1.0}},
}
PAIR_MODEL = {
    "family": "TwoPoint",
    "d": 2,
    "params": {"p": 0.2, "up": 2.0, "down": 0.5, "b": {"dist": "exponential", "rate": 1.0}},
}


def write_config(path: Path, doc) -> str:
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


def last_stderr_doc(capsys) -> dict:
    err = capsys.readouterr().err.strip().splitlines()
    return json.loads(err[-1])


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """One small end-to-end d=1 run shared across artifact checks."""
    root = tmp_path_factory.mktemp("cli_ref")
    out = root / "out"
    cfg = write_config(
        root / "config.json",
        {
            "model": REF_MODEL,
            "seed": 7,
            "out": str(out),
            "pipeline": [
                "solve-alpha",
                {"stage": "simulate", "params": {"chains": 150, "n_per_chain": 100, "thin": 2}},
                "tails",
                "report",
            ],
        },
    )
    code = main(["run", "--config", cfg])
    assert code == 0
    return cfg, out


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "pipeline" in capsys.readouterr().out


def test_missing_config_flag_is_usage_error(capsys):
    assert main(["run"]) == 2
    capsys.readouterr()


def test_unknown_command(capsys):
    assert main(["frobnicate", "--config", "x.json"]) == 2
    capsys.readouterr()


def test_config_errors_exit_two(tmp_path, capsys):
    cases = [
        {"model": REF_MODEL, "out": str(tmp_path / "o")},  # no seed
        {"model": REF_MODEL, "seed": 1},  # no out
        {"seed": 1, "out": str(tmp_path / "o")},  # no model
        {"model": REF_MODEL, "seed": -3, "out": str(tmp_path / "o"), "pipeline": ["report"]},
        {
            "model": REF_MODEL,
            "seed": 1,
            "out": str(tmp_path / "o"),
            "pipeline": ["simulate", "solve-alpha"],  # out of dependency order
        },
        {
            "model": REF_MODEL,
            "seed": 1,
            "out": str(tmp_path / "o"),
            "pipeline": ["solve-alpha", "warp"],  # unknown stage
        },
        {
            "model": REF_MODEL,
            "seed": 1,
            "out": str(tmp_path / "o"),
            "pipeline": ["solve-alpha", "solve-alpha"],  # duplicate
        },
        {
            "model": REF_MODEL,  # d = 1 cannot feed a pair analysis
            "seed": 1,
            "out": str(tmp_path / "o"),
            "pipeline": ["solve-alpha", "simulate", "independence"],
        },
    ]
    # a misspelled key at any config level, or a value its declaration
    # refuses; the stderr line names the key and its level
    def pipeline(**params):
        stages = {"solve-alpha": {}, "simulate": {"chains": 50, "n_per_chain": 100}}
        stages.update({name.replace("_", "-"): p for name, p in params.items()})
        return [{"stage": name, "params": p} for name, p in stages.items()]

    def model(**params):
        return {**PAIR_MODEL, "params": {**PAIR_MODEL["params"], **params}}

    base = {"model": PAIR_MODEL, "seed": 1, "out": str(tmp_path / "o")}
    named = [
        (
            {**base, "pipeline": pipeline(simulate={"chains": 50, "n_per_chian": 100})},
            "'n_per_chian' in stage 'simulate' params",
        ),
        ({**base, "pipeline": pipeline(simulate={"chains": "ten"})}, "simulate' params key 'chains'"),
        (
            {**base, "pipeline": pipeline(solve_alpha={"method": "montecarlo"})},
            "stage 'solve-alpha' params key 'method'",
        ),
        (
            {**base, "pipeline": pipeline(independence={"tau": {"kind": "pwr"}})},
            "stage 'independence' params key 'tau': tau 'kind' 'pwr'",
        ),
        (
            {**base, "pipeline": pipeline(independence={"tau": {"kind": "log", "bta": 3.0}})},
            "'bta' in tau 'log'",
        ),
        # values out of range exit 2 at plan load, not 1 after earlier stages wrote
        ({**base, "pipeline": pipeline(simulate={"chains": 0})}, "simulate' params key 'chains'"),
        ({**base, "pipeline": pipeline(simulate={"thin": 0})}, "simulate' params key 'thin'"),
        ({**base, "pipeline": pipeline(simulate={"burn_in": -1})}, "params key 'burn_in'"),
        (
            {**base, "pipeline": pipeline(solve_alpha={"n": 0, "method": "monte-carlo"})},
            "stage 'solve-alpha' params key 'n'",
        ),
        ({**base, "pipeline": pipeline(blocks={"xi_probes": [1.5]})}, "params key 'xi_probes'"),
        ({**base, "pipeline": pipeline(blocks={"n": 1})}, "stage 'blocks' params key 'n'"),
        ({**base, "pipeline": pipeline(independence={"xi": 1.5})}, "params key 'xi'"),
        (
            {**base, "pipeline": pipeline(independence={"pairs": [[0, 5]]})},
            "params key 'pairs': coordinate 5 is out of range for d=2",
        ),
        ({**base, "pipeline": pipeline(independence={"pairs": [[1, 1]]})}, "params key 'pairs'"),
        ({**base, "sede": 4}, "'sede' in config"),
        (
            {**base, "pipeline": ["solve-alpha", {"stage": "simulate", "parms": {"chains": 50}}]},
            "'parms' in pipeline entry",
        ),
        ({**base, "model": {**PAIR_MODEL, "sigma_margn": 2.0}}, "'sigma_margn' in model"),
        ({**base, "model": {**PAIR_MODEL, "d": "two"}}, "model key 'd'"),
        ({**base, "model": {**PAIR_MODEL, "d": 2.7}}, "model key 'd'"),
        ({**base, "model": {**PAIR_MODEL, "d": True}}, "model key 'd'"),
        ({**base, "model": {**PAIR_MODEL, "sigma_margin": "x"}}, "model key 'sigma_margin'"),
        ({**base, "model": {**PAIR_MODEL, "sigma_margin": -1.0}}, "model key 'sigma_margin'"),
        (
            {**base, "model": model(b={"dist": "exponential", "rte": 3.0})},
            "'rte' in noise law 'exponential'",
        ),
        (
            {**base, "model": model(b=[{"dist": "exponential", "shared": True}] * 2)},
            "'shared' in noise law 'exponential'",
        ),
        ({**base, "model": model(comonotnoe=True)}, "'comonotnoe' in TwoPoint params"),
        (
            {
                **base,
                "model": {
                    "family": "CCCGarch",
                    "d": 2,
                    "params": {"arch": 0.35, "garch": 0.25, "zmap": [0, 0]},
                },
            },
            "'zmap' in CCCGarch params",
        ),
    ]
    cases += [doc for doc, _ in named]
    details = [None] * (len(cases) - len(named)) + [detail for _, detail in named]
    for k, (doc, detail) in enumerate(zip(cases, details)):
        doc.setdefault("pipeline", ["solve-alpha"])
        cfg = write_config(tmp_path / f"c{k}.json", doc)
        # a stage subcommand reads every pipeline entry too, so it refuses
        # the same configs as run, before any stage writes
        for command in ("run", "solve-alpha"):
            assert main([command, "--config", cfg]) == 2, (command, doc)
            err = last_stderr_doc(capsys)
            assert err["error"] == "validation"
            assert detail is None or detail in err["detail"], err["detail"]
            assert not (tmp_path / "o").exists()


def test_every_shipped_config_loads(tmp_path, monkeypatch):
    # the perfbench workloads and the README config, under every subcommand
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    paths = []
    for workload in workloads.WORKLOADS.values():
        paths.append(tmp_path / f"{workload.name}.json")
        workload.write_config(paths[-1], workload.default_seed, tmp_path / "out")
    readme = (ROOT / "README.md").read_text()
    paths.append(tmp_path / "readme.json")
    paths[-1].write_text(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
    assert len(paths) == 4
    for path in paths:
        for command in ("run",) + cli.STAGE_ORDER:
            # a refusal raises ConfigurationError
            cli._load_plan(cli._build_parser().parse_args([command, "--config", str(path)]))
    assert not (tmp_path / "out").exists()


def test_readme_lists_every_stage_param():
    rows = re.findall(
        r"^\| ([\w-]+) \| `(\w+)` \| [^|]+ \| `([^`]*)` \|$", (ROOT / "README.md").read_text(), re.M
    )
    listed = {(stage, name): json.loads(default) for stage, name, default in rows}
    declared = {
        (stage, name): list(default) if isinstance(default, tuple) else default
        for stage, params in cli.STAGE_PARAMS.items()
        for name, (_, default) in params.items()
    }
    assert listed == declared


def test_unreadable_and_malformed_configs(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2
    assert last_stderr_doc(capsys)["error"] == "validation"
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad)]) == 2
    assert "JSON" in last_stderr_doc(capsys)["detail"]


@pytest.mark.parametrize(
    "family, d, params, detail",
    [
        ("BekkDiag", 1, {"coeff": [[True]]}, "BekkDiag params key 'coeff'"),
        (
            "LogNormal", 2,
            {"mu": -0.5, "sigma": 1.0, "corr": [[True, False], [False, True]]},
            "LogNormal params key 'corr'",
        ),
        (
            "CCCGarch", 2,
            {"arch": 0.35, "garch": 0.25, "corr": [[1.0, 0.0], [0.0, True]]},
            "CCCGarch params key 'corr'",
        ),
        (
            "Custom", 1,
            {"atoms": {"prob": [0.5, True], "a": [[0.5], [1.2]], "b": [[1.0], [1.0]]}},
            "Custom atoms table key 'prob'",
        ),
    ],
)
def test_matrix_params_refuse_booleans(tmp_path, capsys, family, d, params, detail):
    # np.asarray would read true as 1.0; each element goes through the number cast
    model = {"family": family, "d": d, "params": params}
    cfg = write_config(
        tmp_path / "c.json",
        {"model": model, "seed": 1, "out": str(tmp_path / "o"), "pipeline": ["solve-alpha"]},
    )
    assert main(["solve-alpha", "--config", cfg]) == 2
    err = last_stderr_doc(capsys)
    assert err["error"] == "validation"
    assert detail in err["detail"], err["detail"]


def test_solve_alpha_with_tiny_exponential_noise_rate_exits_zero(tmp_path):
    # E B^32 = Gamma(33) / rate^32 overflows for rate 1e-12: the positivity
    # probe at s = 32 sees an infinite moment instead of dividing by zero
    model = json.loads(json.dumps(REF_MODEL))
    model["params"]["b"]["rate"] = 1e-12
    cfg = write_config(
        tmp_path / "c.json",
        {"model": model, "seed": 3, "out": str(tmp_path / "out"), "pipeline": ["solve-alpha"]},
    )
    assert main(["solve-alpha", "--config", cfg]) == 0


def test_missing_dependency_artifact_exits_two(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "c.json",
        {"model": REF_MODEL, "seed": 1, "out": str(tmp_path / "empty")},
    )
    assert main(["tails", "--config", cfg]) == 2
    doc = last_stderr_doc(capsys)
    assert doc["error"] == "validation"
    assert "solve-alpha" in doc["detail"]


def test_runtime_error_names_stage(tmp_path, capsys):
    # zero log drift has no tail index root
    cfg = write_config(
        tmp_path / "c.json",
        {
            "model": {
                "family": "TwoPoint",
                "d": 1,
                "params": {"p": 0.5, "up": 2.0, "down": 0.5},
            },
            "seed": 1,
            "out": str(tmp_path / "o"),
            "pipeline": ["solve-alpha"],
        },
    )
    assert main(["run", "--config", cfg]) == 1
    doc = last_stderr_doc(capsys)
    assert doc["error"] == "TailIndexError"
    assert doc["stage"] == "solve-alpha"


def test_empty_spectral_rung_exits_one(tmp_path, capsys):
    out = tmp_path / "o"
    cfg = write_config(
        tmp_path / "c.json",
        {
            "model": PAIR_MODEL,
            "seed": 3,
            "out": str(out),
            "pipeline": [
                "solve-alpha",
                {"stage": "simulate", "params": {"chains": 100, "n_per_chain": 200}},
                "blocks",
                {"stage": "spectral", "params": {"ladder": [1.0, 1e12], "min_top": 0}},
            ],
        },
    )
    assert main(["run", "--config", cfg]) == 1
    doc = last_stderr_doc(capsys)
    assert doc["error"] == "LadderError"
    assert doc["stage"] == "spectral"
    assert not (out / "spectral.report.json").exists()
    assert not (out / "spectral.angular.csv").exists()


def test_locked_output_directory(tmp_path, capsys):
    out = tmp_path / "o"
    out.mkdir()
    # preflight runs under the lock, so the lock is reported before the
    # missing upstream artifacts of 'tails'
    cfg = write_config(
        tmp_path / "c.json",
        {"model": REF_MODEL, "seed": 1, "out": str(out), "pipeline": ["tails"]},
    )
    # a live process (this one) or an unreadable PID keeps the lock
    for holder in (f"{os.getpid()}\n", ""):
        (out / ".lock").write_text(holder)
        assert main(["run", "--config", cfg]) == 1
        assert "locked" in last_stderr_doc(capsys)["detail"]
        assert (out / ".lock").read_text() == holder


def test_lock_of_a_finished_process_is_reclaimed(tmp_path):
    out = tmp_path / "o"
    out.mkdir()
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    (out / ".lock").write_text(f"{child.pid}\n")
    cfg = write_config(
        tmp_path / "c.json",
        {"model": REF_MODEL, "seed": 1, "out": str(out), "pipeline": ["report"]},
    )
    assert main(["run", "--config", cfg]) == 0
    assert (out / "report.json").exists()
    assert not (out / ".lock").exists()


def test_two_runs_reclaiming_one_stale_lock(tmp_path, monkeypatch):
    # run B finds the lock stale; before B moves it aside, run A reclaims it
    # and locks afresh.  B must refuse and leave A's lock in place
    out = tmp_path / "o"
    out.mkdir()
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    (out / ".lock").write_text(f"{child.pid}\n")
    run_a, run_b = cli._DirLock(out), cli._DirLock(out)
    rename = os.rename

    def a_goes_first(src, dst):
        monkeypatch.setattr(os, "rename", rename)
        run_a.__enter__()
        rename(src, dst)

    monkeypatch.setattr(os, "rename", a_goes_first)
    with pytest.raises(RuntimeError, match="locked"):
        run_b.__enter__()
    assert [p.name for p in out.iterdir()] == [".lock"]
    assert (out / ".lock").read_text() == f"{os.getpid()}\n"
    run_a.__exit__(None, None, None)
    assert not (out / ".lock").exists()


@pytest.mark.parametrize("third_run", [True, False])
def test_renewed_lock_that_cannot_go_back(tmp_path, monkeypatch, third_run):
    # as above, but after B moves A's fresh lock aside, either a third run C
    # locks the directory or the filesystem has no hard links: B refuses and
    # leaves A's lock aside rather than deleting it, and A's exit spares C's lock
    out = tmp_path / "o"
    out.mkdir()
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    (out / ".lock").write_text(f"{child.pid}\n")
    run_a, run_b, run_c = cli._DirLock(out), cli._DirLock(out), cli._DirLock(out)
    rename = os.rename

    def a_first_then_c(src, dst):
        monkeypatch.setattr(os, "rename", rename)
        run_a.__enter__()
        rename(src, dst)
        if third_run:
            run_c.__enter__()

    def no_links(src, dst):
        raise OSError(1, "hard links not supported")

    monkeypatch.setattr(os, "rename", a_first_then_c)
    if not third_run:
        monkeypatch.setattr(os, "link", no_links)
    with pytest.raises(RuntimeError, match="locked"):
        run_b.__enter__()
    aside = out / f".lock.{os.getpid()}"
    assert aside.read_text() == f"{os.getpid()}\n"
    assert (out / ".lock").exists() == third_run
    run_a.__exit__(None, None, None)
    assert (out / ".lock").exists() == third_run
    run_c.__exit__(None, None, None)
    assert sorted(p.name for p in out.iterdir()) == [aside.name]


def test_full_run_artifacts(full_run):
    _, out = full_run
    for name in (
        "solve-alpha.report.json",
        "simulate.report.json",
        "pool.bin",
        "pool.meta.json",
        "tails.report.json",
        "tails.ladders.csv",
        "report.json",
        "manifest.json",
    ):
        assert (out / name).exists(), name
    assert not (out / ".lock").exists()

    solve = json.loads((out / "solve-alpha.report.json").read_text())
    assert solve["alphas"][0] == pytest.approx(2.0, abs=1e-8)
    assert solve["coordinates"][0]["margin_ok"] is True

    report = json.loads((out / "report.json").read_text())
    assert report["seed"] == 7
    assert set(report["stages"]) == {"solve-alpha", "simulate", "tails"}

    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["stages"]) == {"solve-alpha", "simulate", "tails", "report"}
    assert len(manifest["model_fingerprint"]) == 64

    header = (out / "tails.ladders.csv").read_bytes().split(b"\r\n")[0]
    assert header == b"series,threshold,value,ci_lo,ci_hi"


def test_manifest_records_params_as_given(full_run):
    _, out = full_run
    stages = json.loads((out / "manifest.json").read_text())["stages"]
    assert stages["simulate"]["params"] == {"chains": 150, "n_per_chain": 100, "thin": 2}
    assert stages["solve-alpha"]["params"] == {}


def test_rerun_is_byte_identical(full_run, tmp_path):
    cfg_path, out1 = full_run
    doc = json.loads(Path(cfg_path).read_text())
    out2 = tmp_path / "out2"
    doc["out"] = str(out2)
    cfg2 = write_config(tmp_path / "config2.json", doc)
    assert main(["run", "--config", cfg2]) == 0
    for name in (
        "solve-alpha.report.json",
        "simulate.report.json",
        "pool.bin",
        "pool.meta.json",
        "tails.report.json",
        "tails.ladders.csv",
        "report.json",
    ):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    # only the manifest carries wall-clock state
    assert (out1 / "manifest.json").read_bytes() != (out2 / "manifest.json").read_bytes()


def test_standalone_stage_reuses_artifacts(full_run):
    cfg, out = full_run
    before = (out / "tails.report.json").read_bytes()
    assert main(["tails", "--config", cfg]) == 0
    assert (out / "tails.report.json").read_bytes() == before


def test_artifacts_of_another_model_or_seed_exit_two(tmp_path, capsys):
    out = tmp_path / "o"
    doc = {
        "model": REF_MODEL,
        "seed": 3,
        "out": str(out),
        "pipeline": [
            "solve-alpha",
            {"stage": "simulate", "params": {"chains": 50, "n_per_chain": 100, "thin": 2}},
        ],
    }
    cfg = write_config(tmp_path / "c.json", doc)
    assert main(["run", "--config", cfg]) == 0
    capsys.readouterr()

    assert main(["tails", "--config", cfg, "--seed", "4"]) == 2
    err = last_stderr_doc(capsys)
    assert err["error"] == "validation"
    assert "pool.meta.json" in err["detail"] and "seed 3" in err["detail"]

    changed = json.loads(json.dumps(doc))
    changed["model"]["params"]["up"] = 1.9
    cfg2 = write_config(tmp_path / "c2.json", changed)
    assert main(["tails", "--config", cfg2]) == 2
    assert "pool.meta.json" in last_stderr_doc(capsys)["detail"]
    assert main(["blocks", "--config", cfg2]) == 2
    assert "solve-alpha.report.json" in last_stderr_doc(capsys)["detail"]
    assert not (out / "tails.report.json").exists()
    assert not (out / "blocks.report.json").exists()


def test_report_refuses_reports_of_another_model(tmp_path, capsys):
    out = tmp_path / "o"
    simulate = {"stage": "simulate", "params": {"chains": 100, "n_per_chain": 100, "thin": 2}}
    doc = {
        "model": REF_MODEL,
        "seed": 3,
        "out": str(out),
        "pipeline": ["solve-alpha", simulate, "blocks", "tails", "report"],
    }
    assert main(["run", "--config", write_config(tmp_path / "c.json", doc)]) == 0
    before = (out / "report.json").read_bytes()
    capsys.readouterr()

    changed = json.loads(json.dumps(doc))
    changed["model"]["params"]["up"] = 1.9
    changed["pipeline"] = ["solve-alpha", simulate, "report"]
    assert main(["run", "--config", write_config(tmp_path / "c2.json", changed)]) == 2
    err = last_stderr_doc(capsys)
    assert err["error"] == "validation" and err["stage"] == "report"
    assert "blocks.report.json" in err["detail"]
    assert (out / "report.json").read_bytes() == before


def test_spectral_refuses_blocks_of_another_model(tmp_path, capsys):
    out = tmp_path / "o"
    pipeline = [
        "solve-alpha",
        {"stage": "simulate", "params": {"chains": 150, "n_per_chain": 100, "thin": 2}},
        "blocks",
        {"stage": "spectral", "params": {"bins": 8, "min_top": 50}},
    ]
    doc = {"model": PAIR_MODEL, "seed": 3, "out": str(out), "pipeline": pipeline[:3]}
    assert main(["run", "--config", write_config(tmp_path / "c.json", doc)]) == 0

    changed = json.loads(json.dumps(doc))
    changed["model"]["params"]["up"] = 1.9
    changed["pipeline"] = pipeline[:2]
    assert main(["run", "--config", write_config(tmp_path / "c2.json", changed)]) == 0
    capsys.readouterr()

    # blocks.report.json still holds the up = 2.0 partition
    changed["pipeline"] = pipeline
    assert main(["spectral", "--config", write_config(tmp_path / "c3.json", changed)]) == 2
    err = last_stderr_doc(capsys)
    assert err["error"] == "validation" and err["stage"] == "spectral"
    assert "blocks.report.json" in err["detail"]
    assert not (out / "spectral.report.json").exists()


def test_report_refuses_reports_of_another_seed(tmp_path, capsys):
    out = tmp_path / "o"
    doc = {
        "model": REF_MODEL,
        "seed": 3,
        "out": str(out),
        "pipeline": [
            "solve-alpha",
            {"stage": "simulate", "params": {"chains": 50, "n_per_chain": 100, "thin": 2}},
            "tails",
            "report",
        ],
    }
    cfg = write_config(tmp_path / "c.json", doc)
    assert main(["run", "--config", cfg]) == 0
    before = (out / "report.json").read_bytes()
    assert main(["simulate", "--config", cfg, "--seed", "4"]) == 0
    capsys.readouterr()

    assert main(["report", "--config", cfg, "--seed", "4"]) == 2
    err = last_stderr_doc(capsys)
    assert err["error"] == "validation" and err["stage"] == "report"
    assert "solve-alpha.report.json" in err["detail"] and "seed 3" in err["detail"]
    assert (out / "report.json").read_bytes() == before


def test_report_refuses_tails_of_a_replaced_pool(tmp_path, capsys):
    out = tmp_path / "o"

    def config(chains, pipeline_tail):
        simulate = {"stage": "simulate", "params": {"chains": chains, "n_per_chain": 50, "thin": 2}}
        doc = {
            "model": REF_MODEL,
            "seed": 3,
            "out": str(out),
            "pipeline": ["solve-alpha", simulate] + pipeline_tail,
        }
        return write_config(tmp_path / f"c{chains}.json", doc)

    assert main(["run", "--config", config(200, ["tails", "report"])]) == 0
    before = (out / "report.json").read_bytes()
    capsys.readouterr()

    # same model and seed, but the 100-chain pool replaces the one tails read
    assert main(["run", "--config", config(100, ["report"])]) == 2
    err = last_stderr_doc(capsys)
    assert err["error"] == "validation" and err["stage"] == "report"
    assert "tails.report.json" in err["detail"] and "pool.meta.json" in err["detail"]
    assert (out / "report.json").read_bytes() == before


def test_every_report_carries_its_provenance(tmp_path):
    out = tmp_path / "o"
    cfg = write_config(
        tmp_path / "c.json",
        {
            "model": PAIR_MODEL,
            "seed": 5,
            "out": str(out),
            "pipeline": [
                "solve-alpha",
                {"stage": "simulate", "params": {"chains": 150, "n_per_chain": 100, "thin": 2}},
                "blocks",
                "tails",
                {"stage": "spectral", "params": {"bins": 8, "min_top": 50}},
                {"stage": "independence", "params": {"n": 20_000, "submult_n": 5_000}},
                "report",
            ],
        },
    )
    assert main(["run", "--config", cfg]) == 0
    fingerprint = json.loads((out / "manifest.json").read_text())["model_fingerprint"]
    pool_inputs = {"blocks.report.json", "pool.meta.json", "solve-alpha.report.json"}
    expected_inputs = {
        "solve-alpha": set(),
        "simulate": set(),
        "blocks": {"solve-alpha.report.json"},
        "tails": pool_inputs,
        "spectral": pool_inputs,
        "independence": pool_inputs,
        "report": {f"{s}.report.json" for s in ("solve-alpha", "simulate", "blocks", "tails",
                                                "spectral", "independence")},
    }
    for stage, inputs in expected_inputs.items():
        name = "report.json" if stage == "report" else f"{stage}.report.json"
        doc = json.loads((out / name).read_text())
        assert doc["stage"] == stage, name
        assert doc["model_fingerprint"] == fingerprint, name
        assert doc["seed"] == 5, name
        assert set(doc["inputs"]) == inputs, name
        for dep, digest in doc["inputs"].items():
            assert hashlib.sha256((out / dep).read_bytes()).hexdigest() == digest, (name, dep)


@pytest.mark.parametrize(
    "name, keep",
    [("pool.bin", lambda raw: raw[:-8]), ("solve-alpha.report.json", lambda raw: raw[: len(raw) // 2])],
)
def test_corrupt_upstream_artifact_exits_two(name, keep, tmp_path, capsys):
    out = tmp_path / "o"
    doc = {
        "model": REF_MODEL,
        "seed": 3,
        "out": str(out),
        "pipeline": [
            "solve-alpha",
            {"stage": "simulate", "params": {"chains": 50, "n_per_chain": 100, "thin": 2}},
        ],
    }
    cfg = write_config(tmp_path / "c.json", doc)
    assert main(["run", "--config", cfg]) == 0
    path = out / name
    path.write_bytes(keep(path.read_bytes()))
    capsys.readouterr()

    assert main(["tails", "--config", cfg]) == 2
    err = last_stderr_doc(capsys)
    assert err["error"] == "validation" and err["stage"] == "tails"
    assert name in err["detail"]
    assert not (out / "tails.report.json").exists()


def test_run_and_stage_by_stage_write_the_same_bytes(tmp_path):
    # E A_j^2 = 1, so alpha is exactly 2.0: |x_j| ** 2.0 must give the same
    # bits on the pool a run keeps in memory as on the pool a stage loads
    model = {
        "family": "LogNormal",
        "d": 2,
        "params": {
            "mu": [-1.0, -1.0],
            "sigma": [1.0, 1.0],
            "b": {"dist": "exponential", "rate": 1.0},
        },
    }
    stages = ["solve-alpha", "simulate", "blocks", "tails", "spectral", "report"]
    pipeline = [{"stage": "simulate", "params": {"chains": 100, "n_per_chain": 200}}
                if s == "simulate" else s for s in stages]
    outs = {}
    for route in ("run", "staged"):
        outs[route] = tmp_path / route
        cfg = write_config(
            tmp_path / f"{route}.json",
            {"model": model, "seed": 1, "out": str(outs[route]), "pipeline": pipeline},
        )
        for command in ["run"] if route == "run" else stages:
            assert main([command, "--config", cfg]) == 0, command
    run, staged = ({p.name: p.read_bytes() for p in out.iterdir()} for out in outs.values())
    del run["manifest.json"], staged["manifest.json"]
    assert sorted(run) == sorted(staged)
    assert [name for name in sorted(run) if run[name] != staged[name]] == []


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: [],
        lambda doc: {k: v for k, v in doc.items() if k != "alphas"},
        lambda doc: {**doc, "coordinates": [{k: v for k, v in doc["coordinates"][0].items() if k != "goldie_mean"}]},
        lambda doc: {**doc, "alphas": []},
    ],
    ids=["not-an-object", "no-alphas", "no-goldie-mean", "no-alpha-per-coordinate"],
)
def test_misshapen_upstream_report_exits_two(edit, tmp_path, capsys):
    out = tmp_path / "o"
    doc = {
        "model": REF_MODEL,
        "seed": 3,
        "out": str(out),
        "pipeline": [
            "solve-alpha",
            {"stage": "simulate", "params": {"chains": 50, "n_per_chain": 100, "thin": 2}},
        ],
    }
    cfg = write_config(tmp_path / "c.json", doc)
    assert main(["run", "--config", cfg]) == 0
    path = out / "solve-alpha.report.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    capsys.readouterr()

    assert main(["tails", "--config", cfg]) == 2
    err = last_stderr_doc(capsys)
    assert err["error"] == "validation" and err["stage"] == "tails"
    assert "solve-alpha.report.json" in err["detail"]
    assert not (out / "tails.report.json").exists()


EXP_NOISE = {"dist": "exponential", "rate": 1.0}


@pytest.mark.parametrize(
    "model",
    [
        # exact alpha = 2; kappa(32) = exp(960) overflows a float
        {"family": "LogNormal", "d": 1, "params": {"mu": -2.0, "sigma": 2.0**0.5, "b": EXP_NOISE}},
        {"family": "LogNormal", "d": 1, "params": {"mu": -1.0, "sigma": 1.3, "b": EXP_NOISE}},
        # E|B|^32 = exp(1152) overflows a float
        {**REF_MODEL, "params": {**REF_MODEL["params"], "b": {"dist": "lognormal", "sigma": 1.5}}},
    ],
    ids=["lognormal-alpha-2", "lognormal-sigma-1.3", "lognormal-noise"],
)
def test_overflowing_closed_form_moments_are_infinite(model, tmp_path):
    cfg = write_config(tmp_path / "c.json", {"model": model, "seed": 3, "out": str(tmp_path / "o")})
    assert main(["solve-alpha", "--config", cfg]) == 0
    report = json.loads((tmp_path / "o" / "solve-alpha.report.json").read_text())
    assert len(report["coordinates"][0]["positivity"]["ratios"]) == 13


def test_seed_flag_overrides_config(tmp_path):
    out = tmp_path / "o"
    cfg = write_config(
        tmp_path / "c.json",
        {"model": REF_MODEL, "seed": 5, "out": str(out), "pipeline": ["solve-alpha"]},
    )
    assert main(["run", "--config", cfg, "--seed", "9"]) == 0
    assert json.loads((out / "manifest.json").read_text())["seed"] == 9


def test_two_coordinate_pipeline(tmp_path):
    out = tmp_path / "o"
    cfg = write_config(
        tmp_path / "c.json",
        {
            "model": PAIR_MODEL,
            "seed": 11,
            "out": str(out),
            "pipeline": [
                "solve-alpha",
                {"stage": "simulate", "params": {"chains": 150, "n_per_chain": 100, "thin": 2}},
                "blocks",
                "tails",
                {"stage": "spectral", "params": {"bins": 8, "min_top": 50}},
                {
                    "stage": "independence",
                    "params": {"n": 20_000, "submult_n": 5_000},
                },
                "report",
            ],
        },
    )
    assert main(["run", "--config", cfg]) == 0

    blocks = json.loads((out / "blocks.report.json").read_text())
    assert sorted(tuple(c) for c in blocks["classes"]) == [(0,), (1,)]

    tails = json.loads((out / "tails.report.json").read_text())
    assert "blocks" in tails
    assert len(tails["tail_constants"]["c_plus"]) == 2

    indep = json.loads((out / "independence.report.json").read_text())
    assert indep["submultiplicativity"]["passed"] is True
    pair = indep["pairs"][0]
    assert (pair["i"], pair["j"]) == (0, 1)
    assert pair["gamma_bound"]["gamma0"] > 0.0
    assert pair["gamma_bound"]["cross"]["value"] == pytest.approx(0.64)
    assert (out / "independence.pair_0_1.csv").exists()
    assert (out / "spectral.angular.csv").exists()

    report = json.loads((out / "report.json").read_text())
    assert set(report["stages"]) == {
        "solve-alpha",
        "simulate",
        "blocks",
        "tails",
        "spectral",
        "independence",
    }


def test_console_script_help_runs():
    proc = subprocess.run(
        [sys.executable, "-c", "from heavytail_sre.cli import main; raise SystemExit(main(['--help']))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "stochastic recurrence" in proc.stdout
