import errno
import hashlib
import importlib.util
import json
import os
import re
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from test_golden import CONFIGS, DIGESTS
from test_simulate import assert_no_child_left, use_cpus

from heavytail_sre import cli
from heavytail_sre.cli import main
from heavytail_sre.model import ModelSpec

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


@pytest.mark.parametrize(
    "stage, params",
    [
        ("solve-alpha", {"tol": 0.0}),
        ("simulate", {"x0": [0.0, 0.0, 0.0]}),
        ("tails", {"ladder": [2.0, 1.0]}),
        ("spectral", {"ladder": [-1.0, 2.0]}),
        ("spectral", {"eps": 1.0}),
        ("independence", {"r1": -1.0}),
        ("independence", {"r2": 0.0}),
        ("independence", {"ladder": []}),
        ("independence", {"gammas": [0.5, 0.5]}),
        ("independence", {"gammas": [0.0, 0.5]}),
    ],
)
def test_stage_param_out_of_range_exits_two_before_any_stage_writes(stage, params, tmp_path,
                                                                      capsys):
    # the README model: each value is checked at plan load, not in its stage
    pipeline = [{"stage": name, "params": {}} for name in cli.STAGE_ORDER]
    pipeline[1]["params"] = {"chains": 100, "n_per_chain": 100}
    pipeline[cli.STAGE_ORDER.index(stage)]["params"].update(params)
    out = tmp_path / "o"
    doc = {"model": PAIR_MODEL, "seed": 3, "out": str(out), "pipeline": pipeline}
    cfg = write_config(tmp_path / "c.json", doc)
    for command in ("run", stage):
        assert main([command, "--config", cfg]) == 2, command
        err = last_stderr_doc(capsys)
        assert err["error"] == "validation" and "stage" not in err
        assert f"stage {stage!r} params key {next(iter(params))!r}" in err["detail"]
        assert not out.exists()


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


def pair_model(family="TwoPoint", **params):
    """A d = 2 model document; TwoPoint keeps PAIR_MODEL's params under the edits."""
    base = PAIR_MODEL["params"] if family == "TwoPoint" else {}
    return {"family": family, "d": 2, "params": {**base, **params}}


def atoms_model(prob, a, b):
    return pair_model("Custom", atoms={"prob": prob, "a": a, "b": b})


LOGNORMAL = {"mu": -0.5, "sigma": 1.0}
ROWS = [[1.0, 1.0], [1.0, 1.0]]


@pytest.mark.parametrize(
    "edit, detail",
    [
        ({"pipeline": [{"stage": "independence", "params": {"pairs": 5}}]},
         "stage 'independence' params key 'pairs'"),
        ({"pipeline": "solve-alpha"}, "config key 'pipeline'"),
        ([PAIR_MODEL], "config must be a JSON object"),
        ({"pipeline": []}, "'pipeline'"),
        ({"model": {**PAIR_MODEL, "params": 5}}, "TwoPoint params must be an object"),
        ({"model": pair_model(comonotone="yes")}, "TwoPoint params key 'comonotone'"),
        ({"model": pair_model(p=[0.2, 0.3, 0.4])}, "p must be a scalar or length-2 sequence"),
        ({"model": pair_model("LogNormal", **LOGNORMAL, corr=[[1.0]])}, "corr must be a 2x2"),
        ({"model": pair_model("LogNormal", **LOGNORMAL, corr=[[1.0, 0.5], [0.2, 1.0]])},
         "corr must be symmetric"),
        ({"model": pair_model("LogNormal", **LOGNORMAL, corr=[[2.0, 0.0], [0.0, 2.0]])},
         "corr must have unit diagonal"),
        ({"model": pair_model(b={"dist": "exponential", "rate": 0.0})},
         "noise law 'exponential': rate must be positive"),
        ({"model": pair_model(b=[{"dist": "exponential"}])}, "noise spec needs 2 entries"),
        ({"model": pair_model(b=5)}, "noise spec must be a dict or a list"),
        ({"model": pair_model("CCCGarch", arch=-0.1, garch=0.5)}, "arch and garch"),
        ({"model": pair_model("BekkDiag", coeff=[1.0, 0.5])}, "coeff must be a (factors x 2)"),
        ({"model": atoms_model([], [], [])}, "atom probabilities must be a nonempty vector"),
        ({"model": atoms_model([[1.0]], ROWS[:1], ROWS[:1])},
         "atom probabilities must be a nonempty vector"),
        ({"model": atoms_model([0.5, 0.5], [[0.5], [1.2]], ROWS)},
         "atom tables must have shape (2, 2)"),
        ({"model": atoms_model([0.5, 0.5], ROWS, ROWS[:1])}, "atom tables must have shape (2, 2)"),
        ({"model": pair_model("Custom", sampler="numpy.random.uniform")}, "callable 'sampler'"),
    ],
    ids=["pairs-not-a-list", "pipeline-not-a-list", "config-not-an-object", "empty-pipeline",
         "params-not-an-object", "flag-not-a-bool", "vector-length", "corr-shape",
         "corr-asymmetric", "corr-diagonal", "noise-law-invalid", "noise-list-length",
         "noise-spec-type", "negative-arch", "coeff-shape", "atom-prob-empty", "atom-prob-2d",
         "atom-a-shape", "atom-b-shape", "sampler-not-callable"],
)
def test_config_checks_exit_two_naming_the_key(edit, detail, tmp_path, capsys):
    out = tmp_path / "o"
    base = {"model": PAIR_MODEL, "seed": 1, "out": str(out), "pipeline": ["solve-alpha"]}
    cfg = write_config(tmp_path / "c.json", {**base, **edit} if isinstance(edit, dict) else edit)
    assert main(["run", "--config", cfg]) == 2
    err = last_stderr_doc(capsys)
    assert err["error"] == "validation"
    assert detail in err["detail"], err["detail"]
    assert not out.exists()


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
    # the holder's flock keeps the lock, whatever its file says
    holder = cli._DirLock(out).__enter__()
    try:
        for text in (f"{os.getpid()}\n", ""):
            (out / ".lock").write_text(text)
            assert main(["run", "--config", cfg]) == 1
            assert "locked" in last_stderr_doc(capsys)["detail"]
            assert (out / ".lock").read_text() == text
    finally:
        holder.__exit__(None, None, None)


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


def test_one_of_three_runs_takes_a_stale_lock(tmp_path):
    # a crash leaves .lock naming a dead process but holds no flock: the
    # first run takes it, and the others refuse while it holds it
    out = tmp_path / "o"
    out.mkdir()
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    (out / ".lock").write_text(f"{child.pid}\n")
    runs = [cli._DirLock(out) for _ in range(3)]
    runs[0].__enter__()
    for run in runs[1:]:
        with pytest.raises(RuntimeError, match="locked"):
            run.__enter__()
    assert (out / ".lock").read_text() == f"{os.getpid()}\n"
    runs[0].__exit__(None, None, None)
    assert list(out.iterdir()) == []
    runs[2].__enter__()
    runs[2].__exit__(None, None, None)
    assert list(out.iterdir()) == []


def test_lock_of_a_killed_holder_is_released(tmp_path, capsys):
    out = tmp_path / "o"
    out.mkdir()
    cfg = write_config(
        tmp_path / "c.json",
        {"model": REF_MODEL, "seed": 1, "out": str(out), "pipeline": ["report"]},
    )
    hold = (
        "import fcntl, os, sys, time\n"
        "fd = os.open(sys.argv[1], os.O_CREAT | os.O_WRONLY)\n"
        "fcntl.flock(fd, fcntl.LOCK_EX)\n"
        "print('locked', flush=True)\n"
        "time.sleep(120)\n"
    )
    with subprocess.Popen(
        [sys.executable, "-c", hold, str(out / ".lock")], stdout=subprocess.PIPE, text=True
    ) as child:
        try:
            assert child.stdout.readline() == "locked\n"
            assert main(["run", "--config", cfg]) == 1
            assert "locked" in last_stderr_doc(capsys)["detail"]
            child.kill()
            child.wait()
            # the kernel dropped the flock with its holder; its file remains
            assert (out / ".lock").exists()
            assert main(["run", "--config", cfg]) == 0
            assert not (out / ".lock").exists()
        finally:
            child.kill()
            child.wait()


def test_lock_unlinked_before_flock_is_retried(tmp_path, monkeypatch):
    # the holder exits, unlinking .lock, after this run opened the old file
    # but before it flocks it: the flock wins a file no longer linked, so the
    # run must take the lock again on a fresh .lock
    out = tmp_path / "o"
    out.mkdir()
    holder, run = cli._DirLock(out).__enter__(), cli._DirLock(out)
    flock, calls = cli.fcntl.flock, []

    def holder_exits_first(fd, op):
        if not calls:
            holder.__exit__(None, None, None)
        calls.append(os.fstat(fd).st_nlink)
        return flock(fd, op)

    monkeypatch.setattr(cli.fcntl, "flock", holder_exits_first)
    run.__enter__()
    # the first flock was on the unlinked file, the second on the fresh one
    assert calls == [0, 1]
    assert os.path.samestat(os.fstat(run.fd), os.stat(out / ".lock"))
    assert (out / ".lock").read_text() == f"{os.getpid()}\n"
    run.__exit__(None, None, None)
    assert list(out.iterdir()) == []


def test_lock_error_other_than_held_exits_one(tmp_path, monkeypatch, capsys):
    # a filesystem without locks does not run unlocked
    out = tmp_path / "o"
    out.mkdir()
    cfg = write_config(
        tmp_path / "c.json",
        {"model": REF_MODEL, "seed": 1, "out": str(out), "pipeline": ["report"]},
    )

    def no_locks(fd, op):
        raise OSError(errno.ENOLCK, "no locks available")

    monkeypatch.setattr(cli.fcntl, "flock", no_locks)
    assert main(["run", "--config", cfg]) == 1
    assert last_stderr_doc(capsys)["error"] == "OSError"
    # only the empty file it could not lock, with no PID in it
    assert [p.name for p in out.iterdir()] == [".lock"]
    assert (out / ".lock").read_bytes() == b""


def test_pid_in_a_lock_that_is_not_held_does_not_block(tmp_path):
    # contract change: the lock is the flock, not the file, so a .lock
    # naming a live process (this one) that holds no flock on it no
    # longer refuses the run
    out = tmp_path / "o"
    out.mkdir()
    (out / ".lock").write_text(f"{os.getpid()}\n")
    cfg = write_config(
        tmp_path / "c.json",
        {"model": REF_MODEL, "seed": 1, "out": str(out), "pipeline": ["report"]},
    )
    assert main(["run", "--config", cfg]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "report.json"]


@pytest.mark.parametrize(
    "manifest", ["[]", '{"stages": []}', '"stages"'], ids=["list", "stages-list", "string"]
)
def test_misshapen_manifest_is_rewritten(manifest, tmp_path):
    # like a corrupt manifest, one of the wrong shape starts afresh
    out = tmp_path / "o"
    out.mkdir()
    (out / "manifest.json").write_text(manifest)
    cfg = write_config(
        tmp_path / "c.json",
        {"model": REF_MODEL, "seed": 1, "out": str(out), "pipeline": ["solve-alpha", "report"]},
    )
    assert main(["run", "--config", cfg]) == 0
    doc = json.loads((out / "manifest.json").read_text())
    assert set(doc["stages"]) == {"solve-alpha", "report"}


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

    # an input that tails.report.json records is gone from the directory
    (out / "pool.meta.json").unlink()
    assert main(["report", "--config", config(100, ["report"])]) == 2
    err = last_stderr_doc(capsys)
    assert (err["error"], err["stage"]) == ("validation", "report")
    assert "was computed from a pool.meta.json other than the one on disk" in err["detail"]
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


def empty(raw):  # named, so its case gets an id of its own beside the lambdas
    return b""


@pytest.mark.parametrize(
    "name, keep",
    [("pool.bin", lambda raw: raw[:-8]), ("solve-alpha.report.json", lambda raw: raw[: len(raw) // 2]),
     ("pool.bin", empty)],
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


def test_upstream_artifact_gone_after_preflight_exits_two(tmp_path, capsys, monkeypatch):
    # preflight finds every artifact, and the stage then finds one gone
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
    preflight = cli._Runner.preflight

    def preflight_then_delete(runner):
        preflight(runner)
        (out / "solve-alpha.report.json").unlink()

    monkeypatch.setattr(cli._Runner, "preflight", preflight_then_delete)
    capsys.readouterr()

    assert main(["tails", "--config", cfg]) == 2
    err = last_stderr_doc(capsys)
    assert err["error"] == "validation" and err["stage"] == "tails"
    assert err["detail"] == ("solve-alpha.report.json is missing; rerun 'solve-alpha' "
                             "or point --out at another directory")
    assert not (out / "tails.report.json").exists()


def test_run_and_stage_by_stage_write_the_same_bytes(tmp_path):
    # run and every stage subcommand load the pool from pool.bin alike, so
    # only manifest.json may differ (alpha is exactly 2.0, as E A_j^2 = 1)
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


def test_independence_records_a_product_tau_as_given(tmp_path):
    out = tmp_path / "o"
    tau = {"factors": [{"kind": "power", "beta": 0.5}, {"kind": "log"}], "kind": "product"}
    simulate = {"stage": "simulate", "params": {"chains": 150, "n_per_chain": 100, "thin": 2}}
    indep = {"stage": "independence", "params": {"n": 20_000, "submult_n": 5_000, "tau": tau}}
    cfg = write_config(tmp_path / "c.json", {"model": PAIR_MODEL, "seed": 3, "out": str(out),
                                             "pipeline": ["solve-alpha", simulate, indep]})
    assert main(["run", "--config", cfg]) == 0
    doc = json.loads((out / "independence.report.json").read_text())
    assert doc["tau"] == tau
    assert doc["pairs"][0]["gamma_bound"]["tau_name"] == "product(power(0.5), log(1))"
    assert json.loads((out / "manifest.json").read_text())["stages"]["independence"]["params"] == {
        "n": 20_000, "submult_n": 5_000, "tau": tau}


def test_console_script_help_runs():
    proc = subprocess.run(
        [sys.executable, "-c", "from heavytail_sre.cli import main; raise SystemExit(main(['--help']))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "stochastic recurrence" in proc.stdout


def one_class_config(tmp_path, indep_params: dict) -> str:
    """Comonotone coordinates with shared noise: blocks finds one class."""
    model = {"family": "TwoPoint", "d": 2, "params": {
        "p": 0.2, "up": 2.0, "down": 0.5, "comonotone": True,
        "b": {"dist": "pareto", "index": 3.0, "shared": True}}}
    indep = {"stage": "independence", "params": indep_params}
    simulate = {"stage": "simulate", "params": {"chains": 200, "n_per_chain": 500}}
    doc = {"model": model, "seed": 5, "out": str(tmp_path / "o"),
           "pipeline": ["solve-alpha", simulate, "blocks", indep]}
    return write_config(tmp_path / "c.json", doc)


def test_independence_pair_inside_one_class_exits_two_early(tmp_path, monkeypatch, capsys):
    # the pair [0, 1] lies in the one class, so it has cross moment
    # E|A|^alpha = 1 for every xi and can never pass
    out = tmp_path / "o"
    cfg = one_class_config(tmp_path, {"n": 100_000, "pairs": [[0, 1]]})

    def refuse(*args, **kwargs):
        raise AssertionError("the stage went on past the partition")

    for name in ("joint_exceedance", "tau_gamma_bound"):
        monkeypatch.setattr(cli, name, refuse)
    monkeypatch.setattr(cli._Runner, "_get_pool", refuse)
    assert main(["run", "--config", cfg]) == 2
    err = last_stderr_doc(capsys)
    assert (err["error"], err["stage"]) == ("validation", "independence")
    assert "one block class" in err["detail"]
    assert json.loads((out / "blocks.report.json").read_text())["classes"] == [[0, 1]]
    assert not list(out.glob("independence*"))
    assert "independence" not in json.loads((out / "manifest.json").read_text())["stages"]


def test_independence_default_pairs_are_none_inside_one_class(tmp_path):
    # the default takes the first two classes; with one class there is none
    out = tmp_path / "o"
    cfg = one_class_config(tmp_path, {"n": 100_000})
    assert main(["run", "--config", cfg]) == 0
    assert json.loads((out / "blocks.report.json").read_text())["classes"] == [[0, 1]]
    assert json.loads((out / "independence.report.json").read_text())["pairs"] == []
    assert not list(out.glob("independence.pair_*.csv"))


def test_independence_reads_no_pool_when_no_pair_is_left(tmp_path, monkeypatch):
    # staged: the one class leaves no default pair, so the stage needs
    # neither pool.bin nor the solved alphas
    out = tmp_path / "o"
    cfg = one_class_config(tmp_path, {"n": 100_000})
    for command in ("solve-alpha", "simulate", "blocks"):
        assert main([command, "--config", cfg]) == 0, command

    def refuse(*args, **kwargs):
        raise AssertionError("the stage read an input it does not use")

    for name in ("_get_pool", "_solved"):
        monkeypatch.setattr(cli._Runner, name, refuse)
    assert main(["independence", "--config", cfg]) == 0
    doc = json.loads((out / "independence.report.json").read_text())
    assert doc["pairs"] == [] and list(doc["inputs"]) == ["blocks.report.json"]


def test_tails_stage_frees_its_hill_columns_before_the_block_norms(tmp_path, monkeypatch):
    # a staged tails holds the d power columns across the block norms, and
    # no magnitude column of the Hill estimate; the pool is a map of
    # pool.bin, which tracemalloc does not see
    d, n = 2, 100_000
    out = tmp_path / "o"
    simulate = {"stage": "simulate", "params": {"chains": 200, "n_per_chain": n // 200}}
    cfg = write_config(tmp_path / "c.json", {"model": PAIR_MODEL, "seed": 3, "out": str(out),
                                            "pipeline": ["solve-alpha", simulate, "tails"]})
    for command in ("solve-alpha", "simulate"):
        assert main([command, "--config", cfg]) == 0, command
    held, block_tail_constant = [], cli.block_tail_constant

    def probe(pool, *args, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0] - base)
        return block_tail_constant(pool, *args, **kwargs)

    monkeypatch.setattr(cli, "block_tail_constant", probe)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert main(["tails", "--config", cfg]) == 0
    finally:
        tracemalloc.stop()
    assert len(held) == 1 and held[0] < (d + 0.5) * n * 8


def test_run_hands_the_stages_the_read_only_map_of_pool_bin(tmp_path, monkeypatch):
    # run keeps no pool between stages: tails loads pool.bin as a staged call does
    seen, block_tail_constant = [], cli.block_tail_constant

    def probe(pool, *args, **kwargs):
        seen.append([getattr(pool, g).flags.writeable for g in ("x_pre", "a", "b", "x_post")])
        return block_tail_constant(pool, *args, **kwargs)

    monkeypatch.setattr(cli, "block_tail_constant", probe)
    simulate = {"stage": "simulate", "params": {"chains": 50, "n_per_chain": 100}}
    cfg = write_config(tmp_path / "c.json", {"model": PAIR_MODEL, "seed": 3, "out": str(tmp_path / "o"),
                                            "pipeline": ["solve-alpha", simulate, "tails"]})
    assert main(["run", "--config", cfg]) == 0
    assert seen == [[False] * 4]


# -- the solve-alpha stage's forked workers ------------------------------------

BEKK3 = {"family": "BekkDiag", "d": 3, "params": {
    "coeff": [[0.8, 0.5, 0.0], [0.6, -0.8, 0.0], [0.0, 0.0, 1.05]],
    "b": {"dist": "exponential", "rate": 1.0}}}
FORKED_MODELS = {
    "bekk-diag": BEKK3,
    # d = 1: the abscissa scan has no spare A row and takes a fresh one
    "ccc-garch-d1-pareto": {"family": "CCCGarch", "d": 1, "params": {
        "arch": 0.35, "garch": 0.25, "b": {"dist": "pareto", "index": 3.0}}},
    # mass at A = 0: the log drift is taken over the compacted nonzero logs
    "two-point-zero-mass": pair_model(down=0.0),
    "custom-atoms": atoms_model([0.3, 0.7], [[1.5, 0.5], [0.6, 1.2]], [[1.0, 1.0], [0.5, -0.5]]),
}


def monte_carlo_config(path: Path, model: dict, n: int, scan_n: int, seed: int = 3) -> str:
    params = {"method": "monte-carlo", "n": n, "abscissa_n": scan_n}
    return write_config(path, {"model": model, "seed": seed, "out": str(path.parent / "o"),
                               "pipeline": [{"stage": "solve-alpha", "params": params}]})


@pytest.mark.parametrize("model", sorted(FORKED_MODELS))
def test_solve_alpha_keeps_its_bytes_at_one_and_two_cpus(model, tmp_path, monkeypatch):
    spec = FORKED_MODELS[model]
    cfg = monte_carlo_config(tmp_path / "c.json", spec, 20_000, 5_000)
    reports = []
    for procs in (1, 2):
        forks = use_cpus(monkeypatch, procs)
        out = tmp_path / f"o{procs}"
        assert main(["solve-alpha", "--config", cfg, "--out", str(out)]) == 0
        # solve_alpha, goldie_mean and moment_abscissa draw once per coordinate
        assert len(forks) == (procs - 1) * 3 * spec["d"]
        assert_no_child_left()
        reports.append((out / "solve-alpha.report.json").read_bytes())
    assert reports[1] == reports[0]


@pytest.mark.parametrize("procs", [1, 2])
def test_a_failing_solve_alpha_worker_fails_the_stage_as_one_process(procs, tmp_path,
                                                                     monkeypatch, capsys):
    model = {"family": "TwoPoint", "d": 1, "params": {
        "p": 0.5, "up": 2.0, "down": 0.6, "b": {"dist": "exponential", "rate": 1.0}}}
    cfg = monte_carlo_config(tmp_path / "c.json", model, 100_000, 20_000)
    forks = use_cpus(monkeypatch, procs)
    assert main(["solve-alpha", "--config", cfg]) == 1
    # the line the stage printed when it ran every routine in one process
    assert capsys.readouterr().err == (
        '{"detail": "tail index does not exist for coordinate 0: negative log drift not '
        'certified (95% CI [0.08678, 0.09424])", "error": "TailIndexError", '
        '"stage": "solve-alpha"}\n')
    assert len(forks) == procs - 1
    assert not (tmp_path / "o" / "solve-alpha.report.json").exists()
    assert_no_child_left()


@pytest.mark.parametrize("procs", [1, 2, 3])
def test_solve_alpha_names_the_earliest_failing_routine_at_every_cpu_count(procs, tmp_path,
                                                                           monkeypatch, capsys):
    # goldie_mean fails for coordinate 0 and solve_alpha for coordinate 1: in
    # call order, and so in one process, the goldie_mean failure comes first
    def failing(routine, bad):
        def run(spec, j, *args):
            if j == bad:
                raise FloatingPointError(f"{routine.__name__} overflowed for coordinate {j}")
            return routine(spec, j, *args)
        return run

    monkeypatch.setattr(cli, "goldie_mean_on", failing(cli.goldie_mean_on, 0))
    monkeypatch.setattr(cli, "solve_alpha_on", failing(cli.solve_alpha_on, 1))
    cfg = monte_carlo_config(tmp_path / "c.json", PAIR_MODEL, 20_000, 5_000)
    use_cpus(monkeypatch, procs)
    assert main(["solve-alpha", "--config", cfg]) == 1
    assert last_stderr_doc(capsys) == {"detail": "goldie_mean_on overflowed for coordinate 0",
                                       "error": "FloatingPointError", "stage": "solve-alpha"}
    assert not (tmp_path / "o" / "solve-alpha.report.json").exists()
    assert_no_child_left()


def test_solve_alpha_holds_one_draw_at_a_time(tmp_path, monkeypatch):
    # each draw is dropped once its worker forks, so the next draw does not
    # stand beside it; the n-row draws are the stage's largest
    n = 100_000
    cfg = monte_carlo_config(tmp_path / "c.json", BEKK3, n, n // 4)
    spec = ModelSpec.from_json(BEKK3)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        spec.sample_coeffs(np.random.default_rng(7), n)
        draw = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        forks = use_cpus(monkeypatch, 2)
        assert main(["solve-alpha", "--config", cfg]) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(forks) == 9
    assert peak <= draw + 8 * n, (peak, draw)


# -- run steps the stages of one wave side by side ------------------------------

def readme_config(tmp_path: Path) -> str:
    text = re.search(r"```json\n(.*?)```", (ROOT / "README.md").read_text(), re.S).group(1)
    return write_config(tmp_path / "readme.json", json.loads(text))


def golden_config(tmp_path: Path, name: str) -> str:
    model, pipeline = CONFIGS[name]
    doc = {"model": model, "seed": 11, "out": str(tmp_path / "o"), "pipeline": pipeline}
    return write_config(tmp_path / f"{name}.json", doc)


def artifact_digests(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())
            if p.name != "manifest.json"}


def test_a_wave_holds_the_stages_that_read_none_of_each_others_artifacts():
    # what a stage reads: STAGE_DEPS, blocks.report.json for tails and
    # independence when it exists, and every report for report
    reads = {**cli.STAGE_DEPS, "report": cli.STAGE_ORDER[:-1]}
    for name in ("tails", "independence"):
        reads[name] += ("blocks",)
    for a in cli.STAGE_ORDER:
        for b in cli.STAGE_ORDER:
            assert (cli.WAVES[a] == cli.WAVES[b]) == (a not in reads[b] and b not in reads[a])
            if b in reads[a]:
                assert cli.WAVES[b] < cli.WAVES[a]
    waves = [[name for name in cli.STAGE_ORDER if cli.WAVES[name] == w] for w in range(4)]
    assert waves == [["solve-alpha"], ["simulate", "blocks"], ["tails", "spectral", "independence"],
                     ["report"]]


@pytest.mark.parametrize("config", ["readme", "bekk-monte-carlo"])
def test_run_writes_the_same_bytes_at_one_two_and_three_cpus(config, tmp_path, monkeypatch):
    cfg = readme_config(tmp_path) if config == "readme" else golden_config(tmp_path, config)
    got, forked = [], []
    for procs in (1, 2, 3):
        forks = use_cpus(monkeypatch, procs)
        out = tmp_path / f"o{procs}"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert_no_child_left()
        got.append(artifact_digests(out))
        forked.append(len(forks))
    assert got[1] == got[0] and got[2] == got[0]
    if config == "readme":
        # the head of [simulate, blocks] forks (simulate's shares fork inside
        # it, uncounted here) and up to two heads of [tails, spectral,
        # independence]; one CPU keeps every stage here
        assert forked == [0, 2, 3]
    else:
        assert got[0] == DIGESTS[config]


def test_a_stage_subcommand_never_forks(tmp_path, monkeypatch):
    # the small golden pool is one block of chains, so simulate has no share to fork
    cfg = golden_config(tmp_path, "two-point-all-stages")
    forks = use_cpus(monkeypatch, 2)
    for command in cli.STAGE_ORDER:
        assert main([command, "--config", cfg]) == 0, command
    assert forks == []
    assert artifact_digests(tmp_path / "o") == DIGESTS["two-point-all-stages"]


# failing stages -> (the stages that also write their report at 2 CPUs,
# having run here beside the first failing one; the forks at 2 CPUs)
FAILURES = {
    "simulate (forked head)": (("simulate",), ("blocks",), 1),
    "blocks (here, beside a fork)": (("blocks",), (), 1),
    "tails (forked head)": (("tails",), ("spectral", "independence"), 2),
    "spectral (here)": (("spectral",), (), 2),
    "tails and spectral": (("tails", "spectral"), (), 2),
    "simulate and blocks": (("simulate", "blocks"), (), 1),
}


@pytest.mark.parametrize("procs", [1, 2])
@pytest.mark.parametrize("case", sorted(FAILURES))
def test_the_earliest_failing_stage_names_the_failure_at_every_cpu_count(
        case, procs, tmp_path, monkeypatch, capsys):
    failing, beside, want = FAILURES[case]

    def fail(name):
        def stage(self, params):
            raise FloatingPointError(f"{name} overflowed")
        return stage

    for name in failing:
        monkeypatch.setattr(cli._Runner, "_stage_" + name, fail(name))
    cfg = golden_config(tmp_path, "two-point-all-stages")
    forks = use_cpus(monkeypatch, procs)
    assert main(["run", "--config", cfg]) == 1
    first = failing[0]
    assert last_stderr_doc(capsys) == {"detail": f"{first} overflowed",
                                       "error": "FloatingPointError", "stage": first}
    out = tmp_path / "o"
    before = list(cli.STAGE_ORDER[:cli.STAGE_ORDER.index(first)])
    assert sorted(json.loads((out / "manifest.json").read_text())["stages"]) == sorted(before)
    assert not (out / "report.json").exists()
    # a stage beside the failing one may have finished: its report is whole
    wrote = before + list(beside if procs > 1 else ())
    reports = artifact_digests(out)
    assert sorted(name for name in reports if name.endswith(".report.json")) == sorted(
        cli._report_name(name) for name in wrote)
    assert all(DIGESTS["two-point-all-stages"][name] == digest for name, digest in reports.items())
    assert len(forks) == (want if procs > 1 else 0)
    assert_no_child_left()


def test_a_stage_worker_killed_by_a_signal_fails_the_run_naming_its_stage(tmp_path, monkeypatch,
                                                                          capsys):
    parent, tails = os.getpid(), cli._Runner._stage_tails

    def killed(self, params):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return tails(self, params)

    monkeypatch.setattr(cli._Runner, "_stage_tails", killed)
    cfg = golden_config(tmp_path, "two-point-all-stages")
    use_cpus(monkeypatch, 2)
    assert main(["run", "--config", cfg]) == 1
    assert last_stderr_doc(capsys) == {"detail": f"exit status {-signal.SIGKILL}",
                                       "error": "RuntimeError", "stage": "tails"}
    assert sorted(json.loads((tmp_path / "o" / "manifest.json").read_text())["stages"]) == [
        "blocks", "simulate", "solve-alpha"]
    assert_no_child_left()


def test_a_later_worker_that_dies_does_not_hide_an_earlier_failure(tmp_path, monkeypatch,
                                                                   capsys):
    # at 3 CPUs tails and spectral fork: tails fails first, and spectral's
    # worker, killed while it is still out, must not replace that failure
    parent = os.getpid()

    def tails(self, params):
        raise FloatingPointError("tails overflowed")

    def spectral(self, params):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(cli._Runner, "_stage_tails", tails)
    monkeypatch.setattr(cli._Runner, "_stage_spectral", spectral)
    cfg = golden_config(tmp_path, "two-point-all-stages")
    forks = use_cpus(monkeypatch, 3)
    assert main(["run", "--config", cfg]) == 1
    assert last_stderr_doc(capsys) == {"detail": "tails overflowed",
                                       "error": "FloatingPointError", "stage": "tails"}
    assert len(forks) == 3
    assert_no_child_left()
