import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from heavytail_sre.cli import main

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
    for k, doc in enumerate(cases):
        doc.setdefault("pipeline", ["solve-alpha"])
        cfg = write_config(tmp_path / f"c{k}.json", doc)
        assert main(["run", "--config", cfg]) == 2, doc
        assert last_stderr_doc(capsys)["error"] == "validation"


def test_unreadable_and_malformed_configs(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2
    assert last_stderr_doc(capsys)["error"] == "validation"
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad)]) == 2
    assert "JSON" in last_stderr_doc(capsys)["detail"]


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
