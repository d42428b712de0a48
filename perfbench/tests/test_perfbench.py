"""Tests of the benchmark harness itself, on configs small enough to run in
seconds.  Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, _readme_pipeline  # noqa: E402

SEED = 5


def tiny(name: str, **changes) -> run.Workload:
    """A named workload shrunk to 100 x 200 records (BekkDiag: smaller
    Monte-Carlo sample sizes), keeping its commands and expectations."""
    base = WORKLOADS[name]
    if name == "bekk-mc":
        pipeline = [
            {"stage": "solve-alpha",
             "params": {"method": "monte-carlo", "n": 400000, "abscissa_n": 20000}},
            {"stage": "simulate", "params": {"chains": 100, "n_per_chain": 200}},
            {"stage": "blocks", "params": {"cross_n": 50000}},
            "tails",
            "spectral",
            {"stage": "independence", "params": {"n": 50000}},
            "report",
        ]
    else:
        pipeline = _readme_pipeline(100, 200)
    return dataclasses.replace(base, **{"pipeline": pipeline, **changes})


def traced_values(workload, work: Path) -> tuple[dict, dict]:
    it = run.run_iteration(workload, SEED, work, trace=True)
    values = tracing.layer_metrics(it["spans"], it["pipeline_s"], it["pipeline_s"],
                                   it["cpu_s"], it["artifact_bytes"])
    return it, values


def test_benchmark_json_matches_harness():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {(m["name"], m["unit"]) for m in doc["end_to_end"]} == set(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        tuple(m) for m in tracing.PER_LAYER
    ]


def test_non_contractive_exit_1_is_counted(tmp_path):
    # E log A = 0.5 log 2 + 0.5 log 0.9 > 0: no tail index, runtime failure
    model = {"family": "TwoPoint", "d": 2,
             "params": {"p": 0.5, "up": 2.0, "down": 0.9,
                        "b": {"dist": "exponential", "rate": 1.0}}}
    it = run.run_iteration(tiny("readme-run", model=model), SEED, tmp_path, trace=False)
    assert it["exit_codes"] == [1]
    assert (it["attempted"], it["failed"]) == (2, 2)  # the call and the output check


def test_malformed_config_exit_2_is_counted(tmp_path):
    pipeline = ["solve-alpha", {"stage": "simulate", "params": 5}]
    it = run.run_iteration(tiny("readme-run", pipeline=pipeline), SEED, tmp_path, trace=False)
    assert it["exit_codes"] == [2]
    assert (it["attempted"], it["failed"]) == (2, 2)


def test_failures_never_abort_a_run(tmp_path):
    model = {"family": "TwoPoint", "d": 2, "params": {"p": 0.5, "up": 2.0, "down": 0.9}}
    got = run.measure(tiny("readme-run", model=model), SEED, 0.0, False, tmp_path)
    res = got["result"]
    assert res["correct"] is False
    assert res["failed"] == 2 * run.MIN_ITERATIONS
    assert res["attempted"] == run.SETUP_PROBES + 2 * run.MIN_ITERATIONS
    assert res["metrics"]["success_rate"]["value"] == 1 - res["failed"] / res["attempted"]


def test_pipeline_ref_divides_by_the_bracketing_reference(tmp_path):
    got = run.measure(tiny("readme-run"), SEED, 0.0, False, tmp_path)
    assert got["result"]["failed"] == 0
    pipes = got["env"]["pipeline_s_samples"]
    refs = got["env"]["reference_pass_s_samples"]
    assert len(pipes) == run.MIN_ITERATIONS and len(refs) == len(pipes) + 1
    ratios = [p / ((a + b) / 2) for p, a, b in zip(pipes, refs, refs[1:])]
    assert got["result"]["metrics"]["pipeline_ref"]["value"] == statistics.median(ratios)


def test_pinned_mismatch_fails_the_check(tmp_path):
    # the tiny pool at the "default" seed cannot match the full-size pins
    workload = tiny("readme-run", default_seed=SEED)
    it = run.run_iteration(workload, SEED, tmp_path, trace=False)
    assert it["exit_codes"] == [0]
    assert it["failed"] == 1


def test_invariants_catch_a_bad_report(tmp_path):
    workload = tiny("readme-run")
    (tmp_path / "pool.bin").write_bytes(bytes(workload.pool_bytes))
    interval = {"value": 1.0, "ci_lo": 1.5, "ci_hi": 2.0}
    report = {"stages": {
        "solve-alpha": {"alphas": [2.0, 2.1]},
        "simulate": {"n_records": workload.n_records},
        "blocks": {"classes": [[0, 1]]},
        "tails": {"tail_constants": {"c_inf": interval}},
        "spectral": {"block_mass": [[0.5, 0.4]], "off_block_mass": [0.0]},
        "independence": {},
    }}
    problems = gate.invariant_problems(workload, report, tmp_path)
    assert [p.split()[0] for p in problems] == [
        "alphas", "block", "angular", ".stages.tails.tail_constants.c_inf:"
    ]


def test_staged_counts_repeat_exactly(tmp_path):
    workload = tiny("staged-1m")
    first_it, first = traced_values(workload, tmp_path)
    _, second = traced_values(workload, tmp_path)
    assert first_it["failed"] == 0
    assert {k: first[k] for k in tracing.EXACT_COUNTS} == {
        k: second[k] for k in tracing.EXACT_COUNTS
    }
    assert first["simulate.load.calls"] == 3
    assert first["simulate.load.bytes"] == 3 * workload.pool_bytes
    assert first["cli.main.calls"] == 7
    assert first["moments.monte_carlo_calls"] == 0
    assert first["simulate.stationary_pool.steps"] > 0
    assert abs(first["trace.unaccounted_s"]) < 0.01 * first_it["pipeline_s"]


def test_run_call_keeps_pool_in_memory(tmp_path):
    it, values = traced_values(tiny("readme-run"), tmp_path)
    assert it["failed"] == 0
    assert values["simulate.load.calls"] == 0
    assert values["moments.monte_carlo_calls"] == 0
    assert values["cli.main.calls"] == 1


def test_bekk_takes_the_monte_carlo_route(tmp_path):
    it, values = traced_values(tiny("bekk-mc"), tmp_path)
    assert it["failed"] == 0
    assert values["moments.monte_carlo_calls"] > 0
    assert values["simulate.load.calls"] == 0


@pytest.mark.parametrize("trace", ["0", "1"])
def test_exits_nonzero_without_sources(tmp_path, trace):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    got = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "readme-run", "--seed", "1",
         "--seconds", "1", "--trace", trace],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert got.returncode != 0
    assert '"correct"' not in got.stdout
