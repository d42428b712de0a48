"""Pipeline benchmark for heavytail-sre.

Usage (from the repository root):

    python3 perfbench/run.py --workload readme-run --seed 11 --seconds 36 --trace 0

Each iteration runs the workload in a fresh interpreter as a single-process
closed loop: one caller, each ``cli.main`` call issued only after the
previous one returned, default CLI options only.  The package is imported
from ``src/`` of the checkout; BLAS threads are capped at nproc.

With ``--trace 0`` the run repeats untraced iterations for ``--seconds``
(at least two) and reports the end-to-end metrics as medians: set-up time,
pipeline wall time in units of a reference work timed around each
iteration (``reference.py``), peak RSS (from ``wait4`` of each child) and
the share of operations that succeeded.  With ``--trace 1`` it runs one
untraced and one traced iteration and reports the per-layer metrics of the
traced one; ``--seconds`` does not apply.  Every ``cli.main`` call, every
output check and every set-up probe is one operation; a non-zero exit or a
failed check counts as a failed operation and never aborts the run.  The
last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import reference
import tracing
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORK = ROOT / ".perfbench-work"

SETUP_PROBES = 3
MIN_ITERATIONS = 2
REF_SHARE = 0.1

END_TO_END = (
    ("setup_s", "s"),
    ("pipeline_ref", "ratio"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cap = str(nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cap
    return env


def spawn(job: dict, job_path: Path) -> dict:
    """Run child.py on a job and wait for it.  Returns the time from spawn
    to the child's ``ready`` event (None if it never came), its ``done``
    event (None if it never came) and its peak RSS from ``wait4``."""
    job_path.write_text(json.dumps(job))
    read_fd, write_fd = os.pipe()
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), str(job_path), str(write_fd)],
        pass_fds=(write_fd,), env=child_env(), stdout=subprocess.DEVNULL,
    )
    os.close(write_fd)
    ready_s, done = None, None
    try:
        with os.fdopen(read_fd) as events:
            for line in events:
                try:
                    event = json.loads(line)
                except ValueError:  # a child that died mid-line
                    continue
                if event["event"] == "ready":
                    ready_s = time.perf_counter() - t0
                elif event["event"] == "done":
                    done = event
    except BaseException:
        proc.kill()
        raise
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"ready_s": ready_s, "done": done, "peak_rss_mb": usage.ru_maxrss / 1024}


def setup_probe(workload: Workload, work: Path) -> float | None:
    job = {"model": workload.model, "calls": [], "trace": False}
    return spawn(job, work / "probe.json")["ready_s"]


def run_iteration(workload: Workload, seed: int, work: Path, trace: bool) -> dict:
    """One closed-loop pass over the workload's calls plus the output check."""
    it_dir = work / "iteration"
    shutil.rmtree(it_dir, ignore_errors=True)
    it_dir.mkdir(parents=True)
    config = it_dir / "config.json"
    out = it_dir / "out"
    workload.write_config(config, seed, out)
    calls = workload.calls(config)
    job = {"model": workload.model, "calls": calls, "trace": trace,
           "spans": str(it_dir / "spans.json")}
    child = spawn(job, it_dir / "job.json")
    done = child["done"]
    results = done["calls"] if done else []
    failed_calls = sum(r["rc"] != 0 for r in results) + len(calls) - len(results)
    problems = gate.check_outputs(workload, seed, out)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    it = {
        "setup_s": child["ready_s"],
        "pipeline_s": sum(r["wall_s"] for r in results),
        "cpu_s": sum(r["cpu_s"] for r in results),
        "peak_rss_mb": child["peak_rss_mb"],
        "exit_codes": [r["rc"] for r in results],
        "attempted": len(calls) + 1,
        "failed": failed_calls + bool(problems),
        "versions": done["versions"] if done else {},
        "artifact_bytes": sum(p.stat().st_size for p in out.glob("*") if p.is_file()),
        "pool_bytes": (out / "pool.bin").stat().st_size if (out / "pool.bin").exists() else 0,
    }
    if trace and done:
        it["spans"] = json.loads((it_dir / "spans.json").read_text())
    shutil.rmtree(it_dir, ignore_errors=True)
    return it


def measure(workload: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    setup_probe(workload, work)  # untimed: fills the bytecode and page caches
    setups = [] if trace else [setup_probe(workload, work) for _ in range(SETUP_PROBES)]
    if trace:
        iterations = [run_iteration(workload, seed, work, trace=False),
                      run_iteration(workload, seed, work, trace=True)]
    else:
        # The reference work brackets every iteration, for at least
        # REF_SHARE of the pipeline time it follows; an iteration starts
        # only if one more is expected to end within ``seconds``.
        iterations, refs, laps = [], [], []
        reference.seconds_per_pass()  # untimed warm-up
        start = time.perf_counter()
        refs.append(reference.seconds_per_pass())
        while (len(iterations) < MIN_ITERATIONS
               or time.perf_counter() - start + statistics.median(laps) <= seconds):
            lap = time.perf_counter()
            iterations.append(run_iteration(workload, seed, work, trace=False))
            refs.append(reference.seconds_per_pass(REF_SHARE * iterations[-1]["pipeline_s"]))
            laps.append(time.perf_counter() - lap)
    attempted = len(setups) + sum(it["attempted"] for it in iterations)
    failed = sum(s is None for s in setups) + sum(it["failed"] for it in iterations)
    setups += [it["setup_s"] for it in iterations]
    ok_setups = [s for s in setups if s is not None] or [0.0]

    if trace:
        plain, traced = iterations
        values = tracing.layer_metrics(
            traced.get("spans", []), traced["pipeline_s"], plain["pipeline_s"],
            traced["cpu_s"], traced["artifact_bytes"],
        )
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in tracing.PER_LAYER}
    else:
        values = {
            "setup_s": statistics.median(ok_setups),
            "pipeline_ref": statistics.median(
                it["pipeline_s"] / ((before + after) / 2)
                for it, before, after in zip(iterations, refs, refs[1:])
            ),
            "peak_rss_mb": statistics.median(it["peak_rss_mb"] for it in iterations),
            "success_rate": 1.0 - failed / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    env = {
        "nproc": nproc(),
        "blas_threads": nproc(),
        "last_level_cache_bytes": last_level_cache(),
        **iterations[-1]["versions"],
        "pool_bin_bytes_computed": {w.name: w.pool_bytes for w in WORKLOADS.values()},
        "pool_bin_bytes_written": iterations[-1]["pool_bytes"],
        "iterations": len(iterations),
        "setup_samples": len(setups),
        "pipeline_s_samples": [it["pipeline_s"] for it in iterations],
        "reference_pass_s_samples": [] if trace else refs,
    }
    return {"env": env, "result": {"correct": failed == 0, "attempted": attempted,
                                   "failed": failed, "metrics": metrics}}


def last_level_cache() -> int | None:
    """Size in bytes of the largest cache level glibc reports, if any."""
    for level in ("LEVEL4_CACHE_SIZE", "LEVEL3_CACHE_SIZE", "LEVEL2_CACHE_SIZE"):
        try:
            got = subprocess.run(["getconf", level], capture_output=True, text=True, check=True)
            size = int(got.stdout.strip() or 0)
        except (OSError, subprocess.CalledProcessError, ValueError):
            continue
        if size > 0:
            return size
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's pinned seed)")
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "heavytail_sre" / "__init__.py").is_file():
        print(f"perfbench: no heavytail_sre sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    work = WORK / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = measure(workload, seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    res = run["result"]
    print(f"workload {workload.name} seed {seed} trace {args.trace}")
    print("env " + json.dumps(run["env"], sort_keys=True))
    print(f"error_rate {res['failed'] / res['attempted']!r} ratio "
          f"({res['failed']} failed of {res['attempted']} operations)")
    if not args.trace:
        pipeline_s = statistics.median(run["env"]["pipeline_s_samples"])
        print(f"pipeline_s {pipeline_s!r} s (median, uncalibrated)")
    for name, m in res["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
