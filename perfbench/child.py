"""Body of one fresh benchmark interpreter.

Usage: python3 child.py JOB_JSON EVENT_FD

Imports heavytail_sre with its CLI module and parses the workload's model
(set-up), reports ``ready`` on EVENT_FD, then issues the job's ``cli.main``
calls one after another and reports their exit codes, wall and CPU times
on EVENT_FD.  A
traced job installs the span wrappers after ``ready`` and writes the spans
to the job's ``spans`` path.  Only the stdlib is imported before set-up,
so the set-up time is the package's own.
"""

import json
import os
import sys
import time
import traceback


def main() -> int:
    job_path, fd = sys.argv[1], int(sys.argv[2])
    with open(job_path) as fh:
        job = json.load(fh)
    events = os.fdopen(fd, "w", buffering=1)

    import heavytail_sre
    import heavytail_sre.cli as cli
    from heavytail_sre.model import ModelSpec

    ModelSpec.from_json(job["model"])
    events.write('{"event": "ready"}\n')
    if not job["calls"]:
        return 0

    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    calls = []
    for argv in job["calls"]:
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            rc = cli.main(argv)
        except Exception:
            traceback.print_exc()
            rc = -1
        calls.append({"rc": rc, "wall_s": time.perf_counter() - t0,
                      "cpu_s": time.process_time() - c0})
    if tracer is not None:
        tracer.dump(job["spans"])
    versions = {
        "python": sys.version.split()[0],
        "numpy": sys.modules["numpy"].__version__,
        "scipy": sys.modules["scipy"].__version__,
        "heavytail_sre": heavytail_sre.__version__,
    }
    events.write(json.dumps({"event": "done", "calls": calls, "versions": versions}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
