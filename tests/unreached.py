"""List the statements of src/heavytail_sre/ that no tier-1 test executes.

Runs the tier-1 suite in this process under a ``sys.settrace`` line tracer
that records lines of src/heavytail_sre/ only, then prints
``file:line: source`` for every statement, docstrings aside, none of whose
lines ran.  The tracer keeps running in forked children, which leave
through ``os._exit``: each writes the lines it ran to a file that this
process merges.  Statements that run only in subprocesses a test starts
read as unreached.  Pytest does not collect this file.

    python tests/unreached.py [extra pytest arguments]
"""

import ast
import marshal
import os
import shutil
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "heavytail_sre"


def statement_lines(tree: ast.Module) -> list[tuple[int, range]]:
    """(first line, the lines whose code runs when it runs) per statement.

    A compound statement owns its header (decorators included) up to its
    body; a ``try`` has no code of its own, so its first body statement
    stands for it.  Constant expression statements (docstrings) compile to
    nothing and are left out.
    """
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        if isinstance(node, ast.Try):
            lines = range(body[0].lineno, body[0].end_lineno + 1)
        elif body:
            lines = range(first, max(first, body[0].lineno - 1) + 1)
        else:
            lines = range(first, node.end_lineno + 1)
        out.append((first, lines))
    return sorted(out, key=lambda item: item[0])


def run_traced(pytest_args: list[str]) -> tuple[int, set]:
    """Run pytest in this process; returns its exit code and the executed
    (file, line) pairs of the package."""
    import pytest

    hits: set[tuple[str, int]] = set()
    mine: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in mine:
            mine[name] = Path(name).resolve().parent == PACKAGE
        return local if mine[name] else None

    # the package from this checkout, also for the subprocesses tests start
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                             os.environ.get("PYTHONPATH")]))
    # a forked child starts an empty hit set and writes it out as it leaves,
    # through a rename: a child killed while it writes leaves only a .tmp file
    parent, real_exit, dumps = os.getpid(), os._exit, Path(tempfile.mkdtemp())

    def child_exit(status):
        if os.getpid() != parent:
            with open(dumps / f"{os.getpid()}.tmp", "wb") as fh:
                marshal.dump(list(hits), fh)
            os.rename(dumps / f"{os.getpid()}.tmp", dumps / str(os.getpid()))
        real_exit(status)

    os.register_at_fork(after_in_child=hits.clear)
    os._exit = child_exit
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
        os._exit = real_exit
    for dump in dumps.iterdir():
        if dump.suffix != ".tmp":
            hits.update(map(tuple, marshal.loads(dump.read_bytes())))
    shutil.rmtree(dumps)
    resolved = {(str(Path(f).resolve()), line) for f, line in hits}
    return int(code), resolved


def main(argv: list[str]) -> int:
    code, hits = run_traced(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                             str(ROOT / "tests"), *argv])
    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        for first, lines in statement_lines(ast.parse("\n".join(source))):
            total += 1
            if not any((str(path), line) in hits for line in lines):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{first}: {source[first - 1].strip()}")
    print(f"{missed} of {total} statements unreached; pytest exit status {code}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
