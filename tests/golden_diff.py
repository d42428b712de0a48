"""The golden runs as text, and what moved between two output directories.

``tests/golden/<config>/`` holds the JSON and CSV artifacts of each
``test_golden.CONFIGS`` run as text: every artifact but pool.bin and
manifest.json, with report.json less its "stages" copies of the stage
reports.  ``moved`` lists each JSON path or CSV cell that differs between
two such directories, floats with their distance in ulps; test_golden
prints that list against the golden text when a digest fails.

    python tests/golden_diff.py OLD_DIR NEW_DIR   # list what moved, exit 1 if any
    python tests/golden_diff.py --record          # rewrite tests/golden/, print DIGESTS

A re-record quotes the list and commits the rewritten text with the printed
digests, which replace test_golden.DIGESTS as they stand.
"""

import json
import struct
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
LEFT_OUT = ("pool.bin", "manifest.json")


def artifacts(root) -> dict:
    """File name -> text of each JSON and CSV artifact of an output directory,
    report.json without its "stages"."""
    out = {}
    for path in sorted(Path(root).iterdir()):
        if path.name in LEFT_OUT or path.suffix not in (".json", ".csv"):
            continue
        text = path.read_bytes().decode()
        if path.name == "report.json":
            doc = json.loads(text)
            doc.pop("stages", None)
            text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        out[path.name] = text
    return out


def ulps(a: float, b: float) -> int:
    """How many floats apart a and b are (0.0 and -0.0 are 0 apart)."""

    def ordered(x):
        i = struct.unpack("<q", struct.pack("<d", x))[0]
        return i if i >= 0 else -(i & 0x7FFF_FFFF_FFFF_FFFF)

    return abs(ordered(a) - ordered(b))


def _float(v) -> float | None:
    """v as a float where it is one: a JSON float, or a string that reads as
    one (every numeric CSV cell, and the JSON "inf" and "nan"); JSON integers
    (counts) are not."""
    if isinstance(v, float):
        return v
    if isinstance(v, str):
        try:
            return float(v)
        except ValueError:
            pass
    return None


def _leaf(where: str, a, b) -> list[str]:
    if type(a) is type(b) and a == b:
        return []
    fa, fb = _float(a), _float(b)
    far = "" if fa is None or fb is None or fa != fa or fb != fb else f" ({ulps(fa, fb)} ulp)"
    return [f"{where}: {a!r} -> {b!r}{far}"]


def _walk(where: str, a, b) -> list[str]:
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for key in sorted(a.keys() | b.keys()):
            if key not in a or key not in b:
                out.append(f"{where}.{key}: {'added' if key in b else 'removed'}")
            else:
                out += _walk(f"{where}.{key}", a[key], b[key])
        return out
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [f"{where}: length {len(a)} -> {len(b)}"]
        return [line for i, (x, y) in enumerate(zip(a, b)) for line in _walk(f"{where}[{i}]", x, y)]
    return _leaf(where, a, b)


def _csv_cells(where: str, a: str, b: str) -> list[str]:
    rows_a, rows_b = ([r.split(",") for r in t.splitlines()] for t in (a, b))
    if rows_a[0] != rows_b[0] or len(rows_a) != len(rows_b):
        return [f"{where}: header {rows_a[0]} -> {rows_b[0]}, {len(rows_a)} -> {len(rows_b)} rows"]
    out = []
    for r, (x, y) in enumerate(zip(rows_a[1:], rows_b[1:]), start=1):
        for column, u, v in zip(rows_a[0], x, y):
            out += _leaf(f"{where} row {r} {column}", u, v)
    return out


def moved(old_root, new_root) -> list[str]:
    """Each JSON path or CSV cell that differs between two output directories."""
    old, new = artifacts(old_root), artifacts(new_root)
    out = []
    for name in sorted(old.keys() | new.keys()):
        if name not in old or name not in new:
            out.append(f"{name}: {'added' if name in new else 'removed'}")
        elif name.endswith(".csv"):
            out += _csv_cells(name, old[name], new[name])
        else:
            out += _walk(name, json.loads(old[name]), json.loads(new[name]))
    return out


def record() -> None:
    """Run every test_golden config, write its text under tests/golden/, and
    print the artifact digests in the layout of test_golden.DIGESTS."""
    import test_golden

    print("DIGESTS = {")
    for name in sorted(test_golden.CONFIGS):
        with tempfile.TemporaryDirectory() as tmp:
            digests = test_golden.run_digests(name, Path(tmp))
            print(f'    "{name}": {{')
            for file, digest in digests.items():
                print(f'        "{file}": "{digest}",')
            print("    },")
            dest = GOLDEN / name
            dest.mkdir(parents=True, exist_ok=True)
            for old in dest.iterdir():
                old.unlink()
            for file, text in artifacts(Path(tmp) / "out").items():
                (dest / file).write_bytes(text.encode())
    print("}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        record()
    else:
        lines = moved(*sys.argv[1:3])
        print("\n".join(lines) or "nothing moved")
        sys.exit(1 if lines else 0)
