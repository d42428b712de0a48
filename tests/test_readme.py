"""README.md is part of the API: its Python runs, and its report guide
names every field the reports hold."""

import contextlib
import csv
import io
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, flags=re.M | re.S)
GOLDEN = sorted((ROOT / "tests" / "golden").iterdir())


def section(title: str) -> str:
    """The text of README's `## title` section, up to the next section."""
    start = README.index(f"\n## {title}\n")
    return README[start:README.index("\n## ", start + 1)]


@pytest.mark.parametrize("index", range(len(PYTHON_BLOCKS)))
def test_readme_python_prints_what_it_says(index):
    # each "# prints: ..." line of a block is one line of its output
    code = PYTHON_BLOCKS[index]
    want = [line.split("# prints: ", 1)[1] for line in code.splitlines()
            if line.startswith("# prints: ")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, f"README.md python block {index}", "exec"), {})
    assert out.getvalue().splitlines() == want


def test_readme_has_python_to_run():
    assert PYTHON_BLOCKS


def keys_of(doc) -> set:
    if isinstance(doc, dict):
        return set(doc).union(*map(keys_of, doc.values()))
    if isinstance(doc, list):
        return set().union(*map(keys_of, doc))
    return set()


@pytest.mark.parametrize("artifact", ["solve-alpha.report.json", "simulate.report.json",
                                      "tails.report.json", "tails.ladders.csv",
                                      "spectral.report.json", "spectral.angular.csv"])
def test_reading_the_reports_names_every_field(artifact):
    guide = section("Reading the reports")
    goldens = [golden for golden in GOLDEN if (golden / artifact).exists()]
    assert goldens
    for golden in goldens:
        text = (golden / artifact).read_text()
        if artifact.endswith(".json"):
            fields = keys_of(json.loads(text))
        else:
            fields = set(next(csv.reader(io.StringIO(text))))
        unnamed = sorted(f for f in fields if f"`{f}`" not in guide)
        assert unnamed == [], f"{golden.name}/{artifact}"
