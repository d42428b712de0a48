"""Field rules that no report may break, whatever the model and seed.

``violations(root)`` reads an output directory, or its text under
tests/golden/, and returns one line per broken rule (empty when all
hold):

* every interval holds its point: ``ci_lo <= value <= ci_hi`` (``alpha``
  for a Hill estimate);
* tail constants are nonnegative: the ``goldie_constant`` halves and
  total, every ladder rung, and ``tail_constants``;
* masses and probabilities lie in [0, 1], and a rung's block masses and
  off-block mass sum to 1 within ``MASS_TOL``;
* counts read from the pool are integers in [0, ``n_records``];
* each alpha is positive and below its coordinate's moment abscissa
  ``s_inf`` where that is finite; the positivity check reads that same
  ``s_inf``, and ``margin_ok`` is ``alpha + sigma_margin < s_inf``;
* ``manifest.json`` lists exactly the artifacts on disk.

Report numbers are read with ``float``, which also reads the strings
"inf", "-inf" and "nan" that the writer puts for non-finite floats.  A
rule whose artifact is absent (a stage not run, or ``manifest.json``
and ``pool.bin``, which the golden text leaves out) is skipped.
"""

import json
from pathlib import Path

MASS_TOL = 1e-9  # a rung's masses are fractions of one count, summed in floats


def _dicts(doc, where=""):
    """(path, dict) of every dict nested in doc, doc included."""
    if isinstance(doc, dict):
        yield where, doc
        for k, v in doc.items():
            yield from _dicts(v, f"{where}.{k}")
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _dicts(v, f"{where}[{i}]")


def _intervals(doc):
    for where, d in _dicts(doc):
        if "ci_lo" in d and "ci_hi" in d:
            point = d["value"] if "value" in d else d["alpha"]
            lo, x, hi = float(d["ci_lo"]), float(point), float(d["ci_hi"])
            if not lo <= x <= hi:
                yield f"{where}: interval [{lo}, {hi}] misses {x}"


def _tail_constants(doc):
    paths = []
    for j, c in enumerate(doc["coordinates"]):
        paths += [(f".coordinates[{j}].goldie_constant.{h}", c["goldie_constant"][h])
                  for h in ("plus", "minus", "total")]
        paths += [(f".coordinates[{j}].ladder.{h}[{r}]", e)
                  for h in ("plus", "minus", "total") for r, e in enumerate(c["ladder"][h])]
    if "blocks" in doc:
        paths += [(f".blocks.block[{l}][{r}]", e)
                  for l, series in enumerate(doc["blocks"]["block"]) for r, e in enumerate(series)]
        paths += [(f".blocks.c_inf[{r}]", e) for r, e in enumerate(doc["blocks"]["c_inf"])]
    tc = doc["tail_constants"]
    paths += [(f".tail_constants.{k}[{i}]", e)
              for k in ("c_plus", "c_minus", "c_block") for i, e in enumerate(tc[k])]
    paths.append((".tail_constants.c_inf", tc["c_inf"]))
    for where, e in paths:
        if not float(e["value"]) >= 0.0:
            yield f"{where}: tail constant {e['value']} < 0"


def _fractions(where, values):
    for i, v in enumerate(values):
        if isinstance(v, list):
            yield from _fractions(f"{where}[{i}]", v)
        elif not 0.0 <= float(v) <= 1.0:
            yield f"{where}[{i}]: {v} is not in [0, 1]"


def _masses(name, doc):
    if name == "spectral.report.json":
        for key in ("block_mass", "off_block_mass", "histogram", "marginals"):
            yield from _fractions(f".{key}", doc[key] or [])
        for r, (masses, off) in enumerate(zip(doc["block_mass"], doc["off_block_mass"])):
            if doc["counts"][r] and abs(sum(map(float, masses)) + float(off) - 1.0) > MASS_TOL:
                yield f".block_mass[{r}]: masses and off-block mass do not sum to 1"
    if name == "independence.report.json":
        for p, pair in enumerate(doc["pairs"]):
            yield from _fractions(f".pairs[{p}].joint.prob", pair["joint"]["prob"])
    if name == "solve-alpha.report.json":
        for j, c in enumerate(doc["coordinates"]):
            yield from _fractions(f".coordinates[{j}].log_moment.zero_mass",
                                  [c["log_moment"]["zero_mass"]])


def _count(where, v, n_records):
    if not (isinstance(v, int) and not isinstance(v, bool) and 0 <= v <= n_records):
        yield f"{where}: count {v!r} is not an integer in [0, {n_records}]"


def _counts(name, doc, n_records):
    """The pool counts: every n, k and counts entry of the tails and
    spectral reports and of each independence pair's joint exceedances."""
    if name == "independence.report.json":
        roots = [(f".pairs[{p}].joint", pair["joint"]) for p, pair in enumerate(doc["pairs"])]
    elif name in ("tails.report.json", "spectral.report.json"):
        roots = [("", doc)]
    else:
        return
    for top, root in roots:
        for where, d in _dicts(root, top):
            for key in ("n", "k"):
                if key in d:
                    yield from _count(f"{where}.{key}", d[key], n_records)
            for i, v in enumerate(d.get("counts", [])):
                yield from _count(f"{where}.counts[{i}]", v, n_records)


def _alphas(doc):
    for j, c in enumerate(doc["coordinates"]):
        alpha, s_inf = c["alpha"], float(c["abscissa"]["s_inf"])
        where = f".coordinates[{j}]"
        if doc["alphas"][j] != alpha or not alpha > 0.0:
            yield f"{where}.alpha: {alpha} is not positive or not alphas[{j}]"
        if not alpha < s_inf:
            yield f"{where}.alpha: {alpha} is not below s_inf {s_inf}"
        if float(c["positivity"]["s_inf"]) != s_inf:
            yield f"{where}.positivity.s_inf: {c['positivity']['s_inf']} is not s_inf {s_inf}"
        if c["margin_ok"] is not (alpha + doc["sigma_margin"] < s_inf):
            yield f"{where}.margin_ok: {c['margin_ok']} disagrees with s_inf {s_inf}"


def _manifest(root):
    manifest = json.loads((root / "manifest.json").read_text())
    listed = {a for entry in manifest["stages"].values() for a in entry["artifacts"]}
    on_disk = {p.name for p in root.iterdir()} - {"manifest.json"}
    if listed != on_disk:
        yield (f"manifest.json: lists {sorted(listed - on_disk)} not on disk, "
               f"misses {sorted(on_disk - listed)}")


def violations(root) -> list[str]:
    """One line per broken rule in the reports under root."""
    root = Path(root)
    reports = {p.name: json.loads(p.read_text()) for p in sorted(root.glob("*.report.json"))}
    n_records = reports.get("simulate.report.json", {}).get("n_records")
    out = []
    for name, doc in reports.items():
        found = [*_intervals(doc), *_masses(name, doc)]
        if n_records is not None:
            found += _counts(name, doc, n_records)
        if name == "tails.report.json":
            found += _tail_constants(doc)
        if name == "solve-alpha.report.json":
            found += _alphas(doc)
        out += [f"{name}{line}" for line in found]
    if (root / "manifest.json").exists():
        out += _manifest(root)
    return out
