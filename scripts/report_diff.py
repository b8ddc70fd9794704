#!/usr/bin/env python3
"""Compare this checkout's reports with another checkout's, file by file.

    python3 scripts/report_diff.py OTHER_CHECKOUT

Runs a fixed set of configs through `bsvi.cli.run` in this checkout and in
OTHER_CHECKOUT, each side in its own subprocess that imports bsvi from that
checkout's ``src/``.  Every run's report, minus the machine-dependent
``timings``, is written as a JSON document and as a CSV bundle; every report
file that differs between the two sides, or exists on one side only, is
printed.  A JSON report is compared by its parsed values, so one that differs
in layout alone (whitespace, say) does not differ; any other file by its
bytes.  Under a differing JSON report on both sides go its differing key
paths, and under a differing CSV file its differing cells (a cell that parses
as a float read as one), each with |this - other| and that over |other| for
numbers, marked BEYOND when the difference breaks the golden files' rule
|this - other| <= 1e-12 + 1e-10 |other|; any other differing value, and any
file on one side only, is BEYOND.  Exits 0 when no file differs, 1 when
every difference keeps the rule, and 2 on a BEYOND difference (or a usage
error).

The 14 configs (28 reports): the four shipped configs with golden files,
configs/indicator_box.yaml in classical, penalized, prox and bsvi mode, the
benchmark's box_compare and delay_bsvi configs at seeds 0 and 5, and
delay_bsvi's seed-0 config in penalized and in classical mode.  The benchmark
configs come from perfbench/run.py's ``draw_params`` and ``cli_config`` of
this checkout, so both sides run the same documents.
"""

import csv
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ("delay_reduction", "indicator_box", "minimal", "quadratic")
ZERO_PHI = {"kind": "zero"}
ATOL, RTOL = 1e-12, 1e-10  # tests/test_golden.py's rule against the other side
MISSING = object()


def perfbench_module():
    """perfbench/run.py, imported read-only for its config builders."""
    sys.path.insert(0, str(ROOT / "perfbench"))  # run.py imports spans
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _with_mode(doc: dict, mode: str) -> dict:
    doc = json.loads(json.dumps(doc))
    doc.setdefault("run", {})["mode"] = mode
    if mode == "classical":  # a classical run takes no phi
        doc["phi"] = dict(ZERO_PHI)
    return doc


def configs() -> dict:
    """Run name -> config document."""
    docs = {f"golden-{stem}": yaml.safe_load(
        (ROOT / "configs" / f"{stem}.yaml").read_text(encoding="utf-8")) for stem in GOLDEN}
    for mode in ("classical", "penalized", "prox", "bsvi"):
        docs[f"indicator_box-{mode}"] = _with_mode(docs["golden-indicator_box"], mode)
    bench = perfbench_module()
    for name in ("box_compare", "delay_bsvi"):
        for seed in (0, 5):
            docs[f"{name}-seed{seed}"] = bench.cli_config(
                name, bench.WORKLOADS[name]["n_steps"], bench.draw_params(seed))
    for mode in ("penalized", "classical"):
        docs[f"delay_bsvi-{mode}"] = _with_mode(docs["delay_bsvi-seed0"], mode)
    return docs


def emit_all(config_dir: Path, out_dir: Path):
    """Run every config in ``config_dir`` with the bsvi on the import path and
    write its report as out_dir/<run>/json and out_dir/<run>/csv; a run that
    raises writes out_dir/<run>/error.txt instead."""
    from bsvi import cli  # the checkout's own, from the PYTHONPATH its side was given

    warnings.simplefilter("ignore")
    for path in sorted(config_dir.glob("*.json")):
        where = out_dir / path.stem
        try:
            report = cli.run(path, write_files=False)
        except Exception as exc:  # a refusal is part of the behaviour compared
            where.mkdir(parents=True)
            (where / "error.txt").write_text(f"{type(exc).__name__}: {exc}\n", encoding="utf-8")
            continue
        report.pop("timings")
        for fmt in cli.OUT_FORMATS:
            cli.emit_report(report, where / fmt, fmt)


def _same(a: Path, b: Path) -> bool:
    """Both files exist and hold the same bytes or, for JSON, the same values."""
    if not (a.is_file() and b.is_file()):
        return False
    texts = a.read_bytes(), b.read_bytes()
    return texts[0] == texts[1] or a.suffix == ".json" and not value_differences(
        *map(json.loads, texts))


def differing_files(a: Path, b: Path) -> list:
    """Relative paths of the files under ``a`` and ``b`` that differ (a JSON
    report in its parsed values, any other file in bytes) or exist on one side
    only, sorted."""
    files = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files |= {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    return sorted(str(f) for f in files if not _same(a / f, b / f))


def value_differences(a, b, where: str = "") -> list:
    """(key path, a value, b value) of every leaf at which the JSON documents
    ``a`` and ``b`` differ in their text, in key order; a key or list entry on
    one side only pairs with MISSING."""
    if isinstance(a, dict) and isinstance(b, dict):
        return [d for key in sorted(a.keys() | b.keys())
                for d in value_differences(a.get(key, MISSING), b.get(key, MISSING),
                                           f"{where}.{key}" if where else key)]
    if isinstance(a, list) and isinstance(b, list):
        pad = [MISSING] * abs(len(a) - len(b))
        return [d for k, (x, y) in enumerate(zip(a + pad, b + pad))
                for d in value_differences(x, y, f"{where}[{k}]")]
    same = a is not MISSING and b is not MISSING and json.dumps(a) == json.dumps(b)
    return [] if same else [(where, a, b)]


def _number(cell):
    try:
        return float(cell)
    except (TypeError, ValueError):  # MISSING, or a cell that is not a float
        return cell


def cell_differences(a: str, b: str) -> list:
    """(row and column, a cell, b cell) of every cell at which the CSV texts
    ``a`` and ``b`` differ in their text, row by row; a cell that parses as a
    float is read as one, and a row or cell on one side only pairs with MISSING."""
    rows = [list(csv.reader(io.StringIO(text))) for text in (a, b)]
    found = []
    for r in range(max(map(len, rows))):
        cells = [side[r] if r < len(side) else [] for side in rows]
        for c in range(max(map(len, cells))):
            x, y = (row[c] if c < len(row) else MISSING for row in cells)
            if x != y:
                found.append((f"row {r} column {c}", _number(x), _number(y)))
    return found


def describe(where: str, a, b) -> str:
    """One line for a differing leaf: for two numbers |a - b| and its ratio to
    |b|, marked BEYOND past the golden rule; otherwise both values."""
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)):
        show = ["(missing)" if v is MISSING else json.dumps(v) for v in (a, b)]
        return f"  {where}: {show[0]} != {show[1]}  BEYOND"
    gap = abs(a - b)
    rel = gap / abs(b) if b else (math.inf if gap else 0.0)
    mark = "" if gap <= ATOL + RTOL * abs(b) else "  BEYOND"
    return f"  {where}: |this - other| {gap:.3e}, relative {rel:.3e}{mark}"


def compare_reports(this: Path, other: Path) -> int:
    """Print every file that differs between the report directories ``this``
    and ``other``, and under it each differing value; return 0 when none
    differs, 1 when every difference keeps the golden files' rule and 2 when
    one is BEYOND it."""
    diff, beyond = differing_files(this, other), False
    for rel in diff:
        print(f"differs: {rel}")
        pair = [this / rel, other / rel]
        if not all(p.is_file() for p in pair):
            lines = ["  (on one side only)  BEYOND"]
        else:
            texts = [p.read_text(encoding="utf-8") for p in pair]
            leaves = value_differences(*map(json.loads, texts)) if rel.endswith(".json") else \
                cell_differences(*texts) if rel.endswith(".csv") else [("text", *texts)]
            lines = [describe(*leaf) for leaf in leaves]
        print(*lines, sep="\n")
        beyond = beyond or any(line.endswith("BEYOND") for line in lines)
    print(f"{len(diff)} differing file(s)")
    return 2 if beyond else 1 if diff else 0


def _emit_in(checkout: Path, config_dir: Path, out_dir: Path):
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--emit",
                    str(config_dir), str(out_dir)], env=env, check=True)


def main(argv: list) -> int:
    if len(argv) == 3 and argv[0] == "--emit":
        emit_all(Path(argv[1]), Path(argv[2]))
        return 0
    if len(argv) != 1 or not (Path(argv[0]) / "src" / "bsvi").is_dir():
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "configs").mkdir()
        docs = configs()
        for name, doc in docs.items():  # JSON is valid YAML
            (tmp / "configs" / f"{name}.json").write_text(json.dumps(doc, indent=1))
        sides = {"this": ROOT, "other": Path(argv[0]).resolve()}
        for side, checkout in sides.items():
            _emit_in(checkout, tmp / "configs", tmp / side)
        print(f"{len(docs)} configs run on both sides")
        return compare_reports(tmp / "this", tmp / "other")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
