#!/usr/bin/env python3
"""Compare this checkout's reports and solves with another checkout's, file by file.

    python3 scripts/report_diff.py OTHER_CHECKOUT

Runs a set of configs through `bsvi.cli.run` in this checkout and in
OTHER_CHECKOUT, each side in its own subprocess that imports bsvi from that
checkout's ``src/``.  Every run's report, minus the machine-dependent
``timings``, is written as a JSON document and as a CSV bundle, and beside them
solves.txt: one ``label sha256`` line per solution of the public solves the run
makes (`solver.solve_bsvi`, one per epsilon, `picard_solve` and
`prox_step_solve`), over its Y, Z and U, its frozen past and its Picard
distances, every array hashed with its shape and dtype.  A run that raises
writes its error text instead.  Every file that differs between the two sides,
or exists on one side only, is printed.  A JSON report is compared by its
parsed values, so one that differs in layout alone (whitespace, say) does not
differ; any other file by its bytes.  Under a differing JSON report on both
sides go its differing key paths, under a differing CSV file its differing
cells (a cell that parses as a float read as one, a cell that holds a JSON
list entry by entry), each with |this - other|
and that over |other| for numbers, marked BEYOND when the difference breaks
the golden files' rule |this - other| <= 1e-12 + 1e-10 |other|, and under a
differing solves.txt its differing lines; any other differing value, and any
file on one side only, is BEYOND.  Exits 0 when no file differs, 1 when every
difference keeps the rule or is a solve's bits (a change may move them at
rounding), and 2 on a BEYOND difference, a usage error or a comparison that
cannot finish (a side that cannot run, or an error of this script).

The 16 configs: every configs/*.yaml, configs/indicator_box.yaml in classical,
penalized, prox and bsvi mode, the benchmark's box_compare and delay_bsvi
configs at seeds 0 and 5, delay_bsvi's seed-0 config in penalized and in
classical mode, and ``box_2d``: m = 2 on a bm_dim = 2 tree at n = 5, a box and
a linear drift with off-diagonal terms in compare mode, the one run with more
than one product per node in the drift.  The benchmark configs come from
perfbench/run.py's ``draw_params`` and ``cli_config`` of this checkout, so both
sides run the same documents.
"""

import csv
import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import traceback
import warnings
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
SOLVES = ("solve_bsvi", "picard_solve", "prox_step_solve")
ZERO_PHI = {"kind": "zero"}
ATOL, RTOL = 1e-12, 1e-10  # tests/test_golden.py's rule against the other side
MISSING = object()
BOX_2D = {  # m = 2, bm_dim = 2: the drift and the terminal each contract two or four terms
    "model": {"horizon": 1.0, "n_steps": 5, "bm_dim": 2, "dim": 2},
    "terminal": {"kind": "clipped_linear", "a": [0.1, -0.2], "b": [[1.0, 0.3], [-0.4, 0.8]],
                 "lo": [-1.0, -0.5], "hi": [1.0, 0.5]},
    "generator": {"kind": "linear", "a": [[0.25, -0.1], [0.15, 0.2]],
                  "b": [[[0.1, -0.05], [0.02, 0.0]], [[0.0, 0.03], [-0.1, 0.05]]]},
    "phi": {"kind": "box", "lo": [-1.0, -0.5], "hi": [1.0, 0.5]},
    "solver": {"picard_tol": 1.0e-10},
    "run": {"mode": "compare", "format": "csv"},
}


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
    docs = {p.stem: yaml.safe_load(p.read_text(encoding="utf-8"))
            for p in sorted((ROOT / "configs").glob("*.yaml"))}
    for mode in ("classical", "penalized", "prox", "bsvi"):
        docs[f"indicator_box-{mode}"] = _with_mode(docs["indicator_box"], mode)
    bench = perfbench_module()
    for name in ("box_compare", "delay_bsvi"):
        for seed in (0, 5):
            docs[f"{name}-seed{seed}"] = bench.cli_config(
                name, bench.WORKLOADS[name]["n_steps"], bench.draw_params(seed))
    for mode in ("penalized", "classical"):
        docs[f"delay_bsvi-{mode}"] = _with_mode(docs["delay_bsvi-seed0"], mode)
    docs["box_2d"] = BOX_2D
    return docs


def digest(solution) -> str:
    """sha256 over a solution's Y, Z, U, frozen past (if any) and Picard distances."""
    import numpy as np  # not at import: scripts/ab_time.py imports this module before
    # it pins BLAS threads, which OpenBLAS reads once, at numpy's import

    h = hashlib.sha256()
    processes = [solution.Y, solution.Z, solution.U, *(solution.frozen_past or ())]
    arrays = [a for p in processes for a in p.values]
    arrays.append(np.array(solution.diagnostics.iterate_distances, dtype=float))
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.shape} {a.dtype}|".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def emit_all(config_dir: Path, out_dir: Path):
    """Run every config in ``config_dir`` with the bsvi on the import path and
    write its report as out_dir/<run>/json and out_dir/<run>/csv and its solves'
    digests as out_dir/<run>/solves.txt; a run that raises writes
    out_dir/<run>/error.txt instead.  Wraps the package's public solves for the
    rest of the process."""
    from bsvi import cli  # the checkout's own, from the PYTHONPATH its side was given

    warnings.simplefilter("ignore")
    solves, depth = [], [0]

    def recording(name, real):
        def entry(*args, **kwargs):
            depth[0] += 1
            try:
                out = real(*args, **kwargs)
            finally:
                depth[0] -= 1
            # an entry called by another counts once, as the outer one: an older
            # prox_step_solve called picard_solve
            if depth[0] == 0:
                pairs = out.per_epsilon if name == "solve_bsvi" else [(out.epsilon, out)]
                solves.extend(f"{name} eps={e!r} {digest(s)}\n" for e, s in pairs)
            return out
        return entry

    for name in SOLVES:
        setattr(cli.solver, name, recording(name, getattr(cli.solver, name)))
    for path in sorted(config_dir.glob("*.json")):
        where, solves[:] = out_dir / path.stem, []
        try:
            report = cli.run(path, write_files=False)
        except Exception as exc:  # a refusal is part of the behaviour compared
            where.mkdir(parents=True)
            (where / "error.txt").write_text(f"{type(exc).__name__}: {exc}\n", encoding="utf-8")
            continue
        report.pop("timings")
        for fmt in cli.OUT_FORMATS:
            cli.emit_report(report, where / fmt, fmt)
        (where / "solves.txt").write_text("".join(solves), encoding="utf-8")


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
    """A CSV cell as a float, else as the JSON it holds (a vector's or matrix's
    list), else as its text."""
    for parse in (float, json.loads):
        try:
            return parse(cell)
        except (TypeError, ValueError):  # MISSING, or a cell that is neither
            pass
    return cell


def cell_differences(a: str, b: str) -> list:
    """(row and column, a value, b value) of every cell at which the CSV texts
    ``a`` and ``b`` differ in their text, row by row; a cell that parses as a
    float is read as one, one that holds a JSON list as the list (each differing
    entry a leaf, as in `value_differences`), and a row or cell on one side only
    pairs with MISSING."""
    rows = [list(csv.reader(io.StringIO(text))) for text in (a, b)]
    found = []
    for r in range(max(map(len, rows))):
        cells = [side[r] if r < len(side) else [] for side in rows]
        for c in range(max(map(len, cells))):
            x, y = (row[c] if c < len(row) else MISSING for row in cells)
            if x != y:
                found += value_differences(_number(x), _number(y), f"row {r} column {c}")
    return found


def solve_differences(a: str, b: str) -> list:
    """One line per line at which the solves files ``a`` and ``b`` differ, in
    order: the solve's label (both, where they differ) and both digests, a line
    on one side only read as "(missing)"."""
    rows = [[line.rsplit(" ", 1) for line in text.splitlines()] for text in (a, b)]
    found = []
    for k in range(max(map(len, rows))):
        (la, x), (lb, y) = (side[k] if k < len(side) else ("", "(missing)") for side in rows)
        if (la, x) != (lb, y):
            label = " | ".join(dict.fromkeys(filter(None, (la, lb))))
            found.append(f"  {label}: this {x} other {y}")
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
    and ``other``, and under it each differing value or solve; return 0 when
    none differs, 1 when every difference keeps the golden files' rule or is a
    solve's digest and 2 when one is BEYOND the rule."""
    diff, beyond = differing_files(this, other), False
    for rel in diff:
        print(f"differs: {rel}")
        pair = [this / rel, other / rel]
        if not all(p.is_file() for p in pair):
            lines = ["  (on one side only)  BEYOND"]
        else:
            texts = [p.read_text(encoding="utf-8") for p in pair]
            if rel.endswith("solves.txt"):  # a solve's bits may move at rounding: not BEYOND
                lines = solve_differences(*texts)
            else:
                leaves = value_differences(*map(json.loads, texts)) if rel.endswith(".json") \
                    else cell_differences(*texts) if rel.endswith(".csv") else [("text", *texts)]
                lines = [describe(*leaf) for leaf in leaves]
        print(*lines, sep="\n")
        beyond = beyond or any(line.endswith("BEYOND") for line in lines)
    print(f"{len(diff)} differing file(s)")
    return 2 if beyond else 1 if diff else 0


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
        for side, checkout in {"this": ROOT, "other": Path(argv[0]).resolve()}.items():
            subprocess.run([sys.executable, str(Path(__file__).resolve()), "--emit",
                            str(tmp / "configs"), str(tmp / side)],
                           env=dict(os.environ, PYTHONPATH=str(checkout / "src")), check=True)
        print(f"{len(docs)} configs run on both sides")
        return compare_reports(tmp / "this", tmp / "other")


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except Exception:  # a side that cannot run, or an error here: the comparison did not
        traceback.print_exc()  # finish, which must not read as a difference at rounding
        sys.exit(2)
