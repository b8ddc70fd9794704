#!/usr/bin/env python3
"""Compare the bits of every solve in this checkout with another checkout's.

    python3 scripts/solve_digest.py OTHER_CHECKOUT

Copies each checkout's ``src/bsvi`` into a temporary directory under a package
name of its own and loads both copies, as scripts/ab_time.py does.  Each side
then runs `cli.run` (no files written) on every configs/*.yaml of this checkout
and on the benchmark's seed-0 box_compare and delay_bsvi configs, built by this
checkout's perfbench/run.py ``cli_config``.  Every solution of the public solves
a run makes (`solver.solve_bsvi`, one per epsilon, `picard_solve` and
`prox_step_solve`) gets one sha256 over its Y, Z and U, its frozen past and its
Picard distances, every array hashed with its shape and dtype.  A config that
raises on a side gives that side its error text instead.

Prints one line per solve: ``same`` and the digest, or ``DIFFERS`` and both
digests.  Exits 0 when every solve and every error is the same on both sides, 1
when a solve (or an error text, or the number of solves) differs, and 2 when a
config fails on one side only (argparse's usage errors exit 2 too).
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from ab_time import SIDES, load_cli
from report_diff import ROOT, perfbench_module

ENTRIES = ("solve_bsvi", "picard_solve", "prox_step_solve")


def configs(where: Path) -> dict:
    """Run name -> config path: configs/*.yaml, then the two benchmark configs
    at seed 0, written as JSON (valid YAML) into ``where``."""
    paths = {p.stem: p for p in sorted((ROOT / "configs").glob("*.yaml"))}
    bench = perfbench_module()
    for name in ("box_compare", "delay_bsvi"):
        doc = bench.cli_config(name, bench.WORKLOADS[name]["n_steps"], bench.draw_params(0))
        paths[f"{name}-seed0"] = where / f"{name}-seed0.json"
        paths[f"{name}-seed0"].write_text(json.dumps(doc), encoding="utf-8")
    return paths


def digest(solution) -> str:
    """sha256 over a solution's Y, Z, U, frozen past (if any) and Picard distances."""
    h = hashlib.sha256()
    processes = [solution.Y, solution.Z, solution.U, *(solution.frozen_past or ())]
    arrays = [a for p in processes for a in p.values]
    arrays.append(np.array(solution.diagnostics.iterate_distances, dtype=float))
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.shape} {a.dtype}|".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def recorded_solves(cli, config: Path):
    """(label, digest) of every solution of the public solves ``cli.run`` makes on
    ``config``, in call order, or the error text of a run that raises."""
    solver, found, depth = cli.solver, [], [0]

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
                if name == "solve_bsvi":
                    found.extend((f"{name} eps={e!r}", digest(s)) for e, s in out.per_epsilon)
                else:
                    found.append((f"{name} eps={out.epsilon!r}", digest(out)))
            return out
        return entry

    reals = {name: getattr(solver, name) for name in ENTRIES}
    try:
        for name, real in reals.items():
            setattr(solver, name, recording(name, real))
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("ignore")  # the gate warns on some shipped configs
            cli.run(config, write_files=False)
    except Exception as exc:  # a refusal is part of the behaviour compared
        return f"{type(exc).__name__}: {exc}"
    finally:
        for name, real in reals.items():
            setattr(solver, name, real)
    return found


def compare(name: str, this, other) -> int:
    """Print the lines of one config; 0 same, 1 a differing solve or error, 2 a
    failure on one side only."""
    if isinstance(this, str) or isinstance(other, str):
        if isinstance(this, str) and isinstance(other, str):
            print(f"{'same' if this == other else 'DIFFERS'} {name}: fails on both sides: "
                  f"this {this!r}" + ("" if this == other else f", other {other!r}"))
            return int(this != other)
        side, error = ("this", this) if isinstance(this, str) else ("other", other)
        print(f"FAILS {name}: on the {side} side only: {error!r}")
        return 2
    code = 0
    for k in range(max(len(this), len(other))):
        label = (this if k < len(this) else other)[k][0]
        a, b = (s[k][1] if k < len(s) else "(missing)" for s in (this, other))
        if a == b:
            print(f"same    {a}  {name} {label}")
        else:
            print(f"DIFFERS this {a} other {b}  {name} {label}")
            code = 1
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("other", type=Path, help="the checkout to compare with")
    args = parser.parse_args(argv)
    if not (args.other / "src" / "bsvi").is_dir():
        parser.error(f"{args.other} holds no src/bsvi")
    checkouts = dict(zip(SIDES, (ROOT, args.other.resolve())))
    codes = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = configs(tmp)
        sys.path.insert(0, str(tmp))
        clis = {side: load_cli(checkout, f"bsvi_digest_{side}", tmp)
                for side, checkout in checkouts.items()}
        for name, path in paths.items():
            codes.append(compare(name, *(recorded_solves(clis[side], path) for side in SIDES)))
    print(f"{len(codes)} configs run on both sides: {codes.count(1)} with a differing solve, "
          f"{codes.count(2)} failing on one side only")
    return max(codes, default=0)


if __name__ == "__main__":
    sys.exit(main())
