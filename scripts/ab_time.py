#!/usr/bin/env python3
"""Time a benchmark workload's CLI run in this checkout and another, in one process.

    python3 scripts/ab_time.py OTHER_CHECKOUT [--workload box_compare|delay_bsvi]
                               [--pairs N] [--n-steps N] [--startup | --worker]
                               [--hash-seed 0|random]

Copies each checkout's ``src/bsvi`` into a temporary directory under a package
name of its own (the package imports itself only relatively), loads both
copies, and runs their `cli.main` on the workload's seed-0 config, built by
perfbench/run.py's ``cli_config`` of this checkout at the workload's tree size
or at ``--n-steps``.  After one warm-up run per side it times N pairs, this
side first in even pairs and the other side first in odd ones.  Prints each
side's median wall time, the median over pairs of this / other and the number
of pairs this side won.  Both runs of a pair see the same host drift, which
benchmark runs in separate sessions do not.  Then one untimed run per side
under tracemalloc prints the peak of the memory Python allocated during it.

With ``--startup`` it times starts instead: N pairs of fresh processes, one
per side, alternating as above, each importing ``bsvi.cli`` from a copy of
its checkout's ``src/bsvi`` with no bytecode cache (PYTHONDONTWRITEBYTECODE=1,
as the benchmark's fresh checkouts run) and reading the workload's config
with `cli.parse_config`.  A process times itself from its first line, numpy's
import included, and the script prints the same median, ratio and win lines.

With ``--worker`` it runs benchmark repetitions instead: N pairs of fresh
processes, alternating as above, each running its checkout's own
perfbench/worker.py in ``plain`` mode on a copy of that checkout's
``src/bsvi`` and ``perfbench`` with no bytecode cache, on the seed-0 inputs
of perfbench/run.py's ``write_inputs`` (this checkout's), with the
environment run.py gives its workers.  Every repetition's output checks must
pass.  For ``wall_s`` and ``setup_s`` (reference seconds, scaled as run.py
scales them) and ``peak_mb`` it prints each side's median and quartiles, the
median over pairs of this / other and the number of pairs this side was
lower in.  Separate processes do not share the allocator and cache state
that bias in-process pairs.  The workers run under PYTHONHASHSEED=0, as the
benchmark's do; ``--hash-seed random`` draws one seed per pair instead (and
one for the warm-ups), which both runs of the pair take, and prints them.
Under one fixed seed a change of heap layout can move ``peak_mb`` by a
tenth of a megabyte in every pair alike; over random seeds it varies from
pair to pair, while a rise the run itself makes stays.

Every mode pins BLAS and OpenMP to one thread, as perfbench/run.py pins its
workers: it sets each of run.py's ``THREAD_VARS`` to 1 in its own environment
before numpy is imported, so the in-process copies and the fresh processes
of ``--startup`` and ``--worker`` run with them.  Unpinned, the in-process
times count OpenBLAS's thread pool, which the benchmark never starts: on a
2-vCPU host box_compare's median in-process run read 18.3 ms unpinned
against 13.1 ms pinned, with the same code.
"""

import argparse
import contextlib
import importlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

from report_diff import ROOT, perfbench_module

SIDES = ("this", "other")
# each side's copies live in a directory of this name: names of one length, since a
# path one byte longer on one side moved the fresh workers' resident peak by 0.07 MB
SIDE_DIRS = {"this": "a", "other": "b"}
# one start: its own wall time from the first line through parsing the config
START = """import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import bsvi.cli
bsvi.cli.parse_config(sys.argv[2])
print(time.perf_counter() - start)
"""


def load_cli(checkout: Path, package: str, where: Path):
    """``checkout``'s bsvi.cli, imported from a copy named ``package`` in ``where``."""
    shutil.copytree(checkout / "src" / "bsvi", where / package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{package}.cli")


def alternate(run, pairs: int) -> dict:
    """Each side's ``run(side)`` seconds over ``pairs`` pairs, after one untimed
    run each; this side goes first in even pairs, the other in odd ones."""
    for side in SIDES:
        run(side)
    times = {side: [] for side in SIDES}
    for k in range(pairs):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            times[side].append(run(side))
    return times


def start_times(checkouts: dict, config: Path, pairs: int, tmp: Path) -> dict:
    """Seconds of each side's fresh starts (see START), alternated."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    for side, checkout in checkouts.items():
        shutil.copytree(checkout / "src" / "bsvi", tmp / SIDE_DIRS[side] / "bsvi",
                        ignore=shutil.ignore_patterns("__pycache__"))

    def start(side: str) -> float:
        where = tmp / SIDE_DIRS[side]
        proc = subprocess.run([sys.executable, "-c", START, str(where), str(config)],
                              env=env, capture_output=True, text=True, check=True)
        return float(proc.stdout)

    return alternate(start, pairs)


def worker_records(checkouts: dict, inputs: dict, pairs: int, tmp: Path, seeds: list) -> dict:
    """Each side's perfbench/worker.py records (see ``--worker``), alternated;
    ``seeds`` holds the PYTHONHASHSEED of the warm-ups and of each pair."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # threads pinned
    next_seed = {side: iter(seeds) for side in SIDES}  # each side runs once per pair
    for side, checkout in checkouts.items():
        for part in ("src/bsvi", "perfbench"):
            shutil.copytree(checkout / part, tmp / SIDE_DIRS[side] / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
    (tmp / "inputs.json").write_text(json.dumps(inputs), encoding="utf-8")

    def repetition(side: str) -> dict:
        where = tmp / SIDE_DIRS[side]
        work = where / "work"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir()
        proc = subprocess.run([sys.executable, str(where / "perfbench" / "worker.py"),
                               str(tmp / "inputs.json"), "plain", str(work)],
                              env=dict(env, PYTHONHASHSEED=str(next(next_seed[side]))),
                              capture_output=True, text=True, check=True)
        record = json.loads(proc.stdout.splitlines()[-1])
        if record["problems"]:
            raise SystemExit(f"{side} side: wrong run: {record['problems']}")
        return record

    return alternate(repetition, pairs)


def print_metric(name: str, unit: str, values: dict, checkouts: dict):
    """Each side's median and quartiles of ``values``, then the median ratio
    over pairs and how often this side was lower."""
    for side, checkout in checkouts.items():
        v = values[side]
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else v * 3
        print(f"{name} {side:5s} median {statistics.median(v):.5f} quartiles "
              f"{q1:.5f}-{q3:.5f} {unit}  ({checkout})")
    ratios = [a / b for a, b in zip(values["this"], values["other"])]
    print(f"{name} this / other: median paired ratio {statistics.median(ratios):.3f}, "
          f"this lower in {sum(r < 1 for r in ratios)} of {len(ratios)} pairs")


def print_pairs(times: dict, checkouts: dict):
    ratios = [a / b for a, b in zip(times["this"], times["other"])]
    for side, checkout in checkouts.items():
        print(f"{side:5s} median {statistics.median(times[side]):.5f} s  ({checkout})")
    print(f"this / other: median paired ratio {statistics.median(ratios):.3f}, "
          f"this faster in {sum(r < 1 for r in ratios)} of {len(ratios)} pairs")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("other", type=Path, help="the checkout to compare with")
    parser.add_argument("--workload", choices=("box_compare", "delay_bsvi"),
                        default="delay_bsvi")
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument("--n-steps", type=int, default=None,
                        help="tree size (default: the workload's)")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--startup", action="store_true",
                      help="time fresh starts (import bsvi.cli, parse the config) instead")
    mode.add_argument("--worker", action="store_true",
                      help="run each checkout's perfbench/worker.py in fresh processes instead")
    parser.add_argument("--hash-seed", choices=("0", "random"), default="0",
                        help="the --worker runs' PYTHONHASHSEED: 0, as the benchmark's, "
                             "or a random one per pair")
    args = parser.parse_args(argv)
    if args.hash_seed == "random" and not args.worker:
        parser.error("--hash-seed applies to --worker runs only")
    if not (args.other / "src" / "bsvi").is_dir():
        parser.error(f"{args.other} holds no src/bsvi")
    bench = perfbench_module()
    # before numpy's import, which the in-process copies make: OpenBLAS reads these once
    os.environ.update(dict.fromkeys(bench.THREAD_VARS, "1"))
    n_steps = args.n_steps or bench.WORKLOADS[args.workload]["n_steps"]
    doc = bench.cli_config(args.workload, n_steps, bench.draw_params(0))
    checkouts = dict(zip(SIDES, (ROOT, args.other.resolve())))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "config.json").write_text(json.dumps(doc), encoding="utf-8")
        if args.worker:
            inputs = bench.write_inputs(args.workload, 0, tmp)
            if n_steps != inputs["n_steps"]:  # another tree size: no reference outputs
                Path(inputs["config"]).write_text(json.dumps(doc), encoding="utf-8")
                inputs.update(n_steps=n_steps, reference=None)
            seeds = [0] * (args.pairs + 1) if args.hash_seed == "0" else \
                [random.randrange(2 ** 32) for _ in range(args.pairs + 1)]
            records = worker_records(checkouts, inputs, args.pairs, tmp, seeds)
            print(f"{args.workload} worker runs at n_steps = {n_steps}, {args.pairs} pairs")
            if args.hash_seed == "random":
                print(f"PYTHONHASHSEED warm-ups {seeds[0]}, pairs {' '.join(map(str, seeds[1:]))}")
            for name, unit, value in (("wall_s", "s", bench.ref_wall),
                                      ("setup_s", "s", bench.ref_setup),
                                      ("peak_mb", "MB", lambda r: r["peak_mb"])):
                print_metric(name, unit, {side: [value(r) for r in records[side]]
                                          for side in SIDES}, checkouts)
            return 0
        if args.startup:
            times = start_times(checkouts, tmp / "config.json", args.pairs, tmp)
            print(f"{args.workload} start-up at n_steps = {n_steps}, {args.pairs} pairs")
            print_pairs(times, checkouts)
            return 0
        sys.path.insert(0, str(tmp))
        clis = {side: load_cli(checkout, f"bsvi_ab_{side}", tmp)
                for side, checkout in checkouts.items()}

        def run(side: str) -> float:
            start = time.perf_counter()
            code = clis[side].main([str(tmp / "config.json"), "--out", str(tmp / side)])
            elapsed = time.perf_counter() - start
            if code != 0:
                raise SystemExit(f"{side} side: bsvi exited with {code}")
            return elapsed

        def traced_peak(side: str) -> int:
            tracemalloc.start()
            try:
                run(side)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("ignore")  # delay_bsvi's gate warns on every run
            times = alternate(run, args.pairs)
            peaks = {side: traced_peak(side) for side in SIDES}
    print(f"{args.workload} at n_steps = {n_steps}, {args.pairs} pairs")
    print_pairs(times, checkouts)
    for side in SIDES:
        print(f"{side:5s} traced peak {peaks[side] / 2 ** 20:.2f} MB (one untimed run)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
