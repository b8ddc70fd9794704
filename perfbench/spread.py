#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, one run per seed.

    python3 perfbench/spread.py --workload delay_bsvi --seeds 1-10

Runs the benchmark command from BENCHMARK.json once per seed, then prints for
each end-to-end metric the median of the runs and the distance between the
first and third quartile as a share of that median, next to the metric's
bound.  Raw results go to .perfbench_out/spread-<workload>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    first, last = (int(s) for s in args.seeds.split("-"))
    runs = []
    for seed in range(first, last + 1):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            + f" correct={result['correct']}", flush=True)
    out = ROOT / ".perfbench_out" / f"spread-{args.workload}.json"
    out.write_text(json.dumps(runs, indent=1))
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        print(f"{metric['name']:>14}: median {med:.6g} {metric['unit']}, "
              f"spread {(q3 - q1) / med:.4f} (bound {metric['bound']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
