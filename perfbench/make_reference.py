#!/usr/bin/env python3
"""Take the seed-0 reference outputs of every workload from the current code.

    python3 perfbench/make_reference.py

Writes perfbench/reference/<workload>.json.  Run it only at a commit whose
outputs are known to be right: every later run at seed 0 is checked against
these files.
"""

import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    env = run.worker_env()
    for name in run.WORKLOADS:
        target = run.HERE / "reference" / f"{name}.json"
        with tempfile.TemporaryDirectory(dir=run.OUT) as work:
            inputs = run.write_inputs(name, 0, Path(work))
            inputs.update(reference=None, output_out=str(target))
            result = run.run_child(inputs, "plain", env)
        if result.get("problems"):
            print(f"{name}: {'; '.join(result['problems'])}", file=sys.stderr)
            return 1
        print(f"wrote {target.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
