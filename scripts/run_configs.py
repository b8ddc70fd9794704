#!/usr/bin/env python3
"""Run every shipped config through the CLI and summarize exit codes.

    python scripts/run_configs.py

Works from a checkout without an install: the CLI subprocesses import bsvi
from ``src/``.  Each report goes to its config's ``run.out_dir``, relative to
the working directory.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    configs = sorted((ROOT / "configs").glob("*.yaml"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    failures = 0
    for cfg in configs:
        proc = subprocess.run(
            [sys.executable, "-m", "bsvi.cli", str(cfg)],
            capture_output=True, text=True, env=env)
        # gate_violation is supposed to refuse; everything else must succeed
        expected = 3 if cfg.stem == "gate_violation" else 0
        status = "ok" if proc.returncode == expected else "UNEXPECTED"
        if proc.returncode != expected:
            failures += 1
        print(f"{cfg.name}: exit={proc.returncode} ({status})")
        if proc.stdout.strip():
            for line in proc.stdout.strip().splitlines():
                print(f"    {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
