#!/usr/bin/env python3
"""Write the golden reports of the shipped configs that run to completion.

Usage: python3 scripts/golden_reports.py

Each config in configs/ that exits 0 is run in-process and its report, minus
the machine-dependent ``timings``, is written to tests/golden/<stem>.json.
tests/test_golden.py compares fresh runs against these files.  Retake them
only for a change that is meant to move the numbers.
"""

import json
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bsvi import cli  # noqa: E402

# gate_violation refuses to run (exit 3) and has no report
SHIPPED = ("delay_reduction", "indicator_box", "minimal", "quadratic")


def golden_report(stem: str) -> dict:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = cli.run(ROOT / "configs" / f"{stem}.yaml", write_files=False)
    return {k: v for k, v in report.items() if k != "timings"}


def main() -> int:
    out = ROOT / "tests" / "golden"
    out.mkdir(exist_ok=True)
    for stem in SHIPPED:
        path = out / f"{stem}.json"
        path.write_text(json.dumps(golden_report(stem), indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(path.relative_to(ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
