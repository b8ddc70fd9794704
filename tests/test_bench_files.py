"""The committed benchmark records against BENCHMARK.json.

Every BENCH_*.json at the repository root holds the command that made it, the
parent and change commits it compares, and both sides' value of every
end-to-end metric for every workload BENCHMARK.json lists.
"""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_there_are_benchmark_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_holds_both_sides_of_every_end_to_end_metric(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert record["command"].split()[:len(BENCHMARK["command"])] == BENCHMARK["command"]
    for side in ("parent", "change"):
        assert isinstance(record[side]["commit"], str) and record[side]["commit"].strip()
        for workload in BENCHMARK["workloads"]:
            metrics = record[side]["workloads"][workload["name"]]["result"]["metrics"]
            for metric in BENCHMARK["end_to_end"]:
                value = metrics[metric["name"]]["value"]
                assert isinstance(value, (int, float)) and math.isfinite(value), \
                    (side, workload["name"], metric["name"])
