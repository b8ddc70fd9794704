"""Shipped-config reports against the golden files in tests/golden.

The golden files were taken with scripts/golden_reports.py; every number must
match to rounding, |got - ref| <= 1e-12 + 1e-10 |ref| (the rule the benchmark's
reference check uses).  Report keys added after the files were taken are
ignored; ``timings`` is never stored.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

# golden_reports puts src/ on the path before bsvi is imported
from golden_reports import SHIPPED, golden_report  # noqa: E402

from bsvi.cli import EXIT_VALIDATION, main  # noqa: E402

ATOL, RTOL = 1e-12, 1e-10


def differences(ref, got, where=""):
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [f"{where}: expected a mapping"]
        found = []
        for key, value in ref.items():
            if key not in got:
                found.append(f"{where}.{key}: missing")
            else:
                found += differences(value, got[key], f"{where}.{key}")
        return found
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{where}: expected a list of {len(ref)}"]
        return [d for k, (r, g) in enumerate(zip(ref, got))
                for d in differences(r, g, f"{where}[{k}]")]
    if isinstance(ref, float) and isinstance(got, float):
        if abs(got - ref) <= ATOL + RTOL * abs(ref):
            return []
    elif got == ref:
        return []
    return [f"{where}: {got!r} != reference {ref!r}"]


@pytest.mark.parametrize("stem", SHIPPED)
def test_shipped_config_matches_golden_report(stem):
    ref = json.loads((ROOT / "tests" / "golden" / f"{stem}.json").read_text(encoding="utf-8"))
    got = json.loads(json.dumps(golden_report(stem)))
    assert differences(ref, got) == []


@pytest.mark.filterwarnings("ignore:well-posedness gate failed")
@pytest.mark.parametrize("config", sorted((ROOT / "configs").glob("*.yaml")), ids=lambda p: p.stem)
def test_every_shipped_config_has_a_golden_file_or_is_refused(config, tmp_path):
    if config.stem in SHIPPED:
        assert (ROOT / "tests" / "golden" / f"{config.stem}.json").is_file()
    else:
        assert main([str(config), "--out", str(tmp_path)]) == EXIT_VALIDATION
