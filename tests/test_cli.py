import csv
import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from bsvi.cli import (
    ConfigError,
    EXIT_DIVERGENCE,
    EXIT_PARSE,
    EXIT_VALIDATION,
    config_from_dict,
    emit_report,
    main,
    parse_config,
    run,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def minimal_doc():
    return {
        "model": {"horizon": 1.0, "n_steps": 3, "bm_dim": 1, "dim": 1},
        "terminal": {"kind": "linear", "a": [0.0], "b": [[1.0]]},
        "generator": {"kind": "zero"},
        "phi": {"kind": "zero"},
        "run": {"mode": "classical"},
    }


def write_config(tmp_path, doc, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return path


def test_minimal_run_martingale(tmp_path):
    path = write_config(tmp_path, minimal_doc())
    report = run(path, out_dir=tmp_path / "out")
    y0 = report["schemes"]["classical"]["y0"]
    z0 = report["schemes"]["classical"]["z0"]
    assert y0 == pytest.approx([0.0])
    assert np.asarray(z0) == pytest.approx(1.0)
    assert (tmp_path / "out" / "report.json").exists()


def test_parse_error_position(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("model:\n  horizon: [unclosed\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="line"):
        parse_config(path)


def test_missing_key_is_config_error():
    doc = minimal_doc()
    del doc["terminal"]["a"]
    with pytest.raises(ConfigError, match="'a'"):
        config_from_dict(doc)


def test_validation_error_for_terminal_outside_box(tmp_path):
    doc = minimal_doc()
    doc["phi"] = {"kind": "box", "lo": -0.5, "hi": 0.5}
    doc["run"]["mode"] = "penalized"
    path = write_config(tmp_path, doc)
    code = main([str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION


def test_hard_gate_exit_code(tmp_path):
    code = main([str(CONFIGS / "gate_violation.yaml"),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION


def test_divergence_exit_code(tmp_path, monkeypatch, capsys):
    # built-in z-delays cannot diverge on the exact tree (sibling-constant
    # drifts), so force the failure to check the machine-readable error path
    from bsvi import solver as solver_mod
    from bsvi.solver import PicardDiagnostics, PicardNonConvergence

    def explode(*args, **kwargs):
        diag = PicardDiagnostics(iterate_distances=[1.0, 2.0],
                                 contraction_ratios=[2.0])
        raise PicardNonConvergence("blew up", diag, diverged=True)

    monkeypatch.setattr(solver_mod, "picard_solve", explode)
    path = write_config(tmp_path, minimal_doc())
    code = main([str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_DIVERGENCE
    err = capsys.readouterr().err
    doc = json.loads(err.strip().splitlines()[-1])
    assert doc["error"] == "divergence"
    assert doc["ratios"] == [2.0]


def test_compare_mode_reports_gap(tmp_path):
    report = run(CONFIGS / "indicator_box.yaml", out_dir=tmp_path / "out",
                 out_format="json")
    assert "penalized_final" in report["schemes"]
    assert "prox" in report["schemes"]
    gaps = report["compare"]["gap_y0_series"]
    assert report["compare"]["gap_y0_final"] == gaps[-1]
    assert gaps[-1] <= gaps[-4]
    assert report["rate_fit"]["slope"] is not None


def test_csv_bundle_round_trip(tmp_path):
    run(CONFIGS / "indicator_box.yaml", out_dir=tmp_path / "out",
        out_format="csv")
    table = tmp_path / "out" / "epsilon_table.csv"
    with table.open(encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10  # default schedule has 11 entries
    eps = [float(r["epsilon"]) for r in rows]
    assert eps == sorted(eps, reverse=True)
    dist = [float(r["dy_s2"]) for r in rows]
    assert all(np.isfinite(dist))
    for name in ("picard_distances", "audits", "summary"):
        assert (tmp_path / "out" / f"{name}.csv").exists()


def test_csv_bundle_header_only_when_no_table(tmp_path):
    doc = minimal_doc()
    path = write_config(tmp_path, doc)
    run(path, out_dir=tmp_path / "out", out_format="csv")
    lines = (tmp_path / "out" / "epsilon_table.csv").read_text().strip().splitlines()
    assert len(lines) == 1  # header row only


def test_json_report_is_deterministic(tmp_path):
    path = write_config(tmp_path, minimal_doc())
    run(path, out_dir=tmp_path / "a", out_format="json")
    run(path, out_dir=tmp_path / "b", out_format="json")
    doc_a = json.loads((tmp_path / "a" / "report.json").read_text())
    doc_b = json.loads((tmp_path / "b" / "report.json").read_text())
    doc_a.pop("timings")
    doc_b.pop("timings")
    assert json.dumps(doc_a, sort_keys=True) == json.dumps(doc_b, sort_keys=True)


def test_config_echo_round_trips(tmp_path):
    path = write_config(tmp_path, minimal_doc())
    report = run(path, out_dir=tmp_path / "out")
    echoed = config_from_dict(report["config"])
    original = parse_config(path)
    assert echoed.horizon == original.horizon
    assert echoed.n_steps == original.n_steps
    assert np.array_equal(echoed.xi, original.xi)
    assert echoed.mode == original.mode
    # and the echoed config reproduces the same numbers
    report2 = run(path, out_dir=tmp_path / "out2")
    assert report["schemes"]["classical"]["y0"] == report2["schemes"]["classical"]["y0"]


def test_cli_flag_overrides(tmp_path):
    doc = minimal_doc()
    doc["model"]["n_steps"] = 12
    path = write_config(tmp_path, doc)
    code = main([str(path), "--out", str(tmp_path / "out"),
                 "--max-nodes", "100"])
    assert code == EXIT_PARSE  # tree over the overridden cap

    code = main([str(CONFIGS / "minimal.yaml"), "--out", str(tmp_path / "o2"),
                 "--beta", "2.0", "--format", "json"])
    assert code == 0
    report = json.loads((tmp_path / "o2" / "report.json").read_text())
    assert report["wellposedness"]["beta"] == 2.0

    # zero overrides reach validation instead of falling back to the config
    for flag in ("--beta", "--max-nodes"):
        code = main([str(CONFIGS / "minimal.yaml"), "--out", str(tmp_path / "o3"),
                     flag, "0"])
        assert code == EXIT_PARSE, flag


def test_nonfinite_iterate_exit_code(tmp_path, capsys):
    # Y_i = (1 + W_i)(1 + dt a)^(n - i) overflows at level 1 of 4
    doc = minimal_doc()
    doc["model"]["n_steps"] = 4
    doc["terminal"]["a"] = [1.0]
    doc["generator"] = {"kind": "linear", "a": [[1e150]], "b": [[[0.0]]]}
    doc["solver"] = {"beta": 1.0}
    path = write_config(tmp_path, doc)
    with np.errstate(over="ignore", invalid="ignore"):
        code = main([str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_DIVERGENCE
    doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert doc["error"] == "nonfinite"
    assert (doc["level"], doc["node"]) == (1, 0)


@pytest.mark.filterwarnings("ignore:well-posedness gate failed")
def test_all_shipped_configs_run(tmp_path):
    for cfg in sorted(CONFIGS.glob("*.yaml")):
        expected = EXIT_VALIDATION if cfg.stem == "gate_violation" else 0
        code = main([str(cfg), "--out", str(tmp_path / cfg.stem)])
        assert code == expected, cfg.name
