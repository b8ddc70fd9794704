import argparse
import csv
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from bsvi import analysis, cli, generators, solver
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
from bsvi.lattice import AdaptedProcess, build_tree

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


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


LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])


@pytest.mark.parametrize("config", sorted(p.name for p in CONFIGS.glob("*.yaml")))
def test_shipped_configs_load_alike_under_both_loaders(config):
    text = (CONFIGS / config).read_text(encoding="utf-8")
    docs = [yaml.load(text, Loader=loader) for loader in LOADERS]
    assert all(doc == docs[0] for doc in docs)
    assert parse_config(CONFIGS / config).raw == docs[0]


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
def test_parse_error_names_the_line_under_either_loader(tmp_path, monkeypatch, loader):
    monkeypatch.setattr(cli, "YAML_LOADER", loader)
    path = tmp_path / "broken.yaml"
    path.write_text("model:\n  horizon: [unclosed\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="at line 3, column 1"):
        parse_config(path)


def test_missing_key_is_config_error():
    doc = minimal_doc()
    del doc["terminal"]["a"]
    with pytest.raises(ConfigError, match="'a'"):
        config_from_dict(doc)


@pytest.mark.parametrize("solver_conf", [{"epsilon_schedule": []},
                                         {"picard_max_iters": 0},
                                         {"picard_tol": -1.0},
                                         {"picard_tol": float("nan")},
                                         {"epsilon_schedule": [1.0, float("nan"), 0.25]},
                                         # not truncated to 2: it reaches SolverConfig as written
                                         {"picard_max_iters": 2.5},
                                         # an infinite beta made NaN distance weights
                                         {"beta": float("inf")},
                                         # an infinite tolerance stopped every solve at sweep 1
                                         {"picard_tol": float("inf")},
                                         # an infinite entry wrote "epsilon": Infinity
                                         {"epsilon_schedule": [float("inf"), 1.0, 0.5]},
                                         # a bool is an int: True read as one sweep
                                         {"picard_max_iters": True},
                                         # a NaN beta made NaN distance weights
                                         {"beta": float("nan")},
                                         # refused, not read as unset
                                         {"beta": 0.0}])
def test_degenerate_solver_config_is_a_config_error(tmp_path, capsys, solver_conf):
    doc = minimal_doc()
    doc["solver"] = solver_conf
    path = write_config(tmp_path, doc)
    assert main([str(path), "--out", str(tmp_path / "out")]) == EXIT_PARSE
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config"
    key = next(iter(solver_conf)).replace("_", " ")  # "epsilon schedule must not be empty"
    assert key in err["message"].replace("_", " ")


MOVING_AVERAGE = {"kind": "moving_average_z", "g_poly": [0.5], "g_bound": 0.5}


def _set(section, key, value):
    def edit(doc):
        if key is None:
            doc[section] = value
        else:
            doc.setdefault(section, {})[key] = value
    return edit


def _all(*edits):
    def edit(doc):
        for one in edits:
            one(doc)
    return edit


@pytest.mark.filterwarnings("ignore:well-posedness gate failed")
def test_one_run_resolves_the_past_z_terms_once_per_level(tmp_path, monkeypatch):
    # the config check, the batched solve and the residual audit share the
    # table `generators.past_z_rows` keeps on the frozen drift
    calls = []
    real = generators.moving_average_z

    def counted(**kwargs):
        gen = real(**kwargs)

        def past_z_terms(t, horizon, dt):
            calls.append(t)
            return gen.past_z_terms(t, horizon, dt)

        return generators.AffineDrift(past_z_terms=past_z_terms, k_root=gen.k_root,
                                      alpha=gen.alpha)

    monkeypatch.setattr(generators, "moving_average_z", counted)
    doc = minimal_doc()
    doc["generator"] = {**MOVING_AVERAGE, "alpha": {"kind": "uniform"}}
    doc["phi"], doc["run"] = {"kind": "box", "lo": -2.0, "hi": 2.0}, {"mode": "bsvi"}
    report = run(write_config(tmp_path, doc), write_files=False)
    assert report["residuals"]["equation_residual"] <= 1e-12
    assert calls == [i * (1.0 / 3) for i in range(3)]  # t_i = i dt on the 3-step grid


# two noise components, with a terminal that reads both
BM_DIM_2 = (_set("model", "bm_dim", 2), _set("terminal", "b", [[1.0, 0.0]]))
DELAYED_Z_BM_DIM_2 = _all(*BM_DIM_2, _set("generator", None,
                                          {"kind": "delayed_z", "kappa": 0.5, "lag": 0.25}))


@pytest.mark.parametrize("edit", [
    # truncated by int(): 2.7 ran a 2-step tree and exited 0
    _set("model", "n_steps", 2.7), _set("model", "n_steps", True),
    _set("model", "bm_dim", 1.5), _set("model", "dim", "1"), _set("model", "max_nodes", 1e6),
    # a zero cap is refused, not read as unset
    _set("model", "max_nodes", 0),
    # a tree over its cap
    _all(_set("model", "n_steps", 12), _set("model", "max_nodes", 100)),
    # abs(inf - inf) is NaN: an infinite horizon ran and exited 4 nonfinite
    _set("model", "horizon", math.inf),
    # an empty section made a raw TypeError
    _set("terminal", None, None), _set("model", None, None), _set("generator", None, None),
    _set("phi", None, None), _set("solver", None, 5), _set("run", None, "bsvi"),
    # a scalar schedule made a raw TypeError
    _set("solver", "epsilon_schedule", 0.5),
    # a non-numeric value exited 3 validation
    _set("solver", "picard_tol", "abc"), _set("solver", "beta", "abc"),
    _set("solver", "epsilon_schedule", [1.0, "abc"]),
    _set("run", None, {"mode": "penalized", "epsilon": "abc"}),
    # a kind section's value read by a bare float() exited 3 validation
    _set("phi", None, {"kind": "quadratic", "c": "abc"}),
    _set("generator", None, {"kind": "delayed_z", "kappa": "abc", "lag": 0.0}),
    _set("generator", None, {**MOVING_AVERAGE, "alpha": {"kind": "dirac", "theta": "abc"}}),
    _set("terminal", "a", "abc"), _set("phi", None, {"kind": "box", "lo": "abc", "hi": 1.0}),
    # a list iterated unchecked made a raw TypeError
    _set("generator", None, {**MOVING_AVERAGE, "g_poly": 0.5}),
    _set("generator", None, {**MOVING_AVERAGE, "alpha": {"kind": "mixture", "atoms": 0.3}}),
    # a string is iterable: "12" ran as the coefficients [1, 2] and exited 0
    _set("generator", None, {**MOVING_AVERAGE, "g_poly": "12"}),
    # a constructor's rejection exited 3 validation
    _set("phi", None, {"kind": "box", "lo": 0.5, "hi": -0.5}),
    _set("generator", None, {"kind": "delayed_z", "kappa": 0.1, "lag": -0.1}),
    _set("generator", None, {"kind": "linear", "a": [[1.0, 2.0]], "b": [[[0.0]]]}),
    _set("generator", None, {**MOVING_AVERAGE,
                             "alpha": {"kind": "mixture", "atoms": [[0.0, 0.5]]}}),
    # bool("false") is True: the hard gate was on
    _set("solver", "hard_gate", "false"),
    # the whole solve ran before the report write died with a raw TypeError
    _set("run", "out_dir", 5), _set("run", "out_dir", None),
    # a mode outside RUN_MODES
    _set("run", "mode", "reflected"),
    # a non-finite value failed late: exit 4 nonfinite, or exit 3 after a sweep or the solve
    _set("generator", None, {"kind": "delayed_z", "kappa": math.nan, "lag": 0.0}),
    _set("generator", None, {"kind": "delayed_z", "kappa": 0.1, "lag": math.nan}),
    _set("generator", None, {**MOVING_AVERAGE, "alpha": {"kind": "dirac", "theta": math.nan}}),
    _set("generator", None, {**MOVING_AVERAGE, "g_bound": math.nan}),
    _set("generator", None, {"kind": "running_integral_z", "kappa": math.nan}),
    _set("generator", None, {**MOVING_AVERAGE,
                             "alpha": {"kind": "mixture", "atoms": [[math.nan, 1.0]]}}),
    _set("generator", None, {"kind": "linear", "a": [[math.nan]], "b": [[[0.0]]]}),
    _set("phi", None, {"kind": "quadratic", "c": math.nan}),
    _set("phi", None, {"kind": "one_norm", "c": math.nan}),
    _set("phi", None, {"kind": "box", "lo": math.nan, "hi": 1.0}),
    # a key no builder read was ignored
    _set("comment", None, "x"), _set("model", "n_step", 2),
    _set("solver", "picard_max_iter", 1), _set("run", "outdir", "x"),
    _set("terminal", "c", 1.0), _set("generator", "a", [[1.0]]),
    _set("generator", None, {**MOVING_AVERAGE, "alpha": {"kind": "uniform", "theta": -0.5}}),
    _set("phi", "c", 1.0),
    # accepted and ignored: epsilon outside penalized mode, a phi under classical mode
    _set("run", "epsilon", 0.5), _set("phi", None, {"kind": "box", "lo": -5.0, "hi": 5.0}),
    # sections that disagree: an uncaught GeneratorError exited 1 with a traceback
    DELAYED_Z_BM_DIM_2,
    # exit 3 mid-run: a delay offset beyond the horizon, a 2-D phi or drift on dim 1
    _set("generator", None, {**MOVING_AVERAGE, "alpha": {"kind": "dirac", "theta": -1.5}}),
    _all(_set("run", "mode", "prox"),
         _set("phi", None, {"kind": "box", "lo": [-5.0, -5.0], "hi": [5.0, 5.0]})),
    _set("generator", None, {"kind": "linear", "a": [[0.1, 0.0], [0.0, 0.1]],
                             "b": [[[0.0], [0.0]], [[0.0], [0.0]]]}),
    # exit 0: b broadcast over both noise components, L computed from b as given
    _all(*BM_DIM_2, _set("generator", None, {"kind": "linear", "a": [[0.1]], "b": [[[0.3]]]})),
    # exit 0 with K = 0 under the hard gate: the gate read the understated bound on trust
    _all(_set("generator", None, {"kind": "moving_average_z", "g_poly": [2.0], "g_bound": 0.0,
                                  "alpha": {"kind": "dirac", "theta": -0.25}}),
         _set("solver", None, {"hard_gate": True, "beta": 1.0})),
    _set("generator", None, {**MOVING_AVERAGE, "g_bound": -0.5}),
    # a YAML yes/no/on/off read as 1.0 or 0.0 by a bare float() and exited 0
    _set("model", "horizon", True), _set("solver", "beta", True),
    _set("solver", "picard_tol", False), _set("solver", "epsilon_schedule", [True, 0.5]),
    _set("generator", None, {"kind": "delayed_z", "kappa": True, "lag": False}),
    _set("generator", None, {"kind": "delayed_z", "kappa": 0.1, "lag": False}),
    _set("generator", None, {"kind": "running_integral_z", "kappa": True}),
    _set("generator", None, {**MOVING_AVERAGE, "g_poly": [True], "g_bound": 1.0}),
    _set("generator", None, {**MOVING_AVERAGE, "g_bound": True}),
    _set("generator", None, {**MOVING_AVERAGE, "alpha": {"kind": "dirac", "theta": False}}),
    _all(_set("run", "mode", "bsvi"), _set("phi", None, {"kind": "quadratic", "c": True})),
    _all(_set("run", "mode", "bsvi"), _set("phi", None, {"kind": "one_norm", "c": True})),
    _set("run", None, {"mode": "penalized", "epsilon": True}),
    # an array key read a YAML boolean as 1.0 or 0.0 through np.asarray and exited 0
    _set("terminal", None, {"kind": "linear", "a": [False], "b": [[True]]}),
    _set("terminal", None, {"kind": "constant", "c": [True]}),
    _set("terminal", None, {"kind": "clipped_linear", "a": [0.0], "b": [[1.0]], "lo": False,
                            "hi": 1.0}),
    _set("generator", None, {**MOVING_AVERAGE, "alpha": {"kind": "mixture",
                                                         "atoms": [[False, 1.0]]}}),
    _set("generator", None, {"kind": "linear", "a": [[True]], "b": [[[0.0]]]}),
    _all(_set("run", "mode", "prox"), _set("terminal", "b", [[0.5]]),
         _set("phi", None, {"kind": "box", "lo": -1.0, "hi": True})),
    # a raw IndexError or OverflowError exited 1 with a traceback: a 1-D linear b, and
    # a delay constant whose square, K, overflows in the well-posedness gate
    _set("generator", None, {"kind": "linear", "a": [[0.0]], "b": [0.0]}),
    _set("generator", None, {"kind": "delayed_z", "kappa": 1e308, "lag": 0.25}),
    _set("generator", None, {"kind": "running_integral_z", "kappa": 1e308}),
    _set("generator", None, {**MOVING_AVERAGE, "g_poly": [0.0], "g_bound": 1e308}),
    # a kind or format no builder knows
    _set("terminal", None, {"kind": "cubic"}), _set("generator", None, {"kind": "cubic"}),
    _set("generator", None, {**MOVING_AVERAGE, "alpha": {"kind": "gamma"}}),
    _set("phi", None, {"kind": "elastic"}), _set("run", "format", "xml"),
], ids=["n_steps_float", "n_steps_bool", "bm_dim_float", "dim_str", "max_nodes_float",
        "max_nodes_zero", "max_nodes_under_tree", "horizon_inf", "empty_terminal",
        "empty_model", "empty_generator", "empty_phi",
        "scalar_solver", "scalar_run", "scalar_schedule", "picard_tol_str", "beta_str",
        "schedule_entry_str", "run_epsilon_str", "phi_c_str", "kappa_str", "theta_str",
        "terminal_a_str", "box_lo_str", "scalar_g_poly", "scalar_atoms", "g_poly_str", "empty_box",
        "negative_lag", "linear_a_1x2", "mixture_weights", "hard_gate_str", "out_dir_int",
        "out_dir_null", "run_mode_unknown", "kappa_nan", "lag_nan", "theta_nan", "g_bound_nan",
        "running_kappa_nan", "atom_nan", "linear_a_nan", "quadratic_c_nan", "one_norm_c_nan",
        "box_lo_nan", "unknown_top_key", "unknown_model_key", "unknown_solver_key",
        "unknown_run_key", "unknown_terminal_key", "unknown_generator_key",
        "unknown_alpha_key", "unknown_phi_key", "run_epsilon_unread", "classical_phi",
        "delayed_z_bm_dim_2", "dirac_beyond_horizon", "box_2d_dim_1", "linear_2x2_dim_1",
        "linear_b_bm_dim_1_on_2", "g_bound_understated", "g_bound_negative", "horizon_bool",
        "beta_bool", "picard_tol_bool", "schedule_entry_bool", "kappa_bool", "lag_bool",
        "running_kappa_bool", "g_poly_bool", "g_bound_bool", "theta_bool", "quadratic_c_bool",
        "one_norm_c_bool", "run_epsilon_bool", "terminal_linear_bool", "terminal_c_bool",
        "terminal_lo_bool", "mixture_atom_bool", "linear_a_bool", "box_hi_bool",
        "linear_b_1d", "kappa_square_overflow", "running_kappa_square_overflow",
        "g_bound_square_overflow", "terminal_kind_unknown", "generator_kind_unknown",
        "alpha_kind_unknown", "phi_kind_unknown", "run_format_unknown"])
def test_mistyped_config_value_is_a_config_error(tmp_path, capsys, edit):
    doc = minimal_doc()
    edit(doc)
    path = write_config(tmp_path, doc)
    assert main([str(path), "--out", str(tmp_path / "out")]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert json.loads(err.strip().splitlines()[-1])["error"] == "config"
    assert not (tmp_path / "out").exists()


def test_a_delayed_drift_on_two_noise_components_names_its_past_z_terms(tmp_path, capsys):
    # the refusal names what the drift has, not the record's class
    doc = minimal_doc()
    DELAYED_Z_BM_DIM_2(doc)
    assert main([str(write_config(tmp_path, doc)), "--out", str(tmp_path / "out")]) == EXIT_PARSE
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["message"] == (
        "section 'generator': a drift with past-Z terms requires a one-dimensional driving "
        "noise (z has d = 2)")


def test_a_box_bound_of_rank_three_is_a_config_error(tmp_path, capsys):
    # it built, then raised a bare IndexError in IndicatorBox.value at solve time
    doc = yaml.safe_load((CONFIGS / "indicator_box.yaml").read_text(encoding="utf-8"))
    doc["phi"]["hi"] = [[[0.5]]]
    assert main([str(write_config(tmp_path, doc)), "--out", str(tmp_path / "out")]) == EXIT_PARSE
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "config" and "section 'phi'" in error["message"]


def test_unreadable_config_file_is_a_config_error(tmp_path, capsys):
    assert main([str(tmp_path / "absent.yaml"), "--out", str(tmp_path / "out")]) == EXIT_PARSE
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "config" and error["message"].startswith("cannot read config")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, key, value", [("solver", "picard_max_iter", 1),
                                                ("model", "n_step", 2), ("phi", "c", 1.0)])
def test_misspelt_key_is_named_with_its_section(tmp_path, capsys, section, key, value):
    # each ran configs/indicator_box.yaml as if the key were absent and exited 0
    doc = yaml.safe_load((CONFIGS / "indicator_box.yaml").read_text(encoding="utf-8"))
    doc[section][key] = value
    path = write_config(tmp_path, doc)
    assert main([str(path), "--out", str(tmp_path / "out")]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    message = json.loads(captured.err.strip().splitlines()[-1])["message"]
    assert f"'{key}'" in message and f"section '{section}'" in message
    assert not (tmp_path / "out").exists()


def test_inf_beta_flag_is_a_config_error(capsys, tmp_path):
    # an infinite beta makes NaN distance weights, not a non-finite iterate
    doc = yaml.safe_load((CONFIGS / "minimal.yaml").read_text(encoding="utf-8"))
    doc["solver"] = {"beta": float("inf")}
    path = write_config(tmp_path, doc)
    assert main([str(path), "--out", str(tmp_path / "out")]) == EXIT_PARSE
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config"
    assert "beta" in err["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", [["--beta", "2"], ["--max-nodes", "100"], ["--hard-gate"]],
                         ids=lambda flag: flag[0])
def test_a_solve_setting_is_no_flag(tmp_path, capsys, flag):
    # each overrode its config key; solver.beta, model.max_nodes and solver.hard_gate remain
    with pytest.raises(SystemExit) as exc:
        main([str(CONFIGS / "minimal.yaml"), "--out", str(tmp_path / "out"), *flag])
    assert exc.value.code == EXIT_PARSE  # an unknown flag is a usage error
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def argparse_oracle(argv):
    """The argparse parser `cli.main` built for every command line before it read the
    common ones itself, as ``(config, out, format)``."""
    parser = argparse.ArgumentParser(
        prog="bsvi",
        description="Run a delayed-BSVI experiment from a YAML config.")
    parser.add_argument("config", help="path to the YAML problem config")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--format", choices=("json", "csv"), default=None,
                        help="report format (json document or csv bundle)")
    args = parser.parse_args(argv)
    return args.config, args.out, args.format


# (argv, read without argparse): the config with --out and --format, in any order, either
# form, repeated, is read by the CLI itself; every other line is argparse's to answer,
# so an abbreviation (--fo) and "--" still parse
ARGV_TABLE = [
    (["c.yaml"], True),
    (["--out", "d", "c.yaml"], True),
    (["c.yaml", "--out", "d"], True),
    (["--format", "csv", "c.yaml"], True),
    (["c.yaml", "--format", "csv"], True),
    (["--out", "d", "--format", "json", "c.yaml"], True),
    (["c.yaml", "--out=d", "--format=csv"], True),
    (["--out=", "c.yaml", "--out=-x"], True),
    (["c.yaml", "--format", "csv", "--out", "a", "--format", "json", "--out=b"], True),
    (["", "--out", ""], True),
    (["c=1.yaml"], True),
    (["c.yaml", "--format", "xml"], False),
    (["c.yaml", "--format=xml"], False),
    (["c.yaml", "--format="], False),
    (["c.yaml", "--out"], False),
    (["c.yaml", "--format"], False),
    (["--out", "--format", "csv", "c.yaml"], False),
    (["c.yaml", "--out", "-"], False),
    (["c.yaml", "--out", "-1"], False),
    ([], False),
    (["--out", "d"], False),
    (["a.yaml", "b.yaml"], False),
    (["c.yaml", "--beta", "2"], False),
    (["--beta", "2", "c.yaml"], False),
    (["c.yaml", "--max-nodes", "100"], False),
    (["c.yaml", "--hard-gate"], False),
    (["c.yaml", "--beta=2"], False),
    (["-h"], False),
    (["c.yaml", "--help"], False),
    (["c.yaml", "--format", "xml", "-h"], False),
    (["c.yaml", "--fo", "csv"], False),
    (["c.yaml", "--o=d"], False),
    (["--", "c.yaml"], False),
    (["c.yaml", "--", "x"], False),
    (["-1"], False),
    (["-"], False),
    (["-x y"], False),
    (["c.yaml", "-x"], False),
]


def outcome(read, argv, capsys) -> tuple:
    """(result, exit code, stdout, stderr) of ``read(argv)``."""
    try:
        result, code = read(argv), None
    except SystemExit as exc:
        result, code = None, exc.code
    return (result, code, *capsys.readouterr())


@pytest.mark.parametrize("argv, fast", ARGV_TABLE, ids=lambda v: (
    " ".join(map(repr, v)) or "no-arguments") if isinstance(v, list) else "read" if v else "argparse")
def test_argv_reader_answers_as_argparse_did(argv, fast, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage on a narrower terminal
    expected = outcome(argparse_oracle, argv, capsys)
    if fast:  # read without argparse: importing it would raise
        monkeypatch.setitem(sys.modules, "argparse", None)
    assert outcome(cli._read_argv, argv, capsys) == expected
    if expected[1] is None:
        assert expected[2:] == ("", "")
    elif expected[1] == 0:  # help, on stdout
        assert expected[2].startswith("usage: bsvi [-h] [--out OUT] [--format {json,csv}] config\n")
    else:
        assert expected[1] == EXIT_PARSE and expected[2] == ""
        usage, error = expected[3].splitlines()
        assert usage == "usage: bsvi [-h] [--out OUT] [--format {json,csv}] config"
        assert error.startswith("bsvi: error: ")


@pytest.mark.parametrize("under", ["", "sub"])
def test_an_output_path_through_a_file_is_refused_before_solving(tmp_path, monkeypatch,
                                                                 capsys, under):
    # the whole solve ran, then the write died with FileExistsError / NotADirectoryError
    monkeypatch.setattr(solver, "picard_solve", None)  # a solve would fail on the call
    (tmp_path / "taken").write_text("kept", encoding="utf-8")
    out = tmp_path / "taken" / under
    assert main([str(CONFIGS / "minimal.yaml"), "--out", str(out)]) == EXIT_PARSE
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config" and f"'{out}'" in err["message"]
    assert f"'{tmp_path / 'taken'}' is not a directory" in err["message"]
    assert (tmp_path / "taken").read_text(encoding="utf-8") == "kept"
    assert sorted(tmp_path.iterdir()) == [tmp_path / "taken"]


@pytest.mark.parametrize("epsilon", [float("inf"), float("nan"), 0.0, -0.5])
def test_nonfinite_or_nonpositive_run_epsilon_is_a_config_error(tmp_path, capsys, epsilon):
    # an infinite epsilon ran and wrote "epsilon": Infinity, which is not JSON
    doc = yaml.safe_load((CONFIGS / "indicator_box.yaml").read_text(encoding="utf-8"))
    doc["model"]["n_steps"] = 4
    doc["run"] = {"mode": "penalized", "epsilon": epsilon}
    path = write_config(tmp_path, doc)
    assert main([str(path), "--out", str(tmp_path / "out"), "--format", "json"]) == EXIT_PARSE
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config" and "epsilon" in err["message"]
    assert not (tmp_path / "out" / "report.json").exists()


def test_emit_report_refuses_an_unknown_format(tmp_path):
    # "xml" wrote the four CSV files
    report = run(CONFIGS / "minimal.yaml", write_files=False)
    with pytest.raises(ValueError, match=re.escape(f"'xml'; pick one of {cli.OUT_FORMATS}")):
        emit_report(report, tmp_path / "out", "xml")
    assert not (tmp_path / "out").exists()


def test_run_refuses_an_unknown_format_before_solving(tmp_path, monkeypatch):
    monkeypatch.setattr(solver, "picard_solve", None)  # a solve would fail on the call
    with pytest.raises(ConfigError, match="unknown output format 'xml'"):
        run(CONFIGS / "minimal.yaml", out_dir=tmp_path / "out", out_format="xml")
    assert not (tmp_path / "out").exists()


def test_json_report_refuses_a_nonfinite_number(tmp_path):
    # the report is encoded before its directory is made, so a refusal leaves none
    with pytest.raises(ValueError, match="JSON"):
        emit_report({"mode": "penalized", "value": float("inf")}, tmp_path / "out", "json")
    assert not (tmp_path / "out" / "report.json").exists()
    assert not (tmp_path / "out").exists()


def test_json_report_echoes_an_infinite_bound_as_a_string(tmp_path):
    # the whole solve ran, then the write refused the echoed "hi": inf and exited 3
    doc = yaml.safe_load((CONFIGS / "indicator_box.yaml").read_text(encoding="utf-8"))
    doc["terminal"]["lo"], doc["terminal"]["hi"] = 0.0, math.inf
    doc["phi"] = {"kind": "box", "lo": 0.0, "hi": math.inf}
    path = write_config(tmp_path, doc)
    assert main([str(path), "--out", str(tmp_path / "out"), "--format", "json"]) == 0

    def refuse(name):
        raise ValueError(f"not strict JSON: {name}")

    text = (tmp_path / "out" / "report.json").read_text(encoding="utf-8")
    report = json.loads(text, parse_constant=refuse)
    assert report["config"]["phi"] == {"kind": "box", "lo": 0.0, "hi": "inf"}
    cfg = config_from_dict(report["config"])
    assert cfg.phi.hi.tolist() == [math.inf] and cfg.phi.lo.tolist() == [0.0]
    assert np.array_equal(cfg.xi, parse_config(path).xi)


def test_bsvi_run_does_not_import_numpy_ma(tmp_path):
    # numpy.ma costs a noticeable import on the first np.median of a process
    code = ("import sys; from bsvi.cli import run; "
            f"run({str(CONFIGS / 'indicator_box.yaml')!r}, write_files=False); "
            "print('numpy.ma' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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


def test_hard_gate_error_names_the_growth(tmp_path, capsys):
    code = main([str(CONFIGS / "gate_violation.yaml"),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION
    doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert doc["error"] == "wellposedness_gate"
    assert doc["growth"] == pytest.approx(9.0 * math.exp(1.0))


def test_overflowing_lipschitz_constant_is_a_validation_error(tmp_path, capsys):
    # L^2 overflows in the default beta = 24 L^2 + 1 and in the gate itself
    doc = minimal_doc()
    doc["generator"] = {"kind": "linear", "a": [[1e300]], "b": [[[0.0]]]}
    for solver_section in ({}, {"beta": 1.0}):
        doc["solver"] = solver_section
        path = write_config(tmp_path, doc)
        code = main([str(path), "--out", str(tmp_path / "out")])
        assert code == EXIT_VALIDATION
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "validation"
        assert "L = 1e+300" in err["message"]


def test_overflowing_beta_is_a_validation_error(tmp_path, capsys):
    doc = yaml.safe_load((CONFIGS / "minimal.yaml").read_text(encoding="utf-8"))
    doc["solver"] = {"beta": 1000}
    code = main([str(write_config(tmp_path, doc)), "--out", str(tmp_path / "o1")])
    assert code == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "validation"
    assert "beta * T = 1000" in err["message"]
    # e^(beta T) = e^700 still fits in a float
    doc["solver"] = {"beta": 700}
    code = main([str(write_config(tmp_path, doc)), "--out", str(tmp_path / "o2"),
                 "--format", "json"])
    assert code == 0
    report = json.loads((tmp_path / "o2" / "report.json").read_text())
    assert report["wellposedness"]["beta"] == 700.0


def test_a_horizon_whose_weights_overflow_is_a_validation_error(tmp_path, capsys):
    # beta T = 2.5e308 is inf, and e^inf = inf passed the gate: the Picard
    # distance's weights then raised a raw OverflowError (exit 1, a traceback)
    doc = yaml.safe_load((CONFIGS / "indicator_box.yaml").read_text(encoding="utf-8"))
    doc["model"]["horizon"] = 1e308
    code = main([str(write_config(tmp_path, doc)), "--out", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "validation"
    assert "beta = 2.5 must be finite" in json.loads(err[0])["message"]


def test_a_running_integral_whose_k_overflows_is_a_validation_error(tmp_path, capsys):
    # kappa and T each square to a float, but K = (kappa T)^2 does not: `**`
    # raised a raw OverflowError in the gate (exit 1, a traceback)
    doc = minimal_doc()
    doc["model"]["horizon"] = 1e100
    doc["generator"] = {"kind": "running_integral_z", "kappa": 1e100}
    code = main([str(write_config(tmp_path, doc)), "--out", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "validation"
    assert "kappa * T must be finite" in json.loads(err[0])["message"]


@pytest.mark.parametrize("bm_dim", [100_000, 10_000_000])
def test_a_huge_tree_is_refused_without_its_exact_node_count(tmp_path, bm_dim):
    # the exact count 2^(bm_dim (n + 1)) was formed and printed: at 10^5 the message
    # broke int-to-str's digit limit, at 10^7 the run did not answer; a subprocess
    # with a timeout, so that a run that does not answer fails the test
    doc = yaml.safe_load((CONFIGS / "minimal.yaml").read_text(encoding="utf-8"))
    doc["model"]["bm_dim"] = bm_dim
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "bsvi.cli", str(write_config(tmp_path, doc)),
                           "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_PARSE
    err = proc.stderr.strip().splitlines()
    assert len(err) == 1 and len(err[0]) < 300, proc.stderr[:500]
    message = json.loads(err[0])["message"]
    assert f"needs over 2^{3 * bm_dim} nodes, over the cap of {2 ** 22}" in message


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


def test_too_short_a_schedule_reports_the_rate_fit_error(tmp_path):
    doc = yaml.safe_load((CONFIGS / "indicator_box.yaml").read_text(encoding="utf-8"))
    doc["run"]["mode"] = "bsvi"
    # one entry made an empty table, which reported {"exact": true}
    for schedule, rows in (([1.0, 0.5, 0.25], 2), ([1.0], 0)):
        doc["solver"]["epsilon_schedule"] = schedule
        report = run(write_config(tmp_path, doc), write_files=False)
        assert report["rate_fit"] == {
            "error": f"rate fit needs at least 4 nonzero distances, got {rows}"}
        assert len(report["epsilon_table"]) == rows and report["audits"]["apriori_uniform_ok"]


@pytest.mark.filterwarnings("ignore:well-posedness gate failed")
def test_a_dim_one_run_makes_no_lapack_call(tmp_path, monkeypatch):
    # The first LAPACK call of a process makes OpenBLAS touch about 1 MB of
    # workspace, about 3 % of a benchmark run's resident peak, so no run of a
    # one-dimensional config may make one: every LAPACK gufunc raises here.
    from numpy.linalg import _umath_linalg

    class LapackCalled(Exception):  # not a ValueError, which main reports as exit 3
        pass

    def refuse(*args, **kwargs):
        raise LapackCalled

    for name in dir(_umath_linalg):
        if isinstance(getattr(_umath_linalg, name), np.ufunc):
            monkeypatch.setattr(_umath_linalg, name, refuse)
    with pytest.raises(LapackCalled):
        np.linalg.norm(np.eye(2), 2)
    doc = yaml.safe_load((CONFIGS / "indicator_box.yaml").read_text(encoding="utf-8"))
    doc["model"]["n_steps"], doc["run"]["mode"] = 5, "bsvi"  # delay_bsvi's shape, smaller
    doc["generator"] = {"kind": "moving_average_z", "g_poly": [0.3], "g_bound": 0.5,
                        "alpha": {"kind": "uniform"}}
    for path in [*sorted(CONFIGS.glob("*.yaml")), write_config(tmp_path, doc, "delay_bsvi.yaml")]:
        want = EXIT_VALIDATION if path.stem == "gate_violation" else 0  # its gate refuses
        assert main([str(path), "--out", str(tmp_path / path.stem)]) == want, path.name


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
    for side in ("a", "b"):  # one compact, key-sorted, strict document
        text = (tmp_path / side / "report.json").read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True, allow_nan=False)
    doc_a.pop("timings")
    doc_b.pop("timings")
    assert json.dumps(doc_a, sort_keys=True) == json.dumps(doc_b, sort_keys=True)


def test_config_echo_round_trips(tmp_path):
    path = write_config(tmp_path, minimal_doc())
    report = run(path, out_dir=tmp_path / "out")
    echoed = config_from_dict(report["config"])
    original = parse_config(path)
    assert echoed.tree.grid == original.tree.grid
    assert np.array_equal(echoed.xi, original.xi)
    assert echoed.mode == original.mode
    # and the echoed config reproduces the same numbers
    report2 = run(path, out_dir=tmp_path / "out2")
    assert report["schemes"]["classical"]["y0"] == report2["schemes"]["classical"]["y0"]


def test_report_config_records_the_flags_that_change_the_solve(tmp_path):
    # beta, max_nodes and hard_gate were flags the echo left out, so it rebuilt
    # a run with the default beta; they are config keys now and echo as written
    doc = yaml.safe_load((CONFIGS / "minimal.yaml").read_text(encoding="utf-8"))
    doc["model"]["max_nodes"] = 100
    doc["solver"] = {"beta": 2.0, "hard_gate": True}
    path = write_config(tmp_path, doc)
    code = main([str(path), "--out", str(tmp_path / "out"), "--format", "json"])
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    # --out and --format choose where and how the report is written, not what ran
    assert report["config"] == parse_config(path).raw == doc
    cfg = config_from_dict(report["config"])
    assert cfg.solver_config.hard_gate
    sol = solver.picard_solve(cfg.tree, cfg.xi, cfg.gen, cfg.solver_config)
    assert sol.wellposedness.beta == report["wellposedness"]["beta"] == 2.0
    assert sol.Y.values[0][0].tolist() == report["schemes"]["classical"]["y0"]


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


def test_run_configs_script_needs_no_install(tmp_path):
    # the script's CLI subprocesses must import bsvi from src/ by themselves
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "run_configs.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "UNEXPECTED" not in proc.stdout
    # each report lands in its config's run.out_dir, under the working directory
    for cfg in CONFIGS.glob("*.yaml"):
        out_dir = tmp_path / yaml.safe_load(cfg.read_text(encoding="utf-8"))["run"]["out_dir"]
        assert out_dir.is_dir() == (cfg.stem != "gate_violation"), cfg.name


@pytest.mark.parametrize("script", ["contraction_study.py", "rate_study.py"])
def test_experiment_script_runs(script):
    # as README runs it: the script must import bsvi from src/ by itself
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script)],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _report_diff():
    sys.path.insert(0, str(ROOT / "scripts"))
    import report_diff
    return report_diff


def test_report_diff_flags_the_differing_files(tmp_path):
    for side in ("a", "b"):
        for name, text in (("run/json/report.json", "{}"), ("run/csv/summary.csv", side)):
            (tmp_path / side / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / side / name).write_text(text, encoding="utf-8")
    differing_files = _report_diff().differing_files
    assert differing_files(tmp_path / "a", tmp_path / "b") == ["run/csv/summary.csv"]
    (tmp_path / "b" / "error.txt").write_text("ValueError\n", encoding="utf-8")
    assert differing_files(tmp_path / "a", tmp_path / "b") == ["error.txt", "run/csv/summary.csv"]


def test_report_diff_reads_a_json_report_by_its_values(tmp_path, capsys):
    # the same values laid out otherwise (indented, keys in another order) do
    # not differ and exit 0; a CSV file still differs by its bytes
    compare = _report_diff().compare_reports
    report = {"y0": [0.5, -0.0], "ok": True, "rate_fit": {"slope": 1e-300}}
    texts = {"compact": json.dumps(report, sort_keys=True),
             "indented": json.dumps(dict(reversed(report.items())), indent=2)}
    for side, text in texts.items():
        (tmp_path / side / "run" / "json").mkdir(parents=True)
        (tmp_path / side / "run" / "json" / "report.json").write_text(text, encoding="utf-8")
    assert compare(tmp_path / "indented", tmp_path / "compact") == 0
    assert capsys.readouterr().out.splitlines() == ["0 differing file(s)"]
    (tmp_path / "indented" / "run" / "json" / "report.json").write_text(
        json.dumps({**report, "y0": [0.5, 0.0]}, indent=2), encoding="utf-8")
    assert compare(tmp_path / "indented", tmp_path / "compact") == 1
    (tmp_path / "compact" / "run" / "summary.csv").write_text("key,value\n", encoding="utf-8")
    (tmp_path / "indented" / "run" / "summary.csv").write_text("key,value\r\n", encoding="utf-8")
    assert _report_diff().differing_files(tmp_path / "indented", tmp_path / "compact") == \
        ["run/json/report.json", "run/summary.csv"]


def test_report_diff_lists_each_differing_value():
    report_diff = _report_diff()
    this = {"rate_fit": {"slope": 0.5 + 2 ** -49, "exact": False}, "y0": [1.0, 2.0], "m": -0.0,
            "n": float("nan"), "k": "a"}
    other = {"rate_fit": {"slope": 0.5, "exact": False}, "y0": [1.0, 2.5, 3.0], "m": 0.0,
             "n": float("nan"), "extra": None}
    lines = [report_diff.describe(*d) for d in report_diff.value_differences(this, other)]
    assert lines == [
        '  extra: (missing) != null  BEYOND',
        '  k: "a" != (missing)  BEYOND',
        "  m: |this - other| 0.000e+00, relative 0.000e+00",
        "  rate_fit.slope: |this - other| 1.776e-15, relative 3.553e-15",
        "  y0[1]: |this - other| 5.000e-01, relative 2.000e-01  BEYOND",
        "  y0[2]: (missing) != 3.0  BEYOND"]


def test_report_diff_exits_0_1_or_2_by_the_golden_rule(tmp_path, capsys):
    # byte-identical: 0; every difference within 1e-12 + 1e-10 |other|, in a
    # JSON number or a CSV cell that parses as a float: 1; a difference past
    # it, or a file on one side only: 2
    compare = _report_diff().compare_reports

    def write(side, files):
        for name, text in files.items():
            (tmp_path / side / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / side / name).write_text(text, encoding="utf-8")
        return tmp_path / side

    base = {"run/json/report.json": '{"y0": 0.5, "ok": true}',
            "run/csv/summary.csv": "key,value\ny0,0.5\nok,True\n"}
    other = write("other", base)
    assert compare(write("same", base), other) == 0
    near = {"run/json/report.json": '{"y0": 0.5000000000000001, "ok": true}',
            "run/csv/summary.csv": "key,value\ny0,0.50000000000001\nok,True\n"}
    assert compare(write("near", near), other) == 1
    for name, files in {
            "json_far": {**near, "run/json/report.json": '{"y0": 0.5000001, "ok": true}'},
            "csv_far": {**near, "run/csv/summary.csv": "key,value\ny0,0.51\nok,True\n"},
            "csv_text": {**near, "run/csv/summary.csv": "key,value\ny0,0.5\nok,False\n"},
            "one_side": {**near, "run/error.txt": "ValueError\n"}}.items():
        assert compare(write(name, files), other) == 2, name
    lines = capsys.readouterr().out.splitlines()
    assert "  row 1 column 1: |this - other| 9.992e-15, relative 1.998e-14" in lines
    assert '  row 2 column 1: "False" != "True"  BEYOND' in lines
    at = lines.index("differs: run/error.txt")
    assert lines[at + 1] == "  (on one side only)  BEYOND" and lines[-1] == "3 differing file(s)"


SCHEDULE_RUNS = [p.stem for p in sorted(CONFIGS.glob("*.yaml"))
                 if yaml.safe_load(p.read_text(encoding="utf-8"))["run"]["mode"]
                 in ("bsvi", "compare")] + ["box_compare-seed0", "delay_bsvi-seed0"]


@pytest.mark.filterwarnings("ignore:well-posedness gate failed")
@pytest.mark.parametrize("name", SCHEDULE_RUNS)
def test_penalized_final_norms_are_path_norms_bitwise(tmp_path, name):
    # bsvi and compare mode take the final solution's norms from the audit pass:
    # its a priori parts and its Yosida grad row at beta = 0, which must be the
    # bits `analysis.path_norm` gives on the shipped configs and the benchmark's
    doc = _report_diff().configs()[name] if "-" in name else \
        yaml.safe_load((CONFIGS / f"{name}.yaml").read_text(encoding="utf-8"))
    (tmp_path / "run.json").write_text(json.dumps(doc), encoding="utf-8")
    summary = run(tmp_path / "run.json", write_files=False)["schemes"]["penalized_final"]
    cfg = config_from_dict(doc)
    sol = solver.solve_bsvi(cfg.tree, cfg.xi, cfg.gen, cfg.phi, cfg.solver_config).solution
    want = [analysis.path_norm(p, cfg.tree, stat) for p, stat in
            ((sol.Y, "s2"), (sol.Z, "h2"), (sol.U, "h2"))]
    got = [summary[key] for key in ("norm_y_s2", "norm_z_h2", "norm_u_h2")]
    assert [(type(v), v.hex()) for v in got] == [(float, v.hex()) for v in want]


def test_report_diff_configs_all_build():
    docs = _report_diff().configs()
    assert len(docs) == 15 and {p.stem for p in CONFIGS.glob("*.yaml")} <= docs.keys()
    modes = {name: config_from_dict(doc).mode for name, doc in docs.items()}
    assert modes["delay_bsvi-classical"] == "classical" and modes["box_compare-seed5"] == "compare"


def _report_diff_run(other: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "report_diff.py"), str(other)],
                          capture_output=True, text=True, timeout=120)


def _checkout_copy(where: Path, appended: str) -> Path:
    """A checkout of this src/bsvi with ``appended`` at the end of its solver.py."""
    shutil.copytree(ROOT / "src" / "bsvi", where / "src" / "bsvi",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(where / "src" / "bsvi" / "solver.py", "a", encoding="utf-8") as f:
        f.write(appended)
    return where


def test_report_diff_reads_every_report_and_solve_the_same_against_its_own_checkout():
    proc = _report_diff_run(ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == ["15 configs run on both sides", "0 differing file(s)"]


def test_report_diff_records_every_public_solve(tmp_path):
    # the schedule's 11 epsilons, and compare mode's prox solve after them; a
    # refused run writes its error text and no solves
    docs = _report_diff().configs()
    (tmp_path / "configs").mkdir()
    for name in ("box_compare-seed0", "delay_bsvi-seed0", "gate_violation"):
        (tmp_path / "configs" / f"{name}.json").write_text(json.dumps(docs[name]))
    subprocess.run([sys.executable, str(ROOT / "scripts" / "report_diff.py"), "--emit",
                    str(tmp_path / "configs"), str(tmp_path / "out")],
                   env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True, timeout=60)
    solves = {name: [line.rsplit(" ", 1) for line in
                     (tmp_path / "out" / name / "solves.txt").read_text().splitlines()]
              for name in ("box_compare-seed0", "delay_bsvi-seed0")}
    assert all(re.fullmatch("[0-9a-f]{64}", d) for lines in solves.values() for _, d in lines)
    labels = {name: [label.split()[0] for label, _ in lines] for name, lines in solves.items()}
    assert labels == {"box_compare-seed0": ["solve_bsvi"] * 11 + ["prox_step_solve"],
                      "delay_bsvi-seed0": ["solve_bsvi"] * 11}
    assert solves["delay_bsvi-seed0"][0][0] == "solve_bsvi eps=1.0"
    assert sorted(p.name for p in (tmp_path / "out" / "gate_violation").iterdir()) == \
        ["error.txt"]


def test_report_diff_digest_moves_with_one_ulp_of_y_or_one_distance():
    digest = _report_diff().digest
    tree = build_tree(3, 1.0)
    sol = solver.picard_solve(tree, tree.path_sums().values[3][:, 0], generators.zero())
    ys = [y.copy() for y in sol.Y.values]
    ys[1][1, 0] = np.nextafter(ys[1][1, 0], np.inf)
    want = digest(sol)
    fields = dict(vars(sol))
    assert digest(solver.Solution(**{**fields, "Y": AdaptedProcess(tree, ys)})) != want
    diags = solver.PicardDiagnostics([*sol.diagnostics.iterate_distances[:-1], -0.0])
    assert sol.diagnostics.iterate_distances[-1] == 0.0
    assert digest(solver.Solution(**{**fields, "diagnostics": diags})) != want
    assert digest(solver.Solution(**fields)) == want


def test_report_diff_exits_1_on_a_differing_solve_and_2_on_a_one_sided_failure(tmp_path, capsys):
    compare = _report_diff().compare_reports

    def write(side, files):
        for name, text in files.items():
            (tmp_path / side / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / side / name).write_text(text, encoding="utf-8")
        return tmp_path / side

    base = {"run/json/report.json": '{"y0": 0.5}',
            "run/solves.txt": f"solve_bsvi eps=1.0 {'a' * 64}\nsolve_bsvi eps=0.5 {'b' * 64}\n"}
    other = write("other", base)
    assert compare(write("same", base), other) == 0
    moved = {**base, "run/solves.txt": f"solve_bsvi eps=1.0 {'a' * 64}\n"
                                       f"solve_bsvi eps=0.5 {'c' * 64}\n"}
    assert compare(write("moved", moved), other) == 1
    assert capsys.readouterr().out.splitlines() == [
        "0 differing file(s)", "differs: run/solves.txt",
        f"  solve_bsvi eps=0.5: this {'c' * 64} other {'b' * 64}", "1 differing file(s)"]
    first = base["run/solves.txt"].splitlines(keepends=True)[0]
    assert compare(write("fewer", {**base, "run/solves.txt": first}), other) == 1
    assert f"  solve_bsvi eps=0.5: this (missing) other {'b' * 64}" in capsys.readouterr().out
    assert compare(write("fails", {"run/error.txt": "ValueError: x\n"}), other) == 2


def test_report_diff_names_a_solve_moved_by_one_ulp(tmp_path):
    # a checkout whose prox solve moves one Y entry by one ulp: every report value
    # keeps the golden rule, the solve's digest does not
    moved = _checkout_copy(tmp_path / "moved", """
_prox_step_solve = prox_step_solve


def prox_step_solve(*args, **kwargs):
    sol = _prox_step_solve(*args, **kwargs)
    y = sol.Y.values[1] = sol.Y.values[1].copy()
    y[0, 0] = np.nextafter(y[0, 0], np.inf)
    return sol
""")
    proc = _report_diff_run(moved)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "BEYOND" not in proc.stdout
    lines = proc.stdout.splitlines()
    at = lines.index("differs: box_compare-seed0/solves.txt")
    assert re.fullmatch(r"  prox_step_solve eps=None: this [0-9a-f]{64} other [0-9a-f]{64}",
                        lines[at + 1])


def test_report_diff_exits_2_when_a_side_cannot_run(tmp_path):
    # a side that cannot import bsvi finishes no comparison: that is no move at rounding
    proc = _report_diff_run(_checkout_copy(tmp_path / "broken", '\nraise ImportError("x")\n'))
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "CalledProcessError" in proc.stderr


def test_ab_time_script_times_a_checkout_against_itself():
    # delay_bsvi's config at n = 5 instead of its own 8
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "ab_time.py"), str(ROOT),
                           "--pairs", "2", "--n-steps", "5"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "delay_bsvi at n_steps = 5, 2 pairs"
    assert [line.split()[:2] for line in lines[1:3]] == [["this", "median"], ["other", "median"]]
    assert re.fullmatch(r"this / other: median paired ratio \d+\.\d{3}, "
                        r"this faster in [0-2] of 2 pairs", lines[3])
    peaks = [re.fullmatch(r"(this|other) +traced peak (\d+\.\d{2}) MB \(one untimed run\)",
                          line) for line in lines[4:]]
    assert [m and m[1] for m in peaks] == ["this", "other"]
    assert all(float(m[2]) > 0 for m in peaks)
    # fresh starts: import bsvi.cli and parse the config, without bytecode cache
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "ab_time.py"), str(ROOT),
                           "--pairs", "2", "--n-steps", "5", "--startup"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "delay_bsvi start-up at n_steps = 5, 2 pairs"
    medians = [re.fullmatch(r"(this|other) +median (\d+\.\d{5}) s  \(.*\)", line)
               for line in lines[1:3]]
    assert [m and m[1] for m in medians] == ["this", "other"]
    assert all(float(m[2]) > 0 for m in medians)
    assert re.fullmatch(r"this / other: median paired ratio \d+\.\d{3}, "
                        r"this faster in [0-2] of 2 pairs", lines[3])
    assert len(lines) == 4


def test_ab_time_script_runs_the_benchmark_worker_of_each_checkout():
    # one pair of fresh worker processes on delay_bsvi's config at n = 5, whose
    # output checks pass without the n = 8 reference
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "ab_time.py"), str(ROOT),
                           "--pairs", "1", "--n-steps", "5", "--worker"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "delay_bsvi worker runs at n_steps = 5, 1 pairs"
    assert len(lines) == 13
    for k, (name, unit) in enumerate((("wall_s", "s"), ("setup_s", "s"), ("peak_mb", "MB"))):
        sides = [re.fullmatch(rf"{name} (this|other) +median (\d+\.\d{{5}}) quartiles "
                              rf"(\d+\.\d{{5}})-(\d+\.\d{{5}}) {unit}  \(.*\)", line)
                 for line in lines[1 + 4 * k:3 + 4 * k]]
        assert [m and m[1] for m in sides] == ["this", "other"]
        assert all(float(m[3]) <= float(m[2]) <= float(m[4]) and float(m[2]) > 0 for m in sides)
        assert re.fullmatch(rf"{name} this / other: median paired ratio \d+\.\d{{3}}, "
                            r"this lower in [01] of 1 pairs", lines[3 + 4 * k])
        # the claim rule's verdict: its format only, since one pair decides nothing
        assert re.fullmatch(rf"{name} claim rule \(10\+ pairs, this lower in 9 of 10, median "
                            r"gap over the other's quartile spread\): (met|not met) \(gap "
                            rf"-?\d+\.\d{{5}}, spread \d+\.\d{{5}} {unit}\)", lines[4 + 4 * k])


def test_ab_time_script_draws_a_hash_seed_per_pair_and_prints_them():
    # one PYTHONHASHSEED per pair, which both runs of the pair take, printed after the header
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "ab_time.py"), str(ROOT),
                           "--pairs", "2", "--n-steps", "4", "--worker", "--hash-seed", "random"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "delay_bsvi worker runs at n_steps = 4, 2 pairs"
    assert re.fullmatch(r"PYTHONHASHSEED warm-ups \d+, pairs \d+ \d+", lines[1])
    assert all(0 <= int(seed) < 2 ** 32 for seed in re.findall(r"\d+", lines[1]))
    assert len(lines) == 14 and lines[2].startswith("wall_s this  median")
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "ab_time.py"), str(ROOT),
                           "--hash-seed", "random"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and "--worker runs only" in proc.stderr


def test_ab_time_claim_rule_asks_ten_pairs_nine_tenths_won_and_a_gap_over_the_spread(capsys):
    sys.path.insert(0, str(ROOT / "scripts"))
    import ab_time
    other = [1.0 + k / 100 for k in range(10)]  # quartiles 1.0175-1.0725, median 1.045

    def verdict(this, base=other):
        ab_time.print_metric("wall_s", "s", {"this": this, "other": base},
                             {"this": "a", "other": "b"})
        return capsys.readouterr().out.splitlines()[-1].split(": ")[1].split(" (")[0]

    assert verdict([v - 0.1 for v in other]) == "met"
    assert verdict([v - 0.05 for v in other]) == "not met"  # gap 0.05 within the spread
    assert verdict([v - 0.1 for v in other[:8]] + other[8:]) == "not met"  # 8 of 10, ties
    assert verdict([v - 0.1 for v in other[:9]] + [2.0]) == "met"  # 9 of 10
    assert verdict([v - 0.1 for v in other[:9]], other[:9]) == "not met"  # 9 pairs


def test_ab_time_script_copies_both_sides_to_paths_of_one_length():
    # one byte more in every path of one side moved its workers' resident peak
    # by 0.07 MB against the same code on the other side
    sys.path.insert(0, str(ROOT / "scripts"))
    import ab_time
    assert ab_time.SIDE_DIRS.keys() == set(ab_time.SIDES)
    assert len({len(name) for name in ab_time.SIDE_DIRS.values()}) == 1


def test_readme_config_format_block_builds():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("### Config format", 1)[1].split("```yaml", 1)[1].split("```", 1)[0]
    cfg = config_from_dict(yaml.safe_load(block))
    assert (cfg.mode, cfg.out_format, cfg.solver_config.beta) == ("compare", "csv", 25.0)


def test_readme_config_format_lists_exactly_the_builder_kinds():
    # the kind lists of README's config block against the builder tables
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("### Config format", 1)[1].split("```yaml", 1)[1].split("```", 1)[0]
    listed = {section: set(kinds.replace(" ", "").split("|")) for section, kinds in
              re.findall(r"^(\w+):.*\n  kind: \w+ +# ([\w |]+)$", block, re.M)}
    listed["generator.alpha"] = set(re.findall(r"\{kind: (\w+)", block))
    assert listed == {"terminal": set(cli.TERMINAL_KINDS),
                      "generator": set(cli.GENERATOR_KINDS),
                      "generator.alpha": set(cli.DELAY_KINDS), "phi": set(cli.PHI_KINDS)}
