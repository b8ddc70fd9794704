"""Batch experiment driver: YAML problem configs in, reports and tables out.

A config file describes the tree, terminal data, generator, penalty, solver
knobs and run mode; `run` executes it deterministically (there is no RNG
anywhere in the pipeline) and `emit_report` writes either a single JSON
document or a CSV bundle with one file per table.  Reports embed the parsed
config, so a run can be reproduced from its own output.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np
import yaml

from . import analysis, convex, generators, problems, solver
from .lattice import DEFAULT_NODE_CAP, Record, build_tree
from .solver import NonFiniteIterate, PicardNonConvergence, SolverConfig, WellposednessError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_DIVERGENCE = 4

RUN_MODES = ("classical", "penalized", "bsvi", "prox", "compare")
OUT_FORMATS = ("json", "csv")
# libyaml's loader where PyYAML was built with it: the same documents, parsed in C
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ConfigError(ValueError):
    """Config file failed to parse or validate."""


class ProblemConfig(Record, eq=False):
    """Validated run description; ``raw`` is the parsed document it came from."""

    raw: dict
    tree: object
    xi: np.ndarray
    gen: object
    phi: object
    solver_config: SolverConfig
    mode: str
    epsilon: float | None  # penalized mode only
    out_dir: str
    out_format: str


def _build(spec, where: str, build, *args):
    """Return ``build(key, *args)``, where ``key(name[, default])`` reads the
    mapping ``spec``; a dict ``build`` is a table of builders picked by the
    section's ``kind``.  A section that is not a mapping, an unknown kind, a
    missing key, a key no builder read and a TypeError or ValueError while
    building are `ConfigError`s that name the section."""
    if not isinstance(spec, dict):
        raise ConfigError(f"section '{where}' must be a mapping, got {spec!r}")
    read = set()

    def key(name: str, *default):
        read.add(name)
        if name not in spec and not default:
            raise ConfigError(f"missing key '{name}' in section '{where}'")
        return spec.get(name, *default)

    label = f"section '{where}'"
    try:
        if isinstance(build, dict):
            kind = key("kind")
            if not isinstance(kind, str) or kind not in build:
                raise ConfigError(f"unknown {where} kind {kind!r}")
            label, build = f"{label} (kind {kind})", build[kind]
        value = build(key, *args)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{label}: {exc}") from exc
    if unknown := [k for k in spec if k not in read]:
        raise ConfigError(f"unknown key(s) {', '.join(map(repr, unknown))} in {label}")
    return value


def _real(value) -> float:
    """``float(value)``, refusing a bool: YAML reads yes, no, on and off as one."""
    if isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _reals(value):  # an array key: `_real` over nested lists ("inf" of an echo reads back)
    return [_reals(v) for v in value] if isinstance(value, list) else _real(value)


def _poly_weight(coeffs):
    if not isinstance(coeffs, (list, tuple)):  # a string would read as its digits
        raise TypeError(f"g_poly must be a list of coefficients: {coeffs!r}")
    coeffs = [_real(c) for c in coeffs]

    def g(t: float) -> float:  # moving_average_z cuts t < 0 before it calls g
        return sum(c * t ** k for k, c in enumerate(coeffs))

    return g


TERMINAL_KINDS = {
    "constant": lambda key, tree: problems.terminal_constant(tree, _reals(key("c"))),
    "linear": lambda key, tree: problems.terminal_linear(tree, _reals(key("a")), _reals(key("b"))),
    "clipped_linear": lambda key, tree: problems.terminal_clipped_linear(
        tree, *(_reals(key(name)) for name in ("a", "b", "lo", "hi"))),
}
DELAY_KINDS = {
    "dirac": lambda key: generators.Dirac(_real(key("theta", 0.0))),
    "uniform": lambda key: generators.UniformPast(),
    "mixture": lambda key: generators.DiscreteMixture(_reals(key("atoms"))),
}
GENERATOR_KINDS = {
    "zero": lambda key: generators.zero(),
    "linear": lambda key: generators.linear(_reals(key("a")), _reals(key("b"))),
    "delayed_z": lambda key: generators.delayed_z(_real(key("kappa")), _real(key("lag"))),
    "running_integral_z": lambda key: generators.running_integral_z(_real(key("kappa"))),
    "moving_average_z": lambda key: generators.moving_average_z(
        g=_poly_weight(key("g_poly")), g_bound=_real(key("g_bound")),
        alpha=_build(key("alpha", {"kind": "dirac"}), "generator.alpha", DELAY_KINDS)),
}
PHI_KINDS = {
    "zero": lambda key: convex.Zero(),
    "box": lambda key: convex.IndicatorBox(_reals(key("lo")), _reals(key("hi"))),
    "quadratic": lambda key: convex.Quadratic(_real(key("c"))),
    "one_norm": lambda key: convex.OneNorm(_real(key("c"))),
}


def _model(key):
    tree = build_tree(key("n_steps"), _real(key("horizon")), key("bm_dim", 1),
                      max_nodes=key("max_nodes", DEFAULT_NODE_CAP))
    return tree, key("dim", 1)


def _solver_config(key):
    beta = key("beta", None)
    sched = key("epsilon_schedule", solver.DEFAULT_EPSILON_SCHEDULE)
    if not isinstance(sched, (list, tuple)):
        raise TypeError(f"epsilon_schedule must be a list: {sched!r}")
    return SolverConfig(beta=None if beta is None else _real(beta),
                        picard_tol=_real(key("picard_tol", 1e-10)),
                        picard_max_iters=key("picard_max_iters", 200),
                        epsilon_schedule=[_real(e) for e in sched],
                        hard_gate=key("hard_gate", False))


def _run_section(key, schedule, phi):
    mode = key("mode", "classical")
    if mode not in RUN_MODES:
        raise ValueError(f"unknown run mode {mode!r}; pick one of {RUN_MODES}")
    if mode == "classical" and not isinstance(phi, convex.Zero):  # a classical solve reads no phi
        raise ValueError(f"mode classical solves without phi; set phi kind zero, not {phi!r}")
    epsilon = None  # read in penalized mode only, the one mode that solves at one epsilon
    if mode == "penalized":
        epsilon = _real(key("epsilon", schedule[-1]))
        if not 0 < epsilon < np.inf:  # negated, so that NaN fails it
            raise ValueError(f"epsilon must be positive and finite: {epsilon!r}")
    out_dir = key("out_dir", "out")
    if not isinstance(out_dir, str):
        raise TypeError(f"out_dir must be a string: {out_dir!r}")
    out_format = key("format", "json")
    if out_format not in OUT_FORMATS:
        raise ValueError(f"unknown output format {out_format!r}")
    return dict(mode=mode, epsilon=epsilon, out_dir=out_dir, out_format=out_format)


def _problem(key, doc):
    tree, dim = _build(key("model"), "model", _model)
    xi = _build(key("terminal"), "terminal", TERMINAL_KINDS, tree)
    if dim != xi.shape[1] or type(dim) is not int:  # 1.0 and True equal 1
        raise ConfigError(f"terminal dimension {xi.shape[1]} != model dim {dim!r}")
    gen = _build(key("generator"), "generator", GENERATOR_KINDS)
    try:  # the past-Z terms of every level, as a solve resolves them
        generators.past_z_rows(gen, tree)
    except (generators.GeneratorError, ValueError) as exc:
        raise ConfigError(f"section 'generator': {exc}") from exc
    if gen.b_z is not None and gen.b_z.shape != (dim, dim, tree.bm_dim):
        raise ConfigError(f"section 'generator': b of shape {gen.b_z.shape} != (dim, dim, bm_dim)")
    phi = _build(key("phi", {"kind": "zero"}), "phi", PHI_KINDS)
    if phi.m not in (None, dim):
        raise ConfigError(f"section 'phi': dimension {phi.m} != model dim {dim}")
    sconf = _build(key("solver", {}), "solver", _solver_config)
    how = _build(key("run", {}), "run", _run_section, sconf.epsilon_schedule, phi)
    return ProblemConfig(raw=doc, tree=tree, xi=xi, gen=gen, phi=phi, solver_config=sconf, **how)


def config_from_dict(doc: dict) -> ProblemConfig:
    """Build the run a parsed config document describes; every section is
    read by `_build`, so a bad document is a `ConfigError`."""
    return _build(doc, "config", _problem, doc)


def _load(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
        return yaml.load(text, Loader=YAML_LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        pos = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"config parse error{pos}: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc


def parse_config(path) -> ProblemConfig:
    """Parse and validate a YAML config."""
    return config_from_dict(_load(path))


def _solution_summary(sol, tree, norms=None) -> dict:
    # norms: the S^2 of Y and H^2 of Z and U where the audits hold them, else path_norm's
    y_s2, z_h2, u_h2 = norms or [analysis.path_norm(p, tree, stat) for p, stat in
                                 ((sol.Y, "s2"), (sol.Z, "h2"), (sol.U, "h2"))]
    summary = {
        "y0": sol.Y.values[0][0].tolist(),
        "z0": sol.Z.values[0][0].tolist(),
        "norm_y_s2": y_s2,
        "norm_z_h2": z_h2,
        "norm_u_h2": u_h2,
        "picard": {
            "distances": list(sol.diagnostics.iterate_distances),
            "ratios": list(sol.diagnostics.contraction_ratios),
            "converged": sol.diagnostics.converged,
            "iterations": sol.diagnostics.iterations_used,
        },
    }
    if sol.epsilon is not None:
        summary["epsilon"] = sol.epsilon
    return summary


def run(config_path, *, out_dir=None, out_format=None, write_files=True) -> dict:
    """Execute one config; returns the report dict and (optionally) writes files.
    ``out_dir`` and ``out_format`` choose where and how, not what, so the report's
    ``config`` is the file's document as parsed."""
    cfg = config_from_dict(_load(config_path))
    out_format = out_format or cfg.out_format
    out = Path(out_dir or cfg.out_dir)
    if out_format not in OUT_FORMATS:
        raise ConfigError(f"unknown output format {out_format!r}")
    blocker = next(p for p in (out, *out.parents) if p.exists())  # "." or "/" at the latest
    if write_files and not blocker.is_dir():  # refused before the solve, not after it
        raise ConfigError(f"output directory '{out}' cannot be made: "
                          f"'{blocker}' is not a directory")
    t0 = time.perf_counter()
    # an infinite bound echoes as "inf" / "-inf", which the builders read back
    echo = json.loads(json.dumps(cfg.raw), parse_constant=lambda name: str(float(name)))
    report = {"config": echo, "mode": cfg.mode, "schemes": {}}

    if cfg.mode in ("bsvi", "compare"):
        res = solver.solve_bsvi(cfg.tree, cfg.xi, cfg.gen, cfg.phi, cfg.solver_config)
        name, sol = "penalized_final", res.solution
    else:  # phi is zero in classical mode, epsilon set in penalized mode only
        name, sol = cfg.mode, solver.picard_solve(cfg.tree, cfg.xi, cfg.gen, cfg.solver_config,
                                                  phi=cfg.phi, epsilon=cfg.epsilon)
    report["residuals"] = dict(vars(analysis.solution_residuals(
        sol, cfg.xi, cfg.gen, cfg.phi, cfg.tree)))

    if cfg.mode not in ("bsvi", "compare"):
        report["schemes"][name] = _solution_summary(sol, cfg.tree)
    else:
        # at beta = 0 every weight e^{bt} is 1.0, so the last entry's (the final solution's)
        # a priori parts and Yosida grad row lhs, E int e^{bs}|U|^2, are path_norm's norms
        table, ap, yo = analysis.schedule_audits(res.per_epsilon, cfg.phi, cfg.xi, cfg.gen,
                                                 cfg.tree, beta=0.0)
        report["schemes"][name] = _solution_summary(
            sol, cfg.tree, (ap.y_s2[-1], ap.z_h2[-1], yo.grad_rows[-1].lhs))
        report["epsilon_table"] = [dict(vars(r)) for r in table]
        try:
            report["rate_fit"] = dict(vars(analysis.epsilon_rate_fit(table)))
        except ValueError as exc:
            report["rate_fit"] = {"error": str(exc)}
        report["audits"] = {
            "apriori": [dict(vars(r)) for r in ap.rows],
            "apriori_uniform_ok": ap.uniform_ok,
            "yosida": [dict(vars(r)) for rows in (yo.grad_rows, yo.value_rows, yo.gap_rows)
                       for r in rows],
            "yosida_uniform_ok": yo.uniform_ok,
        }
        if cfg.mode == "compare":
            pr = solver.prox_step_solve(cfg.tree, cfg.xi, cfg.gen, cfg.phi, cfg.solver_config)
            report["schemes"]["prox"] = _solution_summary(pr, cfg.tree)
            y0p = np.asarray(pr.Y.values[0][0])
            gaps = [float(np.max(np.abs(np.asarray(s.Y.values[0][0]) - y0p)))
                    for _, s in res.per_epsilon]
            report["compare"] = {"gap_y0_final": gaps[-1], "gap_y0_series": gaps,
                                 "epsilons": [e for e, _ in res.per_epsilon]}

    # the gate the solver checked (and enforced under hard_gate) for this run
    report["wellposedness"] = dict(vars(sol.wellposedness))
    report["timings"] = {"total_seconds": time.perf_counter() - t0}
    if write_files:
        emit_report(report, out, out_format)
    return report


def emit_report(report: dict, out_dir, out_format: str):
    """Write the report: one JSON document, or a CSV bundle with one file per
    table plus a summary of scalar fields (UTF-8, header rows, '.' decimals)."""
    if out_format not in OUT_FORMATS:
        raise ValueError(f"unknown output format {out_format!r}; pick one of {OUT_FORMATS}")
    out = Path(out_dir)
    if out_format == "json":  # no indent, which would take json off its C encoder
        text = json.dumps({"timings": {}, **report}, sort_keys=True, allow_nan=False)
        out.mkdir(parents=True, exist_ok=True)  # after the encode: a refusal makes no directory
        (out / "report.json").write_text(text, encoding="utf-8")
        return [out / "report.json"]
    out.mkdir(parents=True, exist_ok=True)
    import csv  # here, not at the top: a JSON run does not load it
    written = []

    def table(name: str, rows: list, names: list):
        path = out / f"{name}.csv"
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=names)
            writer.writeheader()
            for row in rows:
                writer.writerow({k: repr(v) if isinstance(v, float) else v
                                 for k, v in row.items()})
        written.append(path)

    table("epsilon_table", report.get("epsilon_table", []),
          analysis.EpsilonTableRow._fields)
    schemes = report.get("schemes", {})
    table("picard_distances", [{"scheme": scheme, "sweep": k + 1, "distance": d}
                               for scheme, summary in schemes.items()
                               for k, d in enumerate(summary["picard"]["distances"])],
          ["scheme", "sweep", "distance"])
    table("audits", [{"group": group, **r} for group in ("apriori", "yosida")
                     for r in report.get("audits", {}).get(group, [])],
          ["group", *analysis.BoundAudit._fields])
    pairs = [("mode", report["mode"])]
    pairs += [(f"wellposedness.{k}", v) for k, v in report["wellposedness"].items()]
    for scheme, summary in schemes.items():
        pairs += [(f"{scheme}.y0", summary["y0"]),
                  (f"{scheme}.converged", summary["picard"]["converged"])]
    pairs += [(f"residuals.{k}", v) for k, v in report.get("residuals", {}).items()]
    if "compare" in report:
        pairs.append(("compare.gap_y0_final", report["compare"]["gap_y0_final"]))
    table("summary", [{"key": k, "value": v} for k, v in pairs], ["key", "value"])
    return written


def _read_argv(argv) -> tuple:
    """``(config, out, format)`` of a command line: the config with ``--out DIR`` and
    ``--format json|csv`` (or ``--name=value``) read here as argparse reads it, any other
    line (help, a usage error, an abbreviation, ``--``) by argparse, imported only then."""
    got, args = {}, iter(argv)
    for arg in args:
        name, eq, value = arg.partition("=")
        if name in ("--out", "--format"):
            got[name] = value if eq else next(args, "-")
            if not eq and got[name][:1] == "-":  # no value, or one argparse may refuse
                break
        elif arg[:1] == "-" or "config" in got:
            break
        else:
            got["config"] = arg
    else:  # every argument read
        if "config" in got and got.get("--format") in (None, *OUT_FORMATS):
            return got["config"], got.get("--out"), got.get("--format")
    import argparse  # with gettext and locale, about 2 ms that a run need not pay
    parser = argparse.ArgumentParser(
        prog="bsvi", description="Run a delayed-BSVI experiment from a YAML config.")
    parser.add_argument("config", help="path to the YAML problem config")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--format", choices=OUT_FORMATS,
                        help="report format (json document or csv bundle)")
    args = parser.parse_args(argv)
    return args.config, args.out, args.format


def main(argv=None) -> int:
    config, out_dir, out_format = _read_argv(sys.argv[1:] if argv is None else argv)

    def fail(code: int, kind: str, message: str, **extra) -> int:
        print(json.dumps({"error": kind, "message": message, **extra}, sort_keys=True),
              file=sys.stderr)
        return code

    try:
        report = run(config, out_dir=out_dir, out_format=out_format)
    except ConfigError as exc:
        return fail(EXIT_PARSE, "config", str(exc))
    except WellposednessError as exc:
        return fail(EXIT_VALIDATION, "wellposedness_gate", str(exc), growth=exc.report.growth)
    except ValueError as exc:
        return fail(EXIT_VALIDATION, "validation", str(exc))
    except NonFiniteIterate as exc:
        return fail(EXIT_DIVERGENCE, "nonfinite", str(exc), level=exc.level, node=exc.node)
    except PicardNonConvergence as exc:
        return fail(EXIT_DIVERGENCE, "divergence" if exc.diverged else "stall", str(exc),
                    distances=exc.diagnostics.iterate_distances,
                    ratios=exc.diagnostics.contraction_ratios)
    for scheme, summary in report["schemes"].items():
        print(f"{scheme}: Y0 = {summary['y0']} (converged={summary['picard']['converged']}, "
              f"sweeps={summary['picard']['iterations']})")
    if "compare" in report:
        print(f"compare: |Y0_penalized - Y0_prox| = {report['compare']['gap_y0_final']:.3e}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
