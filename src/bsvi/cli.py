"""Batch experiment driver: YAML problem configs in, reports and tables out.

A config file describes the tree, terminal data, generator, penalty, solver
knobs and run mode; `run` executes it deterministically (there is no RNG
anywhere in the pipeline) and `emit_report` writes either a single JSON
document or a CSV bundle with one file per table.  Reports embed the parsed
config, so a run can be reproduced from its own output.
"""

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from . import analysis, convex, generators, problems, solver
from .lattice import build_tree
from .solver import NonFiniteIterate, PicardNonConvergence, SolverConfig, WellposednessError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_DIVERGENCE = 4

RUN_MODES = ("classical", "penalized", "bsvi", "prox", "compare")


class ConfigError(ValueError):
    """Config file failed to parse or validate."""


@dataclass(eq=False)
class ProblemConfig:
    """Validated run description; ``raw`` is the parsed document it came from."""

    raw: dict
    horizon: float
    n_steps: int
    bm_dim: int
    dim: int
    tree: object
    xi: np.ndarray
    gen: object
    phi: object
    solver_config: SolverConfig
    mode: str
    epsilon: float
    out_dir: str
    out_format: str


def _need(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing key '{key}' in section '{where}'")
    return section[key]


def _build_terminal(tree, spec: dict) -> np.ndarray:
    kind = _need(spec, "kind", "terminal")
    if kind == "constant":
        return problems.terminal_constant(tree, _need(spec, "c", "terminal"))
    if kind == "linear":
        return problems.terminal_linear(tree, _need(spec, "a", "terminal"),
                                        _need(spec, "b", "terminal"))
    if kind == "clipped_linear":
        return problems.terminal_clipped_linear(
            tree, _need(spec, "a", "terminal"), _need(spec, "b", "terminal"),
            _need(spec, "lo", "terminal"), _need(spec, "hi", "terminal"))
    raise ConfigError(f"unknown terminal kind {kind!r}")


def _build_delay_measure(spec: dict | None):
    if spec is None:
        return generators.Dirac(0.0)
    kind = _need(spec, "kind", "generator.alpha")
    if kind == "dirac":
        return generators.Dirac(float(spec.get("theta", 0.0)))
    if kind == "uniform":
        return generators.UniformPast()
    if kind == "mixture":
        return generators.DiscreteMixture(
            tuple((float(t), float(w)) for t, w in _need(spec, "atoms", "generator.alpha")))
    raise ConfigError(f"unknown delay measure kind {kind!r}")


def _poly_weight(coeffs):
    coeffs = [float(c) for c in coeffs]

    def g(t: float) -> float:
        if t < 0:
            return 0.0
        return sum(c * t ** k for k, c in enumerate(coeffs))

    return g


def _build_generator(spec: dict):
    kind = _need(spec, "kind", "generator")
    if kind == "zero":
        return generators.ZeroGen()
    if kind == "linear":
        return generators.LinearInstant(_need(spec, "a", "generator"),
                                        _need(spec, "b", "generator"))
    if kind == "delayed_z":
        return generators.DelayedZ(float(_need(spec, "kappa", "generator")),
                                   float(_need(spec, "lag", "generator")))
    if kind == "running_integral_z":
        return generators.RunningIntegralZ(float(_need(spec, "kappa", "generator")))
    if kind == "moving_average_z":
        coeffs = _need(spec, "g_poly", "generator")
        g = _poly_weight(coeffs)
        bound = float(_need(spec, "g_bound", "generator"))
        return generators.MovingAverageZ(
            g=g, g_bound=bound, alpha=_build_delay_measure(spec.get("alpha")))
    raise ConfigError(f"unknown generator kind {kind!r}")


def _build_phi(spec: dict):
    kind = _need(spec, "kind", "phi")
    if kind == "zero":
        return convex.Zero()
    if kind == "box":
        return convex.IndicatorBox(_need(spec, "lo", "phi"), _need(spec, "hi", "phi"))
    if kind == "quadratic":
        return convex.Quadratic(float(_need(spec, "c", "phi")))
    if kind == "one_norm":
        return convex.OneNorm(float(_need(spec, "c", "phi")))
    raise ConfigError(f"unknown phi kind {kind!r}")


def parse_config(path, *, overrides: dict | None = None) -> ProblemConfig:
    """Parse and validate a YAML config; ``overrides`` maps CLI flags in."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        pos = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"config parse error{pos}: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a mapping")
    return config_from_dict(doc, overrides=overrides)


def _override(overrides: dict, key: str, fallback):
    value = overrides.get(key)
    return fallback if value is None else value


def config_from_dict(doc: dict, *, overrides: dict | None = None) -> ProblemConfig:
    overrides = overrides or {}
    model = _need(doc, "model", "config")
    horizon = float(_need(model, "horizon", "model"))
    n_steps = int(_need(model, "n_steps", "model"))
    bm_dim = int(model.get("bm_dim", 1))
    dim = int(model.get("dim", 1))
    max_nodes = _override(overrides, "max_nodes", int(model.get("max_nodes", 2 ** 22)))
    try:
        tree = build_tree(n_steps, horizon, bm_dim, max_nodes=max_nodes)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    xi = _build_terminal(tree, _need(doc, "terminal", "config"))
    if xi.shape[1] != dim:
        raise ConfigError(f"terminal dimension {xi.shape[1]} != model dim {dim}")
    gen = _build_generator(_need(doc, "generator", "config"))
    phi = _build_phi(doc.get("phi", {"kind": "zero"}))

    sconf = doc.get("solver", {}) or {}
    beta = _override(overrides, "beta", sconf.get("beta"))
    kwargs = dict(
        beta=float(beta) if beta is not None else None,
        picard_tol=float(sconf.get("picard_tol", 1e-10)),
        picard_max_iters=int(sconf.get("picard_max_iters", 200)),
        hard_gate=bool(overrides.get("hard_gate"))
        or bool(sconf.get("hard_gate", False)),
    )
    if "epsilon_schedule" in sconf:
        kwargs["epsilon_schedule"] = tuple(float(e) for e in sconf["epsilon_schedule"])
    try:
        solver_config = SolverConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    run = doc.get("run", {}) or {}
    mode = run.get("mode", "classical")
    if mode not in RUN_MODES:
        raise ConfigError(f"unknown run mode {mode!r}; pick one of {RUN_MODES}")
    epsilon = float(run.get("epsilon", solver_config.epsilon_schedule[-1]))
    out_dir = _override(overrides, "out_dir", run.get("out_dir", "out"))
    out_format = _override(overrides, "out_format", run.get("format", "json"))
    if out_format not in ("json", "csv"):
        raise ConfigError(f"unknown output format {out_format!r}")
    return ProblemConfig(raw=doc, horizon=horizon, n_steps=n_steps,
                         bm_dim=bm_dim, dim=dim, tree=tree, xi=xi, gen=gen,
                         phi=phi, solver_config=solver_config, mode=mode,
                         epsilon=epsilon, out_dir=out_dir, out_format=out_format)


def _solution_summary(sol, tree) -> dict:
    return {
        "y0": sol.Y.values[0][0].tolist(),
        "z0": sol.Z.values[0][0].tolist(),
        "norm_y_s2": analysis.path_norms(sol.Y, tree).s2,
        "norm_z_h2": analysis.path_norms(sol.Z, tree).h2,
        "norm_u_h2": analysis.path_norms(sol.U, tree).h2,
        "picard": {
            "distances": list(sol.diagnostics.iterate_distances),
            "ratios": list(sol.diagnostics.contraction_ratios),
            "converged": sol.diagnostics.converged,
            "iterations": sol.diagnostics.iterations_used,
        },
    }


def _residual_summary(sol, cfg) -> dict:
    rep = analysis.solution_residuals(sol, cfg.xi, cfg.gen, cfg.phi, cfg.tree)
    return {
        "equation_residual": rep.equation_residual,
        "subdiff_residual": rep.subdiff_residual,
        "phi_integrability": rep.phi_integrability,
    }


def run(config_path, *, out_dir=None, out_format=None, hard_gate=False,
        max_nodes=None, beta=None, write_files=True) -> dict:
    """Execute one config; returns the report dict and (optionally) writes files."""
    cfg = parse_config(config_path, overrides={
        "out_dir": out_dir, "out_format": out_format,
        "hard_gate": hard_gate, "max_nodes": max_nodes, "beta": beta,
    })
    t0 = time.perf_counter()
    beta_used = solver.resolve_beta(cfg.solver_config, cfg.gen)
    gate = solver.check_wellposedness(
        cfg.gen.lipschitz_instant(),
        cfg.gen.lipschitz_delay(cfg.horizon), cfg.horizon, beta_used)
    if cfg.solver_config.hard_gate and not gate.existence_ok:
        raise WellposednessError(
            f"hard gate: K e^(beta T) = {gate.growth:.6g} >= 6 L^2 "
            f"= {6 * gate.L ** 2:.6g}", gate)

    report = {
        "config": cfg.raw,
        "mode": cfg.mode,
        "wellposedness": {
            "L": gate.L, "K": gate.K, "beta": gate.beta, "growth": gate.growth,
            "uniqueness_ok": gate.uniqueness_ok, "existence_ok": gate.existence_ok,
            "uniqueness_margin": gate.uniqueness_margin,
            "existence_margin": gate.existence_margin,
        },
        "schemes": {},
    }

    if cfg.mode == "classical":
        sol = solver.picard_solve(cfg.tree, cfg.xi, cfg.gen, cfg.solver_config)
        report["schemes"]["classical"] = _solution_summary(sol, cfg.tree)
        report["residuals"] = _residual_summary(sol, cfg)
    elif cfg.mode == "penalized":
        sol = solver.solve_penalized(cfg.tree, cfg.xi, cfg.gen, cfg.phi,
                                     cfg.epsilon, cfg.solver_config)
        report["schemes"]["penalized"] = _solution_summary(sol, cfg.tree)
        report["schemes"]["penalized"]["epsilon"] = cfg.epsilon
        report["residuals"] = _residual_summary(sol, cfg)
    elif cfg.mode == "prox":
        sol = solver.prox_step_solve(cfg.tree, cfg.xi, cfg.gen, cfg.phi,
                                     cfg.solver_config)
        report["schemes"]["prox"] = _solution_summary(sol, cfg.tree)
        report["residuals"] = _residual_summary(sol, cfg)
    else:  # bsvi or compare
        res = solver.solve_bsvi(cfg.tree, cfg.xi, cfg.gen, cfg.phi,
                                cfg.solver_config)
        report["schemes"]["penalized_final"] = _solution_summary(res.solution, cfg.tree)
        report["schemes"]["penalized_final"]["epsilon"] = res.per_epsilon[-1][0]
        report["epsilon_table"] = [
            {"epsilon": r.epsilon, "epsilon_next": r.epsilon_next,
             "dy_s2": r.dy_s2, "dz_h2": r.dz_h2, "grad_h2_sq": r.grad_h2_sq,
             "phi_resolvent_h1": r.phi_resolvent_h1}
            for r in res.epsilon_table]
        try:
            fit = analysis.epsilon_rate_fit(res.epsilon_table)
            report["rate_fit"] = {"slope": fit.slope, "intercept": fit.intercept,
                                  "residual": fit.residual, "exact": fit.exact}
        except ValueError as exc:
            report["rate_fit"] = {"error": str(exc)}
        ap = analysis.apriori_audit(res.per_epsilon, cfg.xi, cfg.gen, cfg.tree)
        yo = analysis.yosida_audit(res.per_epsilon, cfg.phi, cfg.xi, cfg.gen, cfg.tree)
        report["audits"] = {
            "apriori": [{"lhs": r.lhs, "rhs_data": r.rhs_data,
                         "empirical_constant": r.empirical_constant,
                         "context": r.context} for r in ap.rows],
            "apriori_uniform_ok": ap.uniform_ok,
            "yosida": [{"lhs": r.lhs, "rhs_data": r.rhs_data,
                        "empirical_constant": r.empirical_constant,
                        "context": r.context}
                       for rows in (yo.grad_rows, yo.value_rows, yo.gap_rows)
                       for r in rows],
            "yosida_uniform_ok": yo.uniform_ok,
        }
        report["residuals"] = _residual_summary(res.solution, cfg)
        if cfg.mode == "compare":
            pr = solver.prox_step_solve(cfg.tree, cfg.xi, cfg.gen, cfg.phi,
                                        cfg.solver_config)
            report["schemes"]["prox"] = _solution_summary(pr, cfg.tree)
            y0p = np.asarray(pr.Y.values[0][0])
            gaps = [float(np.max(np.abs(np.asarray(s.Y.values[0][0]) - y0p)))
                    for _, s in res.per_epsilon]
            report["compare"] = {
                "gap_y0_final": gaps[-1],
                "gap_y0_series": gaps,
                "epsilons": [e for e, _ in res.per_epsilon],
            }

    report["timings"] = {"total_seconds": time.perf_counter() - t0}
    if write_files:
        emit_report(report, cfg.out_dir, cfg.out_format)
    return report


def _strip_timings(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "timings"}


def emit_report(report: dict, out_dir, out_format: str):
    """Write the report: one JSON document, or a CSV bundle with one file per
    table plus a summary of scalar fields (UTF-8, header rows, '.' decimals)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if out_format == "json":
        payload = dict(_strip_timings(report))
        payload["timings"] = report.get("timings", {})
        (out / "report.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")
        return [out / "report.json"]
    written = []

    def table(name: str, rows: list, fields: list):
        path = out / f"{name}.csv"
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields)
            writer.writeheader()
            for row in rows:
                writer.writerow({k: repr(v) if isinstance(v, float) else v
                                 for k, v in row.items()})
        written.append(path)

    table("epsilon_table", report.get("epsilon_table", []),
          ["epsilon", "epsilon_next", "dy_s2", "dz_h2", "grad_h2_sq",
           "phi_resolvent_h1"])
    picard_rows = []
    for scheme, summary in report.get("schemes", {}).items():
        for k, d in enumerate(summary["picard"]["distances"]):
            picard_rows.append({"scheme": scheme, "sweep": k + 1, "distance": d})
    table("picard_distances", picard_rows, ["scheme", "sweep", "distance"])
    audit_rows = []
    for group in ("apriori", "yosida"):
        for r in report.get("audits", {}).get(group, []):
            audit_rows.append({"group": group, **r})
    table("audits", audit_rows,
          ["group", "lhs", "rhs_data", "empirical_constant", "context"])
    summary_rows = [{"key": "mode", "value": report["mode"]}]
    for k, v in report["wellposedness"].items():
        summary_rows.append({"key": f"wellposedness.{k}", "value": v})
    for scheme, summary in report.get("schemes", {}).items():
        summary_rows.append({"key": f"{scheme}.y0", "value": summary["y0"]})
        summary_rows.append({"key": f"{scheme}.converged",
                             "value": summary["picard"]["converged"]})
    for k, v in report.get("residuals", {}).items():
        summary_rows.append({"key": f"residuals.{k}", "value": v})
    if "compare" in report:
        summary_rows.append({"key": "compare.gap_y0_final",
                             "value": report["compare"]["gap_y0_final"]})
    table("summary", summary_rows, ["key", "value"])
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bsvi",
        description="Run a delayed-BSVI experiment from a YAML config.")
    parser.add_argument("config", help="path to the YAML problem config")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--format", choices=("json", "csv"), default=None,
                        help="report format (json document or csv bundle)")
    parser.add_argument("--hard-gate", action="store_true",
                        help="fail instead of warn when the well-posedness gate fails")
    parser.add_argument("--max-nodes", type=int, default=None,
                        help="override the tree node cap")
    parser.add_argument("--beta", type=float, default=None,
                        help="override the exponential weight beta")
    args = parser.parse_args(argv)

    def fail(code: int, kind: str, message: str, extra=None) -> int:
        doc = {"error": kind, "message": message}
        if extra:
            doc.update(extra)
        print(json.dumps(doc, sort_keys=True), file=sys.stderr)
        return code

    try:
        report = run(args.config, out_dir=args.out, out_format=args.format,
                     hard_gate=args.hard_gate, max_nodes=args.max_nodes,
                     beta=args.beta)
    except ConfigError as exc:
        return fail(EXIT_PARSE, "config", str(exc))
    except WellposednessError as exc:
        return fail(EXIT_VALIDATION, "wellposedness_gate", str(exc),
                    {"growth": exc.report.growth})
    except ValueError as exc:
        return fail(EXIT_VALIDATION, "validation", str(exc))
    except NonFiniteIterate as exc:
        return fail(EXIT_DIVERGENCE, "nonfinite", str(exc),
                    {"level": exc.level, "node": exc.node})
    except PicardNonConvergence as exc:
        return fail(EXIT_DIVERGENCE, "divergence" if exc.diverged else "stall",
                    str(exc),
                    {"distances": exc.diagnostics.iterate_distances,
                     "ratios": exc.diagnostics.contraction_ratios})
    for scheme, summary in report["schemes"].items():
        print(f"{scheme}: Y0 = {summary['y0']} (converged="
              f"{summary['picard']['converged']}, "
              f"sweeps={summary['picard']['iterations']})")
    if "compare" in report:
        print(f"compare: |Y0_penalized - Y0_prox| = "
              f"{report['compare']['gap_y0_final']:.3e}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
