"""One benchmark repetition, in a fresh process.

Usage: python3 perfbench/worker.py INPUTS.json MODE WORK_DIR

INPUTS.json is written by run.py from the seed.  MODE is ``plain`` (no
tracing), ``trace`` (spans around every layer call) or ``alloc`` (tracemalloc
around each `solve_bsvi` call).  The repetition imports bsvi, sets up its
inputs, runs the workload, checks the outputs and prints one JSON line on
stdout.
"""

import contextlib
import io
import json
import resource
import sys
import time
import warnings
from pathlib import Path

T0 = time.perf_counter()
ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402  (set-up time counts the import)

from bsvi import analysis, cli, generators, problems, solver  # noqa: E402

from spans import Tracer  # noqa: E402

# Acceptance criterion 9 pins these two residual tolerances.
EQUATION_TOL = 1e-12
SUBDIFF_TOL = 1e-8
# Reference comparison: equal up to rounding.
REF_ATOL = 1e-12
REF_RTOL = 1e-10
# Picard effort may change under an exact rewrite of the stopping rule
# (solver.sweeps measures it); every other report field must not.
EFFORT_KEYS = {"distances", "ratios", "iterations"}
# Iterations of the host-speed probe, timed right after set-up and right
# after the run of every repetition (about 0.15 s each at full speed).
CALIBRATION_STEPS = 30000


# ---------------------------------------------------------------------------
# Host-speed probe
# ---------------------------------------------------------------------------

def calibrate() -> float:
    """Seconds taken by a fixed kernel of small numpy calls and interpreter
    work, the same mix the workloads spend their time in.  It calls nothing
    in bsvi, so a change to the program cannot move it; only the speed the
    shared host gives this process can."""
    a = np.arange(12.0).reshape(4, 3) / 7.0
    v = np.ones(3)
    acc = 0.0
    slots = {}
    start = time.perf_counter()
    for i in range(CALIBRATION_STEPS):
        x = a @ v
        acc += float(np.max(np.abs(x))) * 0.5 - i * 1e-9
        slots[i & 63] = acc
        v = v * 0.999999 + 1e-9
    elapsed = time.perf_counter() - start
    if not np.isfinite(acc) or len(slots) != 64:
        raise RuntimeError("calibration kernel went wrong")
    return elapsed


# ---------------------------------------------------------------------------
# Workloads: set-up returns the inputs, run returns what the checks need.
# ---------------------------------------------------------------------------

def setup_cli(inputs):
    cli.parse_config(inputs["config"])  # config parse, tree and terminal build
    return inputs["config"]


def run_cli(config, out_dir):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([config, "--out", str(out_dir), "--format", "json"])
    return code, err.getvalue()


def setup_library(inputs):
    p = inputs["params"]
    tree, _, _, phi = problems.box_linear_problem(inputs["n_steps"])
    xi = problems.terminal_clipped_linear(tree, p["a"], p["b"], -1.0, 1.0)
    gen = generators.linear_scalar(p["drift"], 0.0)
    return tree, xi, gen, phi


def run_library(problem):
    """The library path of scripts/rate_study.py plus both bound audits."""
    tree, xi, gen, phi = problem
    res = solver.solve_bsvi(tree, xi, gen, phi)
    prox = solver.prox_step_solve(tree, xi, gen, phi)
    apriori = analysis.apriori_audit(res.per_epsilon, xi, gen, tree)
    yosida = analysis.yosida_audit(res.per_epsilon, phi, xi, gen, tree)
    fit = analysis.epsilon_rate_fit(res.epsilon_table)
    return res, prox, apriori, yosida, fit


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def compare(ref, got, where="") -> list:
    """Differences of ``got`` from ``ref`` beyond rounding; keys only in
    ``got`` are ignored, Picard effort fields are skipped."""
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [f"{where}: expected a mapping"]
        diffs = []
        for key, value in ref.items():
            if key in EFFORT_KEYS:
                continue
            if key not in got:
                diffs.append(f"{where}.{key}: missing")
            else:
                diffs += compare(value, got[key], f"{where}.{key}")
        return diffs
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{where}: expected a list of {len(ref)}"]
        return [d for i, (r, g) in enumerate(zip(ref, got))
                for d in compare(r, g, f"{where}[{i}]")]
    if isinstance(ref, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        if abs(got - ref) <= REF_ATOL + REF_RTOL * abs(ref):
            return []
        return [f"{where}: {got!r} != reference {ref!r}"]
    return [] if got == ref else [f"{where}: {got!r} != reference {ref!r}"]


def check_cli(code, err, out_dir):
    if code != 0:
        return [f"exit code {code}: {err.strip()}"], {}
    report = json.loads((Path(out_dir) / "report.json").read_text())
    problems_found = []
    schemes = report["schemes"]
    for name, summary in schemes.items():
        if not summary["picard"]["converged"]:
            problems_found.append(f"{name} did not converge")
    res = report["residuals"]
    if not res["equation_residual"] <= EQUATION_TOL:
        problems_found.append(f"equation residual {res['equation_residual']}")
    if not res["subdiff_residual"] <= SUBDIFF_TOL:
        problems_found.append(f"subdifferential residual {res['subdiff_residual']}")
    if "prox" in schemes:
        phi = report["config"]["phi"]
        if not all(phi["lo"] <= y <= phi["hi"] for y in schemes["prox"]["y0"]):
            problems_found.append(f"prox Y0 {schemes['prox']['y0']} outside the box")
    output = {k: v for k, v in report.items() if k != "timings"}
    work = {name: s["picard"]["iterations"] for name, s in schemes.items()}
    return problems_found, {"output": output, "final_sweeps": work}


def _equation_residual(sol, gen, tree) -> float:
    """max |Y_i + dt U_i - E_i - dt F(E_i, Z_i)| for an undelayed linear drift."""
    dt, b = tree.grid.dt, tree.branching
    inc = tree.increment_patterns
    worst = 0.0
    for i in range(tree.grid.n_steps):
        y, u = sol.Y.values[i], sol.U.values[i]
        kids = sol.Y.values[i + 1].reshape(len(y), b, -1)
        expect = kids.mean(axis=1)
        z = np.einsum("jbm,bd->jmd", kids, inc) / (b * dt)
        drift = expect @ gen.a_y.T + np.einsum("kml,jml->jk", gen.b_z, z)
        worst = max(worst, float(np.max(np.abs(y + dt * u - expect - dt * drift))))
    return worst


def _subdiff_residual(sol, phi, probes) -> float:
    """Worst probe violation of (J_eps(Y), grad phi_eps(Y)) over all nodes."""
    eps = sol.epsilon
    worst = -np.inf
    for y in sol.Y.values[:-1]:
        point = phi.prox(eps, y)
        grad = (y - point) / eps
        phi_point = phi.value(point)
        for v in probes:
            phi_v = float(phi.value(v))
            if np.isfinite(phi_v):
                viol = np.sum(grad * (v - point), axis=1) + phi_point - phi_v
                worst = max(worst, float(np.max(viol)))
    return worst


def check_library(problem, result):
    tree, xi, gen, phi = problem
    res, prox, apriori, yosida, fit = result
    found = []
    solves = [s for _, s in res.per_epsilon] + [prox]
    if not all(s.diagnostics.converged for s in solves):
        found.append("a solve did not converge")
    eq = _equation_residual(res.solution, gen, tree)
    if not eq <= EQUATION_TOL:
        found.append(f"equation residual {eq}")
    sub = _subdiff_residual(res.solution, phi,
                            analysis.default_subdiff_probes(phi, xi))
    if not sub <= SUBDIFF_TOL:
        found.append(f"subdifferential residual {sub}")
    if not all(np.all((y >= phi.lo) & (y <= phi.hi)) for y in prox.Y.values):
        found.append("prox-scheme Y leaves the box")
    output = {
        "y0_penalized": res.solution.Y.values[0][0].tolist(),
        "y0_prox": prox.Y.values[0][0].tolist(),
        "epsilon_table": [vars(r) for r in res.epsilon_table],
        "apriori_constants": [r.empirical_constant for r in apriori.rows],
        "apriori_uniform_ok": bool(apriori.uniform_ok),
        "yosida_constants": [r.empirical_constant for rows in (
            yosida.grad_rows, yosida.value_rows, yosida.gap_rows) for r in rows],
        "yosida_uniform_ok": bool(yosida.uniform_ok),
        "rate_fit": {"slope": fit.slope, "intercept": fit.intercept,
                     "residual": fit.residual, "exact": fit.exact},
    }
    level_bytes = sum(a.nbytes for s in solves for proc in (
        s.Y.values, s.Z.values, s.U.values,
        *(p.values for p in s.frozen_past or ())) for a in proc)
    work = {
        "sweeps_per_solve": [s.diagnostics.iterations_used for s in solves],
        "computed_bytes": {
            "leaf_array": int(res.solution.Y.values[-1].nbytes),
            "retained_level_arrays": int(level_bytes),
        },
    }
    return found, {"output": output, **work}


# ---------------------------------------------------------------------------

def repetition(inputs, mode, work_dir):
    library = inputs["kind"] == "library"
    tracer = Tracer(alloc=mode == "alloc") if mode != "plain" else None
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    out_dir = Path(work_dir) / "out"
    if tracer:
        tracer.install()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with span("bench.setup"):
                prepared = (setup_library if library else setup_cli)(inputs)
            setup_s = time.perf_counter() - T0
            calib_before = calibrate()
            start = time.perf_counter()
            with span("bench.run"):
                result = (run_library(prepared) if library
                          else run_cli(prepared, out_dir))
            wall_s = time.perf_counter() - start
            calib_after = calibrate()
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        if tracer:
            tracer.uninstall()
    if library:
        found, record = check_library(prepared, result)
    else:
        found, record = check_cli(*result, out_dir)
    reference = inputs.get("reference")
    if reference:
        ref = json.loads(Path(reference).read_text())
        found += compare(ref, record.get("output", {}), "output")[:5]
    if inputs.get("output_out"):
        Path(inputs["output_out"]).write_text(
            json.dumps(record["output"], indent=1, sort_keys=True) + "\n")
    record.pop("output", None)
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "calib_s": [calib_before, calib_after],
        "peak_mb": peak_mb,
        "problems": found,
        "warnings": len(caught),
        "numpy": np.__version__,
        **record,
    }
    if tracer:
        out["layers"] = tracer.metrics()
        out["sweeps_per_solve"] = tracer.sweeps_per_solve
        out["leader"] = tracer.leader("bench.run")
        spans_path = inputs.get("spans_out")
        if spans_path:
            tracer.write(spans_path)
    return out


def main() -> int:
    inputs_path, mode, work_dir = sys.argv[1:4]
    inputs = json.loads(Path(inputs_path).read_text())
    print(json.dumps(repetition(inputs, mode, work_dir)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
