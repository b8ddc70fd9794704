"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
tolerance is pinned here, nothing is deferred to later calibration.
"""

import math
import time

import numpy as np
import pytest

import bsvi
from bsvi import convex, generators
from bsvi.analysis import (
    apriori_audit,
    epsilon_rate_fit,
    solution_residuals,
    stability_audit,
    yosida_audit,
)
from bsvi.problems import (
    box_linear_problem,
    delayed_box_problem,
    quadratic_problem,
    terminal_linear,
)
from bsvi.solver import SolverConfig, picard_solve, prox_step_solve, solve_bsvi
from helpers_oracle import assert_solution_matches_oracle
from test_convex import assert_yosida_properties, builtin_specs

pytestmark = pytest.mark.filterwarnings("ignore:well-posedness gate failed")


def report(number: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {number}: {detail}")
    assert ok, f"acceptance criterion {number} failed: {detail}"


def test_criterion_1_yosida_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(314)
    count = 0
    for spec in builtin_specs():
        m = spec.m or 2
        for _ in range(1000):
            y = rng.uniform(-10, 10, size=m)
            ybar = rng.uniform(-10, 10, size=m)
            eps, delta = rng.uniform(1e-4, 1.0, size=2)
            assert_yosida_properties(spec, y, ybar, eps, delta)
            count += 1
    elapsed = time.perf_counter() - t0
    report(1, elapsed < 5.0,
           f"{count} samples over {len(builtin_specs())} penalties, "
           f"slack tol 1e-8, {elapsed:.2f}s (< 5s)")


def test_criterion_2_classical_reduction():
    t0 = time.perf_counter()
    tree = bsvi.build_tree(10, 1.0, 1)
    a, b = 0.3, 1.7
    xi = terminal_linear(tree, a, b)
    sol = picard_solve(tree, xi, generators.ZeroGen(), phi=convex.Zero(), epsilon=0.5)
    w = tree.path_sums()
    worst = 0.0
    for i in range(11):
        worst = max(worst, float(np.max(np.abs(sol.Y.values[i] - (a + b * w.values[i])))))
    for i in range(10):
        worst = max(worst, float(np.max(np.abs(sol.Z.values[i] - b))))
        worst = max(worst, float(np.max(np.abs(sol.U.values[i]))))
    elapsed = time.perf_counter() - t0
    report(2, worst <= 1e-12 and elapsed < 1.0,
           f"max deviation {worst:.2e} (tol 1e-12), {elapsed:.2f}s (< 1s)")


def test_criterion_3_delay_reduction():
    t0 = time.perf_counter()
    tree = bsvi.build_tree(6, 0.75, 1)
    xi = terminal_linear(tree, -0.2, 1.4)
    base = picard_solve(tree, xi, generators.ZeroGen())
    lagged = picard_solve(tree, xi, generators.DelayedZ(kappa=5.0, lag=0.75))
    identical = all(
        np.array_equal(a, b) for a, b in zip(base.Y.values, lagged.Y.values)
    ) and all(
        np.array_equal(a, b) for a, b in zip(base.Z.values, lagged.Z.values))
    elapsed = time.perf_counter() - t0
    report(3, identical and elapsed < 1.0,
           f"lag >= horizon matches the no-drift run bit-exactly, "
           f"{elapsed:.2f}s (< 1s)")


def test_criterion_4_fixed_point_oracle():
    tree = bsvi.build_tree(2, 0.5, 1)
    dt = tree.grid.dt
    tol = SolverConfig(picard_tol=1e-14)
    checked = []

    xi = terminal_linear(tree, 0.1, 1.0)
    sol = picard_solve(tree, xi, generators.DelayedZ(kappa=0.4, lag=dt), tol)
    assert_solution_matches_oracle(
        tree, xi, sol,
        lambda i, e, zn, oy, oz, j: 0.4 * oz[i - 1][j >> 1] if i >= 1 else 0.0)
    checked.append("DelayedZ")

    g = lambda t: 0.5 + t
    xi2 = terminal_linear(tree, 0.0, 2.0)
    sol = picard_solve(
        tree, xi2,
        generators.MovingAverageZ(g=g, g_bound=1.0, alpha=generators.Dirac(-dt)),
        tol)
    assert_solution_matches_oracle(
        tree, xi2, sol,
        lambda i, e, zn, oy, oz, j:
            g(i * dt - dt) * oz[i - 1][j >> 1] if i * dt - dt >= 0 else 0.0)
    checked.append("MovingAverageZ/Dirac")

    alpha = generators.DiscreteMixture(((-dt, 0.4), (0.0, 0.6)))
    xi3 = terminal_linear(tree, -0.2, 1.0)
    sol = picard_solve(
        tree, xi3,
        generators.MovingAverageZ(g=lambda t: 1.0, g_bound=1.0, alpha=alpha),
        tol)
    assert_solution_matches_oracle(
        tree, xi3, sol,
        lambda i, e, zn, oy, oz, j:
            (0.4 * oz[i - 1][j >> 1] if i >= 1 else 0.0) + 0.6 * zn)
    checked.append("MovingAverageZ/mixture")

    def running(i, e, zn, oy, oz, j):
        if i == 0:
            return 0.0
        samples = [oz[k][j >> (i - k)] for k in range(i)] + [zn]
        return 0.7 * dt * (0.5 * samples[0] + sum(samples[1:-1]) + 0.5 * samples[-1])

    xi4 = terminal_linear(tree, 0.0, 1.0)
    sol = picard_solve(tree, xi4, generators.RunningIntegralZ(kappa=0.7), tol)
    assert_solution_matches_oracle(tree, xi4, sol, running)
    checked.append("RunningIntegralZ")

    phi = convex.Quadratic(2.0)
    xi5 = terminal_linear(tree, 0.5, 1.0)
    sol = picard_solve(tree, xi5, generators.DelayedZ(kappa=0.3, lag=dt), tol,
                       phi=phi, epsilon=0.2)
    assert_solution_matches_oracle(
        tree, xi5, sol,
        lambda i, e, zn, oy, oz, j: 0.3 * oz[i - 1][j >> 1] if i >= 1 else 0.0,
        penalty=(phi, 0.2))
    checked.append("DelayedZ+Quadratic")

    report(4, True, f"direct-iteration oracle matches to 1e-12 on 4 leaves "
                    f"for {', '.join(checked)}")


def test_criterion_5_contraction_gate():
    t0 = time.perf_counter()
    L, beta, horizon = 1.0, 25.0, 0.05
    tree = bsvi.build_tree(4, horizon)
    lag = 2 * tree.grid.dt
    xi = terminal_linear(tree, 0.2, 1.0)
    outcomes = []
    for k_delay in (0.5, 1.0, 8.0 * math.exp(-beta * horizon) * L ** 2):
        kappa = math.sqrt(k_delay)

        def drift(t, y, z, past_y, past_z, kappa=kappa):
            return -y + kappa * past_z(-lag)[..., 0]

        gen = generators.CustomGenerator(
            fn=drift, declared_instant=L, declared_delay=k_delay,
            alpha=generators.Dirac(-lag))
        gate = bsvi.check_wellposedness(L, k_delay, horizon, beta)
        try:
            sol = picard_solve(tree, xi, gen, SolverConfig(beta=beta))
            ratios = sol.diagnostics.contraction_ratios
            geometric = all(r < 1.0 for r in ratios) and ratios[-1] <= 1 - 1e-3
            if gate.uniqueness_ok:
                assert geometric and sol.diagnostics.converged
            outcomes.append(f"K={k_delay:.3g}:{'uniq' if gate.uniqueness_ok else 'attempt'}"
                            f"->converged(max ratio {max(ratios):.2e})")
        except bsvi.PicardNonConvergence as exc:
            assert not gate.uniqueness_ok
            assert exc.diverged
            outcomes.append(f"K={k_delay:.3g}:diagnosed divergence")
    elapsed = time.perf_counter() - t0
    report(5, elapsed < 10.0, "; ".join(outcomes) + f"; {elapsed:.2f}s (< 10s)")


def test_criterion_6_epsilon_rate():
    t0 = time.perf_counter()
    tree, xi, gen, phi = box_linear_problem(4)
    res = solve_bsvi(tree, xi, gen, phi)
    fit = epsilon_rate_fit(res.epsilon_table)
    elapsed = time.perf_counter() - t0
    ok = fit.slope is not None and 0.4 <= fit.slope <= 1.1 and elapsed < 30.0
    report(6, ok, f"log-log slope {fit.slope:.3f} in [0.4, 1.1], "
                  f"{elapsed:.2f}s (< 30s)")


def test_criterion_7_scheme_cross_validation():
    t0 = time.perf_counter()
    details = []
    ok = True
    for n_steps in (4, 6, 8):
        tree, xi, gen, phi = box_linear_problem(n_steps)
        prox_sol = prox_step_solve(tree, xi, gen, phi)
        res = solve_bsvi(tree, xi, gen, phi)
        y0_prox = prox_sol.Y.values[0][0, 0]
        gaps = [abs(s.Y.values[0][0, 0] - y0_prox) for _, s in res.per_epsilon]
        within = gaps[-1] <= 5 * tree.grid.dt
        monotone = all(b <= a + 1e-15 for a, b in zip(gaps[-4:], gaps[-3:]))
        ok = ok and within and monotone
        details.append(f"n={n_steps}: gap {gaps[-1]:.2e} <= {5 * tree.grid.dt:.3g}, "
                       f"monotone={monotone}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    report(7, ok, "; ".join(details) + f"; {elapsed:.2f}s (< 60s)")


def test_criterion_8_uniform_bounds():
    t0 = time.perf_counter()
    details = []
    ok = True
    for name, builder in (("box_linear", box_linear_problem),
                          ("quadratic", quadratic_problem),
                          ("delayed_box", delayed_box_problem)):
        tree, xi, gen, phi = builder()
        res = solve_bsvi(tree, xi, gen, phi)
        ap = apriori_audit(res.per_epsilon, xi, gen, tree)
        yo = yosida_audit(res.per_epsilon, phi, xi, gen, tree)
        ok = ok and ap.uniform_ok and yo.uniform_ok
        details.append(f"{name}: apriori(2x)={ap.uniform_ok} yosida(4x)={yo.uniform_ok}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    report(8, ok, "; ".join(details) + f"; {elapsed:.2f}s (< 60s)")


def test_criterion_9_solution_residuals():
    runs = []
    tree, xi, gen, phi = box_linear_problem(4)
    runs.append(("box penalized", picard_solve(tree, xi, gen, phi=phi, epsilon=2.0 ** -10),
                 xi, gen, phi, tree))
    runs.append(("box prox", prox_step_solve(tree, xi, gen, phi),
                 xi, gen, phi, tree))
    tree, xi, gen, phi = quadratic_problem(4)
    runs.append(("quadratic penalized", picard_solve(tree, xi, gen, phi=phi, epsilon=0.25),
                 xi, gen, phi, tree))
    tree, xi, gen, phi = delayed_box_problem()
    runs.append(("delayed penalized", picard_solve(tree, xi, gen, phi=phi, epsilon=2.0 ** -8),
                 xi, gen, phi, tree))
    tree2 = bsvi.build_tree(5, 1.0, 1)
    xi2 = terminal_linear(tree2, 0.1, 1.2)
    gen2 = generators.linear_scalar(0.4, -0.3)
    runs.append(("classical", picard_solve(tree2, xi2, gen2),
                 xi2, gen2, convex.Zero(), tree2))
    worst_eq, worst_sub = 0.0, 0.0
    for name, sol, xi_r, gen_r, phi_r, tree_r in runs:
        rep = solution_residuals(sol, xi_r, gen_r, phi_r, tree_r)
        worst_eq = max(worst_eq, rep.equation_residual)
        worst_sub = max(worst_sub, rep.subdiff_residual)
        assert np.isfinite(rep.phi_integrability)
    ok = worst_eq <= 1e-12 and worst_sub <= 1e-8
    report(9, ok, f"{len(runs)} converged runs: equation residual "
                  f"{worst_eq:.2e} (tol 1e-12), subdifferential residual "
                  f"{worst_sub:.2e} (tol 1e-8)")


def test_criterion_10_stability():
    # hand-computed case: terminal shift by delta under the zero generator
    # moves Y by exactly delta, so the constant is e^{beta T}
    tree = bsvi.build_tree(3, 0.75, 1)
    gen = generators.ZeroGen()
    xi = terminal_linear(tree, 0.0, 1.0)
    delta = 0.41
    worst = 0.0
    for beta in (0.0, 0.8):
        sol_a = picard_solve(tree, xi, gen)
        sol_b = picard_solve(tree, xi + delta, gen)
        audit = stability_audit(sol_a, sol_b, xi, xi + delta, gen, gen, tree, beta)
        worst = max(worst, abs(audit.empirical_constant
                               - math.exp(beta * tree.grid.horizon)))
    hand_ok = worst <= 1e-10

    # random-perturbation constants stay within 2x under dt halving
    consts = []
    for n_steps in (2, 4):
        tr = bsvi.build_tree(n_steps, 0.1, 1)
        lag = 0.05

        def drift(t, y, z, past_y, past_z):
            return -y + 0.3 * past_z(-lag)[..., 0]

        gen_d = generators.CustomGenerator(fn=drift, declared_instant=1.0,
                                           declared_delay=0.09,
                                           alpha=generators.Dirac(-lag))
        phi = convex.Quadratic(1.0)
        w_T = tr.path_sums().values[-1]
        xi_a = 0.2 + 0.5 * w_T
        xi_b = xi_a + 0.05 * np.sin(3.0 * w_T)
        config = SolverConfig(picard_tol=1e-12)
        sol_a = picard_solve(tr, xi_a, gen_d, config, phi=phi, epsilon=0.25)
        sol_b = picard_solve(tr, xi_b, gen_d, config, phi=phi, epsilon=0.25)
        consts.append(stability_audit(sol_a, sol_b, xi_a, xi_b, gen_d, gen_d,
                                      tr).empirical_constant)
    halving_ok = consts[1] <= 2 * consts[0] and consts[0] <= 2 * consts[1]
    report(10, hand_ok and halving_ok,
           f"martingale-shift constant off by {worst:.2e} (tol 1e-10); "
           f"dt-halving constants {consts[0]:.4f} -> {consts[1]:.4f} (within 2x)")
