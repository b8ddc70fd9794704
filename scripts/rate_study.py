#!/usr/bin/env python3
"""Epsilon-rate study on the indicator-box problem.

Prints the pairwise distance table of the penalization schedule, the fitted
log-log slope, and the gap to the prox-step reference at several resolutions.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # runs without an install

import bsvi  # noqa: E402
from bsvi.problems import box_linear_problem  # noqa: E402


def main() -> int:
    for n_steps in (4, 6, 8):
        tree, xi, gen, phi = box_linear_problem(n_steps)
        result = bsvi.solver.solve_bsvi(tree, xi, gen, phi)
        prox_sol = bsvi.solver.prox_step_solve(tree, xi, gen, phi)
        y0_prox = prox_sol.Y.values[0][0, 0]
        print(f"== n_steps={n_steps} (dt={tree.grid.dt:g}) ==")
        print(f"{'eps':>12} {'|dY|_S2':>12} {'|dZ|_H2':>12} {'gap to prox':>12}")
        for (eps, sol), row in zip(result.per_epsilon, result.epsilon_table):
            gap = abs(sol.Y.values[0][0, 0] - y0_prox)
            print(f"{eps:12.6g} {row.dy_s2:12.4e} {row.dz_h2:12.4e} {gap:12.4e}")
        eps_last, sol_last = result.per_epsilon[-1]
        gap = abs(sol_last.Y.values[0][0, 0] - y0_prox)
        print(f"{eps_last:12.6g} {'':>12} {'':>12} {gap:12.4e}")
        fit = bsvi.analysis.epsilon_rate_fit(result.epsilon_table)
        print(f"rate slope = {fit.slope:.4f} (residual {fit.residual:.3f})\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
