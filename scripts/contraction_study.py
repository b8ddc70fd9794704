#!/usr/bin/env python3
"""Sweep the delay constant K across the well-posedness gate and watch the
Picard diagnostics: geometric decay inside the gate, divergence detection
outside (if it triggers at desk scale at all; the gate is sufficient, not
necessary)."""

import math
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # runs without an install

import bsvi  # noqa: E402
from bsvi import generators  # noqa: E402
from bsvi.problems import terminal_linear  # noqa: E402


def main() -> int:
    L, beta, horizon = 1.0, 25.0, 0.05
    tree = bsvi.lattice.build_tree(4, horizon)
    lag = 2 * tree.grid.dt
    xi = terminal_linear(tree, 0.2, 1.0)
    print(f"{'K':>10} {'K e^bT':>10} {'uniq':>6} {'exist':>6} "
          f"{'sweeps':>7} {'max ratio':>10}")
    for k_delay in (0.5, 1.0, 8.0 * math.exp(-beta * horizon) * L ** 2, 40.0):
        kappa = math.sqrt(k_delay)

        def drift(t, y, z, past_y, past_z, kappa=kappa):
            return -y + kappa * past_z(-lag)[..., 0]

        gen = generators.CustomGenerator(
            fn=drift, declared_instant=L, declared_delay=k_delay,
            alpha=generators.Dirac(-lag))
        report = bsvi.solver.check_wellposedness(L, k_delay, horizon, beta)
        config = bsvi.solver.SolverConfig(beta=beta)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                sol = bsvi.solver.picard_solve(tree, xi, gen, config)
                sweeps = sol.diagnostics.iterations_used
                ratios = sol.diagnostics.contraction_ratios
                worst = max(ratios) if ratios else float("nan")
                print(f"{k_delay:10.4f} {report.growth:10.4f} "
                      f"{str(report.uniqueness_ok):>6} {str(report.existence_ok):>6} "
                      f"{sweeps:7d} {worst:10.3e}")
            except bsvi.solver.PicardNonConvergence as exc:
                kind = "diverged" if exc.diverged else "stalled"
                print(f"{k_delay:10.4f} {report.growth:10.4f} "
                      f"{str(report.uniqueness_ok):>6} {str(report.existence_ok):>6} "
                      f"{kind:>7} {max(exc.diagnostics.contraction_ratios):10.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
