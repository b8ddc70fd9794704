"""Oracles, deliberately coded apart from the solver.

A brute-force fixed point of the discrete delayed system (plain nested loops
over per-level scalar arrays, direct iteration until the sweep map stops
moving), used to cross-check `picard_solve` output on small trees; a
per-node reader of past segments with a per-node drift evaluation, used to
cross-check the level-at-a-time `generators.level_drift`; and the
penalization schedule as one `picard_solve` per epsilon, used to cross-check
the batched schedule of `solver.solve_bsvi`.
"""

import math

import numpy as np

from bsvi import convex
from bsvi.analysis import path_norms
from bsvi.generators import CustomGenerator
from bsvi.lattice import TIME_SLACK, grid_row
from bsvi.solver import BsviResult, EpsilonTableRow, SolverConfig, picard_solve


def history_value(process, level, node, query_time, kind):
    """Past value of an adapted process seen from node (level, node): the
    ancestor's value on grid row floor(query_time / dt) (left-constant), the
    root value ("y") or zero ("z") before time 0; future times raise."""
    dt = process.tree.grid.dt
    if query_time > level * dt + TIME_SLACK * dt:
        raise ValueError(f"query_time {query_time} is after node time {level * dt}; "
                         "future lookups would break adaptedness")
    k = grid_row(query_time, dt, level)
    if k is None:
        root = process.values[0][0]
        return root if kind == "y" else np.zeros_like(root)
    return process.values[k][node >> (process.tree.bm_dim * (level - k))]


def node_accessors(y_process, z_process, level, node, current_y=None, current_z=None):
    """Past-segment accessors theta -> value at node (level, node); offsets
    theta >= -slack read the current pair when given."""
    t = level * y_process.tree.grid.dt
    slack = TIME_SLACK * y_process.tree.grid.dt

    def reader(process, current, kind):
        def read(theta):
            if theta >= -slack and current is not None:
                return current
            return history_value(process, level, node, t + theta, kind)
        return read

    return reader(y_process, current_y, "y"), reader(z_process, current_z, "z")


def node_drift(gen, t, y, z, past_y, past_z, horizon, dt):
    """The drift at one node: the callback on node arrays for a custom drift,
    ``instant(y, z) + sum c * past_z(theta)`` for a built-in."""
    if isinstance(gen, CustomGenerator):
        return np.asarray(gen.fn(t, y, z, past_y, past_z), dtype=float)
    return sum((c * past_z(theta)[..., 0] for theta, c in gen.past_z_terms(t, horizon, dt)),
               gen.instant(y, z))


def quadrature(accessor, alpha, horizon=None, dt=None):
    """int accessor(theta) alpha(dtheta) as the weighted sum over its atoms."""
    return sum(c * np.asarray(accessor(theta), dtype=float)
               for theta, c in alpha.discretize(horizon, dt))


def oracle_fixed_point(tree, xi, drift_fn, penalty=None, sweeps=80):
    """Iterate the discrete system to machine precision.

    drift_fn(i, expect, z_now, old_y, old_z, node) mirrors the generator with
    past reads taken from the previous sweep's arrays and present reads from
    the current predictor pair; ``penalty`` is (phi, eps) applied through the
    shifted prox (implicit penalty step).
    """
    n = tree.grid.n_steps
    dt = tree.grid.dt
    s = math.sqrt(dt)
    y = [np.zeros(tree.level_size(i)) for i in range(n + 1)]
    z = [np.zeros(tree.level_size(i)) for i in range(n)]
    for _ in range(sweeps):
        new_y = [None] * (n + 1)
        new_z = [None] * n
        new_y[n] = xi.ravel().copy()
        for i in range(n - 1, -1, -1):
            ny = np.empty(tree.level_size(i))
            nz = np.empty(tree.level_size(i))
            for j in range(tree.level_size(i)):
                up, dn = new_y[i + 1][2 * j], new_y[i + 1][2 * j + 1]
                expect = 0.5 * (up + dn)
                z_now = (up * s - dn * s) / (2 * dt)
                drift = drift_fn(i, expect, z_now, y, z, j)
                target = expect + dt * drift
                if penalty is None:
                    ny[j] = target
                else:
                    phi, eps = penalty
                    j_pt = float(convex.prox(phi, eps + dt, [target])[0])
                    u = (target - j_pt) / (eps + dt)
                    ny[j] = target - dt * u
                nz[j] = z_now
            new_y[i] = ny
            new_z[i] = nz
        moved = max(float(np.max(np.abs(a - b))) for a, b in zip(new_y, y))
        y, z = new_y, new_z
        if moved == 0.0:
            break
    return y, z


def assert_solution_matches_oracle(tree, xi, sol, drift_fn, penalty=None,
                                   tol=1e-12):
    y, z = oracle_fixed_point(tree, xi, drift_fn, penalty)
    for i in range(tree.grid.n_steps + 1):
        assert np.allclose(sol.Y.values[i][:, 0], y[i], atol=tol)
    for i in range(tree.grid.n_steps):
        assert np.allclose(sol.Z.values[i][:, 0, 0], z[i], atol=tol)


def solve_one_per_epsilon(tree, xi, gen, phi, config=None):
    """`solver.solve_bsvi` as one `picard_solve` after another, one per entry
    of the schedule, the admission checks made by the first; raises the
    failure of the first entry that fails."""
    config = config or SolverConfig()
    dt = tree.grid.dt
    per_eps, report = [], None
    for eps in config.epsilon_schedule:
        sol = picard_solve(tree, xi, gen, config, phi=phi, epsilon=eps,
                           wellposedness=report)
        report = sol.wellposedness
        per_eps.append((eps, sol))
    table = []
    for (eps_a, sol_a), (eps_b, sol_b) in zip(per_eps, per_eps[1:]):
        dy = math.sqrt(path_norms(sol_a.Y - sol_b.Y, tree).s2)
        dz = math.sqrt(path_norms(sol_a.Z - sol_b.Z, tree).h2)
        grad_sq = sum(dt * float(np.mean(np.sum(
            convex.yosida_grad(phi, eps_a, y) ** 2, axis=-1)))
            for y in sol_a.Y.values[:-1])
        phi_res = sum(dt * float(np.mean(np.atleast_1d(
            phi.value(convex.prox(phi, eps_a, y)))))
            for y in sol_a.Y.values[:-1])
        table.append(EpsilonTableRow(
            epsilon=eps_a, epsilon_next=eps_b, dy_s2=dy, dz_h2=dz,
            grad_h2_sq=grad_sq, phi_resolvent_h1=phi_res))
    return BsviResult(solution=per_eps[-1][1], epsilon_table=table,
                      per_epsilon=per_eps)
