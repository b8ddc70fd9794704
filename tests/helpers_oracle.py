"""Oracles, deliberately coded apart from the solver.

A brute-force fixed point of the discrete delayed system (plain nested loops
over per-level scalar arrays, direct iteration until the sweep map stops
moving), used to cross-check `picard_solve` output on small trees; a
per-node reader of past segments with a per-node drift evaluation, used to
cross-check the level-at-a-time `generators.level_drift`; the penalization
schedule as one `picard_solve` body per epsilon, used to cross-check the batched
schedule of `solver.solve_bsvi`; the Picard loop of one solve with every
sweep computed, used to cross-check the replayed confirmation sweep of a
pass that reads no frozen row; the children's mean and Z projection as one
numpy sum and einsum, used to cross-check `lattice.level_moments`; the
S^2/H^2 norms, the epsilon table and the a priori and Yosida audits one
solution at a time, used to cross-check their one pass over the schedule in
`analysis`, with the origin mass of the drift evaluated level by level and
the penalty terms of the table and the Yosida audit either read from each
solution's U as the pass reads them (bitwise) or recomputed through the prox
(to rounding);
the subdifferential probes deduplicated by a pairwise
np.array_equal scan, used to cross-check `analysis.default_subdiff_probes`;
the worst subgradient slack one probe at a time, used to cross-check the
batched `convex.subgradient_check`; the Picard distance with its weights and
folds applied level by level, used to cross-check the distance tables of
`solver._one_pass` and their fold in `solver._weighted_distance`; and the
residual audit with the drift summed term by term and one subgradient check
per level, used to cross-check `analysis.solution_residuals`; and the prox
of a scalar penalty by bisection on the slope of its objective, used to
cross-check the closed-form prox of a test penalty.
"""

import math
import statistics
from types import SimpleNamespace

import numpy as np

from bsvi import convex
from bsvi import solver
from bsvi.analysis import (AprioriAudit, BoundAudit, EpsilonTableRow, ResidualReport,
                           YosidaAudit, _uniform_ok, default_subdiff_probes)
from bsvi.generators import CustomGenerator, level_drift, past_z_rows
from bsvi.lattice import TIME_SLACK, AdaptedProcess, grid_row, level_moments, row_sq_norms
from bsvi.solver import PicardDiagnostics, Solution, SolverConfig


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


def quadrature(accessor, alpha, horizon, dt):
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


def level_moments_einsum(tree, y_next):
    """`lattice.level_moments` as one sum over the child axis and one einsum
    against the increment patterns."""
    b = tree.branching
    kids = y_next.reshape(y_next.shape[0] // b, b, -1)
    z = np.einsum("jbm,bd->jmd", kids, tree.increment_patterns) / (b * tree.grid.dt)
    return kids.sum(axis=1) / b, z


def picard_every_sweep(tree, xi, gen, config=None, *, phi=convex.Zero(), epsilon=None):
    """`solver.picard_solve` with every sweep computed: one solve whose
    confirmation sweep runs a backward pass and measures its distance even
    when no pass reads a frozen row, level by level against the frozen
    levels, the zero start's included (`weighted_distance_per_level`).  Keeps
    the diagnostics as the solver does; raises AssertionError where the
    solver would raise a Picard failure."""
    config = config or SolverConfig()
    xi = solver._as_leaf_values(tree, xi)
    report = solver._check_gate(tree, xi, gen, config, phi)
    past_rows = past_z_rows(gen, tree)
    beta = solver.resolve_beta(config, gen)
    step = None if epsilon is None else \
        convex.resolvent(phi, np.full((1, 1, 1), epsilon), tree.grid.dt)
    frozen = solver._zero_levels(tree, xi.shape[1], 1)
    diag = PicardDiagnostics()
    for sweep in range(1, config.picard_max_iters + 1):
        ys, zs, us, _ = solver._one_pass(tree, xi, gen, *frozen, phi, step, past_rows)
        dist = float(weighted_distance_per_level(ys, zs, *frozen, tree, beta, 1)[0])
        assert math.isfinite(dist), f"sweep {sweep}: distance {dist}"
        if diag.iterate_distances:
            prev = diag.iterate_distances[-1]
            diag.contraction_ratios.append(dist / prev if prev > 0 else 0.0)
        diag.iterate_distances.append(dist)
        diag.iterations_used = sweep
        if dist <= config.picard_tol:
            diag.converged = True
            y, z, u, past_y, past_z = (AdaptedProcess(tree, levels)
                                       for levels in (ys, zs, us, *frozen))
            return Solution(Y=y, Z=z, U=u, diagnostics=diag, epsilon=epsilon,
                            frozen_past=(past_y, past_z), wellposedness=report)
        frozen = ys, zs
    raise AssertionError(f"no convergence within {config.picard_max_iters} sweeps")


def solve_one_per_epsilon(tree, xi, gen, phi, config=None):
    """`solver.solve_bsvi` as one `picard_solve` body after another, one per
    entry of the schedule, the admission checks made once up front; raises the
    failure of the first entry that fails."""
    config = config or SolverConfig()
    xi = solver._as_leaf_values(tree, xi)
    report = solver._check_gate(tree, xi, gen, config, phi)
    per_eps = [(eps, solver._picard_batch(tree, xi, gen, config, phi, (eps,), report)[0])
               for eps in config.epsilon_schedule]
    table = epsilon_table_one_by_one(per_eps, phi, tree, penalty_terms_from_u)
    return SimpleNamespace(solution=per_eps[-1][1], epsilon_table=table, per_epsilon=per_eps)


def penalty_terms_by_prox(phi, eps, y, u=None):
    """Level means of (|grad phi_eps(Y)|^2, |Y - J_eps Y|^2, phi(J_eps Y)), all
    recomputed through one prox call; ``u`` is not read."""
    j = convex.prox(phi, eps, y)
    gap = float(np.mean(np.sum((y - j) ** 2, axis=-1)))
    return gap / eps ** 2, gap, float(np.mean(np.atleast_1d(phi.value(j))))


def penalty_terms_from_u(phi, eps, y, u):
    """`penalty_terms_by_prox` with the level's U read as the audit pass reads
    it: |U|^2 and eps^2 |U|^2; phi(J_eps Y) still at the prox."""
    u_sq = float(np.mean(np.sum(u ** 2, axis=-1)))
    return u_sq, eps ** 2 * u_sq, penalty_terms_by_prox(phi, eps, y)[2]


def epsilon_table_one_by_one(per_eps, phi, tree, terms=penalty_terms_by_prox):
    """`analysis.epsilon_table` as a loop over consecutive pairs, with a
    difference process per pair and the penalty terms of each level below n
    from ``terms(phi, eps, y, u)``."""
    dt = tree.grid.dt
    table = []
    for (eps_a, sol_a), (eps_b, sol_b) in zip(per_eps, per_eps[1:]):
        dy = math.sqrt(path_norms_one_by_one(sol_a.Y - sol_b.Y, tree)[0])
        dz = math.sqrt(path_norms_one_by_one(sol_a.Z - sol_b.Z, tree)[1])
        levels = [terms(phi, eps_a, y, u) for y, u in zip(sol_a.Y.values, sol_a.U.values)]
        table.append(EpsilonTableRow(
            epsilon=eps_a, epsilon_next=eps_b, dy_s2=dy, dz_h2=dz,
            grad_h2_sq=sum(dt * grad for grad, _, _ in levels),
            phi_resolvent_h1=sum(dt * phi_j for _, _, phi_j in levels)))
    return table


def path_norms_one_by_one(process, tree, beta=0.0):
    """(S^2, H^2) of one process as `analysis.path_norm` defines them: the
    running max repeated down the tree level by level, one np.mean per level."""
    dt, n = tree.grid.dt, tree.grid.n_steps
    values = process.values
    running = None
    for i, arr in enumerate(values):
        mag = math.exp(beta * i * dt) * np.sum(arr.reshape(arr.shape[0], -1) ** 2, axis=1)
        if running is None:
            running = mag
        else:
            running = np.maximum(np.repeat(running, mag.shape[0] // running.shape[0]), mag)
    s2 = float(np.mean(running))
    levels = range(1, n + 1) if len(values) == n + 1 else range(len(values))
    h2 = sum(dt * math.exp(beta * i * dt)
             * float(np.mean(np.sum(values[i].reshape(len(values[i]), -1) ** 2, axis=1)))
             for i in levels)
    return s2, float(h2)


def origin_drift_mass_per_level(gen, tree, m, beta=0.0):
    """`generators.origin_drift_mass` at one beta, the drift evaluated level by
    level: one `node_drift` per level on a one-row level of zeros whose past
    reads zero at every offset, a built-in's past terms included."""
    grid = tree.grid
    zero_y, zero_z = np.zeros((1, m)), np.zeros((1, m, tree.bm_dim))
    return sum(grid.dt * math.exp(beta * i * grid.dt) * float(np.sum(node_drift(
        gen, i * grid.dt, zero_y, zero_z, lambda theta: zero_y, lambda theta: zero_z,
        grid.horizon, grid.dt) ** 2)) for i in range(grid.n_steps))


def apriori_audit_one_by_one(per_epsilon, xi, gen, tree, beta=0.0):
    """`analysis.apriori_audit` as a loop over the schedule, one solution at a time."""
    xi = np.asarray(xi, dtype=float).reshape(len(xi), -1)
    m1 = float(np.mean(np.sum(xi ** 2, axis=1))) + origin_drift_mass_per_level(
        gen, tree, xi.shape[1], beta)
    rows = []
    for eps, sol in per_epsilon:
        lhs = (path_norms_one_by_one(sol.Y, tree, beta)[0]
               + path_norms_one_by_one(sol.Z, tree, beta)[1])
        const = lhs / m1 if m1 > 0 else 0.0
        rows.append(BoundAudit(lhs=lhs, rhs_data=m1, empirical_constant=const,
                               context=f"apriori eps={eps:g}"))
    consts = [r.empirical_constant for r in rows]
    return AprioriAudit(rows=tuple(rows), uniform_ok=_uniform_ok(consts, 2.0),
                        median_constant=float(statistics.median(consts)))


def yosida_audit_one_by_one(per_epsilon, phi, xi, gen, tree, beta=0.0,
                            terms=penalty_terms_by_prox):
    """`analysis.yosida_audit` as a loop over the schedule and its levels, one
    solution at a time, with the penalty terms of each level below n from
    ``terms(phi, eps, y, u)`` and those of level n (xi, which has no U)
    through the prox."""
    dt, n = tree.grid.dt, tree.grid.n_steps
    xi = np.asarray(xi, dtype=float).reshape(len(xi), -1)
    m2 = float(np.mean(np.sum(xi ** 2, axis=1) + np.atleast_1d(phi.value(xi)))) \
        + origin_drift_mass_per_level(gen, tree, xi.shape[1])
    grad_rows, value_rows, gap_rows = [], [], []
    for eps, sol in per_epsilon:
        grad_h2 = phi_sup = phi_int = gap_sup = 0.0
        for i, y in enumerate(sol.Y.values):
            w = math.exp(beta * i * dt)
            if i < n:
                grad, gap, phi_mean = terms(phi, eps, y, sol.U.values[i])
                grad_h2 += dt * w * grad
                phi_int += dt * w * phi_mean
            else:
                _, gap, phi_mean = penalty_terms_by_prox(phi, eps, y)
            gap_sup = max(gap_sup, w * gap)
            phi_sup = max(phi_sup, w * phi_mean)
        denom = m2 if m2 > 0 else 1.0
        grad_rows.append(BoundAudit(grad_h2, m2, grad_h2 / denom,
                                    f"yosida-grad eps={eps:g}"))
        value_rows.append(BoundAudit(phi_sup + phi_int, m2,
                                     (phi_sup + phi_int) / denom,
                                     f"yosida-phi eps={eps:g}"))
        gap_rows.append(BoundAudit(gap_sup, eps * m2, gap_sup / (eps * denom),
                                   f"yosida-gap eps={eps:g}"))
    ok = (_uniform_ok([r.empirical_constant for r in grad_rows], 4.0)
          and all(np.isfinite(r.lhs) for r in value_rows)
          and _uniform_ok([r.empirical_constant for r in gap_rows], 4.0))
    return YosidaAudit(grad_rows=tuple(grad_rows), value_rows=tuple(value_rows),
                       gap_rows=tuple(gap_rows), uniform_ok=ok)


def subdiff_probes_pairwise(phi, xi, cap=48):
    """`analysis.default_subdiff_probes` with the duplicates dropped by a
    pairwise np.array_equal scan, first seen kept."""
    xi = np.asarray(xi, dtype=float).reshape(len(xi), -1)
    probes = [np.zeros(xi.shape[1])]
    lo, hi = getattr(phi, "lo", None), getattr(phi, "hi", None)
    if lo is not None and hi is not None:
        probes += [np.asarray(c, dtype=float) for c in (lo, hi) if np.all(np.isfinite(c))]
    for row in xi:
        probes.append(convex.prox(phi, 1e-9, row))
        if len(probes) >= cap:
            break
    uniq = []
    for p in probes:
        if not any(np.array_equal(p, q) for q in uniq):
            uniq.append(p)
    return uniq


def subgradient_worst_per_probe(spec, y, u, probes):
    """`convex.subgradient_check`'s worst slack, one probe at a time, folded
    with the builtin max (which drops a NaN, so finite data only)."""
    point, grad = np.asarray(y, dtype=float), np.asarray(u, dtype=float)
    phi_y = spec.value(point)
    worst = -np.inf
    for v in probes:
        vv = np.asarray(v, dtype=float)
        phi_v = float(spec.value(vv))
        if np.isfinite(phi_v):
            violation = np.sum(grad * (vv - point), axis=-1) + phi_y - phi_v
            worst = max(worst, float(np.max(violation)))
    return worst


def weighted_distance_per_level(y_new, z_new, y_old, z_old, tree, beta, blocks):
    """`solver._weighted_distance` with each level's weight, mean and fold
    applied as the level is reduced: a running np.maximum of w max|dY| and a
    running sum of w mean|dZ|^2, from zeros; old levels None are the zero
    start, and a level that is its old self (a shared level) is skipped."""
    n, dt = tree.grid.n_steps, tree.grid.dt
    sup = np.zeros(blocks)
    for i, (a, b_) in enumerate(zip(y_new, y_old or [None] * len(y_new))):
        if a is b_:
            continue
        diff = a if b_ is None else a - b_
        mag = np.abs(diff, out=None if b_ is None else diff)
        w = math.exp(0.5 * beta * i * dt)
        np.maximum(sup, w * mag.reshape(len(a) // tree.level_size(i), -1).max(axis=1), out=sup)
    h2_z = np.zeros(blocks)
    for i, (a, b_) in enumerate(zip(z_new, z_old or [None] * n)):
        if a is b_:
            continue
        rows = row_sq_norms(a if b_ is None else a - b_).reshape(len(a) // tree.level_size(i), -1)
        h2_z += dt * math.exp(beta * i * dt) * (rows.sum(axis=1) / rows.shape[1])
    return sup + np.sqrt(h2_z)


def solution_residuals_per_level(solution, xi, gen, phi, tree):
    """`analysis.solution_residuals` level by level: the drift summed term by
    term (no frozen prefix), one prox and one `convex.subgradient_check` per
    level against the probe list, the worst slack folded with np.maximum."""
    dt, n = tree.grid.dt, tree.grid.n_steps
    probes = default_subdiff_probes(phi, xi)
    frozen_y, frozen_z = (p.values for p in solution.frozen_past or (solution.Y, solution.Z))
    past_rows = past_z_rows(gen, tree)
    eq_res, sub_res, phi_mass = 0.0, -np.inf, 0.0
    for i in range(n - 1, -1, -1):
        y_val, u_val = solution.Y.values[i], solution.U.values[i]
        expect, z_here = level_moments(tree, solution.Y.values[i + 1])
        drift = level_drift(gen, tree, i, expect, z_here, frozen_y, frozen_z, past_rows)
        resid = y_val + dt * u_val - expect - dt * drift
        eq_res = float(np.maximum(eq_res, np.max(np.abs(resid))))
        if solution.epsilon is not None:
            point = convex.prox(phi, solution.epsilon, y_val)
            grad = (y_val - point) / solution.epsilon
        else:
            point, grad = y_val, u_val
        sub_res = float(np.maximum(
            sub_res, convex.subgradient_check(phi, point, grad, probes)))
        phi_mass += dt * float(np.sum(phi.value(point))) / tree.level_size(i)
    return ResidualReport(equation_residual=eq_res, subdiff_residual=sub_res,
                          phi_integrability=phi_mass)


def prox_bisection(phi_fn, eps: float, y: float, width: float = 64.0) -> float:
    """argmin_v |y - v|^2/(2 eps) + phi_fn(v) for a scalar convex ``phi_fn``, by
    bisection on the sign of the centered difference of that objective."""
    def slope(v: float) -> float:
        h = 1e-7 * max(1.0, abs(v))
        obj_hi = (y - v - h) ** 2 / (2 * eps) + phi_fn(v + h)
        obj_lo = (y - v + h) ** 2 / (2 * eps) + phi_fn(v - h)
        return obj_hi - obj_lo

    lo, hi = y - width, y + width
    if slope(lo) > 0:
        return lo
    if slope(hi) < 0:
        return hi
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if slope(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
