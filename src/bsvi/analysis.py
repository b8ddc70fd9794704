"""Numerical audits of the solver's quantitative estimates.

The estimates only promise bounds with some finite constant independent of
the penalty level, so the audits test boundedness and uniformity of lhs/rhs
ratios across the epsilon schedule, not specific values.  Uniformity verdicts
are one-sided (every constant at most factor x median): the audited
inequalities are upper bounds, so a constant falling away below the median is
slack, not a violation.

Everything here is pure over immutable solutions; drifts are evaluated one
level at a time through `generators.level_drift`, with the past-Z rows
resolved once per audit call.  The epsilon table and the a priori and Yosida
audits sweep the schedule as one batch: level i of its E solutions is stacked
into (E, B^i) blocks, each eps an (E, 1, 1) column, in slices of at most one
tree's leaf level (`_runs`), and pathwise quantities are per-block reductions.
"""

import math
import statistics
from dataclasses import dataclass

import numpy as np

from . import convex
from .convex import ConvexFunction, Zero, subgradient_check
from .generators import GeneratorSpec, level_drift, origin_drift_mass, past_z_rows
from .lattice import AdaptedProcess, ScenarioTree, level_moments, row_sq_norms


@dataclass(frozen=True)
class NormReport:
    """S^2 and H^2 statistics: E[sup_t e^{beta t}|.|^2] and E int e^{beta s}|.|^2 ds."""

    s2: float
    h2: float
    beta: float


@dataclass(frozen=True)
class BoundAudit:
    lhs: float
    rhs_data: float
    empirical_constant: float
    context: str


def _runs(level, blocks: range, i: int, tree: ScenarioTree):
    """Level i of the processes ``blocks`` in runs (s, rows), rows stacking
    level(e, i) of the blocks e in slice s.  A run holds max(1, B^n // B^i)
    blocks, so no stack has more rows than one tree's leaf level."""
    run = max(1, tree.level_size(tree.grid.n_steps) // tree.level_size(i))
    for lo in blocks[::run]:
        s = slice(lo, min(lo + run, blocks.stop))
        yield s, level(lo, i) if s.stop - lo == 1 else np.concatenate(
            [level(e, i) for e in range(s.start, s.stop)])


def _block_norms(level, blocks: int, span: int, tree: ScenarioTree, beta: float, stat: str):
    """Per-block S^2 (``stat`` "s2") or H^2 ("h2") of ``blocks`` processes on levels
    0..span-1, block e's level i being level(e, i) (see `path_norms`)."""
    dt, n, out = tree.grid.dt, tree.grid.n_steps, np.zeros(blocks)
    if stat == "h2":
        for i in range(1, n + 1) if span == n + 1 else range(span):
            for s, rows in _runs(level, range(blocks), i, tree):
                sq = row_sq_norms(rows).reshape(-1, tree.level_size(i))
                out[s] += dt * math.exp(beta * i * dt) * sq.mean(axis=1)
        return out

    def sweep(i: int, run: range, parent):
        # depth first: one run's running max per level (``parent`` at i - 1) is alive
        for s, rows in _runs(level, run, i, tree):
            mag = (math.exp(beta * i * dt) * row_sq_norms(rows)).reshape(-1, tree.level_size(i))
            del rows
            if i:
                kids = mag.reshape(len(mag), -1, tree.branching)
                np.maximum(parent[s.start - run.start:s.stop - run.start, :, None], kids, out=kids)
            if i == span - 1:
                out[s] = mag.mean(axis=1)
            else:
                sweep(i + 1, range(s.start, s.stop), mag)

    sweep(0, range(blocks), None)
    return out


def _path_norm(process: AdaptedProcess, tree: ScenarioTree, beta: float, stat: str) -> float:
    """One statistic of one process, the one-block case of `_block_norms`."""
    return float(_block_norms(lambda _, i: process.values[i], 1, len(process.values), tree,
                              beta, stat)[0])


def path_norms(process: AdaptedProcess, tree: ScenarioTree,
               beta: float = 0.0) -> NormReport:
    """Exact S^2/H^2 statistics under the uniform leaf measure.

    The pathwise sup runs over every grid time the process is defined on.  The
    time integral is a Riemann sum: a process spanning all n+1 grid times is
    integrated with each step weighted by its terminal value (matching hand
    enumeration of the discrete Brownian path), an integrand-type process on
    n levels with left endpoints, the Ito convention of the scheme itself.
    """
    return NormReport(s2=_path_norm(process, tree, beta, "s2"),
                      h2=_path_norm(process, tree, beta, "h2"), beta=beta)


def _schedule(per_epsilon) -> tuple:
    """(epsilons, solutions) of a nonempty schedule of (epsilon, Solution)."""
    if not per_epsilon:
        raise ValueError("the audits need a schedule: per_epsilon is empty")
    return tuple(zip(*per_epsilon))


def _uniform_ok(constants, factor: float) -> bool:
    vals = [c for c in constants if np.isfinite(c)]
    if len(vals) != len(constants):
        return False
    if max(vals, default=0.0) <= 1e-14:
        return True
    med = float(statistics.median(vals))
    return max(vals) <= factor * med


@dataclass(frozen=True)
class AprioriAudit:
    rows: tuple
    uniform_ok: bool
    median_constant: float


def apriori_audit(per_epsilon, xi, gen: GeneratorSpec, tree: ScenarioTree,
                  beta: float = 0.0) -> AprioriAudit:
    """Uniform-in-eps bound on E sup e^{bt}|Y^eps|^2 + E int e^{bs}|Z^eps|^2.

    rhs_data is M_1 = E[|xi|^2 + int_0^T e^{beta s}|F(s,0,0,0,0)|^2 ds]; the
    verdict requires every empirical constant within 2x of their median.
    """
    epsilons, sols = _schedule(per_epsilon)
    xi = np.asarray(xi, dtype=float).reshape(len(xi), -1)
    m1 = float(np.mean(np.sum(xi ** 2, axis=1))) + origin_drift_mass(
        gen, tree, xi.shape[1], beta)
    n = tree.grid.n_steps
    lhs = (_block_norms(lambda e, i: sols[e].Y.values[i], len(sols), n + 1, tree, beta, "s2")
           + _block_norms(lambda e, i: sols[e].Z.values[i], len(sols), n, tree, beta, "h2"))
    rows = [BoundAudit(v, m1, v / m1 if m1 > 0 else 0.0, f"apriori eps={eps:g}")
            for eps, v in zip(epsilons, lhs.tolist())]
    consts = [r.empirical_constant for r in rows]
    return AprioriAudit(rows=tuple(rows), uniform_ok=_uniform_ok(consts, 2.0),
                        median_constant=float(statistics.median(consts)))


@dataclass(frozen=True)
class YosidaAudit:
    grad_rows: tuple      # (a) E int e^{bs} |grad phi_eps(Y^eps)|^2 vs M_2
    value_rows: tuple     # (b) sup_t E e^{bt} phi(J(Y)) + E int e^{bs} phi(J(Y)) vs M_2
    gap_rows: tuple       # (c) sup_t E e^{bt} |Y - J(Y)|^2 vs eps * M_2
    uniform_ok: bool


def yosida_audit(per_epsilon, phi: ConvexFunction, xi, gen: GeneratorSpec,
                 tree: ScenarioTree, beta: float = 0.0) -> YosidaAudit:
    """Boundedness of the penalty gradient along the schedule.

    The gradient and resolvent are recomputed from Y^eps through the prox (the
    stored U is not trusted).  The verdict asks the (a) and (c) constants to
    stay within 4x of their medians; (b) must stay finite.
    """
    epsilons, sols = _schedule(per_epsilon)
    dt, n = tree.grid.dt, tree.grid.n_steps
    xi = np.asarray(xi, dtype=float).reshape(len(xi), -1)
    m2 = float(np.mean(np.sum(xi ** 2, axis=1) + np.atleast_1d(phi.value(xi)))) \
        + origin_drift_mass(gen, tree, xi.shape[1])
    eps_col, eps_sq = np.array(epsilons)[:, None, None], np.array([e ** 2 for e in epsilons])
    grad_h2, phi_sup, phi_int, gap_sup = np.zeros((4, len(sols)))
    for i in range(n + 1):
        w = math.exp(beta * i * dt)
        for s, rows in _runs(lambda e, k: sols[e].Y.values[k], range(len(sols)), i, tree):
            y = rows.reshape(-1, tree.level_size(i), rows.shape[-1])
            j = convex.prox(phi, eps_col[s], y)
            gap = np.sum((y - j) ** 2, axis=-1).mean(axis=1)
            phi_j = phi.value(j).mean(axis=1)
            for acc, x in ((gap_sup, w * gap), (phi_sup, w * phi_j)):
                acc[s] = np.where(x > acc[s], x, acc[s])  # max(acc, x) as Python takes it
            if i < n:
                grad_h2[s] += dt * w * gap / eps_sq[s]
                phi_int[s] += dt * w * phi_j
    denom = m2 if m2 > 0 else 1.0
    grad_rows = tuple(BoundAudit(g, m2, g / denom, f"yosida-grad eps={eps:g}")
                      for eps, g in zip(epsilons, grad_h2.tolist()))
    value_rows = tuple(BoundAudit(a + b, m2, (a + b) / denom, f"yosida-phi eps={eps:g}")
                       for eps, a, b in zip(epsilons, phi_sup.tolist(), phi_int.tolist()))
    gap_rows = tuple(BoundAudit(g, eps * m2, g / (eps * denom), f"yosida-gap eps={eps:g}")
                     for eps, g in zip(epsilons, gap_sup.tolist()))
    ok = (_uniform_ok([r.empirical_constant for r in grad_rows], 4.0)
          and all(np.isfinite(r.lhs) for r in value_rows)
          and _uniform_ok([r.empirical_constant for r in gap_rows], 4.0))
    return YosidaAudit(grad_rows, value_rows, gap_rows, ok)


@dataclass(frozen=True)
class EpsilonTableRow:
    """Distances between consecutive penalized solutions plus per-run summaries."""

    epsilon: float
    epsilon_next: float
    dy_s2: float
    dz_h2: float
    grad_h2_sq: float
    phi_resolvent_h1: float


def epsilon_table(per_epsilon, phi: ConvexFunction, tree: ScenarioTree) -> list:
    """One row per consecutive pair of the schedule: the S^2 distance of the
    two Y and the H^2 distance of the two Z, plus, for the first of the pair,
    the H^2 mass of the penalty gradient and the time integral of phi at the
    resolvent points.  A one-entry schedule has no rows."""
    epsilons, sols = _schedule(per_epsilon)
    dt, n, pairs = tree.grid.dt, tree.grid.n_steps, len(sols) - 1
    dy, dz = (np.sqrt(_block_norms(
        lambda e, i: getattr(sols[e], p).values[i] - getattr(sols[e + 1], p).values[i],
        pairs, span, tree, 0.0, stat)) for p, stat, span in (("Y", "s2", n + 1), ("Z", "h2", n)))
    eps_col = np.array(epsilons[:-1])[:, None, None]
    grad_sq, phi_res = np.zeros((2, pairs))
    for i in range(n):
        for s, rows in _runs(lambda e, k: sols[e].Y.values[k], range(pairs), i, tree):
            y = rows.reshape(-1, tree.level_size(i), rows.shape[-1])
            j = convex.prox(phi, eps_col[s], y)
            grad_sq[s] += dt * np.sum(((y - j) / eps_col[s]) ** 2, axis=-1).mean(axis=1)
            phi_res[s] += dt * phi.value(j).mean(axis=1)
    return [EpsilonTableRow(*row) for row in zip(epsilons, epsilons[1:], dy.tolist(), dz.tolist(),
                                                 grad_sq.tolist(), phi_res.tolist())]


@dataclass(frozen=True)
class RateFit:
    slope: float | None
    intercept: float | None
    residual: float | None
    exact: bool


def epsilon_rate_fit(epsilon_table) -> RateFit:
    """Least-squares slope of log distance against log(eps_k + eps_{k+1}).

    The squared Cauchy distances are bounded linearly in eps + delta, so the
    distances themselves should scale no slower than (eps + delta)^{1/2};
    exact solutions (identically zero distances) short-circuit to ``exact``.
    """
    dists = [row.dy_s2 + row.dz_h2 for row in epsilon_table]
    if all(d <= 1e-14 for d in dists):
        return RateFit(slope=None, intercept=None, residual=None, exact=True)
    xs, ys = [], []
    for row, d in zip(epsilon_table, dists):
        if d > 1e-14:
            xs.append(math.log(row.epsilon + row.epsilon_next))
            ys.append(math.log(d))
    if len(xs) < 4:
        raise ValueError(
            f"rate fit needs at least 4 nonzero distances, got {len(xs)}")
    slope, intercept = np.polyfit(np.asarray(xs), np.asarray(ys), 1)
    resid = float(np.sqrt(np.mean(
        (np.asarray(ys) - (slope * np.asarray(xs) + intercept)) ** 2)))
    return RateFit(slope=float(slope), intercept=float(intercept),
                   residual=resid, exact=False)


@dataclass(frozen=True)
class StabilityAudit:
    lhs: float
    rhs_data: float
    empirical_constant: float
    vacuous: bool


def stability_audit(sol_a, sol_b, xi_a, xi_b, gen_a: GeneratorSpec,
                    gen_b: GeneratorSpec, tree: ScenarioTree,
                    beta: float = 0.0) -> StabilityAudit:
    """Empirical constant of the two-data stability estimate.

    lhs is the beta-weighted squared S^2 distance of Y plus H^2 distance of Z;
    rhs is E[|dxi|^2 + int |F_a - F_b|^2 ds] with both drifts evaluated along
    the first solution, reading their past segments from it.
    """
    dt, n = tree.grid.dt, tree.grid.n_steps
    lhs = (_path_norm(sol_a.Y - sol_b.Y, tree, beta, "s2")
           + _path_norm(sol_a.Z - sol_b.Z, tree, beta, "h2"))
    dxi = np.asarray(xi_a, dtype=float).reshape(len(sol_a.Y.values[n]), -1) \
        - np.asarray(xi_b, dtype=float).reshape(len(sol_b.Y.values[n]), -1)
    rhs = float(np.mean(np.sum(dxi ** 2, axis=1)))
    rows_a, rows_b = past_z_rows(gen_a, tree), past_z_rows(gen_b, tree)
    for i in range(n):
        y_val, z_val = sol_a.Y.values[i], sol_a.Z.values[i]
        fa = level_drift(gen_a, tree, i, y_val, z_val, sol_a.Y, sol_a.Z, rows_a)
        fb = level_drift(gen_b, tree, i, y_val, z_val, sol_a.Y, sol_a.Z, rows_b)
        rhs += dt * float(np.sum((fa - fb) ** 2)) / tree.level_size(i)
    if rhs <= 1e-30:
        return StabilityAudit(lhs=lhs, rhs_data=rhs, empirical_constant=0.0,
                              vacuous=True)
    return StabilityAudit(lhs=lhs, rhs_data=rhs, empirical_constant=lhs / rhs,
                          vacuous=False)


@dataclass(frozen=True)
class ResidualReport:
    equation_residual: float
    subdiff_residual: float
    phi_integrability: float


def default_subdiff_probes(phi: ConvexFunction, xi, cap: int = 48) -> list:
    """Probe set for subdifferential checks: origin, finite box corners, and
    terminal values pulled into the domain (adversarial directions live on the
    boundary)."""
    xi = np.asarray(xi, dtype=float).reshape(len(xi), -1)
    probes = [np.zeros(xi.shape[1])]
    lo = getattr(phi, "lo", None)
    hi = getattr(phi, "hi", None)
    if lo is not None and hi is not None:
        for corner in (lo, hi):
            if np.all(np.isfinite(corner)):
                probes.append(np.asarray(corner, dtype=float))
    for row in xi:
        probes.append(convex.prox(phi, 1e-9, row))
        if len(probes) >= cap:
            break
    uniq = []
    for p in probes:
        if not any(np.array_equal(p, q) for q in uniq):
            uniq.append(p)
    return uniq


def solution_residuals(solution, xi, gen: GeneratorSpec, phi: ConvexFunction,
                       tree: ScenarioTree, probes=None) -> ResidualReport:
    """Residuals of the discrete solution identities.

    equation: max node residual of Y_i + dt U_i = E[Y_{i+1}] + dt F_i, with F
    replayed against the frozen iterate of the final backward pass (the
    scheme's own equation, so this must sit at rounding level).
    subdifferential: worst probe violation of the pair (point, U_i), the point
    being J_eps(Y_i) for penalized runs and Y_i itself for prox runs.
    phi integrability: E sum dt phi at those points (finite for admissible runs).
    """
    dt, n = tree.grid.dt, tree.grid.n_steps
    if probes is None:
        probes = default_subdiff_probes(phi, xi)
    frozen_y, frozen_z = solution.frozen_past if solution.frozen_past else (solution.Y, solution.Z)
    penalized = solution.epsilon is not None and not isinstance(phi, Zero)
    past_rows = past_z_rows(gen, tree)
    eq_res = 0.0
    sub_res = -np.inf
    phi_mass = 0.0
    for i in range(n - 1, -1, -1):
        y_val, u_val = solution.Y.values[i], solution.U.values[i]
        expect, z_here = level_moments(tree, solution.Y.values[i + 1])
        drift = level_drift(gen, tree, i, expect, z_here, frozen_y, frozen_z,
                            past_rows)
        resid = y_val + dt * u_val - expect - dt * drift
        eq_res = max(eq_res, float(np.max(np.abs(resid))))
        if penalized:
            point = convex.prox(phi, solution.epsilon, y_val)
            grad = (y_val - point) / solution.epsilon
        else:
            point, grad = y_val, u_val
        sub_res = max(sub_res, subgradient_check(phi, point, grad, probes).worst_violation)
        phi_mass += dt * float(np.sum(phi.value(point))) / tree.level_size(i)
    return ResidualReport(equation_residual=eq_res,
                          subdiff_residual=float(sub_res),
                          phi_integrability=phi_mass)
