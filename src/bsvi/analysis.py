"""Numerical audits of the solver's quantitative estimates.

The estimates only promise bounds with some finite constant independent of
the penalty level, so the audits test boundedness and uniformity of lhs/rhs
ratios across the epsilon schedule, not specific values.  Uniformity verdicts
are one-sided (every constant at most factor x median): the audited
inequalities are upper bounds, so a constant falling away below the median is
slack, not a violation.

Everything here is pure over immutable solutions; drifts are evaluated one level at a
time through `generators.level_drift`, reading the past-Z rows a frozen spec keeps
(`generators.past_z_rows`).  The epsilon table and the a priori and Yosida audits are one
depth-first pass over the schedule's levels (`schedule_audits`) in runs of at most one
leaf level: block e of level i is solution e's rows, a run of one block its own array, a
longer run a row slice of its batch's level when its solutions are that batch's blocks in
order, still holding the levels they were handed (`solver.Solution._block`), and the level
holds a row per block, else a copy.  Below level n it reads |grad phi_eps(Y)|^2 as |U|^2
and |Y - J_eps Y|^2 as eps^2 |U|^2: `convex.resolvent` formed U as grad phi_eps at the Y
it returned.  phi(J_eps Y) (0 for an indicator) and level n (xi, no U) take a prox.
"""

import math
from collections import namedtuple

import numpy as np

from . import convex
from .convex import ConvexFunction, default_subdiff_probes, subgradient_check
from .generators import (GeneratorSpec, frozen_prefix, level_drift, origin_drift_mass,
                         past_z_rows, prefix_coefficients)
from .lattice import (AdaptedProcess, Record, ScenarioTree, fold_running_max, level_moments,
                      row_sq_norms)


class BoundAudit(Record, frozen=True):
    """One schedule entry of an audit: lhs against its data bound, and their ratio."""

    lhs: float
    rhs_data: float
    empirical_constant: float
    context: str


def path_norm(process: AdaptedProcess, tree: ScenarioTree, stat: str,
              beta: float = 0.0) -> float:
    """Exact S^2 ("s2", E[sup_t e^{beta t}|.|^2]) or H^2 ("h2", E int e^{beta s}|.|^2 ds)
    of one process under the uniform leaf measure.

    The pathwise sup runs over every grid time the process is defined on.  The
    time integral is a Riemann sum: a process spanning all n+1 grid times is
    integrated with each step weighted by its terminal value (matching hand
    enumeration of the discrete Brownian path), an integrand-type process on
    n levels with left endpoints, the Ito convention of the scheme itself.
    """
    if stat not in ("s2", "h2"):
        raise ValueError(f"unknown path statistic {stat!r}: expected 's2' or 'h2'")
    dt, values, weights = tree.grid.dt, process.values, tree.grid.weights(beta)
    mean = lambda x: np.add.reduce(x, axis=None) / x.size  # np.mean's sum, without its wrapper
    if stat == "h2":  # a process on all n + 1 grid times is integrated from level 1
        first = 1 if len(values) == tree.grid.n_steps + 1 else 0
        return float(sum(dt * weights[i] * mean(row_sq_norms(values[i]))
                         for i in range(first, len(values))))
    running = None
    for w, sq in zip(weights, map(row_sq_norms, values)):  # 1.0 * x is x bitwise
        running = fold_running_max(running, (sq if w == 1.0 else w * sq)[None], tree.branching)
    return float(mean(running))


def _schedule_sums(per_epsilon, phi: ConvexFunction, tree: ScenarioTree, beta: float, parts):
    """The epsilons and each solution's sums for the audits in ``parts``, in the order
    `schedule_audits` unpacks, from one depth-first pass over the levels that holds only the
    running maxes of two S^2 statistics going down, in runs whose maxes fill one leaf level
    together.  U is read as grad phi_eps(Y), so the table and the Yosida audit refuse an
    entry solved at another eps.  The runs' node sums are added up after the descent."""
    if not per_epsilon:
        raise ValueError("the audits need a schedule: per_epsilon is empty")
    table, apriori, yosida = ("table" in parts, "apriori" in parts, "yosida" in parts)
    bad = [(e, s.epsilon) for e, s in per_epsilon if not (e > 0 and s.epsilon == e)]
    if bad and (table or yosida):  # U is grad phi_eps(Y) only at the eps it was solved at
        raise ValueError("eps = %r must be positive and its solution's epsilon, not %r" % bad[0])
    weights, (epsilons, sols) = tree.grid.weights(beta), tuple(zip(*per_epsilon))
    dt, n, count = tree.grid.dt, tree.grid.n_steps, len(sols)
    ys, zs, us = kinds = tuple(list(zip(*(getattr(s, k).values for s in sols))) for k in "YZU")
    # leaf sums of the S^2 running maxes (a priori Y, table dY) and (statistic, level,
    # solution) sums of |Z|^2, |dZ|^2, |U|^2, phi(J Y) and |Y - J Y|^2 (at level n)
    s2, sums = np.zeros((2, count)), np.zeros((5, n + 1, count))
    # rows per run: the running maxes fill one leaf level together, no run is cut below
    # 2^11 rows, where the per-run numpy calls outweigh the rows, none copies over 2^13
    cap = max(2 ** 11, min(2 ** 13, tree.level_size(n) // max(1, table + apriori)))

    def node_sums(values, size):  # per block, over the level's nodes: np.mean's sum
        return np.add.reduce(values.reshape(-1, size), axis=1)

    z_own = [any(z is not lv[0] for z in lv) for lv in zs]  # level n - 1 of a batch is one array,
    for i, z in ((i, lv[0]) for i, lv in enumerate(zs) if not z_own[i]):  # read once (z - z is
        sums[:2, i] = [node_sums(row_sq_norms(v), len(v)) for v in (z, z - z)]  # NaN at an inf)

    # a batch's leaf level is one array, and a finite one is read once (xi - xi is +0.0)
    xi_n = ys[n][0]
    shared = all(y is xi_n for y in ys[n]) and np.logical_and.reduce(np.isfinite(xi_n), axis=None)
    # solution e, block b of a batch that left in one sweep and still holding the levels
    # it was handed (`Solution._block`), keys as (that batch, b - e): solutions of one key
    # are blocks of one batch in order
    blocks = [s._block() for s in sols]
    keys = [e if b is None else (id(b[0]), b[1] - e) for e, b in enumerate(blocks)]

    def rows(k, i, lo, hi):  # blocks lo..hi-1 of level i of Y, Z or U (k = 0, 1, 2): a row
        if hi - lo == 1:  # slice of their batch's level if they share a key and it holds
            return kinds[k][i][lo]  # a row block per block (not xi, Z_{n-1}), else a copy
        size = tree.level_size(i)
        if keys[lo:hi].count(keys[lo]) == hi - lo:
            levels, block = blocks[lo]
            if len(level := levels[k][i]) > size:
                return level[block * size:(block + hi - lo) * size]
        return np.concatenate(kinds[k][i][lo:hi])

    def frame(i, lo, hi, parents):
        size, hd, w = tree.level_size(i), min(hi, count - 1), weights[i]

        def fold(k, end, mag):  # a leaf level is reduced at once, a shared one's rows repeated
            if len(mag) < (end - lo) * size:
                mag = mag[None].repeat(end - lo, axis=0)
            maxes[k] = fold_running_max(parents[k], mag.reshape(-1, size), tree.branching)
            if i == n:
                s2[k, lo:end], maxes[k] = node_sums(maxes[k], size), None

        y = xi_n if i == n and shared else rows(0, i, lo, hi)
        maxes, z_run = [None, None], i < n and z_own[i]
        if apriori:
            fold(0, hi, row_sq_norms(y) if w == 1.0 else w * row_sq_norms(y))
            if z_run:
                sums[0, i, lo:hi] = node_sums(row_sq_norms(rows(1, i, lo, hi)), size)
        if table and hd > lo and i == n and shared:  # dY = +0.0: each running max is the parent's
            s2[1, lo:hd] = node_sums(parents[1].repeat(tree.branching, axis=1), size)
        elif table and hd > lo:  # the run's pairs (e, e + 1)
            fold(1, hd, row_sq_norms(y[:(hd - lo) * size] - rows(0, i, lo + 1, hd + 1)))
            if z_run:
                sums[1, i, lo:hd] = node_sums(row_sq_norms(
                    rows(1, i, lo, hd) - rows(1, i, lo + 1, hd + 1)), size)
        if i < n and (table or yosida):  # |U|^2; phi(J Y) is 0 for an indicator
            sums[2, i, lo:hi] = node_sums(row_sq_norms(rows(2, i, lo, hi)), size)
            if not phi.indicator:  # at the prox: Y - eps U may leave phi's domain by an ulp
                j = phi.prox(np.array(epsilons[lo:hi])[:, None, None], y.reshape(hi - lo, size, -1))
                sums[3, i, lo:hi] = node_sums(phi.value(j), size)
        return maxes

    todo = [(0, 0, count, [None, None])]  # depth first off a stack: a closure calling itself
    while todo:  # would keep every level alive in a reference cycle after the pass returns
        i, lo, hi, parents = todo.pop()  # level i's blocks lo..hi-1, the parents' running maxes
        c = min(lo + max(1, cap // tree.level_size(i)), hi)
        maxes = frame(i, lo, c, [p if p is None else p[:c - lo] for p in parents])
        if c < hi:  # the level's next run, after this run's levels below
            todo.append((i, c, hi, [p if p is None else p[c - lo:] for p in parents]))
        if i < n:
            todo.append((i + 1, lo, c, maxes))
    if yosida:  # level n: xi has no U, so one prox per solution, each filling the row from
        # its entry on, or one in all for an indicator's shared leaf (J_eps is one projection)
        for e, xi in enumerate(ys[n][:1] if shared and phi.indicator else ys[n]):
            j = phi.prox(epsilons[e], xi)
            sums[3, n, e:] = 0.0 if phi.indicator else np.add.reduce(phi.value(j))
            j = xi - j  # now the gap: J_eps(xi) is freed before the squared gap is formed
            sums[4, n, e:] = np.add.reduce(row_sq_norms(j))
    sums /= np.array([[tree.level_size(i)] for i in range(n + 1)], dtype=float)  # as np.mean
    sums[4, :n] = sums[2, :n] * np.array([e ** 2 for e in epsilons])  # eps^2 |U|^2
    # dt e^{bt}|Z|^2, dt|dZ|^2, dt|U|^2, dt phi, dt e^{bt}|U|^2, dt e^{bt} phi
    terms = dt * np.array([weights, [1.0] * (n + 1)])[[0, 1, 1, 1, 0, 0], :n, None] \
        * sums[[0, 1, 2, 3, 2, 3], :n]
    sups = np.fmax.reduce(np.array(weights)[:, None] * sums[3:5], axis=1, initial=0.0)  # skips NaN
    integrals = np.zeros((6, count))  # added from 0.0 level after level, in place
    for level_terms in terms.swapaxes(0, 1):
        integrals += level_terms
    return (epsilons, *integrals, *sups, *s2 / tree.level_size(n))


def _uniform_ok(constants, factor: float) -> bool:
    if not all(map(math.isfinite, constants)):
        return False
    top = max(constants, default=0.0)
    return top <= 1e-14 or top <= factor * _median(constants)


def _median(values) -> float:
    """`statistics.median`'s rule, without its import: the middle value or the mean of two."""
    s, mid = sorted(values), len(values) // 2
    return float(s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2)


class AprioriAudit(Record, frozen=True):
    """The a priori audit's rows, its uniformity verdict and their median constant, and the
    two parts of each row's lhs: E sup e^{bt}|Y|^2 and E int e^{bs}|Z|^2."""

    rows: tuple
    uniform_ok: bool
    median_constant: float
    y_s2: tuple
    z_h2: tuple


class YosidaAudit(Record, frozen=True):
    """The Yosida audit's (a), (b) and (c) rows and its verdict."""

    grad_rows: tuple      # (a) E int e^{bs} |grad phi_eps(Y^eps)|^2 vs M_2
    value_rows: tuple     # (b) sup_t E e^{bt} phi(J(Y)) + E int e^{bs} phi(J(Y)) vs M_2
    gap_rows: tuple       # (c) sup_t E e^{bt} |Y - J(Y)|^2 vs eps * M_2
    uniform_ok: bool


class EpsilonTableRow(Record, frozen=True):
    """Distances between consecutive penalized solutions plus per-run summaries."""

    epsilon: float
    epsilon_next: float
    dy_s2: float
    dz_h2: float
    grad_h2_sq: float
    phi_resolvent_h1: float


# what `schedule_audits` computed: a part it was not asked for is None
ScheduleAudits = namedtuple("ScheduleAudits", "table apriori yosida")


def schedule_audits(per_epsilon, phi: ConvexFunction, xi, gen: GeneratorSpec,
                    tree: ScenarioTree, beta: float = 0.0,
                    parts=("table", "apriori", "yosida")) -> ScheduleAudits:
    """The epsilon table (unweighted) and the a priori and Yosida audits
    (weighted by ``beta``) of a schedule of (epsilon, Solution) from one pass
    over its levels; ``parts`` picks the ones computed (the table reads no
    ``xi`` or ``gen``, the a priori audit no ``phi``).  One evaluation of
    `origin_drift_mass` serves both audits: the a priori audit's weighted by
    ``beta``, the Yosida audit's unweighted."""
    if unknown := [p for p in parts if p not in ScheduleAudits._fields]:
        raise ValueError(f"unknown audit parts {unknown}: expected {ScheduleAudits._fields}")
    (epsilons, z_h2, dz_h2, grad_sq, phi_res, grad_h2, phi_int, phi_sup, gap_sup, y_s2,
     dy_s2) = _schedule_sums(per_epsilon, phi, tree, beta, parts)
    table = apriori = yosida = None
    if "table" in parts:
        table = [EpsilonTableRow(*row) for row in zip(epsilons, epsilons[1:], *(
            v.tolist() for v in (np.sqrt(dy_s2), np.sqrt(dz_h2), grad_sq, phi_res)))]
    if "apriori" in parts or "yosida" in parts:
        xi = np.asarray(xi, dtype=float).reshape(len(xi), -1)
        xi_sq = row_sq_norms(xi)
        mass_beta, mass = origin_drift_mass(gen, tree, xi.shape[1], (beta, 0.0))
    if "apriori" in parts:
        m1 = float(np.mean(xi_sq)) + mass_beta
        rows = tuple(BoundAudit(v, m1, v / m1 if m1 > 0 else 0.0, f"apriori eps={eps:g}")
                     for eps, v in zip(epsilons, (y_s2 + z_h2).tolist()))
        consts = [r.empirical_constant for r in rows]
        apriori = AprioriAudit(rows, _uniform_ok(consts, 2.0), _median(consts),
                               tuple(y_s2.tolist()), tuple(z_h2.tolist()))
    if "yosida" in parts:
        m2 = float(np.mean(xi_sq + np.atleast_1d(phi.value(xi)))) + mass
        denom = m2 if m2 > 0 else 1.0
        grad_rows = tuple(BoundAudit(g, m2, g / denom, f"yosida-grad eps={eps:g}")
                          for eps, g in zip(epsilons, grad_h2.tolist()))
        value_rows = tuple(BoundAudit(a + b, m2, (a + b) / denom, f"yosida-phi eps={eps:g}")
                           for eps, a, b in zip(epsilons, phi_sup.tolist(), phi_int.tolist()))
        gap_rows = tuple(BoundAudit(g, eps * m2, g / (eps * denom), f"yosida-gap eps={eps:g}")
                         for eps, g in zip(epsilons, gap_sup.tolist()))
        ok = (_uniform_ok([r.empirical_constant for r in grad_rows], 4.0)
              and all(math.isfinite(r.lhs) for r in value_rows)
              and _uniform_ok([r.empirical_constant for r in gap_rows], 4.0))
        yosida = YosidaAudit(grad_rows, value_rows, gap_rows, ok)
    return ScheduleAudits(table, apriori, yosida)


def apriori_audit(per_epsilon, xi, gen: GeneratorSpec, tree: ScenarioTree,
                  beta: float = 0.0) -> AprioriAudit:
    """Uniform-in-eps bound on E sup e^{bt}|Y^eps|^2 + E int e^{bs}|Z^eps|^2.

    rhs_data is M_1 = E[|xi|^2 + int_0^T e^{beta s}|F(s,0,0,0,0)|^2 ds]; the
    verdict requires every empirical constant within 2x of their median.
    """
    return schedule_audits(per_epsilon, None, xi, gen, tree, beta, ("apriori",)).apriori


def yosida_audit(per_epsilon, phi: ConvexFunction, xi, gen: GeneratorSpec,
                 tree: ScenarioTree, beta: float = 0.0) -> YosidaAudit:
    """Boundedness of the penalty gradient along the schedule, read from each solve's U, which
    is grad phi_eps(Y^eps) as built (module docstring).  The verdict asks the (a) and (c)
    constants to stay within 4x of their medians; (b) must stay finite."""
    return schedule_audits(per_epsilon, phi, xi, gen, tree, beta, ("yosida",)).yosida


def epsilon_table(per_epsilon, phi: ConvexFunction, tree: ScenarioTree) -> list:
    """One row per consecutive pair of the schedule: the S^2 distance of the
    two Y and the H^2 distance of the two Z, plus, for the first of the pair,
    the H^2 mass of the penalty gradient and the time integral of phi at the
    resolvent points.  A one-entry schedule has no rows."""
    return schedule_audits(per_epsilon, phi, None, None, tree, parts=("table",)).table


class RateFit(Record, frozen=True):
    """Log-log fit of the schedule's distances; ``exact`` when all vanish."""

    slope: float | None
    intercept: float | None
    residual: float | None
    exact: bool


def epsilon_rate_fit(epsilon_table) -> RateFit:
    """Least-squares slope of log distance against log(eps_k + eps_{k+1}).

    The squared Cauchy distances are bounded linearly in eps + delta, so the
    distances themselves should scale no slower than (eps + delta)^{1/2};
    exact solutions (zero distances, at least one) short-circuit to ``exact``.
    The line is np.polyfit's least squares in closed form in Python floats (no
    LAPACK call); a non-finite distance or a single distinct eps + delta raises.
    """
    dists = [row.dy_s2 + row.dz_h2 for row in epsilon_table]
    if not all(map(math.isfinite, dists)):
        raise ValueError(f"rate fit needs finite distances, got {dists}")
    if dists and all(d <= 1e-14 for d in dists):
        return RateFit(slope=None, intercept=None, residual=None, exact=True)
    pts = [(math.log(row.epsilon + row.epsilon_next), math.log(d))
           for row, d in zip(epsilon_table, dists) if d > 1e-14]
    if len(pts) < 4:
        raise ValueError(f"rate fit needs at least 4 nonzero distances, got {len(pts)}")
    if len({x for x, _ in pts}) < 2:
        raise ValueError("rate fit needs at least 2 distinct eps + delta, got 1")
    x_bar, y_bar = (math.fsum(c) / len(pts) for c in zip(*pts))
    slope = (math.fsum((x - x_bar) * (y - y_bar) for x, y in pts)
             / math.fsum((x - x_bar) ** 2 for x, _ in pts))
    intercept = y_bar - slope * x_bar
    resid = math.sqrt(math.fsum((y - (slope * x + intercept)) ** 2 for x, y in pts) / len(pts))
    return RateFit(slope=slope, intercept=intercept, residual=resid, exact=False)


class StabilityAudit(Record, frozen=True):
    """Two-data stability: lhs against its data bound, and their ratio."""

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
    lhs = (path_norm(sol_a.Y - sol_b.Y, tree, "s2", beta)
           + path_norm(sol_a.Z - sol_b.Z, tree, "h2", beta))
    dxi = np.asarray(xi_a, dtype=float).reshape(len(sol_a.Y.values[n]), -1) \
        - np.asarray(xi_b, dtype=float).reshape(len(sol_b.Y.values[n]), -1)
    rhs = float(np.mean(row_sq_norms(dxi)))
    rows_a, rows_b = past_z_rows(gen_a, tree), past_z_rows(gen_b, tree)
    for i in range(n):
        y_val, z_val = sol_a.Y.values[i], sol_a.Z.values[i]
        fa = level_drift(gen_a, tree, i, y_val, z_val, sol_a.Y.values, sol_a.Z.values, rows_a)
        fb = level_drift(gen_b, tree, i, y_val, z_val, sol_a.Y.values, sol_a.Z.values, rows_b)
        rhs += dt * float(np.sum((fa - fb) ** 2)) / tree.level_size(i)
    vacuous = rhs <= 1e-30
    return StabilityAudit(lhs, rhs, 0.0 if vacuous else lhs / rhs, vacuous)


class ResidualReport(Record, frozen=True):
    """Worst residuals of the discrete equation and subdifferential, and phi's mass."""

    equation_residual: float
    subdiff_residual: float
    phi_integrability: float


def solution_residuals(solution, xi, gen: GeneratorSpec, phi: ConvexFunction,
                       tree: ScenarioTree) -> ResidualReport:
    """Residuals of the discrete solution identities.

    equation: max node residual of Y_i + dt U_i = E[Y_{i+1}] + dt F_i, with F
    replayed against the frozen iterate of the final backward pass (the
    scheme's own equation, so this must sit at rounding level); a column-constant
    past is read through `generators.frozen_prefix`, as the sweep reads it.
    subdifferential: worst probe violation of the pair (point, U_i), the point
    being J_eps(Y_i) for penalized runs and Y_i itself for prox runs, every
    level's pairs checked in one batch.
    phi integrability: E sum dt phi there (finite if admissible; an indicator's 0.0, uncalled).
    """
    dt, n, ys, us = tree.grid.dt, tree.grid.n_steps, solution.Y.values, solution.U.values
    frozen_y, frozen_z = (p.values for p in solution.frozen_past or (solution.Y, solution.Z))
    past_rows = past_z_rows(gen, tree)
    coeffs = prefix_coefficients(gen, past_rows)
    prefix = None if coeffs is None else frozen_prefix(coeffs, frozen_z, tree.branching)
    y_val = np.concatenate(ys[:n])  # levels 0..n-1, one after another
    if solution.epsilon is not None:
        point = convex.prox(phi, solution.epsilon, y_val)
        grad = y_val - point if np.may_share_memory(point, y_val) else \
            np.subtract(y_val, point, out=y_val)  # y_val's rows, unless the prox returned them
        grad /= solution.epsilon
    else:
        point, grad = y_val, np.concatenate(us)
    phi_at, eq_res, phi_mass = None if phi.indicator else phi.value(point), 0.0, 0.0
    for i in range(n - 1, -1, -1):
        expect, z_here = level_moments(tree, ys[i + 1])
        drift = level_drift(gen, tree, i, expect, z_here, frozen_y, frozen_z, past_rows, prefix)
        resid = np.multiply(us[i], dt)  # Y + dt U - E - dt F in place, dt F in E's buffer
        resid += ys[i]
        resid -= expect
        resid -= np.multiply(drift, dt, out=expect)
        # np.maximum, unlike the builtin max, keeps a NaN residual; its reduce is np.max's
        eq_res = float(np.maximum(eq_res, np.maximum.reduce(np.abs(resid, out=resid), axis=None)))
        size = tree.level_size(i)
        lo = (size - 1) // (tree.branching - 1)  # the rows above level i
        phi_mass += 0.0 if phi_at is None else \
            dt * float(np.add.reduce(phi_at[lo:lo + size])) / size
    return ResidualReport(eq_res, subgradient_check(
        phi, point, grad, default_subdiff_probes(phi, xi), phi_at), phi_mass)
