"""Backward schemes for the delayed BSVI: classical, penalized and prox-step.

The outer Picard iteration freezes the past segments at the previous iterate
(starting from the zero pair) and runs one backward pass per sweep:

    E_i   = mean of the node's children Y values        (exact expectation)
    Z_i   = martingale projection of the children
    Ytil  = E_i + dt * F(t_i, E_i, Z_i, frozen past)
    Y_i   = Ytil                                         (no penalty)
          | solve  Y + dt * grad phi_eps(Y) = Ytil       (penalized scheme)
          | prox(phi, dt, Ytil)                          (prox-step scheme)

The penalized update is implicit in the penalty but closed-form: the resolvent
identity in `convex.resolvent_step` reduces it to one prox evaluation at
parameter eps + dt, and U_i = grad phi_eps(Y_i) = (Ytil - Y_i)/dt makes the
discrete equation Y_i + dt U_i = E_i + dt F_i exact.  (An explicit update
grad phi_eps(E_i) loses the eps -> 0 limit at fixed dt: its correction scales
like dt/eps once eps falls below dt.)

Each step runs on a whole level at once: `lattice.level_moments` gives
(E_i, Z_i) and `generators.level_drift` the drift, reading the frozen past
through ancestor indices.  Past segments read at offset 0 resolve to the
current predictor pair (E_i, Z_i), so generators with no effective delay never
touch the frozen iterate and the Picard loop terminates after the
confirmation sweep.

The nodes of a level are independent; Picard sweeps are inherently
sequential; distinct solves share immutable trees safely.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import convex
from .analysis import path_norms
from .convex import ConvexFunction, Zero
from .generators import GeneratorSpec, level_drift, lipschitz_probe_audit, CustomGenerator
from .lattice import AdaptedProcess, ScenarioTree, level_moments


DEFAULT_EPSILON_SCHEDULE = tuple(2.0 ** -k for k in range(11))


@dataclass(frozen=True)
class SolverConfig:
    """Solver knobs.  ``beta = None`` resolves to 24 L^2 + 1 at solve time."""

    beta: float | None = None
    picard_tol: float = 1e-10
    picard_max_iters: int = 200
    epsilon_schedule: tuple = DEFAULT_EPSILON_SCHEDULE
    scheme: str = "penalized"
    hard_gate: bool = False
    divergence_ratio: float = 1.05
    divergence_patience: int = 5

    def __post_init__(self):
        sched = tuple(float(e) for e in self.epsilon_schedule)
        object.__setattr__(self, "epsilon_schedule", sched)
        if any(e <= 0 for e in sched):
            raise ValueError("epsilon schedule must be positive")
        if any(later >= earlier for earlier, later in zip(sched, sched[1:])):
            raise ValueError("epsilon schedule must be strictly decreasing")
        if self.beta is not None and self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.scheme not in ("penalized", "prox_step"):
            raise ValueError(f"unknown scheme {self.scheme!r}")


@dataclass(frozen=True)
class WellposednessReport:
    """Smallness gate K e^{beta T} < 2 L^2 (uniqueness) resp. < 6 L^2 (existence)."""

    L: float
    K: float
    horizon: float
    beta: float
    growth: float
    uniqueness_ok: bool
    existence_ok: bool
    uniqueness_margin: float
    existence_margin: float


def check_wellposedness(L: float, K: float, horizon: float,
                        beta: float) -> WellposednessReport:
    """Evaluate the contraction gate.  K = 0 has no delay and passes trivially;
    L = 0 with K > 0 makes both conditions unattainable."""
    growth = K * math.exp(beta * horizon)
    if K == 0.0:
        uniq, exist = True, True
    elif L == 0.0:
        uniq, exist = False, False
    else:
        uniq = growth < 2 * L ** 2
        exist = growth < 6 * L ** 2
    return WellposednessReport(
        L=L, K=K, horizon=horizon, beta=beta, growth=growth,
        uniqueness_ok=uniq, existence_ok=exist,
        uniqueness_margin=2 * L ** 2 - growth,
        existence_margin=6 * L ** 2 - growth,
    )


@dataclass
class PicardDiagnostics:
    iterate_distances: list = field(default_factory=list)
    contraction_ratios: list = field(default_factory=list)
    converged: bool = False
    iterations_used: int = 0


@dataclass(eq=False)
class Solution:
    """Adapted triple (Y, Z, U) plus the fixed-point diagnostics.

    Y spans levels 0..n; Z and U span 0..n-1.  ``frozen_past`` is the Picard
    iterate the final backward pass froze its delay arguments on; residual
    checks replay the pass against it.
    """

    Y: AdaptedProcess
    Z: AdaptedProcess
    U: AdaptedProcess
    diagnostics: PicardDiagnostics
    scheme: str
    epsilon: float | None = None
    frozen_past: tuple | None = None
    wellposedness: WellposednessReport | None = None


class PicardNonConvergence(RuntimeError):
    """Picard iteration failed; ``diverged`` separates blow-up from slow decay."""

    def __init__(self, message: str, diagnostics: PicardDiagnostics, diverged: bool):
        super().__init__(message)
        self.diagnostics = diagnostics
        self.diverged = diverged


class NonFiniteIterate(PicardNonConvergence):
    """A sweep produced a non-finite iterate; ``level`` and ``node`` locate the
    first non-finite Y the backward pass reached (None if Y is finite)."""

    def __init__(self, message: str, diagnostics: PicardDiagnostics, level, node):
        super().__init__(message, diagnostics, diverged=True)
        self.level, self.node = level, node


class WellposednessError(RuntimeError):
    """Raised instead of warning when the hard gate is enabled."""

    def __init__(self, message: str, report: WellposednessReport):
        super().__init__(message)
        self.report = report


def _as_leaf_values(tree: ScenarioTree, xi) -> np.ndarray:
    arr = np.asarray(xi, dtype=float)
    n_leaves = tree.level_size(tree.grid.n_steps)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.shape[0] != n_leaves:
        raise ValueError(f"terminal data has {arr.shape[0]} rows, tree has {n_leaves} leaves")
    if not np.all(np.isfinite(arr)):
        raise ValueError("terminal data must be finite on every leaf")
    return arr


def _zero_pair(tree: ScenarioTree, m: int) -> tuple:
    n, d = tree.grid.n_steps, tree.bm_dim
    ys = [np.zeros((tree.level_size(i), m)) for i in range(n + 1)]
    zs = [np.zeros((tree.level_size(i), m, d)) for i in range(n)]
    return AdaptedProcess(tree, ys), AdaptedProcess(tree, zs)


def _one_pass(tree: ScenarioTree, xi: np.ndarray, gen: GeneratorSpec,
              frozen_y: AdaptedProcess, frozen_z: AdaptedProcess,
              phi: ConvexFunction | None, epsilon: float | None,
              scheme: str):
    n, dt = tree.grid.n_steps, tree.grid.dt
    y_levels = [None] * (n + 1)
    z_levels = [None] * n
    u_levels = [None] * n
    y_levels[n] = xi.copy()

    for i in range(n - 1, -1, -1):
        expect, z_here = level_moments(tree, y_levels[i + 1])
        drift = level_drift(gen, tree, i, expect, z_here, frozen_y, frozen_z)
        target = expect + dt * drift
        if phi is None or isinstance(phi, Zero):
            y_here = target
            u_here = np.zeros_like(target)
        elif scheme == "penalized":
            y_here, u_here = convex.resolvent_step(phi, epsilon, dt, target)
        else:  # prox_step
            y_here = phi.prox(dt, target)
            u_here = (target - y_here) / dt
        y_levels[i] = y_here
        z_levels[i] = z_here
        u_levels[i] = u_here
    return y_levels, z_levels, u_levels


def backward_pass(tree: ScenarioTree, xi, gen: GeneratorSpec,
                  penalty: tuple | None = None,
                  frozen: tuple | None = None):
    """One backward sweep; returns the (Y, Z) pair.

    ``penalty`` is an optional (phi, epsilon) pair; ``frozen`` supplies the
    (Y, Z) processes the delay arguments are read from and is mandatory for
    generators with a nonzero delay constant.
    """
    xi = _as_leaf_values(tree, xi)
    phi, eps = (None, None) if penalty is None else penalty
    if eps is not None and not eps > 0:
        raise ValueError("penalty epsilon must be positive")
    if frozen is None:
        if gen.uses_past():
            raise ValueError("delayed generator needs frozen (Y, Z) paths")
        frozen = _zero_pair(tree, xi.shape[1])
    ys, zs, _ = _one_pass(tree, xi, gen, frozen[0], frozen[1], phi, eps,
                          scheme="penalized")
    return AdaptedProcess(tree, ys), AdaptedProcess(tree, zs)


def _weighted_distance(tree: ScenarioTree, y_new, z_new, y_old, z_old,
                       beta: float) -> float:
    """Discrete analogue of the beta-weighted norms behind the contraction
    gate: sup-norm of e^{beta t/2} |dY| plus the square root of the
    e^{beta t}-weighted H^2 sum of dZ."""
    dt = tree.grid.dt
    # np.max, unlike the builtin, keeps a NaN level from being skipped
    sup_y = float(np.max([math.exp(0.5 * beta * i * dt) * float(np.max(np.abs(a - b_)))
                          for i, (a, b_) in enumerate(zip(y_new, y_old))]))
    h2_z = 0.0
    for i, (a, b_) in enumerate(zip(z_new, z_old)):
        w = math.exp(beta * i * dt)
        h2_z += dt * w * float(np.mean(np.sum((a - b_) ** 2, axis=(1, 2))))
    return sup_y + math.sqrt(h2_z)


def resolve_beta(config: SolverConfig, gen: GeneratorSpec) -> float:
    if config.beta is not None:
        return config.beta
    return 24.0 * gen.lipschitz_instant() ** 2 + 1.0


def picard_solve(tree: ScenarioTree, xi, gen: GeneratorSpec,
                 config: SolverConfig | None = None,
                 penalty: tuple | None = None,
                 scheme: str | None = None) -> Solution:
    """Outer fixed-point iteration over the frozen past segments.

    Starts from the zero pair, sweeps until the weighted iterate distance
    falls below ``picard_tol``, and raises `PicardNonConvergence` on blow-up
    (ratio above ``divergence_ratio`` for ``divergence_patience`` consecutive
    sweeps) or exhaustion of ``picard_max_iters``.
    """
    config = config or SolverConfig()
    scheme = scheme or config.scheme
    xi = _as_leaf_values(tree, xi)
    phi, eps = (None, None) if penalty is None else penalty
    horizon = tree.grid.horizon
    beta = resolve_beta(config, gen)

    report = check_wellposedness(gen.lipschitz_instant(),
                                 gen.lipschitz_delay(horizon), horizon, beta)
    if not report.existence_ok:
        msg = (f"well-posedness gate failed: K e^(beta T) = {report.growth:.6g} "
               f">= 6 L^2 = {6 * report.L ** 2:.6g}")
        if config.hard_gate:
            raise WellposednessError(msg, report)
        warnings.warn(msg + "; attempting anyway with divergence detection",
                      RuntimeWarning, stacklevel=2)
    if isinstance(gen, CustomGenerator):
        audit = lipschitz_probe_audit(gen, xi.shape[1], tree.bm_dim, horizon,
                                      tree.grid.n_steps)
        if audit["instant_slack"] > 1e-8 or audit["delay_slack"] > 1e-8:
            warnings.warn(
                f"declared Lipschitz constants look too small: {audit}",
                RuntimeWarning, stacklevel=2)

    frozen_y, frozen_z = _zero_pair(tree, xi.shape[1])
    diag = PicardDiagnostics()
    over_ratio = 0
    for sweep in range(1, config.picard_max_iters + 1):
        ys, zs, us = _one_pass(tree, xi, gen, frozen_y, frozen_z, phi, eps, scheme)
        dist = _weighted_distance(tree, ys, zs, frozen_y.values, frozen_z.values, beta)
        diag.iterate_distances.append(dist)
        diag.iterations_used = sweep
        if not math.isfinite(dist):
            bad = [(i, int(np.flatnonzero(~np.isfinite(y).all(axis=1))[0]))
                   for i, y in reversed(list(enumerate(ys))) if not np.isfinite(y).all()]
            level, node = bad[0] if bad else (None, None)
            raise NonFiniteIterate(
                f"sweep {sweep} gave a non-finite iterate (distance {dist}); first "
                f"non-finite Y of the backward pass at level {level}, node {node}",
                diag, level, node)
        if len(diag.iterate_distances) >= 2:
            prev = diag.iterate_distances[-2]
            ratio = dist / prev if prev > 0 else 0.0
            diag.contraction_ratios.append(ratio)
            over_ratio = over_ratio + 1 if ratio > config.divergence_ratio else 0
        prev_y, prev_z = frozen_y, frozen_z
        frozen_y = AdaptedProcess(tree, ys)
        frozen_z = AdaptedProcess(tree, zs)
        if dist <= config.picard_tol:
            diag.converged = True
            return Solution(
                Y=frozen_y, Z=frozen_z, U=AdaptedProcess(tree, us),
                diagnostics=diag, scheme=scheme, epsilon=eps,
                frozen_past=(prev_y, prev_z), wellposedness=report)
        if over_ratio >= config.divergence_patience:
            raise PicardNonConvergence(
                f"picard iteration diverging: last ratios "
                f"{diag.contraction_ratios[-config.divergence_patience:]}",
                diag, diverged=True)
    raise PicardNonConvergence(
        f"no convergence within {config.picard_max_iters} sweeps "
        f"(last distance {diag.iterate_distances[-1]:.3g})",
        diag, diverged=False)


def _require_finite_penalty(phi: ConvexFunction, xi: np.ndarray):
    vals = phi.value(xi)
    bad = np.where(~np.isfinite(np.atleast_1d(vals)))[0]
    if bad.size:
        raise ValueError(
            f"phi(xi) is infinite on {bad.size} leaves (first: leaf {bad[0]}); "
            "terminal data must lie in the domain of phi")


def solve_penalized(tree: ScenarioTree, xi, gen: GeneratorSpec,
                    phi: ConvexFunction, epsilon: float,
                    config: SolverConfig | None = None) -> Solution:
    """Solve the approximating equation with penalty gradient at level eps."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    xi = _as_leaf_values(tree, xi)
    _require_finite_penalty(phi, xi)
    return picard_solve(tree, xi, gen, config, penalty=(phi, epsilon),
                        scheme="penalized")


@dataclass(frozen=True)
class EpsilonTableRow:
    """Distances between consecutive penalized solutions plus per-run summaries."""

    epsilon: float
    epsilon_next: float
    dy_s2: float
    dz_h2: float
    grad_h2_sq: float
    phi_resolvent_h1: float


@dataclass(eq=False)
class BsviResult:
    solution: Solution
    epsilon_table: list
    per_epsilon: list  # [(epsilon, Solution)] over the whole schedule


def solve_bsvi(tree: ScenarioTree, xi, gen: GeneratorSpec,
               phi: ConvexFunction, config: SolverConfig | None = None) -> BsviResult:
    """Run the penalization schedule; the returned solution is the final-eps run.

    The table rows pair consecutive schedule entries with the S^2/H^2 norms of
    their differences plus the H^2 mass of the penalty gradient and the time
    integral of phi at the resolvent points, feeding the rate and bound audits.
    """
    config = config or SolverConfig()
    dt = tree.grid.dt
    per_eps = []
    for eps in config.epsilon_schedule:
        per_eps.append((eps, solve_penalized(tree, xi, gen, phi, eps, config)))
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


def prox_step_solve(tree: ScenarioTree, xi, gen: GeneratorSpec,
                    phi: ConvexFunction,
                    config: SolverConfig | None = None) -> Solution:
    """Reference scheme: project each backward step through prox(phi, dt, .).

    Same Picard outer loop; U is the prox residual (Ytil - Y)/dt, an element
    of the subdifferential at Y exactly, so Y stays in the domain of phi at
    every node.
    """
    xi = _as_leaf_values(tree, xi)
    _require_finite_penalty(phi, xi)
    return picard_solve(tree, xi, gen, config, penalty=(phi, None),
                        scheme="prox_step")
