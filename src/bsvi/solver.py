"""Backward schemes for the delayed BSVI: penalized and prox-step.

The outer Picard iteration freezes the past segments at the previous iterate
(starting from the zero pair) and runs one backward pass per sweep:

    E_i   = mean of the node's children Y values        (exact expectation)
    Z_i   = martingale projection of the children
    Ytil  = E_i + dt * F(t_i, E_i, Z_i, frozen past)
    Y_i   = solve  Y + dt * grad phi_eps(Y) = Ytil       (eps given: penalized)
          | prox(phi, dt, Ytil)                          (no eps: prox step)

With phi = 0 (`convex.Zero`, the default) either step is the classical step
Y_i = Ytil, U_i = +0.0 of the delayed BSDE, bitwise: the prox of zero is a copy.

The penalized update is implicit in the penalty but closed-form: the resolvent
identity in `convex.resolvent` reduces it to one prox evaluation at
parameter eps + dt, and U_i = grad phi_eps(Y_i) = (Ytil - Y_i)/dt makes the
discrete equation Y_i + dt U_i = E_i + dt F_i exact.  (An explicit update
grad phi_eps(E_i) loses the eps -> 0 limit at fixed dt: its correction scales
like dt/eps once eps falls below dt.)

Each step runs on a whole level at once: `lattice.level_moments` gives
(E_i, Z_i) and `generators.level_drift` the drift, reading the frozen past
through ancestor rows.  A solve resolves the drift's past-Z terms to those
rows once (`generators.past_z_rows`), not once per sweep.  Past segments read
at offset 0 resolve to the current predictor pair (E_i, Z_i), so generators
with no effective delay never touch the frozen iterate: the Picard loop stops
after the confirmation sweep, which reproduces the first one bitwise and is
therefore replayed, not recomputed (a `CustomGenerator` always sweeps).

`solve_bsvi` sweeps its E solves as one batch, a forest of E trees: node j of
block e is row e B^i + j of level i, so children and ancestors sit where the
row arithmetic of one tree puts them, the level kernels run unchanged, and
each eps enters as an (E, 1, 1) column.  A level of one block's rows is shared
by every block: xi and level n - 1's Z, which xi alone decides, are computed
once per solve.  `picard_solve` is a batch of one.
Picard sweeps are inherently sequential; solves share immutable trees safely.
"""

import math
import operator
import warnings
from functools import cached_property

import numpy as np

from . import convex
from .analysis import epsilon_table
from .convex import ConvexFunction, Zero
from .generators import (CustomGenerator, GeneratorSpec, frozen_prefix, level_drift,
                         lipschitz_probe_audit, past_z_rows, prefix_coefficients)
from .lattice import AdaptedProcess, Record, ScenarioTree, level_moments, row_sq_norms


DEFAULT_EPSILON_SCHEDULE = tuple(2.0 ** -k for k in range(11))
# Picard blow-up: this many consecutive contraction ratios above the threshold.
DIVERGENCE_RATIO = 1.05
DIVERGENCE_PATIENCE = 5


class SolverConfig(Record, frozen=True):
    """Solver knobs.  ``beta = None`` resolves to 24 L^2 + 1 at solve time."""

    beta: float | None = None
    picard_tol: float = 1e-10
    picard_max_iters: int = 200
    epsilon_schedule: tuple = DEFAULT_EPSILON_SCHEDULE
    hard_gate: bool = False

    def __post_init__(self):
        sched = tuple(float(e) for e in self.epsilon_schedule)
        object.__setattr__(self, "epsilon_schedule", sched)
        if not sched:
            raise ValueError("epsilon schedule must not be empty")
        # negated tests, so that NaN fails them
        if any(not 0 < e < math.inf for e in sched):
            raise ValueError(f"epsilon_schedule entries must be positive and finite: {sched}")
        if any(not later < earlier for earlier, later in zip(sched, sched[1:])):
            raise ValueError("epsilon schedule must be strictly decreasing")
        if self.beta is not None and not 0 < self.beta < math.inf:
            raise ValueError(f"beta must be positive and finite: {self.beta!r}")
        if not 0 <= self.picard_tol < math.inf:
            raise ValueError(f"picard_tol must be nonnegative and finite: {self.picard_tol!r}")
        # a bool is an int, and True would read as one sweep
        if not (isinstance(self.picard_max_iters, (int, np.integer))
                and not isinstance(self.picard_max_iters, bool)
                and self.picard_max_iters >= 1):
            raise ValueError(f"picard_max_iters must be an int >= 1: {self.picard_max_iters!r}")
        if not isinstance(self.hard_gate, (bool, np.bool_)):  # bool("false") is True
            raise ValueError(f"hard_gate must be true or false: {self.hard_gate!r}")


class WellposednessReport(Record, frozen=True):
    """Smallness gate K e^{beta T} < 2 L^2 (uniqueness) resp. < 6 L^2 (existence)."""

    L: float
    K: float
    beta: float
    growth: float
    uniqueness_ok: bool
    existence_ok: bool
    uniqueness_margin: float
    existence_margin: float


def check_wellposedness(L: float, K: float, horizon: float,
                        beta: float) -> WellposednessReport:
    """Evaluate the contraction gate.  K = 0 has no delay and passes trivially;
    L = 0 with K > 0 makes both conditions unattainable.  A weight e^{beta T}
    or an L^2 beyond the float range raises ValueError."""
    try:
        weight = math.exp(beta * horizon)
    except OverflowError:
        raise ValueError(f"beta * T = {beta * horizon:.6g} is too large: the weight "
                         "e^(beta T) overflows a float") from None
    growth = K * weight
    l_sq = _square_lipschitz(L)
    uniq, exist = K == 0.0 or growth < 2 * l_sq, K == 0.0 or growth < 6 * l_sq
    return WellposednessReport(L=L, K=K, beta=beta, growth=growth, uniqueness_ok=uniq,
                               existence_ok=exist, uniqueness_margin=2 * l_sq - growth,
                               existence_margin=6 * l_sq - growth)


class PicardDiagnostics(Record):
    """Per-sweep iterate distances and ratios; a replayed sweep counts too."""

    iterate_distances: list
    contraction_ratios: list
    converged: bool
    iterations_used: int

    def __init__(self, iterate_distances=None, contraction_ratios=None, converged=False,
                 iterations_used=0):  # written out: None is a fresh list
        self.iterate_distances = [] if iterate_distances is None else iterate_distances
        self.contraction_ratios = [] if contraction_ratios is None else contraction_ratios
        self.converged, self.iterations_used = converged, iterations_used


class Solution(Record, eq=False):
    """Adapted triple (Y, Z, U) plus the fixed-point diagnostics.

    Y spans levels 0..n; Z and U span 0..n-1.  ``frozen_past`` is the Picard
    iterate the final backward pass froze its delay arguments on; residual
    checks replay the pass against it.  After a replayed confirmation sweep
    it is (Y, Z) itself, the values that sweep froze.  ``_batch`` (a slot, not
    a field) marks a block of a batch whose blocks left in one sweep: (the
    batch's Y, Z and U level lists, the block's position, the levels it was
    handed), so block b of a level of B^i rows per block is its rows b B^i ..
    (b + 1) B^i - 1 (a level of B^i rows is every block's); it is unset for a
    block copied out while others kept sweeping.
    """

    __slots__ = ("_batch",)

    Y: AdaptedProcess
    Z: AdaptedProcess
    U: AdaptedProcess
    diagnostics: PicardDiagnostics
    epsilon: float | None = None
    frozen_past: tuple | None = None
    wellposedness: WellposednessReport | None = None

    def _block(self):
        """``_batch``'s batch levels and position while the solution holds every
        level it was handed (by identity), else None."""
        mark = getattr(self, "_batch", None)
        if mark is None:
            return None
        own = (*self.Y.values, *self.Z.values, *self.U.values)
        same = len(own) == len(mark[2]) and all(map(operator.is_, own, mark[2]))
        return mark[:2] if same else None


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


def _zero_levels(tree: ScenarioTree, m: int, blocks: int) -> tuple:
    """(Y levels, Z levels) of zeros for ``blocks`` solves: zero-stride views of one
    +0.0 in an immutable buffer, so read-only (`np.broadcast_to`'s arrays, without its frames)."""
    zero, sizes, d = bytes(8), tree.level_sizes, tree.bm_dim
    return ([np.ndarray((blocks * s, m), float, zero, 0, (0, 0)) for s in sizes],
            [np.ndarray((blocks * s, m, d), float, zero, 0, (0, 0, 0)) for s in sizes[:-1]])


def _one_pass(tree: ScenarioTree, xi: np.ndarray, gen: GeneratorSpec,
              frozen_y: list, frozen_z: list, phi: ConvexFunction,
              step, past_rows: tuple,
              coeffs: tuple | None = None, last: tuple | None = None,
              zero_start: bool = False):
    """One backward sweep of a batch; ``xi`` is its leaf level, kept as Y level
    n, ``step`` the penalized step's `convex.resolvent` map (None: the prox step),
    ``coeffs`` a column-constant table's (`generators.prefix_coefficients`) and ``last``
    level n - 1's `level_moments` of a one-block ``xi`` (else ``xi`` holds every block).  Returns
    the levels and `_weighted_distance`'s (levels, blocks) tables of max |dY| and
    sum |dZ|^2 per block, a shared level's once for every block, each level reduced
    as it is made, from the frozen iterate or a ``zero_start``'s zeros (x - (+0.0) = x)."""
    n, dt, m, sizes = tree.grid.n_steps, tree.grid.dt, xi.shape[1], tree.level_sizes
    blocks, custom = len(frozen_y[0]), isinstance(gen, CustomGenerator)  # a Y_0 row per block
    prefix = None if coeffs is None else frozen_prefix(coeffs, frozen_z, tree.branching)
    y_levels, z_levels, u_levels = [None] * n + [xi], [None] * n, [None] * n
    sup, h2 = np.zeros((n + 1, blocks)), np.zeros((n, blocks))
    for i in range(n, -1, -1):
        size = sizes[i]
        if i < n:
            expect, z_here = last if last and i == n - 1 else level_moments(tree, y_levels[i + 1])
            # shared moments are tiled for a callback; a built-in broadcasts one
            # block's (1, size) rows against the frozen blocks
            expect, z_in = (expect, z_here) if len(expect) == blocks * size else \
                (np.tile(expect, (blocks, 1)), np.tile(z_here, (blocks, 1, 1))) \
                if custom else (expect[None], z_here[None])
            # a new array: a custom drift may return an alias of its argument
            target = (dt * level_drift(gen, tree, i, expect, z_in, frozen_y, frozen_z,
                                       past_rows, prefix)).reshape(-1, size, m)
            target += expect.reshape(-1, size, m)
            if step is not None:
                if len(target) < blocks:  # a shared target serves every block's epsilon
                    target = np.broadcast_to(target, (blocks, size, m))
                y, u = step(target)
                y_levels[i], u_levels[i] = y.reshape(-1, m), u.reshape(-1, m)
            else:
                target = target.reshape(-1, m)
                y_levels[i] = phi.prox(dt, target)
                u_levels[i] = (target - y_levels[i]) / dt
            del expect, target  # the next level's moments are taken without them
            z_levels[i] = z_here
            if z_here is not frozen_z[i]:  # a shared level after the first sweep has dZ = 0
                h2[i] = np.add.reduce(row_sq_norms(
                    z_here if zero_start else z_here - frozen_z[i]).reshape(-1, size), axis=1)
        if y_levels[i] is not frozen_y[i]:
            dy = y_levels[i] if zero_start else y_levels[i] - frozen_y[i]
            sup[i] = np.maximum.reduce(np.abs(dy, out=None if zero_start else dy).reshape(
                -1, size * m), axis=1)
            del dy  # the next level is made without it
    return y_levels, z_levels, u_levels, (sup, h2)


def _distance_weights(tree: ScenarioTree, beta: float) -> tuple:
    """`_weighted_distance`'s per-level columns, built once per solve:
    e^{beta t/2} for every Y level, dt e^{beta t} and the rows per block for every
    Z level.  A beta whose `TimeGrid.weights` are not floats raises ValueError naming it."""
    grid = tree.grid
    z_weights = [[grid.dt * w] for w in grid.weights(beta)[:-1]]  # first, so a refusal names beta
    return (np.array([[w] for w in grid.weights(0.5 * beta)]), np.array(z_weights),
            np.array(tree.level_sizes[:-1], dtype=float)[:, None])


def _weighted_distance(tables: tuple, weights: tuple) -> np.ndarray:
    """Discrete analogue of the beta-weighted norms behind the contraction gate,
    one per block of a batch: sup-norm of e^{beta t/2} |dY| plus the root of the
    e^{beta t}-weighted H^2 sum of dZ, `_one_pass`'s tables weighted and folded
    once per sweep: w max |dY| is max w |dY| exactly, and the H^2 sum adds level
    after level (a reduce would sum a one-block table pairwise)."""
    y_weights, z_weights, z_sizes = weights
    sup, h2 = tables[0], tables[1] / z_sizes  # each block's level mean as np.mean takes it
    h2 *= z_weights
    return np.maximum.reduce(y_weights * sup, axis=0) + np.sqrt(np.add.accumulate(h2)[-1])


def _blocks(levels: list, index: list, blocks: int, sizes: tuple, split: bool = False) -> list:
    """Each level's rows of the blocks ``index`` (ascending), a copy that holds
    no other block's rows, sliced when the blocks run contiguously; with ``split``
    each block's own levels, views of one reshape per level; a shared level, of one
    block's rows, is every block's."""
    if split:
        cut = [None if len(a) == size else a.reshape(blocks, size, *a.shape[1:])
               for a, size in zip(levels, sizes)]
        return [[a if c is None else c[b] for a, c in zip(levels, cut)] for b in index]
    lo, hi = index[0], index[-1] + 1
    return [a if len(a) == size else a[lo * size:hi * size].copy() if hi - lo == len(index)
            else a.reshape(blocks, -1, *a.shape[1:])[index].reshape(-1, *a.shape[1:])
            for a, size in zip(levels, sizes)]


def _square_lipschitz(L: float) -> float:
    try:
        return L ** 2
    except OverflowError:
        raise ValueError(f"Lipschitz constant L = {L:.6g} is too large: "
                         "L^2 overflows a float") from None


def resolve_beta(config: SolverConfig, gen: GeneratorSpec) -> float:
    if config.beta is not None:
        return config.beta
    return 24.0 * _square_lipschitz(gen.lipschitz_instant()) + 1.0


def _check_gate(tree: ScenarioTree, xi: np.ndarray, gen: GeneratorSpec,
                config: SolverConfig, phi: ConvexFunction) -> WellposednessReport:
    """Once-per-solve admission checks, in order: the terminal data lies in
    dom phi, the well-posedness gate, which warns or, under ``hard_gate``,
    raises `WellposednessError`, and for a `CustomGenerator` the probe audit
    of its declared constants.  Warnings point at the caller of a public solve."""
    bad = np.flatnonzero(~np.isfinite(np.atleast_1d(phi.value(xi))))
    if bad.size:
        raise ValueError(f"phi(xi) is infinite on {bad.size} leaves (first: leaf {bad[0]}); "
                         "terminal data must lie in the domain of phi")
    horizon = tree.grid.horizon
    report = check_wellposedness(gen.lipschitz_instant(), gen.lipschitz_delay(horizon),
                                 horizon, resolve_beta(config, gen))
    if not report.existence_ok:
        msg = (f"well-posedness gate failed: K e^(beta T) = {report.growth:.6g} "
               f">= 6 L^2 = {6 * report.L ** 2:.6g}")
        if config.hard_gate:
            raise WellposednessError(msg, report)
        warnings.warn(msg + "; attempting anyway with divergence detection",
                      RuntimeWarning, stacklevel=4)
    if isinstance(gen, CustomGenerator):
        audit = lipschitz_probe_audit(gen, xi.shape[1], tree.bm_dim, horizon,
                                      tree.grid.n_steps)
        # a NaN slack fails the negated test
        if not (audit["instant_slack"] <= 1e-8 and audit["delay_slack"] <= 1e-8):
            warnings.warn(f"declared Lipschitz constants look too small: {audit}",
                          RuntimeWarning, stacklevel=4)
    return report


def picard_solve(tree: ScenarioTree, xi, gen: GeneratorSpec,
                 config: SolverConfig | None = None, *,
                 phi: ConvexFunction = Zero(),
                 epsilon: float | None = None) -> Solution:
    """Outer fixed-point iteration over the frozen past segments.

    ``epsilon > 0`` picks the penalized step at that level, no ``epsilon``
    the prox step (the eps -> 0 reflection); with the default phi = 0 either
    is the classical step.  Starts from the zero pair, sweeps until the
    weighted iterate distance falls below ``picard_tol``, and raises
    `PicardNonConvergence` on blow-up (ratio above ``DIVERGENCE_RATIO`` for
    ``DIVERGENCE_PATIENCE`` consecutive sweeps) or exhaustion of
    ``picard_max_iters``.  `_check_gate` admits the problem first.
    """
    if epsilon is not None and not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite: {epsilon!r}")
    return _solve(tree, xi, gen, config or SolverConfig(), phi, (epsilon,))[0]


def _solve(tree: ScenarioTree, xi, gen: GeneratorSpec, config: SolverConfig,
           phi: ConvexFunction, epsilons: tuple) -> list:
    """Every public solve's path: leaf values, `_check_gate`, `_picard_batch`."""
    xi = _as_leaf_values(tree, xi)
    return _picard_batch(tree, xi, gen, config, phi, epsilons,
                         _check_gate(tree, xi, gen, config, phi))


def _picard_batch(tree: ScenarioTree, xi: np.ndarray, gen: GeneratorSpec,
                  config: SolverConfig, phi: ConvexFunction,
                  epsilons: tuple, report: WellposednessReport) -> list:
    """The Picard loop of one solve per entry of ``epsilons`` (all None or all
    positive) as one batch; returns one `Solution` per entry.  A converged
    block leaves the batch, a failed one drops the blocks after it: what is
    raised is the first entry's failure, as one solve after another raises it."""
    past_rows = past_z_rows(gen, tree)
    coeffs = prefix_coefficients(gen, past_rows)
    # a pass that reads no frozen row gives the same sweep from any iterate, so
    # the confirmation sweep replays the first; a custom callback always sweeps
    replay = not isinstance(gen, CustomGenerator) and all(
        row is None for terms in past_rows for row, _ in terms)
    weights, sizes = _distance_weights(tree, report.beta), tree.level_sizes
    diags = [PicardDiagnostics() for _ in epsilons]
    solutions, failure = [None] * len(epsilons), None
    active = list(range(len(epsilons)))
    xi = xi.copy()  # one read-only leaf level for every block, apart from the caller's
    xi.flags.writeable = False
    last = level_moments(tree, xi)  # level n - 1's (E, Z), xi's alone
    last[1].flags.writeable = False
    frozen_y, frozen_z = _zero_levels(tree, xi.shape[1], len(active))
    step, stepped = None, None  # the penalized step map, built for the blocks `stepped`
    for sweep in range(1, config.picard_max_iters + 1):
        blocks = len(active)
        if replay and sweep > 1:  # us is the last pass's, re-blocked below
            ys, zs, dists = frozen_y, frozen_z, np.zeros(blocks)
        else:
            if epsilons[0] is not None and stepped != active:  # once per active set
                step, stepped = convex.resolvent(phi, np.array(
                    [epsilons[e] for e in active])[:, None, None], tree.grid.dt), active
            ys, zs, us, tables = _one_pass(tree, xi, gen, frozen_y, frozen_z, phi,
                                           step, past_rows, coeffs, last, sweep == 1)
            dists = _weighted_distance(tables, weights)
        keep, done = [], []
        for pos, e in enumerate(active):
            diag, dist = diags[e], float(dists[pos])
            diag.iterate_distances.append(dist)
            diag.iterations_used = sweep
            if not math.isfinite(dist):
                own = _blocks(ys, [pos], blocks, sizes, True)[0]
                bad = [(i, int(np.flatnonzero(~np.isfinite(y).all(axis=1))[0]))
                       for i, y in reversed(list(enumerate(own))) if not np.isfinite(y).all()]
                level, node = bad[0] if bad else (None, None)
                failure = NonFiniteIterate(
                    f"sweep {sweep} gave a non-finite iterate (distance {dist}); first "
                    f"non-finite Y of the backward pass at level {level}, node {node}",
                    diag, level, node)
                break
            if len(diag.iterate_distances) >= 2:
                prev = diag.iterate_distances[-2]
                diag.contraction_ratios.append(dist / prev if prev > 0 else 0.0)
            recent = diag.contraction_ratios[-DIVERGENCE_PATIENCE:]
            if dist <= config.picard_tol:
                diag.converged = True
                done.append(pos)
            elif len(recent) == DIVERGENCE_PATIENCE and min(recent) > DIVERGENCE_RATIO:
                failure = PicardNonConvergence(
                    f"picard iteration diverging: last ratios {recent}", diag, diverged=True)
                break
            else:
                keep.append(pos)
        # copied out while others keep sweeping, so as to hold none of their rows;
        # blocks that leave together take views of the batch and are marked as its
        # blocks; a replayed sweep froze (Y, Z) itself, which is then its past
        outs = [_blocks(levels, done, blocks, sizes, True) if not keep else
                [_blocks(levels, [pos], blocks, sizes) for pos in done]
                for levels in (ys, zs, us, *(() if ys is frozen_y else (frozen_y, frozen_z)))]
        batch = None if keep else (ys, zs, us)
        for pos, *own in zip(done, *outs):
            y, z, u, *past = (AdaptedProcess(tree, levels) for levels in own)
            e = active[pos]
            solutions[e] = Solution(y, z, u, diags[e], epsilons[e], tuple(past) or (y, z), report)
            if batch is not None:
                solutions[e]._batch = batch, pos, (*y.values, *z.values, *u.values)
        active = [active[pos] for pos in keep]
        if not active:
            break
        if not replay:
            del us  # the next pass need not keep this sweep's U alive
        frozen_y, frozen_z = ys, zs
        if len(keep) < blocks:
            frozen_y, frozen_z = _blocks(ys, keep, blocks, sizes), _blocks(zs, keep, blocks, sizes)
            if replay:
                us = _blocks(us, keep, blocks, sizes)
        del ys, zs  # after a block exit, the next pass need not keep the whole batch
    if active:  # a failure drops the blocks after it, so this one comes first
        diag = diags[active[0]]
        failure = PicardNonConvergence(
            f"no convergence within {config.picard_max_iters} sweeps "
            f"(last distance {diag.iterate_distances[-1]:.3g})", diag, diverged=False)
    if failure is not None:
        raise failure
    return solutions


class BsviResult(Record, eq=False):
    """The schedule's solutions; ``epsilon_table`` is computed on first read."""

    solution: Solution
    per_epsilon: list  # [(epsilon, Solution)] over the whole schedule
    phi: ConvexFunction
    tree: ScenarioTree

    @cached_property
    def epsilon_table(self) -> list:
        return epsilon_table(self.per_epsilon, self.phi, self.tree)


def solve_bsvi(tree: ScenarioTree, xi, gen: GeneratorSpec,
               phi: ConvexFunction, config: SolverConfig | None = None) -> BsviResult:
    """Run the penalization schedule; the returned solution is the final-eps run.

    The table (`analysis.epsilon_table`) pairs consecutive schedule entries,
    feeding the rate and bound audits.
    The admission checks of `_check_gate` (terminal data in dom phi, the
    well-posedness gate, a custom drift's probe audit) run once; the whole
    schedule then runs as one batch (see the module docstring).
    """
    config = config or SolverConfig()
    per_eps = list(zip(config.epsilon_schedule, _solve(
        tree, xi, gen, config, phi, config.epsilon_schedule)))
    return BsviResult(per_eps[-1][1], per_eps, phi, tree)


def prox_step_solve(tree: ScenarioTree, xi, gen: GeneratorSpec,
                    phi: ConvexFunction,
                    config: SolverConfig | None = None) -> Solution:
    """Reference scheme: project each backward step through prox(phi, dt, .).

    Same Picard outer loop; U is the prox residual (Ytil - Y)/dt, an element
    of the subdifferential at Y exactly, so Y stays in the domain of phi at
    every node.
    """
    return _solve(tree, xi, gen, config or SolverConfig(), phi, (None,))[0]
