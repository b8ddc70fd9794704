"""Time-delayed generators F(t, y, z, past_y, past_z) and their delay measures.

A delay measure is a probability measure on [-horizon, 0] weighting how the
past segments of (Y, Z) enter the drift, integrated through its (theta, weight)
atoms on the grid.  Past segments are exposed to the generator as accessors
theta -> value with theta in [-horizon, 0]; lookups at negative absolute times
resolve through the extension Y(t) = Y(0), Z(t) = 0.

A built-in drift is data, ``instant(y, z) + sum_k c_k z(t + theta_k)``, with
exact Lipschitz constants; a random two-point probe audit
(`lipschitz_probe_audit`) backs declared constants for custom callbacks.
`past_z_rows` resolves the past-Z terms of every level to frozen grid rows
once per solve, so ``past_z_terms`` must be a pure function of
(t, horizon, dt).  Specs are immutable and evaluation is pure; custom
callbacks must be re-entrant.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .lattice import TIME_SLACK, grid_row, row_sq_norms, segment_accessors


class GeneratorError(RuntimeError):
    """A generator callback failed or was called inconsistently."""


# ---------------------------------------------------------------------------
# Delay measures
# ---------------------------------------------------------------------------

class DelayMeasure:
    """Probability measure on [-horizon, 0]."""

    def discretize(self, horizon: float | None = None,
                   dt: float | None = None) -> tuple:
        """(theta, weight) atoms on the dt grid; offsets below -horizon raise."""
        raise NotImplementedError


def _check_support(theta: float, horizon: float | None):
    if horizon is not None and theta < -horizon - 1e-9 * horizon:
        raise ValueError(f"delay offset {theta} outside [-{horizon}, 0]")


def _trapezoid(steps: int, dt: float, weight: float) -> tuple:
    """Trapezoid atoms on the offsets -steps*dt, ..., -dt, 0: ``weight`` at the
    interior offsets, half of it at both ends, none at all for steps = 0."""
    if steps == 0:
        return ()
    return tuple((-(steps - j) * dt, weight if 0 < j < steps else 0.5 * weight)
                 for j in range(steps + 1))


@dataclass(frozen=True)
class Dirac(DelayMeasure):
    """Unit mass at offset theta <= 0; theta = 0 means no delay."""

    theta: float = 0.0

    def __post_init__(self):
        if self.theta > 0:
            raise ValueError("delay offset must be <= 0")

    def discretize(self, horizon=None, dt=None):
        _check_support(self.theta, horizon)
        return ((self.theta, 1.0),)


@dataclass(frozen=True)
class UniformPast(DelayMeasure):
    """Uniform probability on [-horizon, 0]; horizon is bound at quadrature
    time, where the trapezoid rule on the dt-spaced offsets integrates it."""

    def discretize(self, horizon=None, dt=None):
        if horizon is None or dt is None:
            raise ValueError("uniform delay measure needs horizon and dt")
        return _trapezoid(int(round(horizon / dt)), dt, dt / horizon)


@dataclass(frozen=True)
class DiscreteMixture(DelayMeasure):
    """Finitely many atoms (theta_k, weight_k) with weights summing to one."""

    atoms: tuple

    def __post_init__(self):
        atoms = tuple((float(t), float(w)) for t, w in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if not atoms:
            raise ValueError("mixture needs at least one atom")
        if any(t > 0 for t, _ in atoms):
            raise ValueError("all atoms must lie at offsets <= 0")
        if any(w <= 0 for _, w in atoms):
            raise ValueError("atom weights must be positive")
        total = sum(w for _, w in atoms)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"atom weights must sum to 1, got {total}")

    def discretize(self, horizon=None, dt=None):
        for theta, _ in self.atoms:
            _check_support(theta, horizon)
        return self.atoms


def delayed_quadrature(accessor, t: float, alpha: DelayMeasure, *,
                       horizon: float | None = None,
                       dt: float | None = None) -> np.ndarray:
    """Integrate the past segment read back from grid time t against the delay
    measure: int_{-T}^0 accessor(theta) alpha(dtheta), as one weighted sum over
    the atoms of `DelayMeasure.discretize` (the uniform measure needs
    ``horizon`` and ``dt``).
    """
    return sum(c * np.asarray(accessor(theta), dtype=float)
               for theta, c in alpha.discretize(horizon, dt))


# ---------------------------------------------------------------------------
# Generator specs
# ---------------------------------------------------------------------------

class GeneratorSpec:
    """Base class.  A built-in drift overrides ``instant`` and ``past_z_terms``
    (both zero by default) and declares its Lipschitz constants."""

    alpha: DelayMeasure = Dirac(0.0)

    def instant(self, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Present-value part of the drift; (y, z) may carry leading batch axes."""
        return np.zeros_like(y)

    def past_z_terms(self, t: float, horizon: float | None,
                     dt: float | None) -> tuple:
        """(theta, c) terms of the past-Z part at grid time t (d = 1 only).

        A pure function of (t, horizon, dt): solvers and audits resolve it
        once per level (`past_z_rows`) and reuse the result on every sweep.
        """
        return ()

    def lipschitz_instant(self) -> float:
        """L in |F(t,y,z,p) - F(t,ybar,zbar,p)| <= L(|y-ybar| + |z-zbar|)."""
        raise NotImplementedError

    def lipschitz_delay(self, horizon: float) -> float:
        """K in the squared delay bound against the alpha-integral."""
        raise NotImplementedError

    def uses_past(self) -> bool:
        return self.lipschitz_delay(1.0) > 0.0


@dataclass(frozen=True)
class ZeroGen(GeneratorSpec):
    """F == 0."""

    def lipschitz_instant(self):
        return 0.0

    def lipschitz_delay(self, horizon):
        return 0.0


@dataclass(frozen=True, eq=False)
class LinearInstant(GeneratorSpec):
    """F(t, y, z) = A y + B z with A (m, m) and B (m, m, d)."""

    a_y: np.ndarray
    b_z: np.ndarray

    def __init__(self, a_y, b_z):
        a = np.atleast_2d(np.asarray(a_y, dtype=float))
        b = np.asarray(b_z, dtype=float)
        if b.ndim == 0:
            b = b.reshape(1, 1, 1)
        elif b.ndim == 2:
            b = b[:, :, None]
        if a.shape[0] != a.shape[1] or b.shape[0] != a.shape[0] or b.shape[1] != a.shape[0]:
            raise ValueError("inconsistent linear generator dimensions")
        object.__setattr__(self, "a_y", a)
        object.__setattr__(self, "b_z", b)

    @property
    def m(self):
        return self.a_y.shape[0]

    def instant(self, y, z):
        return y @ self.a_y.T + np.einsum("kml,...ml->...k", self.b_z, z)

    def lipschitz_instant(self):
        m = self.m
        na = float(np.linalg.norm(self.a_y, 2))
        nb = float(np.linalg.norm(self.b_z.reshape(m, -1), 2))
        return max(na, nb)

    def lipschitz_delay(self, horizon):
        return 0.0


def linear_scalar(a: float, b: float) -> LinearInstant:
    """Scalar convenience: F = a*y + b*z for m = d = 1."""
    return LinearInstant(np.array([[a]]), np.array([[[b]]]))


@dataclass(frozen=True)
class DelayedZ(GeneratorSpec):
    """F(s) = kappa * z(s - lag); the lagged value is read from the past segment."""

    kappa: float
    lag: float

    def __post_init__(self):
        if self.lag < 0:
            raise ValueError("lag must be >= 0")
        object.__setattr__(self, "alpha", Dirac(-self.lag))

    def past_z_terms(self, t, horizon, dt):
        return ((-self.lag, self.kappa),)

    def lipschitz_instant(self):
        return 0.0

    def lipschitz_delay(self, horizon):
        return self.kappa ** 2


@dataclass(frozen=True)
class RunningIntegralZ(GeneratorSpec):
    """F(s) = kappa * int_0^s z(u) du (trapezoid over the grid points of [0, s]).

    Not the uniform moving average scaled by the horizon: for s < T that
    trapezoid over [s - T, s] weights z(0) by dt, not dt/2, so it exceeds this
    drift by kappa * dt * z(0) / 2.
    """

    kappa: float
    alpha: DelayMeasure = field(default_factory=UniformPast)

    def past_z_terms(self, t, horizon, dt):
        if dt is None:
            raise ValueError("running-integral generator needs dt")
        return _trapezoid(int(round(t / dt)), dt, self.kappa * dt)

    def lipschitz_instant(self):
        return 0.0

    def lipschitz_delay(self, horizon):
        # Jensen against the uniform measure costs a factor horizon^2.
        return (self.kappa * horizon) ** 2


@dataclass(frozen=True, eq=False)
class MovingAverageZ(GeneratorSpec):
    """F(s) = int_{-T}^0 g(s + theta) z(s + theta) alpha(dtheta).

    ``g`` must be bounded measurable on [0, T] with g(t) = 0 for t < 0 (the
    quadrature enforces the negative-argument cutoff); ``g_bound`` declares
    sup |g| and feeds the delay Lipschitz constant K = g_bound^2.
    """

    g: Callable[[float], float]
    g_bound: float
    alpha: DelayMeasure = field(default_factory=Dirac)

    def past_z_terms(self, t, horizon, dt):
        return tuple((theta, w * (0.0 if t + theta < 0 else float(self.g(t + theta))))
                     for theta, w in self.alpha.discretize(horizon, dt))

    def lipschitz_instant(self):
        return 0.0

    def lipschitz_delay(self, horizon):
        return self.g_bound ** 2


@dataclass(frozen=True, eq=False)
class CustomGenerator(GeneratorSpec):
    """User drift fn(t, y, z, past_y, past_z) with declared constants.

    The declared (L, K) are only probe-audited (see `lipschitz_probe_audit`);
    the callback must be re-entrant and must not mutate its arguments.
    """

    fn: Callable
    declared_instant: float
    declared_delay: float
    alpha: DelayMeasure = field(default_factory=Dirac)

    def lipschitz_instant(self):
        return self.declared_instant

    def lipschitz_delay(self, horizon):
        return self.declared_delay


def eval_generator(gen: GeneratorSpec, t: float, y, z, past_y, past_z,
                   *, horizon: float | None = None,
                   dt: float | None = None) -> np.ndarray:
    """Evaluate the drift at grid time t with past segments as accessors.

    Built-ins accept leading batch axes on (y, z) and accessor rows (see
    `level_drift`); a `CustomGenerator` callback takes one node.
    """
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    if z.ndim == 1:
        z = z[:, None]
    if isinstance(gen, CustomGenerator):
        try:
            out = gen.fn(t, y, z, past_y, past_z)
        except Exception as exc:
            raise GeneratorError(
                f"custom generator failed at t={t}: {exc}") from exc
        return np.asarray(out, dtype=float)
    terms = gen.past_z_terms(t, horizon, dt)
    if terms and z.shape[-1] != 1:
        raise GeneratorError(
            f"{type(gen).__name__} requires a one-dimensional driving noise "
            f"(z has d = {z.shape[-1]})")
    return sum((c * past_z(theta)[..., 0] for theta, c in terms), gen.instant(y, z))


def generator_at_origin(gen: GeneratorSpec, t: float, m: int, d: int,
                        *, horizon: float, dt: float) -> np.ndarray:
    """F(t, 0, 0, 0, 0): all instantaneous and past arguments identically zero."""
    zero_y = np.zeros(m)
    zero_z = np.zeros((m, d))
    return eval_generator(gen, t, zero_y, zero_z,
                          lambda theta: zero_y, lambda theta: zero_z,
                          horizon=horizon, dt=dt)


def origin_drift_mass(gen: GeneratorSpec, tree, m: int, beta: float = 0.0) -> float:
    """int_0^T e^{beta s} |F(s, 0, 0, 0, 0)|^2 ds, left endpoints on the grid."""
    grid = tree.grid
    return sum(grid.dt * math.exp(beta * i * grid.dt) * float(np.sum(
        generator_at_origin(gen, i * grid.dt, m, tree.bm_dim,
                            horizon=grid.horizon, dt=grid.dt) ** 2))
        for i in range(grid.n_steps))


def past_z_rows(gen: GeneratorSpec, tree) -> tuple:
    """The built-in's past-Z terms of every level i < n as (row, c) pairs.

    ``row`` is the frozen grid row `lattice.grid_row` reads at t_i + theta, or
    None for offsets theta >= -slack, which read the level's current z.  Terms
    before time 0 are dropped: the Z extension there is 0.  Term order is kept,
    so `level_drift` sums exactly as the per-node `eval_generator` does.
    Resolved once per solve: ``past_z_terms`` is called once per level.
    """
    grid = tree.grid
    dt = grid.dt
    levels = []
    for i in range(grid.n_steps):
        terms = gen.past_z_terms(i * dt, grid.horizon, dt)
        if terms and tree.bm_dim != 1:
            raise GeneratorError(
                f"{type(gen).__name__} requires a one-dimensional driving noise "
                f"(z has d = {tree.bm_dim})")
        rows = []
        for theta, c in terms:
            if theta >= -TIME_SLACK * dt:
                rows.append((None, c))
            elif (row := grid_row(i * dt + theta, dt, i)) is not None:
                rows.append((row, c))
        levels.append(tuple(rows))
    return tuple(levels)


def level_drift(gen: GeneratorSpec, tree, i: int, y: np.ndarray, z: np.ndarray,
                frozen_y, frozen_z, past_rows: tuple) -> np.ndarray:
    """Drift F(t_i, y, z, past) at every node of level i as a (size, m) array.

    The past segments are read from (frozen_y, frozen_z), except at offset 0,
    which resolves to the level's current (y, z).  A built-in is
    ``instant(y, z) + sum c * z_row`` over ``past_rows[i]`` of the
    `past_z_rows(gen, tree)` table, each frozen row repeated down to level i.
    `CustomGenerator` callbacks are per node by contract and read their past
    through `lattice.segment_accessors`.
    """
    if not isinstance(gen, CustomGenerator):
        drift = gen.instant(y, z)
        for row, c in past_rows[i]:
            past = z[..., 0] if row is None else np.repeat(
                frozen_z.values[row][..., 0], tree.branching ** (i - row), axis=0)
            drift = drift + c * past
        return drift
    grid = tree.grid
    t = i * grid.dt
    drift = np.empty_like(y)
    for j in range(y.shape[0]):
        past_y, past_z = segment_accessors(frozen_y, frozen_z, i, j,
                                           current_y=y[j], current_z=z[j])
        out = eval_generator(gen, t, y[j], z[j], past_y, past_z,
                             horizon=grid.horizon, dt=grid.dt)
        if out.shape != y.shape[1:]:
            raise GeneratorError(
                f"custom generator returned shape {out.shape} at t={t}, node {j} "
                f"of level {i}; expected {y.shape[1:]}")
        drift[j] = out
    return drift


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

def generator_bound_diagnostic(gen: GeneratorSpec, y_process, z_process,
                               tree) -> float:
    """Worst pathwise slack of the integrability bound for the drift.

    For each leaf path, compares int_0^T |F|^2 against
    3(2L^2+K) T sup|Y|^2 + 3(2L^2+K) int |Z|^2 + 3 int |F(s,0,0,0,0)|^2 and
    returns the maximum of (actual - bound); values <= 0 certify the bound.
    The drift reads the past of (y_process, z_process) themselves.
    """
    grid = tree.grid
    n, dt, horizon = grid.n_steps, grid.dt, grid.horizon
    big_l = gen.lipschitz_instant()
    big_k = gen.lipschitz_delay(horizon)
    f0_sq = origin_drift_mass(gen, tree, y_process.values[0].shape[1])
    past_rows = past_z_rows(gen, tree)
    # pathwise accumulators, repeated down the tree one level at a time
    sup_y = int_z = int_f = np.zeros(1)
    for i in range(n + 1):
        if i:
            sup_y, int_z, int_f = (np.repeat(a, tree.branching)
                                   for a in (sup_y, int_z, int_f))
        y_val = y_process.values[i]
        sup_y = np.maximum(sup_y, row_sq_norms(y_val))
        if i == n:
            continue
        z_val = z_process.values[i]
        drift = level_drift(gen, tree, i, y_val, z_val, y_process, z_process,
                            past_rows)
        int_z = int_z + dt * row_sq_norms(z_val)
        int_f = int_f + dt * row_sq_norms(drift)
    bound = (3 * (2 * big_l ** 2 + big_k) * horizon * sup_y
             + 3 * (2 * big_l ** 2 + big_k) * int_z + 3 * f0_sq)
    return float(np.max(int_f - bound))


def _step_accessor(values: np.ndarray, t: float, dt: float, zero_extension: bool):
    """Accessor over offsets for a deterministic step path given on the grid."""
    def acc(theta: float) -> np.ndarray:
        k = grid_row(t + theta, dt, len(values) - 1)
        if k is None:
            return np.zeros_like(values[0]) if zero_extension else values[0]
        return values[k]
    return acc


def lipschitz_probe_audit(gen: GeneratorSpec, m: int, d: int, horizon: float,
                          n_steps: int, n_probes: int = 200,
                          seed: int = 2024) -> dict:
    """Random two-point probes of the declared Lipschitz constants.

    Draws random instantaneous arguments and random past step paths and
    measures the worst slack of the two Lipschitz inequalities; nonpositive
    slacks (up to rounding) certify the declared L and K on the probe set.
    """
    rng = np.random.default_rng(seed)
    dt = horizon / n_steps
    big_l = gen.lipschitz_instant()
    big_k = gen.lipschitz_delay(horizon)
    worst_instant = -np.inf
    worst_delay = -np.inf
    for _ in range(n_probes):
        i = int(rng.integers(0, n_steps))
        t = i * dt
        y1, y2 = rng.normal(size=(2, m))
        z1, z2 = rng.normal(size=(2, m, d))
        path_y1, path_y2 = rng.normal(size=(2, n_steps + 1, m))
        path_z1, path_z2 = rng.normal(size=(2, n_steps + 1, m, d))
        acc_y1 = _step_accessor(path_y1, t, dt, zero_extension=False)
        acc_y2 = _step_accessor(path_y2, t, dt, zero_extension=False)
        acc_z1 = _step_accessor(path_z1, t, dt, zero_extension=True)
        acc_z2 = _step_accessor(path_z2, t, dt, zero_extension=True)

        f_a = eval_generator(gen, t, y1, z1, acc_y1, acc_z1, horizon=horizon, dt=dt)
        f_b = eval_generator(gen, t, y2, z2, acc_y1, acc_z1, horizon=horizon, dt=dt)
        lhs = float(np.linalg.norm(f_a - f_b))
        rhs = big_l * (float(np.linalg.norm(y1 - y2)) + float(np.linalg.norm(z1 - z2)))
        worst_instant = max(worst_instant, lhs - rhs)

        f_c = eval_generator(gen, t, y1, z1, acc_y2, acc_z2, horizon=horizon, dt=dt)
        lhs_sq = float(np.sum((f_a - f_c) ** 2))
        dy_sq = delayed_quadrature(
            lambda theta: np.sum((acc_y1(theta) - acc_y2(theta)) ** 2),
            t, gen.alpha, horizon=horizon, dt=dt)
        dz_sq = delayed_quadrature(
            lambda theta: np.sum((acc_z1(theta) - acc_z2(theta)) ** 2),
            t, gen.alpha, horizon=horizon, dt=dt)
        rhs_sq = big_k * (float(dy_sq) + float(dz_sq))
        worst_delay = max(worst_delay, lhs_sq - rhs_sq)
    return {"instant_slack": worst_instant, "delay_slack": worst_delay,
            "L": big_l, "K": big_k}
