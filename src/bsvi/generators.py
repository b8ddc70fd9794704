"""Time-delayed generators F(t, y, z, past_y, past_z) and their delay measures.

A delay measure is a probability measure on [-horizon, 0] weighting how the
past segments of (Y, Z) enter the drift, integrated through its (theta, weight)
atoms on the grid.  A custom drift reads its past segments through accessors
theta -> value with theta in [-horizon, 0], one whole tree level at a time;
lookups at negative absolute times resolve through the extension Y(t) = Y(0),
Z(t) = 0.  An offset theta > 0, a callback's read or a built-in's term, raises.

Every built-in drift is one `AffineDrift` record, ``A y + B z + sum_k c_k
z(t + theta_k)`` with exact Lipschitz constants, which the constructors `zero`,
`linear`, `linear_scalar`, `delayed_z`, `running_integral_z` and
`moving_average_z` build; a random two-point probe audit
(`lipschitz_probe_audit`) backs declared constants for custom callbacks.
`past_z_rows` resolves the past-Z terms of every level to frozen grid rows
once per drift and grid, so ``past_z_terms`` must be a pure function of
(t, horizon, dt).  Drifts are immutable and evaluation is pure; custom
callbacks must be re-entrant.
"""

import math
from typing import Callable

import numpy as np

from .lattice import TIME_SLACK, Record, grid_row, row_sq_norms


class GeneratorError(RuntimeError):
    """A generator callback failed or was called inconsistently."""


# ---------------------------------------------------------------------------
# Delay measures
# ---------------------------------------------------------------------------

class DelayMeasure:
    """Probability measure on [-horizon, 0]."""

    def discretize(self, horizon: float, dt: float) -> tuple:
        """(theta, weight) atoms on the dt grid; offsets below -horizon raise."""
        raise NotImplementedError


def _check_finite(value: float, name: str):  # and its square, which K is made of
    if not math.isfinite(value * value):
        raise ValueError(f"{name} must be finite, and so must its square: {value!r}")


def _check_support(theta: float, horizon: float):
    if theta < -horizon - 1e-9 * horizon:
        raise ValueError(f"delay offset {theta} outside [-{horizon}, 0]")


def _trapezoid(steps: int, dt: float, weight: float) -> tuple:
    """Trapezoid atoms on the offsets -steps*dt, ..., -dt, 0: ``weight`` at the
    interior offsets, half of it at both ends, none at all for steps = 0."""
    if steps == 0:
        return ()
    return tuple((-(steps - j) * dt, weight if 0 < j < steps else 0.5 * weight)
                 for j in range(steps + 1))


class Dirac(DelayMeasure, Record, frozen=True):
    """Unit mass at offset theta <= 0; theta = 0 means no delay."""

    theta: float = 0.0

    def __post_init__(self):
        if not -math.inf < self.theta <= 0:  # negated, so that NaN fails it
            raise ValueError(f"delay offset must be finite and <= 0: {self.theta!r}")

    def discretize(self, horizon, dt):
        _check_support(self.theta, horizon)
        return ((self.theta, 1.0),)


class UniformPast(DelayMeasure, Record, frozen=True):
    """Uniform probability on [-horizon, 0]; horizon is bound at quadrature
    time, where the trapezoid rule on the dt-spaced offsets integrates it."""

    def discretize(self, horizon, dt):
        return _trapezoid(int(round(horizon / dt)), dt, dt / horizon)


class DiscreteMixture(DelayMeasure, Record, frozen=True):
    """Finitely many atoms (theta_k, weight_k) with weights summing to one."""

    atoms: tuple

    def __post_init__(self):
        atoms = tuple((float(t), float(w)) for t, w in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if not atoms:
            raise ValueError("mixture needs at least one atom")
        # negated tests, so that NaN fails them
        if any(not -math.inf < t <= 0 for t, _ in atoms):
            raise ValueError("all atoms must lie at finite offsets <= 0")
        if any(not 0 < w < math.inf for _, w in atoms):
            raise ValueError("atom weights must be positive and finite")
        total = sum(w for _, w in atoms)
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"atom weights must sum to 1, got {total}")

    def discretize(self, horizon, dt):
        for theta, _ in self.atoms:
            _check_support(theta, horizon)
        return self.atoms


# ---------------------------------------------------------------------------
# Drifts
# ---------------------------------------------------------------------------

class AffineDrift(Record, frozen=True, eq=False):
    """F(t, y, z, past_z) = A y + B z + sum_k c_k z(t + theta_k), every built-in drift.

    ``a_y`` (m, m) and ``b_z`` (m, m, d) are both None for a drift with no
    instant part.  ``past_z_terms(t, horizon, dt)`` returns the (theta, c)
    terms at grid time t (d = 1 only), a pure function of its arguments:
    `past_z_rows` resolves it once per level and keeps the table on the record
    for every later solve and audit on that grid.  The declared delay constant
    is K = (k_root * horizon ** k_power) ** 2 against the measure ``alpha``.
    """

    a_y: np.ndarray | None = None
    b_z: np.ndarray | None = None
    past_z_terms: Callable[[float, float, float], tuple] = lambda t, horizon, dt: ()
    k_root: float = 0.0
    k_power: int = 0
    alpha: DelayMeasure = Dirac()

    def instant(self, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Present-value part of the drift; (y, z) may carry leading batch axes."""
        if self.a_y is None:
            return np.zeros_like(y)
        return np.einsum("...l,kl->...k", y, self.a_y) + np.einsum("kml,...ml->...k", self.b_z, z)

    def lipschitz_instant(self) -> float:
        """L = max(|A|_2, |B|_2), B as an (m, m*d) matrix.  With one row or column (every
        m = 1 drift) the spectral norm is the entries' Euclidean norm: math.hypot, no LAPACK."""
        if self.a_y is None:
            return 0.0
        return max(math.hypot(*c.ravel()) if 1 in c.shape else float(np.linalg.norm(c, 2))
                   for c in (self.a_y, self.b_z.reshape(len(self.a_y), -1)))

    def lipschitz_delay(self, horizon: float) -> float:
        """K in the squared delay bound against the alpha-integral."""
        root = self.k_root * horizon ** self.k_power
        _check_finite(root, "kappa * T" if self.k_power else "k_root")  # k_power 1: (kappa T)^2
        return root ** 2


def zero() -> AffineDrift:
    """F == 0."""
    return AffineDrift()


def linear(a_y, b_z) -> AffineDrift:
    """F(t, y, z) = A y + B z with A (m, m) and B (m, m, d); a 2-d B is B (m, m, 1)."""
    a = np.atleast_2d(np.asarray(a_y, dtype=float))
    b = np.asarray(b_z, dtype=float)
    if b.ndim in (0, 2):  # a scalar B is (1, 1, 1), an (m, m) B is (m, m, 1)
        b = b.reshape(b.shape + (1,) * (3 - b.ndim))
    if b.ndim != 3 or a.shape[0] != a.shape[1] or b.shape[:2] != a.shape:
        raise ValueError(f"inconsistent linear generator dimensions: a {a.shape}, b {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("linear generator coefficients must be finite")
    return AffineDrift(a, b)


def linear_scalar(a: float, b: float) -> AffineDrift:
    """Scalar convenience: F = a*y + b*z for m = d = 1."""
    return linear(np.array([[a]]), np.array([[[b]]]))


def delayed_z(kappa: float, lag: float) -> AffineDrift:
    """F(s) = kappa * z(s - lag), K = kappa^2 against Dirac(-lag)."""
    _check_finite(kappa, "kappa")
    if not 0 <= lag < math.inf:  # negated, so that NaN fails it
        raise ValueError(f"lag must be finite and >= 0: {lag!r}")
    return AffineDrift(past_z_terms=lambda t, horizon, dt: ((-lag, kappa),), k_root=kappa,
                       alpha=Dirac(-lag))


def running_integral_z(kappa: float) -> AffineDrift:
    """F(s) = kappa * int_0^s z(u) du (trapezoid over the grid points of [0, s]).

    Not the uniform moving average scaled by the horizon: for s < T that
    trapezoid over [s - T, s] weights z(0) by dt, not dt/2, so it exceeds this
    drift by kappa * dt * z(0) / 2.  K = (kappa T)^2 against the uniform alpha
    (Jensen costs a factor horizon^2), which only the K bound's audit reads.
    """
    _check_finite(kappa, "kappa")
    return AffineDrift(
        past_z_terms=lambda t, horizon, dt: _trapezoid(int(round(t / dt)), dt, kappa * dt),
        k_root=kappa, k_power=1, alpha=UniformPast())


def moving_average_z(g: Callable[[float], float], g_bound: float,
                     alpha: DelayMeasure = Dirac()) -> AffineDrift:
    """F(s) = int_{-T}^0 g(s + theta) z(s + theta) alpha(dtheta).

    ``g`` must be bounded measurable on [0, T], zero before 0 (cut where `lattice.grid_row`
    reads no row, read at k dt within its slack of row k, so a row keeps one weight at every
    level); ``g_bound`` declares sup |g|, K = g_bound^2, and a g value read above it raises.
    """
    if not 0 <= g_bound < math.inf:  # negated, so that NaN fails it
        raise ValueError(f"g_bound must be finite and >= 0: {g_bound!r}")
    _check_finite(g_bound, "g_bound")

    def past_z_terms(t, horizon, dt):
        def g_at(s):  # at grid row k's time k dt within the slack grid_row snaps by
            k = round(s / dt)
            value = float(g(k * dt if abs(s - k * dt) <= TIME_SLACK * dt else s))
            if not abs(value) <= g_bound:  # negated, so that NaN fails it
                raise ValueError(f"|g({s:.6g})| = {abs(value)!r} exceeds g_bound = {g_bound!r}")
            return value
        return tuple((theta, w * (0.0 if t + theta < -TIME_SLACK * dt else g_at(t + theta)))
                     for theta, w in alpha.discretize(horizon, dt))

    return AffineDrift(past_z_terms=past_z_terms, k_root=g_bound, alpha=alpha)


class CustomGenerator(Record, frozen=True, eq=False):
    """User drift fn(t, y, z, past_y, past_z) with declared constants.

    The callback evaluates a whole tree level in one call, once per level per
    sweep: y has shape (size, m), z (size, m, d), and it returns the (size, m)
    drift at grid time t.  One call may stack that level of several solves,
    or a batch of probes, so each row must depend on its own arguments alone.
    ``past_y(theta)`` and ``past_z(theta)`` return the same shapes: each
    node's ancestor value on grid row floor((t + theta)/dt), Y(0) / zero before
    time 0, and the current (y, z) at theta = 0.  An offset theta > 0 reads
    the future and raises `GeneratorError`.  Index the noise axis as
    ``past_z(theta)[..., 0]``, which holds for any m.
    The declared (L, K) are finite, >= 0 and only probe-audited (see
    `lipschitz_probe_audit`); the callback must be re-entrant and not mutate its arguments:
    y, z and the offset-0 reads are read-only, so a write raises `GeneratorError`.
    """

    fn: Callable
    declared_instant: float
    declared_delay: float
    alpha: DelayMeasure = Dirac()
    past_z_terms = staticmethod(AffineDrift.past_z_terms)  # not a field: no past-Z table

    def __post_init__(self):
        for name in ("declared_instant", "declared_delay"):
            if not 0 <= getattr(self, name) < math.inf:  # negated, so that NaN fails it
                raise ValueError(f"{name} must be finite and >= 0: {getattr(self, name)!r}")

    def lipschitz_instant(self):
        return self.declared_instant

    def lipschitz_delay(self, horizon):
        return self.declared_delay


GeneratorSpec = AffineDrift | CustomGenerator  # what a solve takes


def _check_past(theta: float, t: float, dt: float, i: int):
    if theta > TIME_SLACK * dt:
        raise GeneratorError(f"past offset theta={theta} reads the future at t={t}, level {i}")


def _past_reader(row, i: int, dt: float, current, extension):
    """Accessor theta -> the batch's value at t_i + theta for a level-i drift.

    Reads ``row(k)`` on the grid row k = `lattice.grid_row`(t_i + theta),
    ``extension`` before time 0 (``row(0)``, the Y(0) extension, when None) and
    ``current`` at offsets theta >= -slack unless None.  An offset past the
    slack reads the future, which would break adaptedness, and raises.
    """
    t = i * dt

    def read(theta: float) -> np.ndarray:
        _check_past(theta, t, dt, i)
        if current is not None and theta >= -TIME_SLACK * dt:
            return current
        k = grid_row(t + theta, dt, i)
        if k is None:
            return row(0) if extension is None else extension
        return row(k)
    return read


def _read_drift(gen: CustomGenerator, i: int, dt: float,
                y: np.ndarray, z: np.ndarray, past_y, past_z) -> np.ndarray:
    """F(t_i, y, z, past) on a batch of rows (size, m): one call of the
    callback, its past read through `_past_reader` accessors; a complex result raises."""
    t = i * dt
    try:
        out = np.asarray(gen.fn(t, y, z, past_y, past_z))
        if out.dtype.kind == "c":  # a cast to float would drop the imaginary part
            raise TypeError(f"the drift is complex ({out.dtype}), not real")
        out = out.astype(float, copy=False)
    except Exception as exc:
        raise GeneratorError(f"custom generator failed at t={t}, level {i}: {exc}") from exc
    if out.shape != y.shape:
        raise GeneratorError(f"custom generator returned shape {out.shape} at t={t}, "
                             f"level {i}; expected (size, m) = {y.shape}")
    return out


def origin_drift_mass(gen: GeneratorSpec, tree, m: int, betas=(0.0,)) -> list:
    """int_0^T e^{beta s} |F(s, 0, 0, 0, 0)|^2 ds for each of ``betas``, left endpoints
    on the grid, from one evaluation on a one-row level of zeros with a zero past: the
    record's ``instant`` (c * 0 past terms leave its square as it is), a callback per level."""
    grid = tree.grid
    zero_y, zero_z = np.zeros((1, m)), np.zeros((1, m, tree.bm_dim))
    zero_y.flags.writeable = zero_z.flags.writeable = False  # every level reads these
    if not isinstance(gen, CustomGenerator):
        squares = [float(np.sum(gen.instant(zero_y, zero_z) ** 2))] * grid.n_steps
    else:
        def at_origin(i):
            past_y = _past_reader(lambda k: zero_y, i, grid.dt, None, None)
            past_z = _past_reader(lambda k: zero_z, i, grid.dt, None, None)
            return _read_drift(gen, i, grid.dt, zero_y, zero_z, past_y, past_z)

        squares = [float(np.sum(at_origin(i) ** 2)) for i in range(grid.n_steps)]
    return [sum(grid.dt * w * sq for w, sq in zip(grid.weights(beta), squares)) for beta in betas]


def past_z_rows(gen: GeneratorSpec, tree) -> tuple:
    """The drift's past-Z terms of every level i < n as (row, c) pairs.

    ``row`` is the frozen grid row `lattice.grid_row` reads at t_i + theta, or
    None for |theta| <= slack, which reads the level's current z; a theta above
    that reads the future and raises.  Terms before time 0 are dropped (the Z
    extension is 0).  Term order is kept, so `level_drift` sums in that order.
    ``past_z_terms`` is called once per level.  The frozen record keeps the
    table in its ``__dict__`` (not a field) for every later solve and audit on
    that (grid, bm_dim).
    """
    key, memo = (tree.grid, tree.bm_dim), gen.__dict__
    if memo.get("_past_z_rows", (None,))[0] == key:
        return memo["_past_z_rows"][1]
    grid, dt, levels = tree.grid, tree.grid.dt, []
    for i in range(grid.n_steps):
        terms = gen.past_z_terms(i * dt, grid.horizon, dt)
        if terms and tree.bm_dim != 1:
            raise GeneratorError(f"a drift with past-Z terms requires a one-dimensional "
                                 f"driving noise (z has d = {tree.bm_dim})")
        rows = []
        for theta, c in terms:
            _check_past(theta, i * dt, dt, i)
            if theta >= -TIME_SLACK * dt:
                rows.append((None, c))
            elif (row := grid_row(i * dt + theta, dt, i)) is not None:
                rows.append((row, c))
        levels.append(tuple(rows))
    memo["_past_z_rows"] = key, tuple(levels)
    return memo["_past_z_rows"][1]


def prefix_coefficients(gen: GeneratorSpec, past_rows: tuple) -> tuple | None:
    """Row k's coefficient c_k of a column-constant `past_z_rows` table, or
    None.  Column-constant: level i reads the frozen rows 0..i-1 in order, each
    with its one c_k, then at most the current z, and the drift has no instant part."""
    if isinstance(gen, CustomGenerator) or gen.a_y is not None:
        return None
    coeffs = tuple(c for _, c in past_rows[-1][:len(past_rows) - 1])
    rows = tuple(enumerate(coeffs))
    return coeffs if len(rows) == len(past_rows) - 1 and all(
        terms[:i] == rows[:i] and [row for row, _ in terms[i:]] in ([], [None])
        for i, terms in enumerate(past_rows)) else None


def frozen_prefix(coeffs: tuple, frozen_z: list, branching: int) -> list:
    """Every level's frozen part sum_{k<i} c_k z_k as a scan down the tree:
    P_0 = 0, P_i = repeat(P_{i-1} + c_{i-1} z_{i-1}, B).  Each node adds the
    terms in the order of `level_drift`'s per-term sum: the same bits."""
    levels = [np.zeros(frozen_z[0].shape[:-1])]
    for k, c in enumerate(coeffs):
        levels.append((levels[k] + c * frozen_z[k][..., 0]).repeat(branching, axis=0))
    return levels


def level_drift(gen: GeneratorSpec, tree, i: int, y: np.ndarray, z: np.ndarray,
                frozen_y: list, frozen_z: list, past_rows: tuple,
                prefix: list | None = None) -> np.ndarray:
    """Drift F(t_i, y, z, past) at every node of level i as a (size, m) array.

    The past segments are read from the level lists (frozen_y, frozen_z),
    ``frozen_z[k]`` holding grid row k, except at offset 0, which resolves to
    the level's current (y, z).  An `AffineDrift` is
    ``instant(y, z) + sum c * z_row`` over ``past_rows[i]`` of the
    `past_z_rows(gen, tree)` table, each frozen row repeated down to level i
    (or with a `frozen_prefix`, its level i, and the current term).  It
    also takes one block's (1, size, m) level of a batch whose frozen levels
    stack every block: it broadcasts against them and returns (blocks, size, m).
    A `CustomGenerator` callback is called once, on the whole level: its
    accessors return the (size, ...) ancestor rows of (frozen_y, frozen_z),
    repeated down to level i, with the Y(0) / zero extension before time 0.
    """
    if not isinstance(gen, CustomGenerator):
        rows = (lambda a: a) if y.ndim == 2 else (lambda a: a.reshape(-1, *y.shape[1:]))
        drift, terms = ((gen.instant(y, z), past_rows[i]) if prefix is None
                        else (rows(prefix[i]), past_rows[i][i:]))
        for row, c in terms:
            past = z[..., 0] if row is None else rows(
                frozen_z[row][..., 0].repeat(tree.branching ** (i - row), axis=0))
            drift = drift + c * past
        return drift

    def ancestors(levels):
        return lambda k: levels[k].repeat(tree.branching ** (i - k), axis=0)

    dt, y, z = tree.grid.dt, y.view(), z.view()  # read-only: a write raises GeneratorError
    y.flags.writeable = z.flags.writeable = False
    past_y = _past_reader(ancestors(frozen_y), i, dt, y, None)
    past_z = _past_reader(ancestors(frozen_z), i, dt, z, np.zeros_like(z))
    return _read_drift(gen, i, dt, y, z, past_y, past_z)


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

PROBE_SEED = 2024  # fixes the probes, so a run's audit repeats
ROW_TOLERANCE = 1e-9  # relative and absolute: a callback's own matmul rounds by the rows beside it


def lipschitz_probe_audit(gen: CustomGenerator, m: int, d: int, horizon: float,
                          n_steps: int, n_probes: int = 200) -> dict:
    """Random two-point probes of a callback's declared Lipschitz constants.

    Draws random instantaneous arguments and random past step paths and
    measures the worst slack of the two Lipschitz inequalities; nonpositive
    slacks (up to rounding) certify the declared L and K on the probe set.
    The probes drawn at one level are evaluated as one read-only batch, and
    again reversed and in two halves: a row that moves beyond `ROW_TOLERANCE`
    depends on the rows beside it and raises `GeneratorError`.  A probe's past
    reads its own path, offset 0 included, never the instantaneous argument.
    An `AffineDrift`, whose constants are exact, raises TypeError.
    """
    if not isinstance(gen, CustomGenerator):
        raise TypeError(f"the probe audit takes a CustomGenerator, not {type(gen).__name__}")
    rng = np.random.default_rng(PROBE_SEED)
    dt = horizon / n_steps
    big_l, big_k = gen.lipschitz_instant(), gen.lipschitz_delay(horizon)
    levels = np.empty(n_probes, dtype=int)
    y, z = np.empty((2, n_probes, m)), np.empty((2, n_probes, m, d))
    path_y = np.empty((2, n_probes, n_steps + 1, m))
    path_z = np.empty((2, n_probes, n_steps + 1, m, d))
    for p in range(n_probes):  # probe by probe: the draw order fixes the probes
        levels[p] = rng.integers(0, n_steps)
        y[:, p] = rng.normal(size=(2, m))
        z[:, p] = rng.normal(size=(2, m, d))
        path_y[:, p] = rng.normal(size=(2, n_steps + 1, m))
        path_z[:, p] = rng.normal(size=(2, n_steps + 1, m, d))
    atoms = gen.alpha.discretize(horizon, dt)
    worst_instant = worst_delay = -np.inf
    for i in range(n_steps):
        at = levels == i
        if not at.any():
            continue
        probes = y[:, at], z[:, at], path_y[:, at], path_z[:, at], np.zeros_like(z[0, at])
        for probe in probes:  # read-only, as `level_drift` hands them: a write raises
            probe.flags.writeable = False
        (y1, y2), (z1, z2), paths_y, paths_z, zeros = probes

        def readers(s, rows=slice(None)):  # path pair s's accessors on the probes ``rows``
            return (_past_reader(lambda k: paths_y[s, rows, k], i, dt, None, None),
                    _past_reader(lambda k: paths_z[s, rows, k], i, dt, None, zeros[rows]))

        (acc_y1, acc_z1), (acc_y2, acc_z2) = readers(0), readers(1)
        f_a = _read_drift(gen, i, dt, y1, z1, acc_y1, acc_z1)
        half = len(f_a) // 2
        for rows in (slice(None, None, -1), slice(half), slice(half, None)) if half else ():
            part = _read_drift(gen, i, dt, y1[rows], z1[rows], *readers(0, rows))
            if not np.allclose(part, f_a[rows], ROW_TOLERANCE, ROW_TOLERANCE, equal_nan=True):
                raise GeneratorError(f"custom generator rows depend on each other at t={i * dt}, "
                                     f"level {i}: a probe row moved with the rows beside it")
        f_b = _read_drift(gen, i, dt, y2, z2, acc_y1, acc_z1)
        lhs = np.sqrt(row_sq_norms(f_a - f_b))
        rhs = big_l * (np.sqrt(row_sq_norms(y1 - y2)) + np.sqrt(row_sq_norms(z1 - z2)))
        # np.maximum, unlike the builtin max, keeps a NaN slack
        worst_instant = float(np.maximum(worst_instant, np.max(lhs - rhs)))

        f_c = _read_drift(gen, i, dt, y1, z1, acc_y2, acc_z2)
        dy_sq = sum(c * row_sq_norms(acc_y1(theta) - acc_y2(theta)) for theta, c in atoms)
        dz_sq = sum(c * row_sq_norms(acc_z1(theta) - acc_z2(theta)) for theta, c in atoms)
        rhs_sq = big_k * (dy_sq + dz_sq)
        worst_delay = float(np.maximum(worst_delay, np.max(row_sq_norms(f_a - f_c) - rhs_sq)))
    return {"instant_slack": worst_instant, "delay_slack": worst_delay,
            "L": big_l, "K": big_k}
