"""Time grid and non-recombining scenario tree with exact conditional expectations.

Brownian motion is replaced by a scaled Rademacher walk on a full 2**bm_dim-ary
tree: every node at level i has one child per sign pattern of (+-sqrt(dt))^bm_dim,
each with equal conditional probability.  Conditional expectations are then exact
level-wise averages, so backward recursions carry no statistical noise.

Trees and adapted processes are immutable after construction; every function in
this module is pure and safe for concurrent use.
"""

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_NODE_CAP = 2 ** 22

# Relative slack used when snapping query times onto the grid.  Delay offsets
# are formed by float subtraction, so grid hits can be off by a few ulp.
_TIME_SLACK = 1e-9


class TreeSizeError(ValueError):
    """Requested tree exceeds the configured node cap."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_n = horizon."""

    n_steps: int
    horizon: float

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if not self.horizon > 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if abs(self.dt * self.n_steps - self.horizon) > 8 * np.finfo(float).eps * self.horizon:
            raise ValueError("dt * n_steps does not reproduce horizon")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    def time(self, i: int) -> float:
        return i * self.dt

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_steps + 1)


@dataclass(frozen=True, eq=False)
class ScenarioTree:
    """Non-recombining tree of Rademacher increments.

    Level i holds 2**(bm_dim*i) nodes; node j's children at level i+1 are
    j*B .. j*B + B - 1 with B = 2**bm_dim, child k taking increment pattern k.
    The cumulative path sum along a node's unique root path is the discrete
    Brownian state W(t_i) at that node.
    """

    grid: TimeGrid
    bm_dim: int = 1

    @property
    def branching(self) -> int:
        return 2 ** self.bm_dim

    def level_size(self, level: int) -> int:
        return self.branching ** level

    @property
    def n_levels(self) -> int:
        return self.grid.n_steps + 1

    def parent_index(self, node: int, generations: int = 1) -> int:
        return node >> (self.bm_dim * generations)

    @property
    def increment_patterns(self) -> np.ndarray:
        """(B, bm_dim) array of +-sqrt(dt) sign patterns, child k in row k."""
        step = math.sqrt(self.grid.dt)
        bits = (np.arange(self.branching)[:, None] >> np.arange(self.bm_dim)[::-1]) & 1
        return np.where(bits == 1, -step, step)

    def path_sums(self) -> "AdaptedProcess":
        """Cumulative increment process: the discrete W on every node."""
        inc = self.increment_patterns
        values = [np.zeros((1, self.bm_dim))]
        for i in range(self.grid.n_steps):
            prev = values[-1]
            nxt = prev[:, None, :] + inc[None, :, :]
            values.append(nxt.reshape(-1, self.bm_dim))
        return AdaptedProcess(self, values)


@dataclass(eq=False)
class AdaptedProcess:
    """Per-node values of an adapted process, stored level-major.

    values[i] has shape (level_size(i), m) for state-type processes or
    (level_size(i), m, d) for integrand-type (Z) processes.  Adaptedness is
    structural: a node's value can only be a function of its root path.
    Treat instances as immutable once built.
    """

    tree: ScenarioTree
    values: list

    def __post_init__(self):
        for i, arr in enumerate(self.values):
            if arr.shape[0] != self.tree.level_size(i):
                raise ValueError(
                    f"level {i} has {arr.shape[0]} values, expected {self.tree.level_size(i)}"
                )

    @property
    def n_levels(self) -> int:
        return len(self.values)

    @property
    def last_level(self) -> int:
        return len(self.values) - 1

    def copy(self) -> "AdaptedProcess":
        return AdaptedProcess(self.tree, [v.copy() for v in self.values])

    def __sub__(self, other: "AdaptedProcess") -> "AdaptedProcess":
        return AdaptedProcess(self.tree, [a - b for a, b in zip(self.values, other.values)])


def build_tree(n_steps: int, horizon: float, bm_dim: int = 1,
               max_nodes: int = DEFAULT_NODE_CAP) -> ScenarioTree:
    """Build the scenario tree, refusing sizes beyond ``max_nodes`` total nodes."""
    if bm_dim < 1:
        raise ValueError(f"bm_dim must be >= 1, got {bm_dim}")
    grid = TimeGrid(n_steps, horizon)
    b = 2 ** bm_dim
    total_nodes = (b ** (n_steps + 1) - 1) // (b - 1)
    if total_nodes > max_nodes:
        raise TreeSizeError(
            f"tree with n_steps={n_steps}, bm_dim={bm_dim} needs {total_nodes} nodes, "
            f"over the cap of {max_nodes}; raise max_nodes to override"
        )
    return ScenarioTree(grid, bm_dim)


def conditional_expectation(child_values, tree: ScenarioTree) -> np.ndarray:
    """Exact E[. | F_{t_i}] at one node: equal-weight mean of its children."""
    arr = np.asarray(child_values, dtype=float)
    if arr.shape[0] != tree.branching:
        raise ValueError(
            f"expected {tree.branching} child values, got {arr.shape[0]}"
        )
    return arr.mean(axis=0)


def z_projection(child_values, child_increments, dt: float) -> np.ndarray:
    """Discrete martingale-representation coefficient at one node.

    Returns the (m, d) matrix Z with Z[k, l] = E[value_k * increment_l] / dt,
    the mean running over the node's children.
    """
    vals = np.asarray(child_values, dtype=float)
    incs = np.asarray(child_increments, dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    if incs.ndim == 1:
        incs = incs[:, None]
    if vals.shape[0] != incs.shape[0]:
        raise ValueError(
            f"arity mismatch: {vals.shape[0]} values vs {incs.shape[0]} increments"
        )
    return np.einsum("ck,cl->kl", vals, incs) / (vals.shape[0] * dt)


def row_sq_norms(level: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of every node's value in a level array."""
    return np.sum(level.reshape(level.shape[0], -1) ** 2, axis=1)


def level_moments(tree: ScenarioTree, y_next: np.ndarray):
    """Exact E[Y_{i+1} | F_{t_i}] (size, m) and Z projection (size, m, d) for
    every node of level i from the values of level i + 1: the level-array form
    of `conditional_expectation` and `z_projection`."""
    b = tree.branching
    kids = y_next.reshape(y_next.shape[0] // b, b, -1)
    z = np.einsum("jbm,bd->jmd", kids, tree.increment_patterns) / (b * tree.grid.dt)
    return kids.mean(axis=1), z


def history_value(process: AdaptedProcess, level: int, node,
                  query_time: float, kind: str) -> np.ndarray:
    """Past value of an adapted process seen from node (level, node).

    For query_time in [0, t_level] the value at the ancestor on the grid time
    floor(query_time/dt) is returned (left-constant interpolation).  For
    query_time < 0 the extension convention applies: state-type ("y") processes
    return the root value, integrand-type ("z") processes return zero.

    ``node`` may be an int array: the result gains its leading axis, except
    before time 0, where the one extension value serves every node.
    """
    if kind not in ("y", "z"):
        raise ValueError(f"kind must be 'y' or 'z', got {kind!r}")
    dt = process.tree.grid.dt
    t_here = level * dt
    slack = _TIME_SLACK * dt
    if query_time > t_here + slack:
        raise ValueError(
            f"query_time {query_time} is after node time {t_here}; "
            "future lookups would break adaptedness"
        )
    if query_time < -slack:
        if kind == "y":
            return process.values[0][0]
        return np.zeros_like(process.values[0][0])
    k = int(math.floor(query_time / dt + _TIME_SLACK))
    k = min(max(k, 0), level)
    ancestor = node >> (process.tree.bm_dim * (level - k))
    return process.values[k][ancestor]


def segment_accessors(y_process: AdaptedProcess, z_process: AdaptedProcess,
                      level: int, node,
                      current_y: np.ndarray | None = None,
                      current_z: np.ndarray | None = None):
    """Past-segment accessors theta -> value for the generator at node (level, node).

    Offsets theta <= 0 are relative to t_level.  theta == 0 returns the current
    values when supplied (the solver passes its predictor pair there), otherwise
    the processes' own node values; theta < 0 goes through ``history_value`` and
    its t < 0 extension.

    ``node`` may be an int array, with current values stacked on the same
    leading axis; lookups then return one row per node (see `history_value`).
    """
    dt = y_process.tree.grid.dt
    t_here = level * dt
    slack = _TIME_SLACK * dt

    def past_y(theta: float) -> np.ndarray:
        if theta >= -slack and current_y is not None:
            return current_y
        return history_value(y_process, level, node, t_here + theta, "y")

    def past_z(theta: float) -> np.ndarray:
        if theta >= -slack and current_z is not None:
            return current_z
        return history_value(z_process, level, node, t_here + theta, "z")

    return past_y, past_z
