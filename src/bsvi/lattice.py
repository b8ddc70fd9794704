"""Time grid and non-recombining scenario tree with exact conditional expectations.

Brownian motion is replaced by a scaled Rademacher walk on a full 2**bm_dim-ary
tree: every node at level i has one child per sign pattern of (+-sqrt(dt))^bm_dim,
each with equal conditional probability.  Conditional expectations are then exact
level-wise averages, so backward recursions carry no statistical noise.

Trees and adapted processes are immutable after construction; every function in
this module is pure and safe for concurrent use.
"""

import math
from functools import cached_property

import numpy as np

DEFAULT_NODE_CAP = 2 ** 22

# Relative slack used when snapping query times onto the grid.  Delay offsets
# are formed by float subtraction, so grid hits can be off by a few ulp.
TIME_SLACK = 1e-9


class TreeSizeError(ValueError):
    """Requested tree exceeds the configured node cap."""


def _check_count(value, name: str):
    # a bool is an int, and a fractional size makes a fractional number of leaves
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


class Record:
    """Base of the package's value classes, which generates no code: a class's
    annotated fields (after its Record bases') are read once, when it is made.
    Instances take them by position or keyword, keep them in ``__dict__`` in
    field order, run ``__post_init__``, compare by value and print as
    ``Name(field=value, ...)``.  ``frozen=True`` refuses assignment and deletion
    and hashes by value; ``eq=False`` compares and hashes by identity."""

    _fields, _defaults, _post_init = (), {}, None

    def __init_subclass__(cls, frozen=False, eq=True, **kwargs):
        super().__init_subclass__(**kwargs)
        own = [n for n in cls.__dict__.get("__annotations__", ()) if n not in cls._fields]
        cls._fields += tuple(own)
        cls._defaults = {**cls._defaults, **{n: cls.__dict__[n] for n in own if n in cls.__dict__}}
        cls._post_init = getattr(cls, "__post_init__", None)
        if frozen:
            cls.__setattr__ = cls.__delattr__ = Record._refuse
            cls.__hash__ = lambda self: hash(self._values())
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):  # each field once, by position, name or default
            values = {**self._defaults, **dict(zip(names, args)), **kwargs}
            if values.keys() != set(names) or len(args) > len(names) \
                    or not kwargs.keys().isdisjoint(names[:len(args)]):
                raise TypeError(f"{type(self).__name__}() takes the fields {names} "
                                f"(defaults {self._defaults}): got {args} and {kwargs}")
            args = [values[n] for n in names]
        # a new dict, not self.__dict__ filled in: that one is a split table, whose
        # fields then read about 2.5 times slower
        object.__setattr__(self, "__dict__", dict(zip(names, args)))
        if self._post_init is not None:
            self._post_init()

    def _refuse(self, name, *value):
        raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r} "
                             f"of a frozen {type(self).__name__}")

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):  # which leaves __hash__ None: a mutable class is unhashable
        return self._values() == other._values() if other.__class__ is self.__class__ \
            else NotImplemented

    def __repr__(self):
        pairs = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({pairs})"


class TimeGrid(Record, frozen=True):
    """Uniform grid 0 = t_0 < ... < t_n = horizon."""

    n_steps: int
    horizon: float

    def __post_init__(self):
        _check_count(self.n_steps, "n_steps")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if not 0.0 < self.horizon < math.inf:  # negated, so that NaN fails it
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if abs(self.dt * self.n_steps - self.horizon) > 8 * np.finfo(float).eps * self.horizon:
            raise ValueError("dt * n_steps does not reproduce horizon")

    @cached_property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    def weights(self, beta: float) -> list:
        """e^{beta t_i} at every grid time, for a finite beta >= 0 with beta T <= 709.78
        (math.exp overflows a float above about 709.7827)."""
        if 0.0 <= beta < math.inf and beta * self.horizon <= 709.78:
            return [math.exp(beta * i * self.dt) for i in range(self.n_steps + 1)]
        raise ValueError(f"beta = {beta!r} must be finite and >= 0 with e^(beta T) a float")


class ScenarioTree(Record, frozen=True, eq=False):
    """Non-recombining tree of Rademacher increments.

    Level i holds 2**(bm_dim*i) nodes; node j's children at level i+1 are
    j*B .. j*B + B - 1 with B = 2**bm_dim, child k taking increment pattern k.
    The cumulative path sum along a node's unique root path is the discrete
    Brownian state W(t_i) at that node.
    """

    grid: TimeGrid
    bm_dim: int = 1

    @cached_property
    def branching(self) -> int:
        return 2 ** self.bm_dim

    def level_size(self, level: int) -> int:
        return self.branching ** level

    @cached_property
    def level_sizes(self) -> tuple:
        """Nodes per level, levels 0 to n, built once per tree."""
        return tuple(self.branching ** i for i in range(self.grid.n_steps + 1))

    @cached_property
    def increment_patterns(self) -> np.ndarray:
        """(B, bm_dim) array of +-sqrt(dt) sign patterns, child k in row k;
        built once per tree and read-only."""
        step = math.sqrt(self.grid.dt)
        bits = (np.arange(self.branching)[:, None] >> np.arange(self.bm_dim)[::-1]) & 1
        patterns = np.where(bits == 1, -step, step)
        patterns.flags.writeable = False
        return patterns

    def path_sums(self) -> "AdaptedProcess":
        """Cumulative increment process: the discrete W on every node."""
        inc = self.increment_patterns
        values = [np.zeros((1, self.bm_dim))]
        for i in range(self.grid.n_steps):
            prev = values[-1]
            nxt = prev[:, None, :] + inc[None, :, :]
            values.append(nxt.reshape(-1, self.bm_dim))
        return AdaptedProcess(self, values)


class AdaptedProcess(Record, eq=False):
    """Per-node values of an adapted process, stored level-major.

    values[i] has shape (level_size(i), m) for state-type processes or
    (level_size(i), m, d) for integrand-type (Z) processes.  Adaptedness is
    structural: a node's value can only be a function of its root path.
    Treat instances as immutable once built.
    """

    tree: ScenarioTree
    values: list

    def __post_init__(self):
        rows = [arr.shape[0] for arr in self.values]  # one comparison; the loop names a miss
        if rows != [*self.tree.level_sizes[:len(rows)]]:
            for i, arr in enumerate(self.values):
                if arr.shape[0] != (size := self.tree.level_size(i)):
                    raise ValueError(f"level {i} has {arr.shape[0]} values, expected {size}")

    def __sub__(self, other: "AdaptedProcess") -> "AdaptedProcess":
        return AdaptedProcess(self.tree, [a - b for a, b in zip(self.values, other.values)])


def build_tree(n_steps: int, horizon: float, bm_dim: int = 1,
               max_nodes: int = DEFAULT_NODE_CAP) -> ScenarioTree:
    """Build the scenario tree, refusing sizes beyond ``max_nodes`` total nodes."""
    _check_count(bm_dim, "bm_dim")
    _check_count(max_nodes, "max_nodes")
    if bm_dim < 1:
        raise ValueError(f"bm_dim must be >= 1, got {bm_dim}")
    grid = TimeGrid(n_steps, horizon)
    d, leaf_bits = int(bm_dim), int(bm_dim) * int(n_steps)  # Python ints: 2^leaf_bits leaves
    # past 2^64 times the cap the leaves alone exceed it, and the exact count is not formed
    huge = leaf_bits > int(max_nodes).bit_length() + 64
    total_nodes = f"over 2^{leaf_bits}" if huge else (2 ** (leaf_bits + d) - 1) // (2 ** d - 1)
    if huge or total_nodes > max_nodes:
        raise TreeSizeError(f"tree with n_steps={n_steps}, bm_dim={bm_dim} needs {total_nodes} "
                            f"nodes, over the cap of {max_nodes}; raise max_nodes to override")
    return ScenarioTree(grid, bm_dim)


def row_sq_norms(level: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of every node's value in a level array (one
    component: its square, which is what numpy's sum of that one term gives)."""
    flat = level.reshape(level.shape[0], -1)
    return flat[:, 0] ** 2 if flat.shape[1] == 1 else np.add.reduce(flat ** 2, axis=1)


def fold_running_max(parent, mag: np.ndarray, branching: int) -> np.ndarray:
    """A level's (blocks, B^i) node statistics raised in place to the running
    max of their parents (level i - 1 as (blocks, B^(i-1)); None at the root)."""
    if parent is not None:
        kids = mag.reshape(len(mag), -1, branching)
        for k in range(branching):  # child by child: long loops, not a broadcast pair
            np.maximum(parent, kids[:, :, k], out=kids[:, :, k])
    return mag


def level_moments(tree: ScenarioTree, y_next: np.ndarray):
    """Exact E[Y_{i+1} | F_{t_i}] (size, m) and Z projection (size, m, d) for
    every node of level i from the values of level i + 1: the mean of each
    node's children and Z[k, l] = E[Y_k * increment_l | F_{t_i}] / dt."""
    b = tree.branching
    kids = y_next.reshape(y_next.shape[0] // b, b, -1)
    inc = tree.increment_patterns
    # child by child from +0.0: the order numpy's sum and einsum add 2 or 4
    # children in, so bitwise the same, at a fraction of their cost
    expect = kids[:, 0] + 0.0
    z = kids[:, 0, :, None] * inc[0] + 0.0
    for k in range(1, b):
        expect += kids[:, k]
        z += kids[:, k, :, None] * inc[k]
    z /= b * tree.grid.dt
    expect /= b  # the mean over the children, as np.mean takes it
    return expect, z


def grid_row(query_time: float, dt: float, last: int) -> int | None:
    """Grid row holding a left-constant path's value at query_time:
    floor(query_time / dt) up to the snapping slack, clamped to [0, last].
    None before time 0, where the extension convention applies instead."""
    if query_time < -TIME_SLACK * dt:
        return None
    return min(max(int(math.floor(query_time / dt + TIME_SLACK)), 0), last)
