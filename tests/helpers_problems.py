"""Test problems and a penalty that the package itself does not use.

Each builder returns (tree, xi, gen, phi) like `bsvi.problems.box_linear_problem`,
which stays in the package for the benchmark's library workload.
`ElasticPenalty` and `BoxedQuadratic` are user penalties written against
`convex.ConvexFunction`.
"""

import numpy as np

from bsvi import convex, generators
from bsvi.lattice import build_tree
from bsvi.problems import terminal_clipped_linear, terminal_linear


def quadratic_problem(n_steps: int = 4, horizon: float = 1.0):
    """Smooth penalty c|y|^2/2 with c = 4 and a plain martingale terminal."""
    tree = build_tree(n_steps, horizon)
    phi = convex.Quadratic(4.0)
    gen = generators.ZeroGen()
    xi = terminal_linear(tree, 0.5, 0.5)
    return tree, xi, gen, phi


def delayed_box_problem(n_steps: int = 3, horizon: float = 0.1):
    """Delayed drift y + 0.3 z(t - dt) inside a tight box, short horizon.

    The outward drift keeps the penalty active at the clipped leaves; the
    declared constants (L, K) = (1, 0.09) keep K e^{beta T} < 2 L^2 at the
    default beta = 25, so the contraction gate is green.
    """
    tree = build_tree(n_steps, horizon)
    lag = tree.grid.dt

    def drift(t, y, z, past_y, past_z):
        return y + 0.3 * past_z(-lag)[..., 0]

    gen = generators.CustomGenerator(fn=drift, declared_instant=1.0,
                                     declared_delay=0.09,
                                     alpha=generators.Dirac(-lag))
    phi = convex.IndicatorBox(-0.2, 0.2)
    xi = terminal_clipped_linear(tree, 0.1, 1.0, -0.2, 0.2)
    return tree, xi, gen, phi


class ElasticPenalty(convex.ConvexFunction):
    """phi(y) = |y|/2 + y^2/2 on the real line, as a user penalty is written:
    ``value`` and ``prox`` over the last axis of any batch, phi >= phi(0) = 0,
    ``m`` set since the dimension is fixed, and the closed-form prox, soft
    thresholding at eps/2 then shrinking by 1 + eps (checked against
    `helpers_oracle.prox_bisection` in test_convex.py)."""

    m = 1

    def value(self, y):
        arr = np.atleast_1d(np.asarray(y, dtype=float))
        self._check_dim(arr)
        return np.sum(0.5 * np.abs(arr) + 0.5 * arr * arr, axis=-1)

    def prox(self, epsilon, y):
        arr = np.atleast_1d(np.asarray(y, dtype=float))
        self._check_dim(arr)
        return np.copysign(np.maximum(np.abs(arr) - 0.5 * epsilon, 0.0), arr) / (1.0 + epsilon)


class BoxedQuadratic(convex.ConvexFunction):
    """phi(y) = y^2/2000 on [-1, 1] and +inf outside, a user penalty with a
    restricted domain that keeps the base class's ``indicator = False``; its
    closed-form prox shrinks by 1 + eps/1000 and clips to the box."""

    m = 1

    def value(self, y):
        arr = np.atleast_1d(np.asarray(y, dtype=float))
        self._check_dim(arr)
        inside = np.all(np.abs(arr) <= 1.0, axis=-1)
        return np.where(inside, np.sum(arr * arr, axis=-1) / 2000.0, np.inf)

    def prox(self, epsilon, y):
        arr = np.atleast_1d(np.asarray(y, dtype=float))
        self._check_dim(arr)
        return (arr / (1.0 + epsilon / 1000.0)).clip(-1.0, 1.0)
