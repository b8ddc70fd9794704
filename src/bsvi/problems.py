"""Shipped test problems: the fixtures the audits and acceptance runs use.

Each builder returns (tree, xi, gen, phi); terminal data builders are shared
with the CLI.  Everything is deterministic.
"""

import numpy as np

from . import convex, generators
from .lattice import ScenarioTree, build_tree


def terminal_constant(tree: ScenarioTree, c) -> np.ndarray:
    c = np.atleast_1d(np.asarray(c, dtype=float))
    return np.tile(c, (tree.level_size(tree.grid.n_steps), 1))


def terminal_linear(tree: ScenarioTree, a, b) -> np.ndarray:
    """xi = a + b W(T) with a in R^m and b an (m, d) matrix."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float)
    if b.ndim == 0:
        b = b.reshape(1, 1)
    elif b.ndim == 1:
        b = b[None, :] if a.size == 1 else b[:, None]
    w_T = tree.path_sums().values[-1]
    return a[None, :] + w_T @ b.T


def terminal_clipped_linear(tree: ScenarioTree, a, b, lo, hi) -> np.ndarray:
    """Linear terminal clamped into [lo, hi] componentwise (keeps phi(xi) finite
    for indicator penalties); a bound may be the string "inf" / "-inf" of a config echo."""
    return np.clip(terminal_linear(tree, a, b), np.asarray(lo, float), np.asarray(hi, float))


def box_linear_problem(n_steps: int = 4, horizon: float = 1.0):
    """Indicator box 'reflection' problem with a drift pressing on the boundary.

    Clipped-linear terminal inside [-1, 1]; the linear drift 0.25*y pushes the
    backward recursion out of the box near both faces, so the penalty term is
    genuinely active.
    """
    tree = build_tree(n_steps, horizon)
    phi = convex.IndicatorBox(-1.0, 1.0)
    gen = generators.linear_scalar(0.25, 0.0)
    xi = terminal_clipped_linear(tree, 0.1, 1.0, -1.0, 1.0)
    return tree, xi, gen, phi


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
