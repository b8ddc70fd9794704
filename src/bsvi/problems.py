"""Terminal data builders shared with the CLI, and the benchmark's box problem.

`box_linear_problem` returns (tree, xi, gen, phi).  Everything is deterministic.
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
    return a[None, :] + np.einsum("...l,kl->...k", w_T, b)


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

