"""Tree solver for BSVIs with time-delayed generators; import each name from its module."""

# before the CLI's PyYAML: compiling solver.py briefly takes ~1.3 MB, not on top of PyYAML's
from . import lattice, convex, generators, solver, analysis  # noqa: F401

__version__ = "0.1.0"
