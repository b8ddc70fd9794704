"""Convex penalty kernel: evaluation, prox, Moreau envelope, Yosida gradient.

Every built-in penalty is proper, convex, lower semicontinuous, normalized to
phi(y) >= phi(0) = 0, and ships with a closed-form prox; the Moreau envelope is
always computed from the prox through the identity
phi_eps(y) = |y - J_eps y|^2 / (2 eps) + phi(J_eps y), never by numerical
minimization.  All maps are pure over immutable specs.

Array convention: points live on the last axis, so ``value``, ``prox`` and the
`resolvent` map accept arbitrary leading batch dimensions.
"""

import math

import numpy as np

from .lattice import Record


def _as_points(y) -> np.ndarray:
    arr = np.asarray(y, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    return arr


class ConvexFunction:
    """Base class for penalties.  Subclasses define ``value`` and ``prox``, whose
    result a caller may overwrite unless it is read-only or shares memory with y."""

    m: int | None = None
    indicator = False  # phi takes only the values 0 and +inf, so J_eps is one projection

    def _check_dim(self, y: np.ndarray):
        if self.m is not None and y.shape[-1] != self.m:
            raise ValueError(f"point has dimension {y.shape[-1]}, spec expects {self.m}")

    def value(self, y) -> np.ndarray:
        raise NotImplementedError

    def prox(self, epsilon: float, y) -> np.ndarray:
        raise NotImplementedError


class Zero(ConvexFunction, Record, frozen=True):
    """phi == 0; the subdifferential term vanishes."""
    indicator = True

    def value(self, y):
        arr = _as_points(y)
        return np.zeros(arr.shape[:-1])

    def prox(self, epsilon, y):
        return _as_points(y).copy()


class IndicatorBox(ConvexFunction, Record, frozen=True, eq=False):
    """Indicator of the box [lo, hi]; bounds may be -inf/+inf componentwise."""

    lo: np.ndarray
    hi: np.ndarray
    indicator = True

    def __init__(self, lo, hi):
        lo, hi = (np.atleast_1d(np.asarray(b, dtype=float)) for b in (lo, hi))
        lo, hi = (b.copy() for b in np.broadcast_arrays(lo, hi))
        if np.isnan(lo).any() or np.isnan(hi).any():  # +-inf bounds stay legal
            raise ValueError("box bounds must not be NaN")
        if np.any(lo > hi):
            raise ValueError("box is empty: lo > hi")
        if np.any(lo > 0.0) or np.any(hi < 0.0):
            raise ValueError("box must contain 0 so that phi(0) = 0")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "m", lo.size)

    def value(self, y):
        arr = _as_points(y)
        self._check_dim(arr)
        out = np.zeros(arr.shape[:-1])
        out[~((arr >= self.lo) & (arr <= self.hi)).all(axis=-1)] = np.inf
        return out

    def prox(self, epsilon, y):
        arr = _as_points(y)
        self._check_dim(arr)
        return arr.clip(self.lo, self.hi)


class Quadratic(ConvexFunction, Record, frozen=True):
    """phi(y) = c |y|^2 / 2 with c >= 0."""

    c: float

    def __post_init__(self):
        if not 0 <= self.c < math.inf:  # negated, so that NaN fails it
            raise ValueError(f"quadratic coefficient must be nonnegative and finite: {self.c!r}")

    def value(self, y):
        arr = _as_points(y)
        return 0.5 * self.c * np.sum(arr * arr, axis=-1)

    def prox(self, epsilon, y):
        return _as_points(y) / (1.0 + epsilon * self.c)


class OneNorm(ConvexFunction, Record, frozen=True):
    """phi(y) = c * sum_k |y_k| with c >= 0."""

    c: float

    def __post_init__(self):
        if not 0 <= self.c < math.inf:  # negated, so that NaN fails it
            raise ValueError(f"one-norm coefficient must be nonnegative and finite: {self.c!r}")

    def value(self, y):
        arr = _as_points(y)
        return self.c * np.sum(np.abs(arr), axis=-1)

    def prox(self, epsilon, y):
        arr = _as_points(y)
        return np.sign(arr) * np.maximum(np.abs(arr) - epsilon * self.c, 0.0)


class YosidaTriple(Record, frozen=True, eq=False):
    """Resolvent J_eps(y), envelope phi_eps(y) and gradient at one point.

    The identity gradient == (y - resolvent) / epsilon holds exactly as
    computed (it is the definition used to build the triple).
    """

    resolvent: np.ndarray
    envelope: float
    gradient: np.ndarray
    epsilon: float


def prox(spec: ConvexFunction, epsilon, y) -> np.ndarray:
    """The unique minimizer J_eps(y) of v -> |y - v|^2/(2 eps) + phi(v); an
    array ``epsilon`` broadcasts against y and must be positive throughout."""
    if not np.all(np.asarray(epsilon) > 0):
        raise ValueError("epsilon must be positive")
    return spec.prox(epsilon, y)


def yosida_triple(spec: ConvexFunction, epsilon: float, y) -> YosidaTriple:
    point = _as_points(y)
    if point.ndim > 1:  # the envelope is one float
        raise ValueError(f"yosida_triple takes one point, a scalar or 1-D array: {point.shape}")
    j = prox(spec, epsilon, point)
    grad = (point - j) / epsilon
    envelope = float(np.sum((point - j) ** 2) / (2 * epsilon) + spec.value(j))
    return YosidaTriple(resolvent=j, envelope=envelope, gradient=grad, epsilon=epsilon)


def resolvent(spec: ConvexFunction, epsilon, lam: float):
    """The closed-form map x -> (y, u) solving y + lam * grad phi_eps(y) = x, ``epsilon`` checked
    once: with j = J_{eps+lam}(x), u = (x - j)/(eps + lam) is grad phi_eps(y) at y = x - lam*u."""
    if not np.all(np.asarray(epsilon) > 0):
        raise ValueError("epsilon must be positive")
    step = epsilon + lam

    def apply(x):
        arr = _as_points(x)
        j = spec.prox(step, arr)
        # u in the prox's buffer, unless it views x, is read-only or is not x's shape and dtype
        own = (isinstance(j, np.ndarray) and j.flags.writeable and j.dtype == arr.dtype
               and j.shape == arr.shape and not np.may_share_memory(j, arr))
        u = np.subtract(arr, j, out=j) if own else arr - j
        u /= step
        y = lam * u
        return np.subtract(arr, y, out=y), u
    return apply


def subgradient_check(spec: ConvexFunction, y, u, probes) -> float:
    """Worst slack of (y, u) in the subdifferential of phi against probe points.

    The defining inequality <u, v - y> + phi(y) <= phi(v) is evaluated for
    every probe v and the worst (largest) left-minus-right slack returned, for
    the caller to judge against its tolerance: -inf without probes, NaN when a
    slack is NaN.  Probes outside the domain satisfy the inequality trivially.
    Batched (y, u) pairs on leading axes are checked together, the worst slack
    running over all of them, in (probes, pairs) chunks of about 2^14 slacks,
    one probe at least.
    """
    point, grad = (a.reshape(-1, a.shape[-1])
                   for a in np.broadcast_arrays(_as_points(y), _as_points(u)))
    phi_y = spec.value(point)
    if not np.all(np.isfinite(phi_y)):
        raise ValueError("subgradient check requires y in the domain of phi")
    worst = -np.inf
    if not len(probes):
        return worst
    vs = np.array([_as_points(v).reshape(-1) for v in probes])
    phi_v = spec.value(vs)
    vs, phi_v = vs[np.isfinite(phi_v)], phi_v[np.isfinite(phi_v), None]
    chunk = max(1, 2 ** 14 // max(len(point), 1))
    for a in range(0, len(vs), chunk):
        violation = np.sum(grad * (vs[a:a + chunk, None] - point), axis=-1) + phi_y \
            - phi_v[a:a + chunk]
        worst = float(np.maximum(worst, np.max(violation)))
    return worst
