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
from typing import Callable

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

    def _check_dim(self, y: np.ndarray):
        if self.m is not None and y.shape[-1] != self.m:
            raise ValueError(f"point has dimension {y.shape[-1]}, spec expects {self.m}")

    def value(self, y) -> np.ndarray:
        raise NotImplementedError

    def prox(self, epsilon: float, y) -> np.ndarray:
        raise NotImplementedError


class Zero(ConvexFunction, Record, frozen=True):
    """phi == 0; the subdifferential term vanishes."""

    def value(self, y):
        arr = _as_points(y)
        return np.zeros(arr.shape[:-1])

    def prox(self, epsilon, y):
        return _as_points(y).copy()


class IndicatorBox(ConvexFunction, Record, frozen=True, eq=False):
    """Indicator of the box [lo, hi]; bounds may be -inf/+inf componentwise."""

    lo: np.ndarray
    hi: np.ndarray

    def __init__(self, lo, hi):
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        lo, hi = np.broadcast_arrays(lo, hi)
        lo, hi = lo.copy(), hi.copy()
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


class Custom1D(ConvexFunction, Record, frozen=True, eq=False):
    """Scalar piecewise-convex penalty with a user-supplied closed-form prox.

    The prox is validated at construction against a bisection oracle for the
    strictly convex objective |y - v|^2/(2 eps) + phi(v); construction fails if
    the two disagree.  ``phi_fn`` must be finite on the probed range and satisfy
    phi(y) >= phi(0) = 0.
    """

    phi_fn: Callable[[float], float]
    prox_fn: Callable[[float, float], float]
    probe_range: tuple = (-10.0, 10.0)

    m = 1

    def __post_init__(self):
        if abs(self.phi_fn(0.0)) > 1e-12:
            raise ValueError("custom penalty must satisfy phi(0) = 0")
        for eps in (0.05, 0.4, 1.5):
            for y in np.linspace(self.probe_range[0], self.probe_range[1], 9):
                claimed = float(self.prox_fn(eps, float(y)))
                oracle = _prox_bisection(self.phi_fn, eps, float(y))
                if abs(claimed - oracle) > 1e-5:
                    raise ValueError(
                        f"custom prox disagrees with bisection oracle at eps={eps}, "
                        f"y={y}: {claimed} vs {oracle}"
                    )
                if self.phi_fn(float(y)) < -1e-12:
                    raise ValueError("custom penalty must be nonnegative")

    def value(self, y):
        arr = _as_points(y)
        self._check_dim(arr)
        flat = arr.reshape(-1)
        out = np.array([self.phi_fn(float(v)) for v in flat])
        return out.reshape(arr.shape[:-1])

    def prox(self, epsilon, y):
        arr = _as_points(y)
        self._check_dim(arr)
        eps = np.broadcast_to(epsilon, arr.shape).reshape(-1)
        out = np.array([self.prox_fn(float(e), float(v))
                        for e, v in zip(eps, arr.reshape(-1))])
        return out.reshape(arr.shape)


def _prox_bisection(phi_fn, eps: float, y: float, width: float = 64.0) -> float:
    """Bisection on the sign of the centered difference of the prox objective."""
    def slope(v: float) -> float:
        h = 1e-7 * max(1.0, abs(v))
        obj_hi = (y - v - h) ** 2 / (2 * eps) + phi_fn(v + h)
        obj_lo = (y - v + h) ** 2 / (2 * eps) + phi_fn(v - h)
        return obj_hi - obj_lo

    lo, hi = y - width, y + width
    if slope(lo) > 0:
        return lo
    if slope(hi) < 0:
        return hi
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if slope(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


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


class SubgradientCheck(Record, frozen=True):
    """Verdict and worst slack of `subgradient_check`."""

    passed: bool
    worst_violation: float


def subgradient_check(spec: ConvexFunction, y, u, probes,
                      tol: float = 1e-8) -> SubgradientCheck:
    """Test (y, u) in the subdifferential of phi against probe points.

    The defining inequality <u, v - y> + phi(y) <= phi(v) is evaluated for
    every probe v; the worst (largest) left-minus-right slack is returned and
    the check passes iff it stays below ``tol``.  Probes outside the domain
    satisfy the inequality trivially.  Batched (y, u) pairs on leading axes
    are checked together, the worst slack (NaN fails) running over all of
    them, in (probes, pairs) chunks of about 2^14 slacks, one probe at least.
    """
    point, grad = (a.reshape(-1, a.shape[-1])
                   for a in np.broadcast_arrays(_as_points(y), _as_points(u)))
    phi_y = spec.value(point)
    if not np.all(np.isfinite(phi_y)):
        raise ValueError("subgradient check requires y in the domain of phi")
    worst = -np.inf
    if not len(probes):
        return SubgradientCheck(passed=True, worst_violation=worst)
    vs = np.array([_as_points(v).reshape(-1) for v in probes])
    phi_v = spec.value(vs)
    vs, phi_v = vs[np.isfinite(phi_v)], phi_v[np.isfinite(phi_v), None]
    chunk = max(1, 2 ** 14 // max(len(point), 1))
    for a in range(0, len(vs), chunk):
        violation = np.sum(grad * (vs[a:a + chunk, None] - point), axis=-1) + phi_y \
            - phi_v[a:a + chunk]
        worst = float(np.maximum(worst, np.max(violation)))
    return SubgradientCheck(passed=worst <= tol, worst_violation=worst)

