"""Convex penalty kernel: evaluation, prox, Moreau envelope, Yosida gradient.

Every built-in penalty is proper, convex, lower semicontinuous, normalized to
phi(y) >= phi(0) = 0, and ships with a closed-form prox; the Moreau envelope is
always computed from the prox through the identity
phi_eps(y) = |y - J_eps y|^2 / (2 eps) + phi(J_eps y), never by numerical
minimization.  All maps are pure over immutable specs.

Array convention: points live on the last axis, so ``value`` and ``prox``
accept arbitrary leading batch dimensions.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np


def _as_points(y) -> np.ndarray:
    arr = np.asarray(y, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    return arr


class ConvexFunction:
    """Base class for penalties.  Subclasses define ``value`` and ``prox``."""

    m: int | None = None

    def _check_dim(self, y: np.ndarray):
        if self.m is not None and y.shape[-1] != self.m:
            raise ValueError(f"point has dimension {y.shape[-1]}, spec expects {self.m}")

    def value(self, y) -> np.ndarray:
        raise NotImplementedError

    def prox(self, epsilon: float, y) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class Zero(ConvexFunction):
    """phi == 0; the subdifferential term vanishes."""

    def value(self, y):
        arr = _as_points(y)
        return np.zeros(arr.shape[:-1])

    def prox(self, epsilon, y):
        return _as_points(y).copy()


@dataclass(frozen=True, eq=False)
class IndicatorBox(ConvexFunction):
    """Indicator of the box [lo, hi]; bounds may be -inf/+inf componentwise."""

    lo: np.ndarray
    hi: np.ndarray

    def __init__(self, lo, hi):
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        lo, hi = np.broadcast_arrays(lo, hi)
        lo, hi = lo.copy(), hi.copy()
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
        inside = np.all((arr >= self.lo) & (arr <= self.hi), axis=-1)
        return np.where(inside, 0.0, np.inf)

    def prox(self, epsilon, y):
        arr = _as_points(y)
        self._check_dim(arr)
        return np.clip(arr, self.lo, self.hi)


@dataclass(frozen=True)
class Quadratic(ConvexFunction):
    """phi(y) = c |y|^2 / 2 with c >= 0."""

    c: float

    def __post_init__(self):
        if self.c < 0:
            raise ValueError("quadratic coefficient must be nonnegative")

    def value(self, y):
        arr = _as_points(y)
        return 0.5 * self.c * np.sum(arr * arr, axis=-1)

    def prox(self, epsilon, y):
        return _as_points(y) / (1.0 + epsilon * self.c)


@dataclass(frozen=True)
class OneNorm(ConvexFunction):
    """phi(y) = c * sum_k |y_k| with c >= 0."""

    c: float

    def __post_init__(self):
        if self.c < 0:
            raise ValueError("one-norm coefficient must be nonnegative")

    def value(self, y):
        arr = _as_points(y)
        return self.c * np.sum(np.abs(arr), axis=-1)

    def prox(self, epsilon, y):
        arr = _as_points(y)
        return np.sign(arr) * np.maximum(np.abs(arr) - epsilon * self.c, 0.0)


@dataclass(frozen=True, eq=False)
class Custom1D(ConvexFunction):
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
        flat = arr.reshape(-1)
        out = np.array([self.prox_fn(epsilon, float(v)) for v in flat])
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


@dataclass(frozen=True)
class YosidaTriple:
    """Resolvent J_eps(y), envelope phi_eps(y) and gradient at one point.

    The identity gradient == (y - resolvent) / epsilon holds exactly as
    computed (it is the definition used to build the triple).
    """

    resolvent: np.ndarray
    envelope: float
    gradient: np.ndarray
    epsilon: float


def eval_phi(spec: ConvexFunction, y) -> float:
    """phi(y); +inf outside the domain of indicator variants."""
    out = spec.value(y)
    return float(out) if np.ndim(out) == 0 else out


def prox(spec: ConvexFunction, epsilon: float, y) -> np.ndarray:
    """The unique minimizer J_eps(y) of v -> |y - v|^2/(2 eps) + phi(v)."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    return spec.prox(epsilon, y)


def yosida_triple(spec: ConvexFunction, epsilon: float, y) -> YosidaTriple:
    point = _as_points(y)
    j = prox(spec, epsilon, point)
    grad = (point - j) / epsilon
    envelope = float(np.sum((point - j) ** 2) / (2 * epsilon) + spec.value(j))
    return YosidaTriple(resolvent=j, envelope=envelope, gradient=grad, epsilon=epsilon)


def moreau(spec: ConvexFunction, epsilon: float, y) -> float:
    """Moreau envelope phi_eps(y), computed from the prox."""
    return yosida_triple(spec, epsilon, y).envelope


def yosida_grad(spec: ConvexFunction, epsilon: float, y) -> np.ndarray:
    """(y - J_eps y) / eps; a (1/eps)-Lipschitz selection converging to the
    minimal subgradient."""
    point = _as_points(y)
    return (point - prox(spec, epsilon, point)) / epsilon


def resolvent_step(spec: ConvexFunction, epsilon: float, lam: float, x):
    """Solve y + lam * grad phi_eps(y) = x in closed form.

    Uses the resolvent-of-resolvent identity: with j = J_{eps+lam}(x) and
    u = (x - j)/(eps + lam) one has u = grad phi_eps(y) for y = x - lam*u.
    Returns (y, u).  Supports batched x on leading axes.
    """
    arr = _as_points(x)
    j = prox(spec, epsilon + lam, arr)
    u = (arr - j) / (epsilon + lam)
    return arr - lam * u, u


@dataclass(frozen=True)
class SubgradientCheck:
    passed: bool
    worst_violation: float


def subgradient_check(spec: ConvexFunction, y, u, probes,
                      tol: float = 1e-8) -> SubgradientCheck:
    """Test (y, u) in the subdifferential of phi against probe points.

    The defining inequality <u, v - y> + phi(y) <= phi(v) is evaluated for
    every probe v; the worst (largest) left-minus-right slack is returned and
    the check passes iff it stays below ``tol``.  Probes outside the domain
    satisfy the inequality trivially.  Batched (y, u) pairs on leading axes
    are checked together, the worst slack running over all of them.
    """
    point = _as_points(y)
    grad = _as_points(u)
    phi_y = spec.value(point)
    if not np.all(np.isfinite(phi_y)):
        raise ValueError("subgradient check requires y in the domain of phi")
    worst = -np.inf
    for v in probes:
        vv = _as_points(v)
        phi_v = float(spec.value(vv))
        if not np.isfinite(phi_v):
            continue
        violation = np.sum(grad * (vv - point), axis=-1) + phi_y - phi_v
        worst = max(worst, float(np.max(violation)))
    return SubgradientCheck(passed=worst <= tol, worst_violation=worst)


def subdifferential_interval(spec: ConvexFunction, y: float,
                             step: float = 1e-7) -> tuple:
    """Diagnostic one-sided derivative interval [phi'_-(y), phi'_+(y)] for m = 1.

    Finite-difference based; intended for inspecting scalar custom penalties,
    not used by the solver.
    """
    point = float(np.asarray(y).reshape(-1)[0])
    left = (float(spec.value(point)) - float(spec.value(point - step))) / step
    right = (float(spec.value(point + step)) - float(spec.value(point))) / step
    return left, right
