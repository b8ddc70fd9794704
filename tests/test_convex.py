import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsvi.convex import (
    Custom1D,
    IndicatorBox,
    OneNorm,
    Quadratic,
    Zero,
    eval_phi,
    moreau,
    prox,
    resolvent_step,
    subdifferential_interval,
    subgradient_check,
    yosida_grad,
    yosida_triple,
)

VALUE_TOL = 1e-10
SLACK_TOL = 1e-8


def builtin_specs():
    return [
        Zero(),
        IndicatorBox([-1.0, -0.5], [1.0, 2.0]),
        Quadratic(0.7),
        OneNorm(1.3),
        elastic_custom(),
    ]


def elastic_custom() -> Custom1D:
    # phi(y) = 0.5|y| + y^2/2, prox by soft-threshold then shrink
    def phi_fn(y):
        return 0.5 * abs(y) + 0.5 * y * y

    def prox_fn(eps, y):
        shrunk = math.copysign(max(abs(y) - 0.5 * eps, 0.0), y)
        return shrunk / (1.0 + eps)

    return Custom1D(phi_fn=phi_fn, prox_fn=prox_fn)


def assert_yosida_properties(spec, y, ybar, eps, delta):
    """The six envelope/resolvent properties plus 1/eps-Lipschitzness and the
    monotonicity of the underlying subdifferential."""
    t1 = yosida_triple(spec, eps, y)
    t2 = yosida_triple(spec, delta, ybar)
    t1b = yosida_triple(spec, eps, ybar)

    # (i) envelope equals quadratic gap plus value at the resolvent (definitional)
    recon = np.sum((np.asarray(y) - t1.resolvent) ** 2) / (2 * eps) \
        + eval_phi(spec, t1.resolvent)
    assert abs(t1.envelope - recon) <= VALUE_TOL
    # (ii) envelope below the function wherever finite
    phi_y = eval_phi(spec, y)
    if np.isfinite(phi_y):
        assert t1.envelope <= phi_y + SLACK_TOL
    # (iii) resolvent is nonexpansive
    assert np.linalg.norm(t1.resolvent - t1b.resolvent) \
        <= np.linalg.norm(np.asarray(y) - np.asarray(ybar)) + SLACK_TOL
    # (iv) gradient is a subgradient at the resolvent
    probes = [np.zeros_like(t1.resolvent), t1.resolvent, t2.resolvent,
              np.asarray(ybar, dtype=float), -np.asarray(y, dtype=float)]
    check = subgradient_check(spec, t1.resolvent, t1.gradient, probes,
                              tol=SLACK_TOL)
    assert check.passed, f"subgradient violation {check.worst_violation}"
    # (v) envelope squeezed between 0 and <y, grad>
    assert t1.envelope >= -VALUE_TOL
    assert t1.envelope <= float(np.dot(np.asarray(y, dtype=float).reshape(-1),
                                       t1.gradient)) + SLACK_TOL
    # (vi) cross-epsilon angle bound
    lhs = float(np.dot(t1.gradient - t2.gradient,
                       np.asarray(y, dtype=float).reshape(-1)
                       - np.asarray(ybar, dtype=float).reshape(-1)))
    rhs = -(eps + delta) * float(np.dot(t1.gradient, t2.gradient))
    assert lhs >= rhs - SLACK_TOL
    # gradient is (1/eps)-Lipschitz
    assert np.linalg.norm(t1.gradient - t1b.gradient) \
        <= np.linalg.norm(np.asarray(y) - np.asarray(ybar)) / eps + SLACK_TOL
    # monotonicity of the subdifferential through resolvent pairs
    mono = float(np.dot(t1.gradient - t2.gradient, t1.resolvent - t2.resolvent))
    assert mono >= -SLACK_TOL


def test_eval_phi_examples():
    assert eval_phi(Zero(), [3.0, -1.0]) == 0.0
    assert eval_phi(IndicatorBox(-1, 1), [2.0]) == math.inf
    assert eval_phi(Quadratic(1.0), [1.0, 1.0]) == pytest.approx(1.0)


def test_eval_phi_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        eval_phi(IndicatorBox([-1, -1], [1, 1]), [0.0])


def test_prox_examples():
    assert prox(IndicatorBox(-1, 1), 0.5, [2.0]) == pytest.approx([1.0])
    assert prox(Quadratic(1.0), 1.0, [3.0]) == pytest.approx([1.5])
    assert prox(OneNorm(1.0), 0.2, [-0.1]) == pytest.approx([0.0])
    with pytest.raises(ValueError, match="positive"):
        prox(Zero(), 0.0, [1.0])


def test_moreau_examples():
    assert moreau(IndicatorBox(-1, 1), 0.5, [2.0]) == pytest.approx(1.0)
    assert moreau(Quadratic(1.0), 1.0, [2.0]) == pytest.approx(1.0)
    # interior fixed point of any spec has zero envelope
    assert moreau(IndicatorBox(-1, 1), 0.3, [0.2]) == pytest.approx(0.0)


def test_yosida_grad_examples():
    assert yosida_grad(IndicatorBox(-1, 1), 0.5, [2.0]) == pytest.approx([2.0])
    assert yosida_grad(Zero(), 0.7, [4.0, -2.0]) == pytest.approx([0.0, 0.0])
    # saturates at the subgradient bound of the one-norm
    assert yosida_grad(OneNorm(1.0), 0.1, [5.0]) == pytest.approx([1.0])


def test_box_normalization_enforced():
    with pytest.raises(ValueError, match="contain 0"):
        IndicatorBox(0.5, 1.0)
    with pytest.raises(ValueError, match="empty"):
        IndicatorBox(1.0, -1.0)
    with pytest.raises(ValueError):
        Quadratic(-1.0)


def test_subgradient_check_examples():
    box = IndicatorBox(-1, 1)
    # outward normal at the boundary
    ok = subgradient_check(box, [1.0], [5.0], [[-1.0], [0.0], [1.0]])
    assert ok.passed
    # interior point with a nonzero candidate fails against the right probe
    bad = subgradient_check(box, [0.5], [1.0], [[1.0]])
    assert not bad.passed
    assert bad.worst_violation == pytest.approx(0.5)
    # gradient of a smooth phi always passes
    quad = Quadratic(1.0)
    ok2 = subgradient_check(quad, [2.0], [2.0], [[0.0], [-3.0], [5.0]])
    assert ok2.passed
    with pytest.raises(ValueError, match="domain"):
        subgradient_check(box, [2.0], [0.0], [[0.0]])
    # batched (nodes, m) pairs: the worst slack over all rows, one per-row call each
    box2 = IndicatorBox([-1.0, -0.5], [1.0, 2.0])
    ys = np.array([[1.0, 0.0], [0.5, 2.0], [-1.0, -0.5], [0.2, 0.3]])
    us = np.array([[3.0, 0.0], [0.0, 1.0], [-1.0, 0.4], [0.1, 0.0]])
    probes = [[0.0, 0.0], [1.0, 2.0], [-1.0, -0.5], [0.9, -0.4], [5.0, 5.0]]
    batched = subgradient_check(box2, ys, us, probes)
    rows = [subgradient_check(box2, y, u, probes) for y, u in zip(ys, us)]
    assert batched.worst_violation == max(r.worst_violation for r in rows)
    assert batched.passed == all(r.passed for r in rows)
    assert not batched.passed  # the interior row has a nonzero u
    with pytest.raises(ValueError, match="domain"):
        subgradient_check(box2, np.vstack([ys, [[0.0, 3.0]]]), np.vstack([us, [[0.0, 0.0]]]),
                          probes)


def test_yosida_triple_identity():
    spec = Quadratic(2.0)
    t = yosida_triple(spec, 0.4, [3.0, -1.0])
    assert np.allclose(t.gradient, (np.array([3.0, -1.0]) - t.resolvent) / 0.4)
    assert t.envelope >= 0.0


def test_custom1d_validates_prox():
    # correct prox constructs fine
    elastic_custom()
    # an off-by-constant prox is rejected by the bisection oracle
    with pytest.raises(ValueError, match="bisection"):
        Custom1D(phi_fn=lambda y: 0.5 * y * y,
                 prox_fn=lambda eps, y: y / (1 + eps) + 0.1)
    with pytest.raises(ValueError, match="phi\\(0\\)"):
        Custom1D(phi_fn=lambda y: abs(y) + 1.0,
                 prox_fn=lambda eps, y: y)


def test_subdifferential_interval_diagnostic():
    left, right = subdifferential_interval(elastic_custom(), 0.0)
    assert left == pytest.approx(-0.5, abs=1e-5)
    assert right == pytest.approx(0.5, abs=1e-5)


def test_resolvent_step_solves_implicit_equation():
    for spec in builtin_specs():
        m = spec.m or 2
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.normal(size=m) * 3
            eps, lam = rng.uniform(0.01, 1.0, size=2)
            y, u = resolvent_step(spec, eps, lam, x)
            assert np.allclose(y + lam * u, x, atol=1e-12)
            assert np.allclose(u, yosida_grad(spec, eps, y), atol=1e-10)


def test_resolvent_step_zero_is_bit_exact():
    x = np.array([0.3, -1.7])
    y, u = resolvent_step(Zero(), 1e-3, 0.25, x)
    assert np.array_equal(y, x)
    assert np.array_equal(u, np.zeros(2))


def test_batched_prox_matches_pointwise():
    rng = np.random.default_rng(11)
    for spec in builtin_specs():
        m = spec.m or 2
        batch = rng.normal(size=(6, m)) * 4
        together = prox(spec, 0.3, batch)
        separate = np.stack([prox(spec, 0.3, row) for row in batch])
        assert np.array_equal(together, separate)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, len(builtin_specs()) - 1),
    st.lists(st.floats(-10, 10), min_size=2, max_size=2),
    st.lists(st.floats(-10, 10), min_size=2, max_size=2),
    st.floats(1e-4, 1.0),
    st.floats(1e-4, 1.0),
)
def test_yosida_property_suite(spec_idx, y, ybar, eps, delta):
    spec = builtin_specs()[spec_idx]
    m = spec.m or 2
    assert_yosida_properties(spec, np.asarray(y[:m]), np.asarray(ybar[:m]),
                             eps, delta)
