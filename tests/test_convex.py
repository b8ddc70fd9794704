import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsvi.convex import (
    ConvexFunction,
    IndicatorBox,
    OneNorm,
    Quadratic,
    Zero,
    prox,
    resolvent,
    subgradient_check,
    yosida_triple,
)
from helpers_oracle import prox_bisection
from helpers_problems import ElasticPenalty

VALUE_TOL = 1e-10
SLACK_TOL = 1e-8


def builtin_specs():
    return [
        Zero(),
        IndicatorBox([-1.0, -0.5], [1.0, 2.0]),
        Quadratic(0.7),
        OneNorm(1.3),
        ElasticPenalty(),  # a user's ConvexFunction subclass
    ]


def assert_yosida_properties(spec, y, ybar, eps, delta):
    """The six envelope/resolvent properties plus 1/eps-Lipschitzness and the
    monotonicity of the underlying subdifferential."""
    t1 = yosida_triple(spec, eps, y)
    t2 = yosida_triple(spec, delta, ybar)
    t1b = yosida_triple(spec, eps, ybar)

    # (i) envelope equals quadratic gap plus value at the resolvent (definitional)
    recon = np.sum((np.asarray(y) - t1.resolvent) ** 2) / (2 * eps) \
        + spec.value(t1.resolvent)
    assert abs(t1.envelope - recon) <= VALUE_TOL
    # (ii) envelope below the function wherever finite
    phi_y = spec.value(y)
    if np.isfinite(phi_y):
        assert t1.envelope <= phi_y + SLACK_TOL
    # (iii) resolvent is nonexpansive
    assert np.linalg.norm(t1.resolvent - t1b.resolvent) \
        <= np.linalg.norm(np.asarray(y) - np.asarray(ybar)) + SLACK_TOL
    # (iv) gradient is a subgradient at the resolvent
    probes = [np.zeros_like(t1.resolvent), t1.resolvent, t2.resolvent,
              np.asarray(ybar, dtype=float), -np.asarray(y, dtype=float)]
    slack = subgradient_check(spec, t1.resolvent, t1.gradient, probes)
    assert slack <= SLACK_TOL, f"subgradient violation {slack}"
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
    assert Zero().value([3.0, -1.0]) == 0.0
    assert IndicatorBox(-1, 1).value([2.0]) == math.inf
    assert Quadratic(1.0).value([1.0, 1.0]) == pytest.approx(1.0)


def test_eval_phi_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        IndicatorBox([-1, -1], [1, 1]).value([0.0])


def test_prox_examples():
    assert prox(IndicatorBox(-1, 1), 0.5, [2.0]) == pytest.approx([1.0])
    assert prox(Quadratic(1.0), 1.0, [3.0]) == pytest.approx([1.5])
    assert prox(OneNorm(1.0), 0.2, [-0.1]) == pytest.approx([0.0])
    with pytest.raises(ValueError, match="positive"):
        prox(Zero(), 0.0, [1.0])


def test_moreau_examples():
    assert yosida_triple(IndicatorBox(-1, 1), 0.5, [2.0]).envelope == pytest.approx(1.0)
    assert yosida_triple(Quadratic(1.0), 1.0, [2.0]).envelope == pytest.approx(1.0)
    # interior fixed point of any spec has zero envelope
    assert yosida_triple(IndicatorBox(-1, 1), 0.3, [0.2]).envelope == pytest.approx(0.0)


def test_yosida_triples_of_one_point_compare_by_identity():
    # a triple holds arrays: compared by value, == on a 2-d point's triples raised
    a, b = (yosida_triple(IndicatorBox([-1, -1], [1, 1]), 0.5, [2.0, 0.5]) for _ in range(2))
    assert a != b and a == a
    assert hash(a) == object.__hash__(a) and len({a, b}) == 2


@pytest.mark.parametrize("shape", [(5, 2), (1, 2)])
@pytest.mark.parametrize("spec", [IndicatorBox([-1, -1], [1, 1]), Quadratic(1.0), OneNorm(1.0),
                                  Zero()], ids=lambda spec: type(spec).__name__)
def test_yosida_triple_refuses_a_batch_of_points(spec, shape):
    # its envelope is one float: a batch, even of one row, raised a bare TypeError
    with pytest.raises(ValueError, match="one point, a scalar or 1-D array"):
        yosida_triple(spec, 0.5, np.full(shape, 2.0))


def test_yosida_triple_of_a_scalar_is_that_of_its_one_entry_point():
    a, b = yosida_triple(Quadratic(1.0), 1.0, 2.0), yosida_triple(Quadratic(1.0), 1.0, [2.0])
    assert (a.resolvent, a.envelope, a.gradient) == (b.resolvent, b.envelope, b.gradient)


def test_yosida_grad_examples():
    assert yosida_triple(IndicatorBox(-1, 1), 0.5, [2.0]).gradient == pytest.approx([2.0])
    assert yosida_triple(Zero(), 0.7, [4.0, -2.0]).gradient == pytest.approx([0.0, 0.0])
    # saturates at the subgradient bound of the one-norm
    assert yosida_triple(OneNorm(1.0), 0.1, [5.0]).gradient == pytest.approx([1.0])


def test_box_normalization_enforced():
    with pytest.raises(ValueError, match="contain 0"):
        IndicatorBox(0.5, 1.0)
    with pytest.raises(ValueError, match="empty"):
        IndicatorBox(1.0, -1.0)
    with pytest.raises(ValueError):
        Quadratic(-1.0)


@pytest.mark.parametrize("lo, hi", [(-1.0, [[[0.5]]]), ([[-1.0, -2.0]], 1.0)])
def test_box_bounds_of_rank_above_one_are_refused(lo, hi):
    # a (1, 1, 1) bound made value() index a (1, N) mask with two indices
    with pytest.raises(ValueError, match="numbers or vectors"):
        IndicatorBox(lo, hi)


def test_only_the_indicator_penalties_say_so_and_no_caller_can_set_it():
    # the audit pass skips an indicator's value (0 on every prox output) and
    # takes the gap of a shared xi once (J_eps is one projection for every eps)
    specs = (Zero(), IndicatorBox(-1.0, 1.0), Quadratic(1.0), OneNorm(1.0), ElasticPenalty())
    assert [spec.indicator for spec in specs] == [True, True, False, False, False]
    for make in (lambda: Zero(indicator=False), lambda: IndicatorBox(-1.0, 1.0, indicator=False),
                 lambda: Quadratic(1.0, indicator=True)):
        with pytest.raises(TypeError):
            make()
    for spec in specs[:4]:
        with pytest.raises(AttributeError, match="frozen"):
            spec.indicator = not spec.indicator


# a NaN coefficient or bound made phi(xi) infinite or NaN at solve time
@pytest.mark.parametrize("make", [
    lambda: Quadratic(math.nan), lambda: Quadratic(math.inf), lambda: OneNorm(math.nan),
    lambda: OneNorm(math.inf), lambda: IndicatorBox(math.nan, 1.0),
    lambda: IndicatorBox([-1.0, -1.0], [1.0, math.nan]),
], ids=["quadratic_nan", "quadratic_inf", "one_norm_nan", "one_norm_inf", "box_lo_nan",
        "box_hi_nan"])
def test_penalty_constructors_refuse_nonfinite_values(make):
    with pytest.raises(ValueError, match="finite|NaN"):
        make()


def test_subgradient_check_examples():
    box = IndicatorBox(-1, 1)
    # outward normal at the boundary
    assert subgradient_check(box, [1.0], [5.0], [[-1.0], [0.0], [1.0]]) <= 1e-8
    # interior point with a nonzero candidate fails against the right probe
    bad = subgradient_check(box, [0.5], [1.0], [[1.0]])
    assert bad > 1e-8
    assert bad == pytest.approx(0.5)
    # gradient of a smooth phi always passes
    quad = Quadratic(1.0)
    assert subgradient_check(quad, [2.0], [2.0], [[0.0], [-3.0], [5.0]]) <= 1e-8
    with pytest.raises(ValueError, match="domain"):
        subgradient_check(box, [2.0], [0.0], [[0.0]])
    # batched (nodes, m) pairs: the worst slack over all rows, one per-row call each
    box2 = IndicatorBox([-1.0, -0.5], [1.0, 2.0])
    ys = np.array([[1.0, 0.0], [0.5, 2.0], [-1.0, -0.5], [0.2, 0.3]])
    us = np.array([[3.0, 0.0], [0.0, 1.0], [-1.0, 0.4], [0.1, 0.0]])
    probes = [[0.0, 0.0], [1.0, 2.0], [-1.0, -0.5], [0.9, -0.4], [5.0, 5.0]]
    batched = subgradient_check(box2, ys, us, probes)
    rows = [subgradient_check(box2, y, u, probes) for y, u in zip(ys, us)]
    assert batched == max(rows)
    assert (batched <= 1e-8) == all(r <= 1e-8 for r in rows)
    assert batched > 1e-8  # the interior row has a nonzero u
    with pytest.raises(ValueError, match="domain"):
        subgradient_check(box2, np.vstack([ys, [[0.0, 3.0]]]), np.vstack([us, [[0.0, 0.0]]]),
                          probes)


def test_subgradient_check_fails_on_a_nan_gradient():
    box = IndicatorBox(-1, 1)
    slack = subgradient_check(box, [[0.5]], [[np.nan]], [[1.0]])
    assert math.isnan(slack) and not slack <= 1e-8
    # a NaN row among finite ones, on either side of them
    ys, us = np.array([[0.5], [0.0], [0.2]]), np.array([[0.0], [np.nan], [0.0]])
    slack = subgradient_check(box, ys, us, [[1.0], [-1.0]])
    assert math.isnan(slack) and not slack <= 1e-8


def test_subgradient_check_of_no_probes_is_minus_infinity():
    slack = subgradient_check(IndicatorBox(-1, 1), [[0.5]], [[1.0]], [])
    assert slack == -np.inf and slack <= 1e-8


@pytest.mark.parametrize("m", [1, 2, 3, 9])
@pytest.mark.parametrize("rows", [1, 7, 40000])
def test_batched_subgradient_check_is_the_per_probe_loop_bitwise(m, rows):
    from helpers_oracle import subgradient_worst_per_probe
    rng = np.random.default_rng(m * rows)
    box = IndicatorBox(np.full(m, -1.0), np.linspace(0.5, 2.0, m))
    for spec in (box, Quadratic(0.7), OneNorm(1.3), Zero()):
        ys = rng.uniform(-1.0, 0.5, size=(rows, m))
        us = rng.normal(size=(rows, m))
        # 48 probes, some outside the box: 40000 rows cut them into chunks of one
        probes = list(rng.uniform(-1.5, 2.5, size=(48, m)))
        got = subgradient_check(spec, ys, us, probes)
        assert got == subgradient_worst_per_probe(spec, ys, us, probes)
        one = subgradient_check(spec, ys[0], us[0], probes)
        assert one == subgradient_worst_per_probe(spec, ys[0], us[0], probes)


def test_yosida_triple_identity():
    spec = Quadratic(2.0)
    t = yosida_triple(spec, 0.4, [3.0, -1.0])
    assert np.allclose(t.gradient, (np.array([3.0, -1.0]) - t.resolvent) / 0.4)
    assert t.envelope >= 0.0


def test_elastic_penalty_prox_matches_the_bisection_oracle():
    # at eps in {0.05, 0.4, 1.5} and 9 points on [-10, 10]
    spec = ElasticPenalty()
    assert spec.value(0.0) == 0.0 and np.all(spec.value(np.linspace(-3, 3, 7)[:, None]) >= 0)
    for eps in (0.05, 0.4, 1.5):
        for y in np.linspace(-10.0, 10.0, 9):
            oracle = prox_bisection(lambda v: float(spec.value(v)), eps, float(y))
            assert abs(float(spec.prox(eps, y)[0]) - oracle) <= 1e-5
    # and it finds a known prox, the quadratic's y / (1 + eps)
    assert abs(prox_bisection(lambda v: 0.5 * v * v, 0.4, 2.0) - 2.0 / 1.4) <= 1e-5


def test_resolvent_step_solves_implicit_equation():
    for spec in builtin_specs():
        m = spec.m or 2
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.normal(size=m) * 3
            eps, lam = rng.uniform(0.01, 1.0, size=2)
            y, u = resolvent(spec, eps, lam)(x)
            assert np.allclose(y + lam * u, x, atol=1e-12)
            assert np.allclose(u, yosida_triple(spec, eps, y).gradient, atol=1e-10)


def test_resolvent_step_zero_is_bit_exact():
    x = np.array([0.3, -1.7])
    y, u = resolvent(Zero(), 1e-3, 0.25)(x)
    assert np.array_equal(y, x)
    assert np.array_equal(u, np.zeros(2))


class ProxReturning(ConvexFunction):
    """phi = 0, or the box [-1, 1] for "read_only", with a prox returning its
    argument, a view of it, the array it views, a read-only array, a new
    float32 array or a new array it records."""

    def __init__(self, kind):
        self.kind, self.returned = kind, None

    def value(self, y):
        return Zero().value(y) if self.kind != "read_only" else IndicatorBox(-1.0, 1.0).value(y)

    def prox(self, epsilon, y):
        arr = np.asarray(y, dtype=float)
        if self.kind == "argument":
            return arr
        if self.kind == "view":
            return arr[...]
        if self.kind == "owner":  # the array y views, writable and owning its data
            return arr.copy() if arr.base is None else arr.base
        if self.kind == "float32":
            return arr.astype(np.float32)
        out = np.clip(arr, -1.0, 1.0) if self.kind == "read_only" else arr.copy()
        out.flags.writeable = self.kind != "read_only"
        self.returned = out
        return out


@pytest.mark.parametrize("kind", ["argument", "view", "owner", "read_only", "float32", "new"])
def test_resolvent_writes_u_only_into_a_prox_buffer_of_its_own(kind):
    # u = x - J goes into the array the prox returned only when that array
    # is new, writable and of x's dtype; a prox returning x, a view of x, the
    # array x views or a read-only array leaves x as it was, and every kind
    # gives the bits of x - J
    spec = ProxReturning(kind)
    x = np.random.default_rng(4).normal(size=(3, 5, 2)) * 2
    x[0, 0] = -0.0
    x = x[...] if kind == "owner" else x  # a view of an array of its shape and dtype
    before = x.copy()
    eps = np.array([1.0, 0.125, 2.0 ** -10])[:, None, None]
    y, u = resolvent(spec, eps, 0.25)(x)
    assert x.tobytes() == before.tobytes()
    assert (u is spec.returned) == (kind == "new")
    want_u = (before - spec.prox(eps + 0.25, before.copy())) / (eps + 0.25)
    want_y = before - 0.25 * want_u
    assert u.tobytes() == want_u.tobytes() and y.tobytes() == want_y.tobytes()


def test_batched_prox_matches_pointwise():
    rng = np.random.default_rng(11)
    for spec in builtin_specs():
        m = spec.m or 2
        batch = rng.normal(size=(6, m)) * 4
        together = prox(spec, 0.3, batch)
        separate = np.stack([prox(spec, 0.3, row) for row in batch])
        assert np.array_equal(together, separate)


@pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), ([-1.0, -0.5], [1.0, 2.0]),
                                    ([-math.inf, 0.0], [0.0, math.inf])])
def test_box_value_matches_the_all_and_where_expression_bitwise(lo, hi):
    # NaN, infinities, points on the faces and -0.0, as rows, one point and a scalar
    box = IndicatorBox(lo, hi)
    specials = [np.nan, -np.inf, np.inf, -0.0, 0.0, *box.lo, *box.hi]
    rng = np.random.default_rng(5)
    pts = rng.choice(np.array(specials + list(rng.normal(size=8) * 2)), size=(64, box.m))
    for y in (pts, pts.reshape(8, 8, box.m), pts[0], *(pts[:4, 0] if box.m == 1 else ())):
        arr = np.atleast_1d(np.asarray(y, dtype=float))
        want = np.where(np.all((arr >= box.lo) & (arr <= box.hi), axis=-1), 0.0, np.inf)
        got = box.value(y)
        assert type(got) is type(want) and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


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


@pytest.mark.parametrize("spec", builtin_specs(), ids=lambda s: type(s).__name__)
def test_epsilon_column_matches_per_block_scalar_bitwise(spec):
    # an (E, 1, 1) column of epsilons against an (E, size, m) batch, as a
    # batch of E solves steps its penalty
    rng = np.random.default_rng(3)
    m = spec.m or 2
    epsilons = np.array([1.0, 0.125, 2.0 ** -10])
    x = rng.normal(size=(3, 5, m)) * 3
    before = x.copy()
    column = epsilons[:, None, None]
    together = prox(spec, column, x)
    y, u = resolvent(spec, column, 0.25)(x)
    assert np.array_equal(x, before)
    for e, eps in enumerate(epsilons):
        assert np.array_equal(together[e], prox(spec, float(eps), x[e]))
        y_e, u_e = resolvent(spec, float(eps), 0.25)(x[e])
        assert np.array_equal(x[e], before[e])
        assert np.array_equal(y[e], y_e) and np.array_equal(u[e], u_e)
    for bad in (0.0, -0.5, float("nan")):
        with pytest.raises(ValueError, match="positive"):
            prox(spec, np.array([0.5, bad])[:, None, None], x[:2])


@pytest.mark.parametrize("bad", [0.0, -0.1, float("nan")])
def test_resolvent_refuses_a_nonpositive_epsilon_whatever_the_step(bad):
    # eps + lam > 0 for every bad eps here: the check is on eps itself
    for epsilon in (bad, np.array([0.5, bad])[:, None]):
        with pytest.raises(ValueError, match="positive"):
            resolvent(IndicatorBox(-1.0, 1.0), epsilon, 0.25)
