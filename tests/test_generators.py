import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from bsvi.convex import Zero
from bsvi.generators import (
    AffineDrift,
    CustomGenerator,
    Dirac,
    DiscreteMixture,
    GeneratorError,
    GeneratorSpec,
    UniformPast,
    delayed_z,
    frozen_prefix,
    level_drift,
    linear,
    linear_scalar,
    lipschitz_probe_audit,
    moving_average_z,
    origin_drift_mass,
    past_z_rows,
    prefix_coefficients,
    running_integral_z,
    zero,
)
from bsvi.lattice import AdaptedProcess, build_tree
from bsvi.problems import terminal_linear
from bsvi.solver import SolverConfig, picard_solve, solve_bsvi
from helpers_oracle import (instant_einsum, node_accessors, node_drift, quadrature,
                            terminal_linear_einsum)


def const_accessor(value):
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    return lambda theta: arr


def test_delay_measure_validation():
    with pytest.raises(ValueError):
        Dirac(0.5)
    with pytest.raises(ValueError, match="sum to 1"):
        DiscreteMixture(((-0.5, 0.5), (0.0, 0.4)))
    with pytest.raises(ValueError, match="positive"):
        DiscreteMixture(((-0.5, 1.5), (0.0, -0.5)))
    with pytest.raises(ValueError, match="at least one atom"):
        DiscreteMixture(())
    DiscreteMixture(((-0.5, 0.5), (0.0, 0.5)))


# a NaN slipped past every check and failed late in the solve, if at all
@pytest.mark.parametrize("make", [
    lambda: Dirac(math.nan), lambda: Dirac(-math.inf),
    lambda: DiscreteMixture(((math.nan, 1.0),)),
    lambda: DiscreteMixture(((-0.5, math.nan), (0.0, 0.5))),
    lambda: delayed_z(math.nan, 0.0), lambda: delayed_z(1.0, math.nan),
    lambda: delayed_z(1.0, math.inf), lambda: running_integral_z(math.nan),
    lambda: moving_average_z(g=lambda t: 1.0, g_bound=math.nan),
    lambda: linear([[math.nan]], [[[0.0]]]), lambda: linear([[1.0]], [[[math.inf]]]),
], ids=["dirac_nan", "dirac_minus_inf", "mixture_theta_nan", "mixture_weight_nan",
        "delayed_kappa_nan", "delayed_lag_nan", "delayed_lag_inf", "running_kappa_nan",
        "g_bound_nan", "linear_a_nan", "linear_b_inf"])
def test_generator_constructors_refuse_nonfinite_values(make):
    with pytest.raises(ValueError, match="finite"):
        make()


# an infinite or NaN constant made beta infinite, so the solve raised
# NonFiniteIterate at "level None, node None" over finite data
@pytest.mark.parametrize("value", [math.inf, math.nan, -0.5])
@pytest.mark.parametrize("name", ["declared_instant", "declared_delay"])
def test_custom_generator_refuses_a_bad_declared_constant(name, value):
    constants = {"declared_instant": 0.5, "declared_delay": 0.25, name: value}
    with pytest.raises(ValueError, match=f"{name} must be finite and >= 0"):
        CustomGenerator(fn=lambda t, y, z, past_y, past_z: y, **constants)


# K = g_bound^2 feeds the well-posedness gate, which passed on an understated bound
@pytest.mark.filterwarnings("ignore:well-posedness gate failed")
def test_moving_average_refuses_a_g_value_above_its_g_bound():
    tree = build_tree(3, 1.0)
    with pytest.raises(ValueError, match="g_bound must be finite and >= 0"):
        moving_average_z(g=lambda t: 0.0, g_bound=-0.5)
    for g in (lambda t: 2.0, lambda t: -0.5 - t, lambda t: math.nan):
        gen = moving_average_z(g=g, g_bound=0.5, alpha=Dirac(-0.25))
        with pytest.raises(ValueError, match="exceeds g_bound"):
            past_z_rows(gen, tree)
        with pytest.raises(ValueError, match="exceeds g_bound"):
            picard_solve(tree, tree.path_sums().values[-1], gen)
    # a bound met with equality holds, and g is not read before time 0
    gen = moving_average_z(g=lambda t: 0.5 if t >= 0 else 9.0, g_bound=0.5, alpha=UniformPast())
    assert len(past_z_rows(gen, tree)) == 3


@pytest.mark.parametrize("alpha", [
    Dirac(0.0), Dirac(-0.3), Dirac(-1.0), UniformPast(),
    DiscreteMixture(((-1.0, 0.25), (-0.5, 0.5), (0.0, 0.25))),
])
def test_discretize_weights_sum_to_one(alpha):
    for n_steps in (1, 4, 7):
        atoms = alpha.discretize(1.0, 1.0 / n_steps)
        assert sum(w for _, w in atoms) == pytest.approx(1.0, abs=1e-14)
        assert all(-1.0 - 1e-12 <= theta <= 0.0 and w > 0 for theta, w in atoms)


def test_discretize_rejects_offsets_beyond_the_horizon():
    with pytest.raises(ValueError, match="outside"):
        Dirac(-1.5).discretize(1.0, 0.25)
    with pytest.raises(ValueError, match="outside"):
        DiscreteMixture(((-1.5, 0.5), (0.0, 0.5))).discretize(1.0, 0.25)


def custom(fn):
    return CustomGenerator(fn=fn, declared_instant=1.0, declared_delay=1.0)


def level_drift_at(gen, tree, i, y, z, frozen_y, frozen_z):
    """`level_drift` reading its past from the levels of two processes."""
    return level_drift(gen, tree, i, y, z, frozen_y.values, frozen_z.values,
                       past_z_rows(gen, tree))


def test_quadrature_dirac_at_zero_is_current_value():
    acc = const_accessor([4.2])
    out = quadrature(acc, Dirac(0.0), horizon=1.0, dt=0.25)
    assert out == pytest.approx([4.2])


def test_quadrature_dirac_before_zero_hits_extension():
    # a level-0 custom drift reading z(t - 0.3) gets the zero extension, one
    # level later (t - 0.3 = 0.2) it reads the root's frozen z
    tree = build_tree(2, 1.0, 1)
    z = AdaptedProcess(tree, [np.ones((1, 1, 1)), np.ones((2, 1, 1))])
    y = tree.path_sums()
    gen = custom(lambda t, y, z, py, pz: pz(-0.3)[..., 0])
    out = level_drift_at(gen, tree, 0, np.ones((1, 1)), np.ones((1, 1, 1)), y, z)
    assert np.array_equal(out, np.zeros((1, 1)))
    out = level_drift_at(gen, tree, 1, np.ones((2, 1)), np.full((2, 1, 1), 5.0), y, z)
    assert np.array_equal(out, np.ones((2, 1)))


def test_quadrature_mixture_of_constant_is_constant():
    alpha = DiscreteMixture(((-1.0, 0.5), (0.0, 0.5)))
    out = quadrature(const_accessor([2.5]), alpha, horizon=1.0, dt=0.25)
    assert out == pytest.approx([2.5])


def test_quadrature_uniform_trapezoid_on_linear_path():
    # accessor theta -> t + theta on the grid; the trapezoid over [t-T, t]
    # of a linear function is exact: mean value = t - T/2
    horizon, dt, t = 1.0, 0.25, 1.0
    acc = lambda theta: np.array([t + theta])
    out = quadrature(acc, UniformPast(), horizon=horizon, dt=dt)
    assert out == pytest.approx([t - horizon / 2])


def test_quadrature_linear_in_accessor():
    rng = np.random.default_rng(3)
    vals1 = rng.normal(size=5)
    vals2 = rng.normal(size=5)
    dt = 0.25

    def stepper(vals):
        def acc(theta):
            u = 1.0 + theta
            k = min(max(int(math.floor(u / dt + 1e-9)), 0), 4)
            return np.array([vals[k] if u >= 0 else 0.0])
        return acc

    for alpha in (Dirac(-0.5), UniformPast(),
                  DiscreteMixture(((-0.75, 0.3), (-0.25, 0.7)))):
        q1 = quadrature(stepper(vals1), alpha, horizon=1.0, dt=dt)
        q2 = quadrature(stepper(vals2), alpha, horizon=1.0, dt=dt)
        q12 = quadrature(stepper(2.0 * vals1 - 3.0 * vals2), alpha, horizon=1.0, dt=dt)
        assert np.allclose(q12, 2.0 * q1 - 3.0 * q2, atol=1e-12)


def test_eval_generator_zero_and_linear():
    tree = build_tree(2, 1.0, 1)
    y, z = random_paths(tree, 2)
    y1, z1 = np.full((2, 1), 1.5), np.ones((2, 1, 1))
    assert np.array_equal(level_drift_at(zero(), tree, 1, y1, z1, y, z), np.zeros((2, 1)))
    out = level_drift_at(linear_scalar(0.0, 1.0), tree, 1, y1, z1, y, z)
    assert np.array_equal(out, np.ones((2, 1)))


def test_eval_generator_delayed_z_before_lag_is_zero():
    tree = build_tree(2, 1.0, 1)
    z = AdaptedProcess(tree, [np.full((1, 1, 1), 9.0), np.full((2, 1, 1), 9.0)])
    y = tree.path_sums()
    gen = delayed_z(kappa=2.0, lag=0.5)
    out = level_drift_at(gen, tree, 0, np.zeros((1, 1)), np.zeros((1, 1, 1)), y, z)
    assert np.array_equal(out, np.zeros((1, 1)))


def test_eval_generator_moving_average_dirac_zero_reduces_to_instant():
    tree = build_tree(4, 1.0, 1)
    y, z = random_paths(tree, 4)
    gen = moving_average_z(g=lambda t: 2.0 + t, g_bound=3.0, alpha=Dirac(0.0))
    out = level_drift_at(gen, tree, 2, np.zeros((4, 1)), np.full((4, 1, 1), 0.7), y, z)
    assert out == pytest.approx(np.full((4, 1), (2.0 + 0.5) * 0.7))


def test_eval_generator_running_integral_matches_trapezoid():
    # z(t_k) = zs[k] on every node; at t = 1 = t_4 the current z is zs[4]
    tree = build_tree(5, 1.25, 1)
    dt = tree.grid.dt
    zs = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    z = AdaptedProcess(tree, [np.full((tree.level_size(k), 1, 1), zs[k]) for k in range(5)])
    y = tree.path_sums()
    gen = running_integral_z(kappa=3.0)
    out = level_drift_at(gen, tree, 4, np.zeros((16, 1)), z.values[4], y, z)
    expected = 3.0 * dt * (0.5 * zs[0] + zs[1] + zs[2] + zs[3] + 0.5 * zs[4])
    assert out == pytest.approx(np.full((16, 1), expected))
    # at t = 0 the running integral is empty
    out0 = level_drift_at(gen, tree, 0, np.zeros((1, 1)), z.values[0], y, z)
    assert np.array_equal(out0, np.zeros((1, 1)))


def test_probe_audit_refuses_a_built_in_drift():
    # a built-in's constants are exact, and its drift is read only through its
    # past_z_rows table, whose d = 2 refusal
    # test_past_z_rows_keep_the_one_dimensional_noise_check pins
    for gen in (delayed_z(1.0, 0.5), zero(), linear_scalar(0.5, 1.5)):
        with pytest.raises(TypeError, match=f"not {type(gen).__name__}"):
            lipschitz_probe_audit(gen, 1, 1, 1.0, 4)


def test_probe_audit_skips_the_levels_no_probe_drew():
    # 200 probes over 1000 levels leave most levels without one: the callback
    # is called three times on each drawn level's k probes, three more (reversed
    # and in two halves, the row check) where k >= 2, and never at another level
    sizes = {}

    def drift(t, y, z, py, pz):
        sizes.setdefault(t, []).append(len(y))
        return -0.8 * y + 0.5 * pz(-0.25)[..., 0]

    gen = CustomGenerator(fn=drift, declared_instant=0.8, declared_delay=0.25,
                          alpha=Dirac(-0.25))
    audit = lipschitz_probe_audit(gen, m=1, d=1, horizon=1.0, n_steps=1000)
    assert audit["instant_slack"] <= 1e-10 and audit["delay_slack"] <= 1e-10
    assert len(sizes) <= 200 and sum(calls[0] for calls in sizes.values()) == 200
    for calls in sizes.values():
        k = calls[0]
        assert sorted(calls) == sorted([k] * 3 + ([k, k // 2, k - k // 2] if k > 1 else []))
    assert any(calls[0] > 1 for calls in sizes.values())  # the row check ran


def test_linear_instant_reads_a_2d_b_as_one_noise_component():
    # B (m, m) is B (m, m, 1); a b of any rank but 0, 2 or 3 is refused
    y, z = np.array([[2.0, -1.0]]), np.array([[[4.0], [0.5]]])
    a, b = [[0.5, 0.0], [0.25, 1.0]], [[0.25, -2.0], [1.5, 0.0]]
    two_d = linear(a, b)
    assert two_d.b_z.shape == (2, 2, 1)
    three_d = linear(a, np.array(b)[..., None])
    assert np.array_equal(two_d.instant(y, z), three_d.instant(y, z))
    for b in ([0.0], [[[[0.0]]]]):
        with pytest.raises(ValueError, match="inconsistent linear generator dimensions"):
            linear([[0.0]], b)


def test_custom_generator_failure_is_wrapped():
    def broken(t, y, z, past_y, past_z):
        raise KeyError("boom")

    tree = build_tree(2, 1.0, 1)
    y, z = random_paths(tree, 3)
    with pytest.raises(GeneratorError, match="t=0.5"):
        level_drift_at(custom(broken), tree, 1, y.values[1], z.values[1], y, z)


def random_paths(tree, seed):
    rng = np.random.default_rng(seed)
    n = tree.grid.n_steps
    y = AdaptedProcess(tree, [rng.normal(size=(tree.level_size(i), 1))
                              for i in range(n + 1)])
    z = AdaptedProcess(tree, [rng.normal(size=(tree.level_size(i), 1, 1))
                              for i in range(n)])
    return y, z


def test_linear_lipschitz_of_one_row_is_the_euclidean_norm_of_its_entries():
    # one row or column takes math.hypot, no LAPACK call: the SVD's bits on
    # 1x1 coefficients with 1e-100 <= |a| <= 1e100 and on 0
    rng = np.random.default_rng(26)
    values = [0.0, 1e-100, -1e100,
              *(rng.choice([-1.0, 1.0], 2000) * 10.0 ** rng.uniform(-100, 100, 2000))]
    for v in values:
        for gen in (linear_scalar(v, 0.0), linear_scalar(0.0, v)):
            assert gen.lipschitz_instant().hex() == float(np.linalg.norm([[v]], 2)).hex()
    # a 1 x d row (m = 1, bm_dim = 3), to rounding
    for _ in range(50):
        b = rng.normal(size=(1, 1, 3)) * 10.0 ** rng.uniform(-5, 5)
        assert linear([[0.0]], b).lipschitz_instant() == pytest.approx(
            float(np.linalg.norm(b.reshape(1, 3), 2)), rel=1e-15, abs=0)
    # a full 2 x 2 keeps the SVD: its spectral norm, below the entries' norm
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    lip = linear(a, np.zeros((2, 2, 1))).lipschitz_instant()
    assert lip == float(np.linalg.norm(a, 2)) < math.hypot(1.0, 2.0, 3.0, 4.0) - 1e-3


@pytest.mark.parametrize("gen", [
    linear_scalar(0.5, 1.5),
    delayed_z(kappa=1.2, lag=0.5),
    running_integral_z(kappa=0.9),
    moving_average_z(g=lambda t: math.cos(3 * t), g_bound=1.0, alpha=UniformPast()),
    CustomGenerator(
        fn=lambda t, y, z, py, pz: -0.8 * y + 0.5 * pz(-0.25)[..., 0],
        declared_instant=0.8, declared_delay=0.25, alpha=Dirac(-0.25)),
])
def test_lipschitz_audit_of_declared_constants(gen):
    # a built-in is probed through its callback twin: instant(y, z) plus its
    # past-Z terms read through the probe's accessors, under its own alpha and
    # exact constants
    horizon, n_steps = 1.0, 4
    if not isinstance(gen, CustomGenerator):
        gen = CustomGenerator(
            fn=lambda t, y, z, py, pz, spec=gen: node_drift(spec, t, y, z, py, pz, horizon,
                                                            horizon / n_steps),
            declared_instant=gen.lipschitz_instant(),
            declared_delay=gen.lipschitz_delay(horizon), alpha=gen.alpha)
    audit = lipschitz_probe_audit(gen, m=1, d=1, horizon=horizon, n_steps=n_steps,
                                  n_probes=1000)
    assert audit["instant_slack"] <= 1e-10
    assert audit["delay_slack"] <= 1e-10


@pytest.mark.parametrize("share, warns", [(0.75, True), (1.0, False)])
def test_probe_audit_holds_a_delayed_drift_to_its_declared_k(share, warns):
    # kappa z(t - T/4) has delay constant kappa^2 under a Dirac(-T/4): declaring
    # 0.75 kappa^2 leaves a positive slack (6.15), which the solve warns about;
    # declaring kappa^2 leaves none (-1.3e-7)
    kappa, horizon = 0.8, 1.0
    gen = CustomGenerator(fn=lambda t, y, z, py, pz: kappa * pz(-horizon / 4)[..., 0],
                          declared_instant=0.0, declared_delay=share * kappa ** 2,
                          alpha=Dirac(-horizon / 4))
    audit = lipschitz_probe_audit(gen, m=1, d=1, horizon=horizon, n_steps=4)
    assert (audit["delay_slack"] > 1e-8) is warns
    tree = build_tree(4, horizon, 1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        picard_solve(tree, 0.1 + tree.path_sums().values[-1], gen)
    assert any("look too small" in str(w.message) for w in caught) is warns


def test_fubini_shift_inequality_pathwise():
    # discrete analogue: int_0^T (alpha-average of |Z(s+theta)|^2) ds stays
    # below int_0^T |Z(s)|^2 ds along every leaf path
    tree = build_tree(4, 1.0, 1)
    rng = np.random.default_rng(99)
    z = AdaptedProcess(tree, [rng.normal(size=(tree.level_size(i), 1, 1))
                              for i in range(4)])
    y = tree.path_sums()
    dt = tree.grid.dt
    n = tree.grid.n_steps
    for alpha in (Dirac(-2 * dt), Dirac(-0.3), UniformPast(),
                  DiscreteMixture(((-1.0, 0.25), (-0.5, 0.5), (0.0, 0.25)))):
        for leaf in range(tree.level_size(n)):
            lhs = 0.0
            rhs = 0.0
            for i in range(n):
                node = leaf >> (n - i)
                _, past_z = node_accessors(y, z, i, node)
                sq = quadrature(lambda th: np.sum(past_z(th) ** 2), alpha,
                                horizon=1.0, dt=dt)
                lhs += dt * float(sq)
                rhs += dt * float(np.sum(z.values[i][node] ** 2))
            assert lhs <= rhs + 1e-10


def test_running_integral_is_not_the_scaled_uniform_average():
    # z(t_k) = 1 + k on every node; at t = 3/8 the trapezoid over [0, t] gives
    # z(0) half a weight, the uniform average over [t - T, t] a full one
    tree = build_tree(8, 1.0, 1)
    dt, horizon, kappa, i = tree.grid.dt, tree.grid.horizon, 0.7, 3
    z = AdaptedProcess(tree, [np.full((tree.level_size(k), 1, 1), 1.0 + k)
                              for k in range(8)])
    y = tree.path_sums()
    running_gen = running_integral_z(kappa=kappa)
    running = level_drift_at(running_gen, tree, i, y.values[i], z.values[i], y, z)
    uniform_gen = moving_average_z(g=lambda t: kappa * horizon, g_bound=kappa * horizon,
                                 alpha=UniformPast())
    scaled_uniform = level_drift_at(uniform_gen, tree, i, y.values[i], z.values[i], y, z)
    assert np.allclose(running, 0.65625, rtol=0, atol=1e-15)
    assert np.allclose(scaled_uniform, 0.7, rtol=0, atol=1e-15)
    z0 = 1.0
    assert np.allclose(scaled_uniform - running, kappa * dt * z0 / 2, rtol=0, atol=1e-15)


LEVEL_DRIFT_CASES = {
    "zero": (zero(), 1, 1),
    "linear": (linear_scalar(0.7, -0.4), 1, 1),
    "linear_m2_d2": (linear(np.array([[0.3, -0.1], [0.2, 0.1]]),
                                   np.arange(8.0).reshape(2, 2, 2) / 10), 2, 2),
    "delayed_z_short_lag": (delayed_z(kappa=0.8, lag=0.25), 1, 1),
    "delayed_z_beyond_horizon": (delayed_z(kappa=0.8, lag=2.0), 1, 1),
    "dirac_on_grid": (moving_average_z(g=lambda t: 1.0 + t, g_bound=2.0,
                                     alpha=Dirac(-0.5)), 1, 1),
    "dirac_off_grid": (moving_average_z(g=lambda t: 1.0 + t, g_bound=2.0,
                                      alpha=Dirac(-0.3)), 1, 1),
    "dirac_at_zero": (moving_average_z(g=lambda t: 1.0 + t, g_bound=2.0,
                                     alpha=Dirac(0.0)), 1, 1),
    "dirac_inside_last_step": (moving_average_z(g=lambda t: 1.0 + t, g_bound=2.0,
                                              alpha=Dirac(-0.1)), 1, 1),
    "mixture": (moving_average_z(g=math.cos, g_bound=1.0, alpha=DiscreteMixture(
        ((-0.5, 0.3), (-0.1, 0.2), (0.0, 0.5)))), 1, 1),
    "uniform": (moving_average_z(g=lambda t: 0.5 + t, g_bound=1.5,
                               alpha=UniformPast()), 1, 1),
    "running_integral": (running_integral_z(kappa=0.6), 1, 1),
    "custom": (CustomGenerator(
        fn=lambda t, y, z, py, pz: -0.5 * y + 0.3 * pz(-0.25)[..., 0] + 0.1 * py(-0.5),
        declared_instant=0.5, declared_delay=0.2, alpha=Dirac(-0.25)), 1, 1),
    "custom_m2_d1": (CustomGenerator(
        fn=lambda t, y, z, py, pz: (-0.5 * y + 0.3 * pz(-0.25)[..., 0]
                                    + 0.1 * py(-0.5)[..., ::-1] + 0.2 * pz(0.0)[..., 0]),
        declared_instant=0.7, declared_delay=0.2, alpha=Dirac(-0.25)), 2, 1),
}


@pytest.mark.parametrize("name", sorted(LEVEL_DRIFT_CASES))
def test_level_drift_matches_per_node_evaluation(name):
    gen, m, d = LEVEL_DRIFT_CASES[name]
    tree = build_tree(4, 1.0, d)
    grid = tree.grid
    rng = np.random.default_rng(11)
    frozen_y = AdaptedProcess(tree, [rng.normal(size=(tree.level_size(i), m))
                                     for i in range(5)])
    frozen_z = AdaptedProcess(tree, [rng.normal(size=(tree.level_size(i), m, d))
                                     for i in range(4)])
    rows = past_z_rows(gen, tree)
    for i in range(4):
        y = rng.normal(size=(tree.level_size(i), m))
        z = rng.normal(size=(tree.level_size(i), m, d))
        got = level_drift(gen, tree, i, y, z, frozen_y.values, frozen_z.values, rows)
        assert got.shape == y.shape
        for j in range(tree.level_size(i)):
            past_y, past_z = node_accessors(frozen_y, frozen_z, i, j,
                                            current_y=y[j], current_z=z[j])
            ref = node_drift(gen, i * grid.dt, y[j], z[j], past_y, past_z,
                             grid.horizon, grid.dt)
            assert np.array_equal(got[j], ref), (i, j)


@pytest.mark.parametrize("m,d", [(1, 1), (2, 1), (2, 2), (3, 2)])
def test_linear_drift_of_a_node_does_not_depend_on_the_rows_beside_it(m, d):
    # einsum, unlike a matmul, adds each node's products in one order whatever
    # the number of rows in the call: a level, any slice of it and the solver's
    # (1, size, m) broadcast give every node the same bits
    rng = np.random.default_rng(5)
    gen = linear(rng.normal(size=(m, m)), rng.normal(size=(m, m, d)))
    y, z = rng.normal(size=(257, m)), rng.normal(size=(257, m, d))
    whole = gen.instant(y, z)
    assert whole.tobytes() == gen.instant(y[None], z[None])[0].tobytes()
    for lo, hi in [(0, 1), (0, 4), (0, 5), (3, 11), (64, 200), (250, 257), (0, 256)]:
        assert whole[lo:hi].tobytes() == gen.instant(y[lo:hi], z[lo:hi]).tobytes(), (lo, hi)
    assert whole[1::3].tobytes() == gen.instant(y[1::3], z[1::3]).tobytes()
    for j in range(len(y)):
        assert whole[j].tobytes() == gen.instant(y[j], z[j]).tobytes(), j


def _signed_zero_level(rng, size):
    # (size, 1) y and (size, 1, 1) z: every pair of signed zeros in the first
    # four rows, then normal draws with about a third of each set to +-0.0
    y, z = rng.normal(size=(size, 1)), rng.normal(size=(size, 1, 1))
    for x in (y, z):
        zeros = rng.random(x.shape) < 0.3
        x[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    for row, (a, b) in enumerate([(0.0, 0.0), (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0)]):
        y[row], z[row] = a, b
    return y, z


@pytest.mark.parametrize("a,b", [(-0.7, 0.4), (0.7, -0.4), (-0.7, -0.4), (0.0, -0.4)])
def test_scalar_linear_drift_keeps_the_bits_of_the_matmul_formula(a, b):
    # at m = d = 1 the old `y @ A.T` and the einsum both add one product to
    # +0.0, so a -0.0 product reads +0.0; a plain `y * a` would keep -0.0
    rng = np.random.default_rng(17)
    gen = linear_scalar(a, b)
    for size, broadcast in [(4, False), (45, False), (64, True)]:
        y, z = _signed_zero_level(rng, size)
        if broadcast:  # the solver's (1, size, m) rows of one block
            y, z = y[None], z[None]
        old = y @ gen.a_y.T + np.einsum("kml,...ml->...k", gen.b_z, z)
        assert gen.instant(y, z).tobytes() == old.tobytes(), size


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("a,b", [(-0.0, -1.4), (0.0, -1.4), (-0.0, 1.0), (0.3, -0.5)])
def test_linear_terminal_keeps_the_bits_of_the_matmul_formula(n, a, b):
    # an even n puts W(T) = +0.0 on some leaves; there +0.0 * -1.4 is -0.0, which
    # a plain product would add to a = -0.0 as -0.0, and the matmul (as the
    # einsum) adds to +0.0 first, so that the leaf reads +0.0
    tree = build_tree(n, 1.0)
    w = tree.path_sums().values[-1]
    old = np.array([a]) + w @ np.array([[b]]).T
    assert terminal_linear(tree, a, b).tobytes() == old.tobytes()


def _signed_zero_draws(rng, shape):
    # normal draws with about a third of them set to +-0.0
    x = rng.normal(size=shape)
    zeros = rng.random(shape) < 0.3
    x[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    return x


@pytest.mark.parametrize("m,d", [(1, 1), (2, 1)])
def test_linear_drift_is_the_einsum_oracle_bitwise_at_one_or_two_terms(m, d):
    # A y and B z each add at most two products per node: in order from +0.0,
    # as einsum adds them, so every bit (signed zeros too) is the oracle's
    rng = np.random.default_rng(m * 10 + d)
    gen = linear(_signed_zero_draws(rng, (m, m)), _signed_zero_draws(rng, (m, m, d)))
    y, z = _signed_zero_draws(rng, (4096, m)), _signed_zero_draws(rng, (4096, m, d))
    assert gen.instant(y, z).tobytes() == instant_einsum(gen, y, z).tobytes()
    assert gen.instant(y[None], z[None]).tobytes() == instant_einsum(gen, y[None], z[None]).tobytes()
    assert gen.instant(y[7], z[7]).tobytes() == instant_einsum(gen, y[7], z[7]).tobytes()


@pytest.mark.parametrize("m,d", [(2, 2), (3, 2), (4, 3)])
def test_linear_drift_is_the_einsum_oracle_within_its_rounding_bound(m, d):
    # with L = m + m d products einsum may add in another order; each of the two
    # sums moves by at most (L - 1) u S and their sum by u S more, S the node's
    # sum of |products| and u S below one ulp of S: the bound is 2 L ulps of S.
    # On these draws (4, 3) moves by at most 5.3e-15 absolute, 3 ulps of S
    rng = np.random.default_rng(m * 10 + d)
    gen = linear(rng.normal(size=(m, m)), rng.normal(size=(m, m, d)))
    y, z = rng.normal(size=(4096, m)), rng.normal(size=(4096, m, d))
    got, want = gen.instant(y, z), instant_einsum(gen, y, z)
    scale = instant_einsum(linear(np.abs(gen.a_y), np.abs(gen.b_z)), np.abs(y), np.abs(z))
    assert np.all(np.abs(got - want) <= 2 * (m + m * d) * np.spacing(scale))
    assert not np.array_equal(got, want)  # the orders do differ somewhere


@pytest.mark.parametrize("b", [[[0.5]], [[-0.0]], [[0.25, -0.5]], [[0.25], [-0.0]]])
def test_linear_terminal_is_the_einsum_oracle_bitwise(b):
    # (m, d) = (1, 1), (1, 2) and (2, 1): at most two products a node
    b = np.asarray(b, dtype=float)
    tree, a = build_tree(3, 1.0, b.shape[1]), [-0.0] * len(b)
    assert terminal_linear(tree, a, b).tobytes() == terminal_linear_einsum(tree, a, b).tobytes()


def test_linear_terminal_with_an_empty_b_is_a_plus_zero_rows():
    # einsum broadcast W(T)'s length-1 axis against b's empty one: +0.0 rows
    tree = build_tree(3, 1.0)
    xi = terminal_linear(tree, -0.0, [])
    assert xi.shape == (8, 1) and np.all(xi == 0.0) and not np.signbit(xi).any()


def _g_poly(*coeffs):  # the CLI's g_poly weight, summed from 0 as it sums
    return lambda t: 0.0 if t < 0 else sum(c * t ** k for k, c in enumerate(coeffs))


# which tables are column-constant at n = 8: level i reads the frozen rows
# 0..i-1, each with one coefficient at every level, then at most the current z
G_POLY = _g_poly(0.5, -0.1)
PREFIX_CASES = {
    "uniform_constant_g": (moving_average_z(g=_g_poly(0.5), g_bound=0.5,
                                            alpha=UniformPast()), True),
    "uniform_g_poly": (moving_average_z(g=G_POLY, g_bound=0.5, alpha=UniformPast()), True),
    "running_integral": (running_integral_z(kappa=0.6), True),
    # a lag reads one row per level, not the rows 0..i-1
    "delayed_z": (delayed_z(0.7, 0.3), False),
    "delayed_z_lag_beyond_horizon": (delayed_z(0.7, 1.5), False),
    "mixture": (moving_average_z(g=_g_poly(0.5), g_bound=0.5, alpha=DiscreteMixture(
        ((-0.5, 0.3), (-0.25, 0.2), (0.0, 0.5)))), False),
    "zero": (zero(), False),
    "linear": (linear_scalar(0.7, -0.4), False),  # a nonzero instant part
    "custom": (LEVEL_DRIFT_CASES["custom"][0], False),
}


@pytest.mark.parametrize("name", sorted(PREFIX_CASES))
def test_prefix_coefficients_pick_the_column_constant_tables(name):
    gen, fast = PREFIX_CASES[name]
    tree = build_tree(8, 1.0)
    rows = past_z_rows(gen, tree)
    coeffs = prefix_coefficients(gen, rows)
    assert (coeffs is not None) == fast
    if fast:  # row k's coefficient, as level n - 1 lists it
        assert coeffs == tuple(c for _, c in rows[-1][:7])
    # one level (n = 1) has no frozen row: any zero-instant table is column-constant
    assert (prefix_coefficients(gen, past_z_rows(gen, build_tree(1, 1.0))) is not None) \
        == (name not in ("linear", "custom"))


@pytest.mark.parametrize("name", ["uniform_constant_g", "uniform_g_poly", "running_integral"])
def test_frozen_prefix_drift_is_the_per_term_drift_bitwise(name):
    gen = PREFIX_CASES[name][0]
    tree, blocks = build_tree(8, 1.0), 3
    rng = np.random.default_rng(5)
    frozen_y = [rng.normal(size=(blocks * tree.level_size(i), 1)) for i in range(9)]
    frozen_z = [rng.normal(size=(blocks * tree.level_size(i), 1, 1)) for i in range(8)]
    rows = past_z_rows(gen, tree)
    prefix = frozen_prefix(prefix_coefficients(gen, rows), frozen_z, tree.branching)
    for i in range(8):
        y = rng.normal(size=(blocks * tree.level_size(i), 1))
        z = rng.normal(size=(blocks * tree.level_size(i), 1, 1))
        want = level_drift(gen, tree, i, y, z, frozen_y, frozen_z, rows)
        got = level_drift(gen, tree, i, y, z, frozen_y, frozen_z, rows, prefix)
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_offset_inside_the_last_step_reads_the_frozen_ancestor_row():
    # theta = -0.1 lies in (-dt, 0) off the grid: the left-constant past reads
    # the frozen row floor((t_i + theta) / dt) = i - 1, not the current z;
    # before time 0 (level 0) the term is dropped
    tree = build_tree(4, 1.0, 1)
    y, z = random_paths(tree, 8)
    gen = moving_average_z(g=lambda t: 2.0, g_bound=2.0, alpha=Dirac(-0.1))
    rows = past_z_rows(gen, tree)
    assert rows == ((), ((0, 2.0),), ((1, 2.0),), ((2, 2.0),))
    got = level_drift(gen, tree, 2, y.values[2], z.values[2] + 1.0, y.values, z.values, rows)
    assert np.array_equal(got, 2.0 * z.values[1][np.arange(4) >> 1, :, 0])


def test_moving_average_reads_g_where_the_grid_row_is_read():
    # at horizon 0.3 and n = 3, t_1 - 0.1 = -1.4e-17: grid_row snaps it to
    # row 0, so g must be read there at g(0), as the lag of delayed_z is
    tree = build_tree(3, 0.3, 1)
    gen = moving_average_z(g=lambda t: 1.0 if t >= 0 else 0.0, g_bound=1.0, alpha=Dirac(-0.1))
    assert past_z_rows(gen, tree) == past_z_rows(delayed_z(kappa=1.0, lag=0.1), tree)


@pytest.mark.parametrize("n", range(2, 21))
def test_a_polynomial_g_weights_each_frozen_row_alike_at_every_level(n):
    # read at the float t_i + theta, g gave one frozen row weights differing in
    # their last bits between levels (at n = 10, 12, 14 and 20, among others),
    # so the table missed the prefix-summed path
    gen, dt = PREFIX_CASES["uniform_g_poly"][0], 1.0 / n
    coeffs = prefix_coefficients(gen, past_z_rows(gen, build_tree(n, 1.0)))
    assert coeffs == tuple(dt * G_POLY(k * dt) for k in range(n - 1))


def test_moving_average_reads_g_off_the_grid_where_the_offset_lies():
    # 0.7 - 0.3 lies within the grid slack of row 4 and reads g(4 dt), not
    # g(0.39999999999999997); 0.7 - 0.25 lies off the grid and reads g there
    gen = moving_average_z(g=lambda t: t, g_bound=1.0,
                         alpha=DiscreteMixture(((-0.3, 0.5), (-0.25, 0.5))))
    assert gen.past_z_terms(0.7, 1.0, 0.1) == ((-0.3, 0.5 * (4 * 0.1)),
                                               (-0.25, 0.5 * (0.7 - 0.25)))


def test_past_z_rows_keep_the_one_dimensional_noise_check():
    tree = build_tree(2, 1.0, 2)
    for gen in (delayed_z(kappa=1.0, lag=0.5), running_integral_z(kappa=1.0)):
        with pytest.raises(GeneratorError, match=r"^a drift with past-Z terms requires a "
                           r"one-dimensional driving noise \(z has d = 2\)$"):
            past_z_rows(gen, tree)
    assert past_z_rows(linear(np.eye(2), np.zeros((2, 2, 2))), tree) == ((), ())


def test_custom_drift_of_wrong_shape_is_a_generator_error():
    tree = build_tree(2, 1.0, 1)
    y, z = random_paths(tree, 3)
    gen = CustomGenerator(fn=lambda t, y, z, py, pz: np.zeros(2),
                          declared_instant=0.0, declared_delay=0.0)
    with pytest.raises(GeneratorError, match=r"t=0\.5, level 1; expected \(size, m\) = \(2, 1\)"):
        level_drift_at(gen, tree, 1, y.values[1], z.values[1], y, z)


def test_a_complex_custom_drift_is_a_generator_error():
    # a cast to float dropped the imaginary part with a ComplexWarning, and the
    # solve converged (to Y_0 = 0.11038 here): the drift must be real
    tree = build_tree(4, 1.0, 1)
    xi = 0.1 + tree.path_sums().values[4]
    gen = CustomGenerator(fn=lambda t, y, z, py, pz: 0.1 * y + 0.01j * y,
                          declared_instant=0.2, declared_delay=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning, and no solve
        with pytest.raises(GeneratorError, match=r"t=0\.0, level 0: .*complex \(complex128\)"):
            picard_solve(tree, xi, gen)
        y, z = random_paths(tree, 3)
        with pytest.raises(GeneratorError, match=r"t=0\.5, level 2: .*complex"):
            level_drift_at(gen, tree, 2, y.values[2], z.values[2], y, z)
        # a real drift in a complex array of zero imaginary part is refused too;
        # an integer or float32 drift is read as float, as before
        for dtype, ok in ((complex, False), (int, True), (np.float32, True)):
            gen = custom(lambda t, y, z, py, pz: np.ones(y.shape, dtype=dtype))
            if ok:
                out = level_drift_at(gen, tree, 2, y.values[2], z.values[2], y, z)
                assert out.dtype == float and np.array_equal(out, np.ones((4, 1)))
            else:
                with pytest.raises(GeneratorError, match="complex"):
                    level_drift_at(gen, tree, 2, y.values[2], z.values[2], y, z)


def _scale_y(t, y, z, py, pz):
    y *= 0.5
    return 0.1 * y


def _scale_z(t, y, z, py, pz):
    z *= 2
    return 0.1 * y


@pytest.mark.parametrize("fn", [_scale_y, _scale_z], ids=["y", "z"])
def test_a_custom_drift_that_writes_its_arguments_is_a_generator_error(fn):
    # y was the sweep's E_i, added into the target after the call, and z the
    # level's Z: each write converged to a wrong solve (Y_0 = 1e-13 and, in a
    # batch, Z_0 = 2.165 against Y_0 = 0.1104 and Z_0 = 1.082), so y, z and the
    # offset-0 reads are read-only views and the write raises, naming the level.
    # The admission probes are read-only too: a write there changed the probe and
    # warned that the constants look too small; now it raises at the first level
    tree = build_tree(5, 1.0, 1)
    xi = 0.1 + tree.path_sums().values[5]
    gen = CustomGenerator(fn=fn, declared_instant=0.1, declared_delay=0.0)
    config = SolverConfig(epsilon_schedule=(0.5, 0.25))
    for solve in (lambda: picard_solve(tree, xi, gen),
                  lambda: solve_bsvi(tree, xi, gen, Zero(), config),
                  lambda: lipschitz_probe_audit(gen, 1, 1, 1.0, 5)):
        with pytest.raises(GeneratorError, match=r"t=0\.0, level 0: .*read-only"):
            solve()
    y, z = random_paths(tree, 3)
    before = [a.copy() for a in (y.values[2], z.values[2])]
    with pytest.raises(GeneratorError, match=r"t=0\.4, level 2: .*read-only"):
        level_drift_at(gen, tree, 2, y.values[2], z.values[2], y, z)
    assert all(map(np.array_equal, before, (y.values[2], z.values[2])))
    # the data bound's zero levels are every level's reads
    with pytest.raises(GeneratorError, match=r"t=0\.0, level 0: .*read-only"):
        origin_drift_mass(gen, tree, 1)


# each constructor's record: its A and B, K at horizon T as the drift states it, and alpha
CONSTRUCTED = {
    "zero": (zero, None, None, lambda T: 0.0, Dirac()),
    "linear": (lambda: linear([[0.5]], [[0.25]]), [[0.5]], [[[0.25]]], lambda T: 0.0, Dirac()),
    "linear_scalar": (lambda: linear_scalar(-0.5, 0.25), [[-0.5]], [[[0.25]]], lambda T: 0.0,
                      Dirac()),
    "delayed_z": (lambda: delayed_z(-0.3, 0.25), None, None, lambda T: (-0.3) ** 2,
                  Dirac(-0.25)),
    "running_integral_z": (lambda: running_integral_z(0.3), None, None,
                           lambda T: (0.3 * T) ** 2, UniformPast()),
    "moving_average_z": (lambda: moving_average_z(math.cos, 0.7, UniformPast()), None, None,
                         lambda T: 0.7 ** 2, UniformPast()),
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTED))
def test_each_constructor_returns_a_frozen_affine_drift(name):
    make, a_y, b_z, k_at, alpha = CONSTRUCTED[name]
    gen = make()
    assert type(gen) is AffineDrift and gen.alpha == alpha
    for got, want in ((gen.a_y, a_y), (gen.b_z, b_z)):
        assert got is None if want is None else (
            got.dtype == float and np.array_equal(got, want) and got.shape == np.shape(want))
    # K as kappa^2, (kappa T)^2 and g_bound^2, bit for bit
    for horizon in (1.0, 0.3, 7.0, 1e-3):
        assert gen.lipschitz_delay(horizon).hex() == float(k_at(horizon)).hex()
    with pytest.raises(AttributeError):
        gen.k_root = 1.0
    assert gen != make()  # by identity: arrays and functions compare by no value


def test_a_solve_takes_an_affine_drift_or_a_custom_generator():
    # GeneratorSpec names the two, and is no base class to subclass
    assert isinstance(zero(), GeneratorSpec) and isinstance(custom(np.negative), GeneratorSpec)
    assert not isinstance(Dirac(), GeneratorSpec)
    with pytest.raises(TypeError):
        type("Subclass", (GeneratorSpec,), {})


@pytest.mark.parametrize("gen, name", [(running_integral_z(1e100), r"kappa \* T"),
                                       (AffineDrift(k_root=1e200), "k_root")],
                         ids=["running_integral_z", "k_root"])
def test_a_delay_constant_whose_square_overflows_is_refused(gen, name):
    # K = (k_root * T ** k_power)^2: each factor squares to a float, the root does not
    with pytest.raises(ValueError, match=f"^{name} must be finite, and so must its square"):
        gen.lipschitz_delay(1e100)


README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.filterwarnings("ignore:well-posedness gate failed")
def test_readme_built_in_drift_example_solves():
    # the python block under README's "Adding a built-in drift", run as written:
    # the constructor it defines solves like its callback twin
    section = README.read_text(encoding="utf-8").split("## Adding a built-in drift", 1)[1]
    namespace = {}
    exec(section.split("```python", 1)[1].split("```", 1)[0], namespace)
    gen = namespace["half_y_plus_lagged_z"](kappa=0.5, lag=0.25)
    assert type(gen) is AffineDrift
    assert (gen.lipschitz_instant(), gen.lipschitz_delay(1.0), gen.alpha) == (0.5, 0.25,
                                                                              Dirac(-0.25))
    twin = CustomGenerator(fn=lambda t, y, z, py, pz: 0.5 * y + 0.5 * pz(-0.25)[..., 0],
                           declared_instant=0.5, declared_delay=0.25, alpha=Dirac(-0.25))
    tree = build_tree(4, 1.0, 1)
    xi = 0.1 + tree.path_sums().values[4]
    got, want = picard_solve(tree, xi, gen), picard_solve(tree, xi, twin)
    assert got.diagnostics.converged and got.diagnostics.iterations_used > 2
    for proc, want_proc in ((got.Y, want.Y), (got.Z, want.Z)):
        assert all(np.allclose(a, b, rtol=0, atol=1e-14)
                   for a, b in zip(proc.values, want_proc.values))


def _cumulative_y(t, y, z, py, pz):  # row j reads the rows 0..j above it
    return np.cumsum(y, axis=0) * 0.01


def _centred_y(t, y, z, py, pz):  # every row reads the batch mean: a reversal keeps it
    return 0.1 * (y - y.mean(axis=0))


@pytest.mark.parametrize("fn", [_cumulative_y, _centred_y], ids=["cumsum", "mean"])
def test_a_custom_drift_whose_rows_depend_on_each_other_is_a_generator_error(fn):
    # with phi = 0 every epsilon of a batch solves one equation, yet the cumsum
    # drift converged to one Y_0 per epsilon (0.1154, 0.1220, 0.1288, ... 0.1874):
    # the rows stacked beside a row changed its drift.  The admission probe
    # evaluates each level's batch whole, reversed and in two halves
    tree = build_tree(5, 1.0, 1)
    xi = 0.1 + tree.path_sums().values[5]
    gen = CustomGenerator(fn=fn, declared_instant=0.2, declared_delay=0.0)
    for solve in (lambda: picard_solve(tree, xi, gen),
                  lambda: solve_bsvi(tree, xi, gen, Zero())):
        with pytest.raises(GeneratorError,
                           match=r"rows depend on each other at t=0\.0, level 0"):
            solve()


@pytest.mark.parametrize("m", [1, 3, 8])
def test_a_matmul_drift_passes_the_row_check(m):
    # a callback's own matmul may round by the rows beside it: the check allows
    # ROW_TOLERANCE, relative and absolute, not only the same bits
    a = np.random.default_rng(m).normal(size=(m, m))
    gen = CustomGenerator(fn=lambda t, y, z, py, pz: y @ a.T + py(-0.5) @ a,
                          declared_instant=float(np.linalg.norm(a, 2)), declared_delay=100.0,
                          alpha=Dirac(-0.5))
    audit = lipschitz_probe_audit(gen, m=m, d=1, horizon=1.0, n_steps=4, n_probes=1000)
    assert audit["instant_slack"] <= 1e-10


def test_new_z_delay_drift_needs_only_an_affine_drift():
    # F = y / 2 + 2 z(t - dt): an instant part plus one past-Z term
    gen = AffineDrift(np.array([[0.5]]), np.zeros((1, 1, 1)),
                      lambda t, horizon, dt: ((-dt, 2.0),), k_root=2.0)
    assert (gen.lipschitz_instant(), gen.lipschitz_delay(0.75)) == (0.5, 4.0)
    tree = build_tree(3, 0.75, 1)
    y, z = random_paths(tree, 5)
    got = level_drift_at(gen, tree, 2, y.values[2], z.values[2], y, z)
    expected = 0.5 * y.values[2] + 2.0 * z.values[1][np.arange(4) >> 1, :, 0]
    assert np.array_equal(got, expected)


def test_custom_drift_reading_the_future_is_rejected():
    # a future offset used to read the current pair (the probe audit: a later
    # path row), so z(t + 0.5) solved like z(t); it breaks adaptedness
    tree = build_tree(3, 0.75, 1)
    y, z = random_paths(tree, 6)
    for fn in (lambda t, y, z, py, pz: -y + 0.3 * pz(0.5)[..., 0],
               lambda t, y, z, py, pz: -py(0.5)):
        gen = CustomGenerator(fn=fn, declared_instant=1.0, declared_delay=0.09)
        with pytest.raises(GeneratorError,
                           match=r"theta=0\.5 reads the future at t=0\.25, level 1"):
            level_drift_at(gen, tree, 1, y.values[1], z.values[1], y, z)
        with pytest.raises(GeneratorError, match="reads the future"):
            lipschitz_probe_audit(gen, m=1, d=1, horizon=0.75, n_steps=3)
    # an offset within the grid-snapping slack still reads the current pair
    gen = CustomGenerator(fn=lambda t, y, z, py, pz: pz(1e-12)[..., 0] + py(1e-12),
                          declared_instant=2.0, declared_delay=0.0)
    got = level_drift_at(gen, tree, 1, y.values[1], z.values[1], y, z)
    assert np.array_equal(got, z.values[1][..., 0] + y.values[1])


@pytest.mark.filterwarnings("ignore:well-posedness gate failed")
def test_built_in_drift_reading_the_future_is_rejected():
    # past_z_rows read a future offset as theta = 0: lag -0.5 solved bitwise like lag 0
    def half_y_plus_lagged_z(kappa, lag):  # README's example: F = y / 2 + kappa z(t - lag)
        return AffineDrift(np.array([[0.5]]), np.zeros((1, 1, 1)),
                           lambda t, horizon, dt: ((-lag, kappa),), k_root=kappa)

    tree, future = build_tree(3, 0.75, 1), half_y_plus_lagged_z(kappa=0.5, lag=-0.5)
    with pytest.raises(GeneratorError, match=r"theta=0\.5 reads the future at t=0\.0, level 0"):
        past_z_rows(future, tree)
    with pytest.raises(GeneratorError, match="reads the future"):
        picard_solve(tree, tree.path_sums().values[-1], half_y_plus_lagged_z(kappa=0.5, lag=-0.5))
    # an offset within the grid-snapping slack still reads the current z
    assert past_z_rows(half_y_plus_lagged_z(kappa=0.5, lag=-1e-12), tree) \
        == past_z_rows(half_y_plus_lagged_z(kappa=0.5, lag=0.0), tree) == (((None, 0.5),),) * 3


@pytest.mark.parametrize("gen", [
    delayed_z(kappa=1.2, lag=0.5),
    running_integral_z(kappa=0.9),
    moving_average_z(g=lambda t: 1.0 + t, g_bound=2.0, alpha=Dirac(-0.5)),
    moving_average_z(g=math.cos, g_bound=1.0, alpha=DiscreteMixture(
        ((-1.0, 0.25), (-0.5, 0.5), (0.0, 0.25)))),
    moving_average_z(g=lambda t: 0.5 - t, g_bound=0.5, alpha=UniformPast()),
], ids=["delayed_z", "running_integral", "dirac", "mixture", "uniform"])
def test_builtin_delay_constants_cover_their_terms(gen):
    # Cauchy-Schwarz: |sum c_k dz(t + theta_k)|^2 <= (sum c_k^2 / w_k) *
    # sum w_k |dz(t + theta_k)|^2 over the atoms w_k of alpha, so the declared
    # K must cover max_t sum c_k^2 / w_k, each term matched to its atom
    horizon = 1.0
    for n_steps in (1, 4, 7):
        dt = horizon / n_steps
        atoms = gen.alpha.discretize(horizon, dt)
        worst = 0.0
        for i in range(n_steps + 1):
            total = 0.0
            for theta, c in gen.past_z_terms(i * dt, horizon, dt):
                weights = [w for a, w in atoms if abs(a - theta) <= 1e-12]
                assert len(weights) == 1, (n_steps, i, theta)
                total += c ** 2 / weights[0]
            worst = max(worst, total)
        assert worst <= gen.lipschitz_delay(horizon) * (1 + 1e-12), (n_steps, worst)
