import math

import numpy as np
import pytest

from bsvi.generators import (
    CustomGenerator,
    DelayedZ,
    Dirac,
    DiscreteMixture,
    GeneratorError,
    LinearInstant,
    MovingAverageZ,
    RunningIntegralZ,
    UniformPast,
    ZeroGen,
    delayed_quadrature,
    eval_generator,
    generator_bound_diagnostic,
    level_drift,
    linear_scalar,
    lipschitz_probe_audit,
)
from bsvi.lattice import AdaptedProcess, build_tree, segment_accessors


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
    DiscreteMixture(((-0.5, 0.5), (0.0, 0.5)))


def test_quadrature_dirac_at_zero_is_current_value():
    acc = const_accessor([4.2])
    out = delayed_quadrature(acc, 0.6, Dirac(0.0))
    assert out == pytest.approx([4.2])


def test_quadrature_dirac_before_zero_hits_extension():
    # z-style accessor built from a real tree process: t < lag reads zeros
    tree = build_tree(2, 1.0, 1)
    z = AdaptedProcess(tree, [np.ones((1, 1, 1)), np.ones((2, 1, 1))])
    y = tree.path_sums()
    _, past_z = segment_accessors(y, z, 0, 0)
    out = delayed_quadrature(lambda th: past_z(th), 0.0, Dirac(-0.3))
    assert np.array_equal(out, np.zeros((1, 1)))


def test_quadrature_mixture_of_constant_is_constant():
    alpha = DiscreteMixture(((-1.0, 0.5), (0.0, 0.5)))
    out = delayed_quadrature(const_accessor([2.5]), 1.0, alpha, horizon=1.0)
    assert out == pytest.approx([2.5])


def test_quadrature_uniform_trapezoid_on_linear_path():
    # accessor theta -> t + theta on the grid; the trapezoid over [t-T, t]
    # of a linear function is exact: mean value = t - T/2
    horizon, dt, t = 1.0, 0.25, 1.0
    acc = lambda theta: np.array([t + theta])
    out = delayed_quadrature(acc, t, UniformPast(), horizon=horizon, dt=dt)
    assert out == pytest.approx([t - horizon / 2])


def test_quadrature_uniform_needs_grid():
    with pytest.raises(ValueError, match="horizon"):
        delayed_quadrature(const_accessor([1.0]), 0.5, UniformPast())


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
        q1 = delayed_quadrature(stepper(vals1), 1.0, alpha, horizon=1.0, dt=dt)
        q2 = delayed_quadrature(stepper(vals2), 1.0, alpha, horizon=1.0, dt=dt)
        q12 = delayed_quadrature(stepper(2.0 * vals1 - 3.0 * vals2), 1.0, alpha,
                                 horizon=1.0, dt=dt)
        assert np.allclose(q12, 2.0 * q1 - 3.0 * q2, atol=1e-12)


def test_eval_generator_zero_and_linear():
    y = np.array([1.5])
    z = np.array([[1.0]])
    assert eval_generator(ZeroGen(), 0.1, y, z, None, None) == pytest.approx([0.0])
    ident = linear_scalar(0.0, 1.0)
    out = eval_generator(ident, 0.1, y, z, None, None)
    assert out == pytest.approx([1.0])


def test_eval_generator_delayed_z_before_lag_is_zero():
    tree = build_tree(2, 1.0, 1)
    z = AdaptedProcess(tree, [np.full((1, 1, 1), 9.0), np.full((2, 1, 1), 9.0)])
    y = tree.path_sums()
    past_y, past_z = segment_accessors(y, z, 0, 0)
    gen = DelayedZ(kappa=2.0, lag=0.5)
    out = eval_generator(gen, 0.0, np.zeros(1), np.zeros((1, 1)),
                         past_y, past_z, horizon=1.0, dt=0.5)
    assert out == pytest.approx([0.0])


def test_eval_generator_moving_average_dirac_zero_reduces_to_instant():
    gen = MovingAverageZ(g=lambda t: 2.0 + t, g_bound=3.0, alpha=Dirac(0.0))
    z_now = np.array([[0.7]])
    out = eval_generator(gen, 0.5, np.zeros(1), z_now,
                         const_accessor([0.0]), lambda th: z_now,
                         horizon=1.0, dt=0.25)
    assert out == pytest.approx([(2.0 + 0.5) * 0.7])


def test_eval_generator_running_integral_matches_trapezoid():
    dt = 0.25
    zs = np.array([1.0, 2.0, 4.0, 8.0, 16.0])

    def past_z(theta):
        u = 1.0 + theta
        k = min(max(int(math.floor(u / dt + 1e-9)), 0), 4)
        return np.array([[zs[k] if u >= 0 else 0.0]])

    gen = RunningIntegralZ(kappa=3.0)
    out = eval_generator(gen, 1.0, np.zeros(1), np.zeros((1, 1)),
                         None, past_z, horizon=1.0, dt=dt)
    expected = 3.0 * dt * (0.5 * zs[0] + zs[1] + zs[2] + zs[3] + 0.5 * zs[4])
    assert out == pytest.approx([expected])
    # at t = 0 the running integral is empty
    out0 = eval_generator(gen, 0.0, np.zeros(1), np.zeros((1, 1)),
                          None, past_z, horizon=1.0, dt=dt)
    assert out0 == pytest.approx([0.0])


def test_eval_generator_requires_scalar_noise_for_z_delays():
    gen = DelayedZ(kappa=1.0, lag=0.0)
    with pytest.raises(GeneratorError, match="one-dimensional"):
        eval_generator(gen, 0.5, np.zeros(1), np.zeros((1, 2)),
                       None, lambda th: np.zeros((1, 2)), horizon=1.0, dt=0.5)


def test_custom_generator_failure_is_wrapped():
    def broken(t, y, z, past_y, past_z):
        raise KeyError("boom")

    gen = CustomGenerator(fn=broken, declared_instant=1.0, declared_delay=0.0)
    with pytest.raises(GeneratorError, match="t=0.5"):
        eval_generator(gen, 0.5, np.zeros(1), np.zeros((1, 1)), None, None)


def random_paths(tree, seed):
    rng = np.random.default_rng(seed)
    n = tree.grid.n_steps
    y = AdaptedProcess(tree, [rng.normal(size=(tree.level_size(i), 1))
                              for i in range(n + 1)])
    z = AdaptedProcess(tree, [rng.normal(size=(tree.level_size(i), 1, 1))
                              for i in range(n)])
    return y, z


def test_generator_bound_diagnostic_zero_generator():
    tree = build_tree(3, 0.75, 1)
    y, z = random_paths(tree, 1)
    assert generator_bound_diagnostic(ZeroGen(), y, z, tree) <= 0.0


def test_generator_bound_diagnostic_identity_in_z():
    # F = z with Z constant 1: actual T, bound at least 6T
    tree = build_tree(2, 1.0, 1)
    y = AdaptedProcess(tree, [np.zeros((tree.level_size(i), 1)) for i in range(3)])
    z = AdaptedProcess(tree, [np.ones((tree.level_size(i), 1, 1)) for i in range(2)])
    slack = generator_bound_diagnostic(linear_scalar(0.0, 1.0), y, z, tree)
    assert slack == pytest.approx(1.0 - 6.0)


@pytest.mark.parametrize("gen", [
    linear_scalar(0.7, -0.4),
    DelayedZ(kappa=0.8, lag=0.25),
    RunningIntegralZ(kappa=0.6),
    MovingAverageZ(g=lambda t: math.sin(t) + 1.2, g_bound=2.2,
                   alpha=DiscreteMixture(((-0.5, 0.5), (-0.25, 0.5)))),
])
def test_generator_bound_diagnostic_random_paths(gen):
    tree = build_tree(3, 0.75, 1)
    y, z = random_paths(tree, 42)
    assert generator_bound_diagnostic(gen, y, z, tree) <= 1e-10


@pytest.mark.parametrize("gen", [
    linear_scalar(0.5, 1.5),
    DelayedZ(kappa=1.2, lag=0.5),
    RunningIntegralZ(kappa=0.9),
    MovingAverageZ(g=lambda t: math.cos(3 * t), g_bound=1.0, alpha=UniformPast()),
    CustomGenerator(
        fn=lambda t, y, z, py, pz: -0.8 * y + 0.5 * pz(-0.25)[:, 0],
        declared_instant=0.8, declared_delay=0.25, alpha=Dirac(-0.25)),
])
def test_lipschitz_audit_of_declared_constants(gen):
    audit = lipschitz_probe_audit(gen, m=1, d=1, horizon=1.0, n_steps=4,
                                  n_probes=1000)
    assert audit["instant_slack"] <= 1e-10
    assert audit["delay_slack"] <= 1e-10


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
                _, past_z = segment_accessors(y, z, i, node)
                sq = delayed_quadrature(
                    lambda th: np.sum(past_z(th) ** 2), i * dt, alpha,
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
    running = level_drift(RunningIntegralZ(kappa=kappa), tree, i,
                          y.values[i], z.values[i], y, z)
    scaled_uniform = level_drift(
        MovingAverageZ(g=lambda t: kappa * horizon, g_bound=kappa * horizon,
                       alpha=UniformPast()),
        tree, i, y.values[i], z.values[i], y, z)
    assert np.allclose(running, 0.65625, rtol=0, atol=1e-15)
    assert np.allclose(scaled_uniform, 0.7, rtol=0, atol=1e-15)
    z0 = 1.0
    assert np.allclose(scaled_uniform - running, kappa * dt * z0 / 2, rtol=0, atol=1e-15)


LEVEL_DRIFT_CASES = {
    "zero": (ZeroGen(), 1, 1),
    "linear": (linear_scalar(0.7, -0.4), 1, 1),
    "linear_m2_d2": (LinearInstant(np.array([[0.3, -0.1], [0.2, 0.1]]),
                                   np.arange(8.0).reshape(2, 2, 2) / 10), 2, 2),
    "delayed_z_short_lag": (DelayedZ(kappa=0.8, lag=0.25), 1, 1),
    "delayed_z_beyond_horizon": (DelayedZ(kappa=0.8, lag=2.0), 1, 1),
    "dirac_on_grid": (MovingAverageZ(g=lambda t: 1.0 + t, g_bound=2.0,
                                     alpha=Dirac(-0.5)), 1, 1),
    "dirac_off_grid": (MovingAverageZ(g=lambda t: 1.0 + t, g_bound=2.0,
                                      alpha=Dirac(-0.3)), 1, 1),
    "dirac_at_zero": (MovingAverageZ(g=lambda t: 1.0 + t, g_bound=2.0,
                                     alpha=Dirac(0.0)), 1, 1),
    "mixture": (MovingAverageZ(g=math.cos, g_bound=1.0, alpha=DiscreteMixture(
        ((-0.5, 0.3), (-0.1, 0.2), (0.0, 0.5)))), 1, 1),
    "uniform": (MovingAverageZ(g=lambda t: 0.5 + t, g_bound=1.5,
                               alpha=UniformPast()), 1, 1),
    "running_integral": (RunningIntegralZ(kappa=0.6), 1, 1),
    "custom": (CustomGenerator(
        fn=lambda t, y, z, py, pz: -0.5 * y + 0.3 * pz(-0.25)[:, 0] + 0.1 * py(-0.5),
        declared_instant=0.5, declared_delay=0.2, alpha=Dirac(-0.25)), 1, 1),
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
    for i in range(4):
        y = rng.normal(size=(tree.level_size(i), m))
        z = rng.normal(size=(tree.level_size(i), m, d))
        got = level_drift(gen, tree, i, y, z, frozen_y, frozen_z)
        assert got.shape == y.shape
        for j in range(tree.level_size(i)):
            past_y, past_z = segment_accessors(frozen_y, frozen_z, i, j,
                                               current_y=y[j], current_z=z[j])
            ref = eval_generator(gen, i * grid.dt, y[j], z[j], past_y, past_z,
                                 horizon=grid.horizon, dt=grid.dt)
            np.testing.assert_allclose(got[j], ref, rtol=0, atol=1e-15)


def test_custom_drift_of_wrong_shape_is_a_generator_error():
    tree = build_tree(2, 1.0, 1)
    y, z = random_paths(tree, 3)
    gen = CustomGenerator(fn=lambda t, y, z, py, pz: np.zeros(2),
                          declared_instant=0.0, declared_delay=0.0)
    with pytest.raises(GeneratorError, match=r"t=0\.5, node 0 of level 1; expected \(1,\)"):
        level_drift(gen, tree, 1, y.values[1], z.values[1], y, z)
