import math
import warnings

import numpy as np
import pytest

import bsvi
from bsvi import convex, generators
from bsvi.problems import (
    box_linear_problem,
    terminal_clipped_linear,
    terminal_constant,
    terminal_linear,
)
from bsvi.solver import (
    NonFiniteIterate,
    PicardNonConvergence,
    SolverConfig,
    WellposednessError,
    backward_pass,
    check_wellposedness,
    picard_solve,
    prox_step_solve,
    solve_bsvi,
    solve_penalized,
)

# the pure z-delay fixtures have L = 0 with K > 0, which the gate flags
pytestmark = pytest.mark.filterwarnings("ignore:well-posedness gate failed")


# ---------------------------------------------------------------------------
# well-posedness gate
# ---------------------------------------------------------------------------

def test_gate_examples():
    rep = check_wellposedness(1.0, 0.5, 0.05, 25.0)
    assert rep.growth == pytest.approx(0.5 * math.exp(1.25))
    assert rep.uniqueness_ok and rep.existence_ok

    rep = check_wellposedness(1.0, 1.0, 0.05, 25.0)
    assert rep.growth == pytest.approx(math.exp(1.25))  # ~3.49: between 2 and 6
    assert not rep.uniqueness_ok and rep.existence_ok

    rep = check_wellposedness(1.0, 0.0, 3.0, 50.0)
    assert rep.uniqueness_ok and rep.existence_ok

    rep = check_wellposedness(0.0, 0.5, 0.05, 25.0)
    assert not rep.uniqueness_ok and not rep.existence_ok


def test_gate_uniqueness_implies_existence():
    rng = np.random.default_rng(0)
    for _ in range(200):
        rep = check_wellposedness(rng.uniform(0, 3), rng.uniform(0, 3),
                                  rng.uniform(0.01, 2), rng.uniform(0.1, 30))
        if rep.uniqueness_ok:
            assert rep.existence_ok


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def test_backward_pass_martingale_representation():
    tree = bsvi.build_tree(4, 1.0, 1)
    xi = terminal_linear(tree, 0.0, 1.0)
    y, z = backward_pass(tree, xi, generators.ZeroGen())
    w = tree.path_sums()
    for i in range(5):
        assert np.allclose(y.values[i], w.values[i], atol=1e-12)
    for i in range(4):
        assert np.allclose(z.values[i], 1.0, atol=1e-12)


def test_backward_pass_constant_terminal():
    tree = bsvi.build_tree(3, 0.75, 1)
    xi = terminal_constant(tree, 2.5)
    y, z = backward_pass(tree, xi, generators.ZeroGen())
    for arr in y.values:
        assert np.allclose(arr, 2.5)
    for arr in z.values:
        assert np.allclose(arr, 0.0)


def test_backward_pass_requires_frozen_for_delay():
    tree = bsvi.build_tree(2, 1.0, 1)
    xi = terminal_linear(tree, 0.0, 1.0)
    with pytest.raises(ValueError, match="frozen"):
        backward_pass(tree, xi, generators.DelayedZ(kappa=1.0, lag=0.5))


# ---------------------------------------------------------------------------
# picard iteration
# ---------------------------------------------------------------------------

def test_no_delay_converges_in_two_sweeps():
    tree = bsvi.build_tree(5, 1.0, 1)
    xi = terminal_linear(tree, 1.0, 2.0)
    sol = picard_solve(tree, xi, generators.linear_scalar(0.5, 0.25))
    assert sol.diagnostics.iterations_used <= 2
    assert sol.diagnostics.converged
    assert sol.diagnostics.iterate_distances[-1] == 0.0


def test_dirac_at_zero_delay_never_reads_frozen():
    # moving-average with a point mass at zero is instantaneous: the
    # confirmation sweep reproduces the first one exactly
    tree = bsvi.build_tree(3, 0.6, 1)
    xi = terminal_linear(tree, 0.0, 1.0)
    gen = generators.MovingAverageZ(g=lambda t: 1.0 + t, g_bound=2.0,
                                    alpha=generators.Dirac(0.0))
    sol = picard_solve(tree, xi, gen)
    assert sol.diagnostics.iterations_used == 2
    assert sol.diagnostics.iterate_distances[1] == 0.0


def test_delay_reduction_matches_zero_generator_bitwise():
    tree = bsvi.build_tree(4, 1.0, 1)
    xi = terminal_linear(tree, 0.3, 1.5)
    base = picard_solve(tree, xi, generators.ZeroGen())
    lagged = picard_solve(tree, xi, generators.DelayedZ(kappa=3.0, lag=1.0))
    for a, b in zip(base.Y.values, lagged.Y.values):
        assert np.array_equal(a, b)
    for a, b in zip(base.Z.values, lagged.Z.values):
        assert np.array_equal(a, b)


def test_terminal_values_kept_bit_exact():
    tree, xi, gen, phi = box_linear_problem(4)
    for sol in (picard_solve(tree, xi, generators.ZeroGen()),
                solve_penalized(tree, xi, gen, phi, 0.125),
                prox_step_solve(tree, xi, gen, phi)):
        assert np.array_equal(sol.Y.values[-1], xi)


def test_z_delay_cannot_diverge_on_the_tree():
    # strictly-past reads resolve to common ancestors, so a z-delay drift is
    # identical across siblings: the martingale projection never moves between
    # sweeps and Picard terminates exactly, however violent kappa is
    tree = bsvi.build_tree(4, 1.0, 1)
    xi = terminal_linear(tree, 0.0, 1.0)
    gen = generators.DelayedZ(kappa=60.0, lag=0.25)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sol = picard_solve(tree, xi, gen, SolverConfig(beta=1.0))
    assert sol.diagnostics.converged
    assert sol.diagnostics.iterations_used <= tree.grid.n_steps + 2


def test_divergent_y_delay_is_diagnosed():
    # y-delays do feed back into themselves through the Y(0) extension, so a
    # large coupling genuinely blows the fixed-point iteration up
    tree = bsvi.build_tree(4, 1.0, 1)
    xi = terminal_linear(tree, 0.0, 1.0)

    def drift(t, y, z, past_y, past_z):
        return 8.0 * past_y(-0.5)

    gen = generators.CustomGenerator(fn=drift, declared_instant=0.0,
                                     declared_delay=64.0,
                                     alpha=generators.Dirac(-0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(PicardNonConvergence) as err:
            picard_solve(tree, xi, gen, SolverConfig(beta=1.0))
    assert err.value.diverged
    assert max(err.value.diagnostics.contraction_ratios) > 1.0


@pytest.mark.parametrize("bad_time", [0.5, 0.0])
def test_nonfinite_iterate_fails_on_first_sweep(bad_time):
    # a NaN drift at one grid time; at t = 0 it reaches Y(0) alone, where no
    # Z level sees it, so the sup part of the distance must carry it
    tree = bsvi.build_tree(4, 1.0, 1)
    xi = terminal_linear(tree, 0.0, 1.0)

    def drift(t, y, z, past_y, past_z):
        return np.full_like(y, np.nan) if t == bad_time else -y

    gen = generators.CustomGenerator(fn=drift, declared_instant=1.0,
                                     declared_delay=0.0)
    with pytest.raises(NonFiniteIterate) as err:
        picard_solve(tree, xi, gen)
    level = int(bad_time / tree.grid.dt)
    assert err.value.diagnostics.iterations_used == 1
    assert (err.value.level, err.value.node) == (level, 0)
    assert f"level {level}, node 0" in str(err.value)
    assert isinstance(err.value, PicardNonConvergence)


def test_hard_gate_raises():
    tree = bsvi.build_tree(2, 1.0, 1)
    xi = terminal_linear(tree, 0.0, 1.0)
    gen = generators.DelayedZ(kappa=3.0, lag=0.5)
    with pytest.raises(WellposednessError):
        picard_solve(tree, xi, gen, SolverConfig(beta=1.0, hard_gate=True))


# ---------------------------------------------------------------------------
# fixed-point oracle: direct iteration of the discrete system, coded apart
# from the solver (see helpers_oracle.py)
# ---------------------------------------------------------------------------

from helpers_oracle import assert_solution_matches_oracle


def oracle_matches(tree, xi, gen, sol, drift_fn, penalty=None):
    assert_solution_matches_oracle(tree, xi, sol, drift_fn, penalty)


def test_oracle_delayed_z():
    tree = bsvi.build_tree(2, 0.5, 1)
    dt = tree.grid.dt
    xi = terminal_linear(tree, 0.1, 1.0)
    gen = generators.DelayedZ(kappa=0.4, lag=dt)
    sol = picard_solve(tree, xi, gen, SolverConfig(picard_tol=1e-14))

    def drift(i, expect, z_now, old_y, old_z, node):
        if i - 1 < 0:
            return 0.0
        return 0.4 * old_z[i - 1][node >> 1]

    oracle_matches(tree, xi, gen, sol, drift)


def test_oracle_moving_average_dirac():
    tree = bsvi.build_tree(2, 0.5, 1)
    dt = tree.grid.dt
    xi = terminal_linear(tree, 0.0, 2.0)
    g = lambda t: 0.5 + t
    gen = generators.MovingAverageZ(g=g, g_bound=1.0, alpha=generators.Dirac(-dt))
    sol = picard_solve(tree, xi, gen, SolverConfig(picard_tol=1e-14))

    def drift(i, expect, z_now, old_y, old_z, node):
        t = i * dt - dt
        if t < 0:
            return 0.0
        return g(t) * old_z[i - 1][node >> 1]

    oracle_matches(tree, xi, gen, sol, drift)


def test_oracle_moving_average_mixture_with_present_atom():
    tree = bsvi.build_tree(2, 0.5, 1)
    dt = tree.grid.dt
    xi = terminal_linear(tree, -0.2, 1.0)
    alpha = generators.DiscreteMixture(((-dt, 0.4), (0.0, 0.6)))
    gen = generators.MovingAverageZ(g=lambda t: 1.0, g_bound=1.0, alpha=alpha)
    sol = picard_solve(tree, xi, gen, SolverConfig(picard_tol=1e-14))

    def drift(i, expect, z_now, old_y, old_z, node):
        lagged = old_z[i - 1][node >> 1] if i >= 1 else 0.0
        return 0.4 * lagged + 0.6 * z_now

    oracle_matches(tree, xi, gen, sol, drift)


def test_oracle_running_integral_uniform():
    tree = bsvi.build_tree(2, 0.5, 1)
    dt = tree.grid.dt
    xi = terminal_linear(tree, 0.0, 1.0)
    gen = generators.RunningIntegralZ(kappa=0.7)
    sol = picard_solve(tree, xi, gen, SolverConfig(picard_tol=1e-14))

    def drift(i, expect, z_now, old_y, old_z, node):
        # trapezoid of the z path over [0, t_i]; the right endpoint is the
        # current predictor value
        if i == 0:
            return 0.0
        samples = [old_z[k][node >> (i - k)] for k in range(i)] + [z_now]
        acc = 0.5 * samples[0] + sum(samples[1:-1]) + 0.5 * samples[-1]
        return 0.7 * dt * acc

    oracle_matches(tree, xi, gen, sol, drift)


def test_oracle_delayed_z_with_quadratic_penalty():
    tree = bsvi.build_tree(2, 0.5, 1)
    dt = tree.grid.dt
    xi = terminal_linear(tree, 0.5, 1.0)
    gen = generators.DelayedZ(kappa=0.3, lag=dt)
    phi = convex.Quadratic(2.0)
    sol = solve_penalized(tree, xi, gen, phi, 0.2,
                          SolverConfig(picard_tol=1e-14))

    def drift(i, expect, z_now, old_y, old_z, node):
        return 0.3 * old_z[i - 1][node >> 1] if i >= 1 else 0.0

    oracle_matches(tree, xi, gen, sol, drift, penalty=(phi, 0.2))


# ---------------------------------------------------------------------------
# penalized and prox schemes
# ---------------------------------------------------------------------------

def test_penalized_quadratic_matches_scalar_recursion():
    # constant terminal: each implicit step multiplies by
    # (1 + eps c) / (1 + (dt + eps) c)
    tree = bsvi.build_tree(4, 1.0, 1)
    c, eps = 1.0, 0.5
    xi = terminal_constant(tree, 2.0)
    sol = solve_penalized(tree, xi, generators.ZeroGen(), convex.Quadratic(c), eps)
    dt = tree.grid.dt
    factor = (1 + eps * c) / (1 + (dt + eps) * c)
    assert sol.Y.values[0][0, 0] == pytest.approx(2.0 * factor ** 4, abs=1e-13)
    # the discrete equation holds with U at the corrected point
    for i in range(4):
        assert np.allclose(sol.Y.values[i] + dt * sol.U.values[i],
                           sol.Y.values[i + 1].reshape(-1, 2, 1).mean(axis=1),
                           atol=1e-14)


def test_penalized_zero_phi_is_unpenalized_bitwise():
    tree = bsvi.build_tree(4, 1.0, 1)
    xi = terminal_linear(tree, 0.2, 1.0)
    gen = generators.linear_scalar(0.3, -0.2)
    plain = picard_solve(tree, xi, gen)
    pen = solve_penalized(tree, xi, gen, convex.Zero(), 1e-3)
    for a, b in zip(plain.Y.values, pen.Y.values):
        assert np.array_equal(a, b)
    for arr in pen.U.values:
        assert np.array_equal(arr, np.zeros_like(arr))


def test_penalized_rejects_terminal_outside_domain():
    tree = bsvi.build_tree(3, 1.0, 1)
    xi = terminal_linear(tree, 0.0, 1.0)  # reaches +-sqrt(3)... outside the box
    with pytest.raises(ValueError, match="domain of phi"):
        solve_penalized(tree, xi, generators.ZeroGen(),
                        convex.IndicatorBox(-1, 1), 0.5)


def test_penalized_halfline_martingale_stays_untouched():
    # phi = indicator of (-inf, 0]; a nonpositive martingale never activates it
    tree = bsvi.build_tree(3, 1.0, 1)
    w_T = tree.path_sums().values[-1]
    xi = np.minimum(w_T, 0.0)
    phi = convex.IndicatorBox(-np.inf, 0.0)
    sol = solve_penalized(tree, xi, generators.ZeroGen(), phi, 0.25)
    base = picard_solve(tree, xi, generators.ZeroGen())
    for a, b in zip(sol.Y.values, base.Y.values):
        assert np.allclose(a, b, atol=1e-14)
    for arr in sol.U.values:
        assert np.array_equal(arr, np.zeros_like(arr))


def test_bsvi_zero_phi_table_is_exact():
    tree = bsvi.build_tree(3, 1.0, 1)
    xi = terminal_linear(tree, 0.0, 1.0)
    res = solve_bsvi(tree, xi, generators.ZeroGen(), convex.Zero(),
                     SolverConfig(epsilon_schedule=(1.0, 0.5, 0.25)))
    assert len(res.epsilon_table) == 2
    for row in res.epsilon_table:
        assert row.dy_s2 == 0.0
        assert row.dz_h2 == 0.0


def test_bsvi_singleton_schedule_empty_table():
    tree = bsvi.build_tree(3, 1.0, 1)
    xi = terminal_linear(tree, 0.0, 1.0)
    res = solve_bsvi(tree, xi, generators.ZeroGen(), convex.Zero(),
                     SolverConfig(epsilon_schedule=(0.5,)))
    assert res.epsilon_table == []
    assert res.solution.diagnostics.converged


def test_bsvi_box_distances_shrink_with_epsilon():
    tree, xi, gen, phi = box_linear_problem(4)
    res = solve_bsvi(tree, xi, gen, phi)
    dists = [r.dy_s2 + r.dz_h2 for r in res.epsilon_table]
    assert all(d > 0 for d in dists)
    assert dists[-1] < dists[0]


def test_prox_zero_phi_identity():
    tree = bsvi.build_tree(3, 1.0, 1)
    xi = terminal_linear(tree, 0.4, 1.0)
    gen = generators.linear_scalar(0.2, 0.1)
    plain = picard_solve(tree, xi, gen)
    prox_sol = prox_step_solve(tree, xi, gen, convex.Zero())
    for a, b in zip(plain.Y.values, prox_sol.Y.values):
        assert np.array_equal(a, b)


def test_prox_confines_to_domain():
    tree, xi, gen, phi = box_linear_problem(5)
    sol = prox_step_solve(tree, xi, gen, phi)
    for arr in sol.Y.values[:-1]:
        assert np.all(arr >= phi.lo - 0.0)
        assert np.all(arr <= phi.hi + 0.0)


def test_prox_subgradient_pairs_are_exact():
    tree, xi, gen, phi = box_linear_problem(4)
    sol = prox_step_solve(tree, xi, gen, phi)
    probes = [np.array([-1.0]), np.array([0.0]), np.array([1.0])]
    for i in range(4):
        for y_val, u_val in zip(sol.Y.values[i], sol.U.values[i]):
            check = convex.subgradient_check(phi, y_val, u_val, probes,
                                             tol=1e-10)
            assert check.passed


def test_multivalued_term_is_monotone_across_data():
    tree, xi, gen, phi = box_linear_problem(4)
    xi2 = terminal_clipped_linear(tree, -0.3, 0.8, -1.0, 1.0)
    eps = 0.125
    sol_a = solve_penalized(tree, xi, gen, phi, eps)
    sol_b = solve_penalized(tree, xi2, gen, phi, eps)
    dt = tree.grid.dt
    total = sum(
        dt * float(np.mean(np.sum(
            (a_y - b_y) * (a_u - b_u), axis=1)))
        for a_y, b_y, a_u, b_u in zip(sol_a.Y.values, sol_b.Y.values,
                                      sol_a.U.values, sol_b.U.values))
    assert total >= -1e-10


def test_penalized_approaches_prox_scheme():
    tree, xi, gen, phi = box_linear_problem(4)
    prox_sol = prox_step_solve(tree, xi, gen, phi)
    res = solve_bsvi(tree, xi, gen, phi)
    gaps = [abs(s.Y.values[0][0, 0] - prox_sol.Y.values[0][0, 0])
            for _, s in res.per_epsilon]
    assert gaps[-1] <= 5 * tree.grid.dt
    assert all(b <= a + 1e-15 for a, b in zip(gaps[-4:], gaps[-3:]))


def test_solver_config_validation():
    with pytest.raises(ValueError, match="decreasing"):
        SolverConfig(epsilon_schedule=(0.5, 0.5))
    with pytest.raises(ValueError, match="positive"):
        SolverConfig(epsilon_schedule=(1.0, -0.5))
    with pytest.raises(ValueError, match="scheme"):
        SolverConfig(scheme="magic")
    with pytest.raises(ValueError, match="beta"):
        SolverConfig(beta=-1.0)
