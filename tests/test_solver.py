import math
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
import yaml

import bsvi
from bsvi import convex, generators
from bsvi import solver as solver_mod
from bsvi.analysis import apriori_audit, epsilon_table, path_norm, yosida_audit
from bsvi.cli import config_from_dict
from bsvi.lattice import AdaptedProcess, level_moments, row_sq_norms
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
    check_wellposedness,
    picard_solve,
    prox_step_solve,
    resolve_beta,
    solve_bsvi,
)
from helpers_problems import (BoxedQuadratic, ElasticPenalty, delayed_box_problem,
                              quadratic_problem)

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


@pytest.mark.parametrize("L, horizon, beta", [(1.0, 1.0, 0.0), (1.5, 0.5, 2.0)])
@pytest.mark.parametrize("factor, which", [(6.0, "existence"), (2.0, "uniqueness")])
def test_gate_thresholds_sit_at_six_and_two_l_squared(L, horizon, beta, factor, which):
    # growth K e^(beta T) just below factor * L^2 passes, just above fails
    for delta, ok in ((-1e-6, True), (1e-6, False)):
        k_delay = factor * L ** 2 * (1.0 + delta) / math.exp(beta * horizon)
        rep = check_wellposedness(L, k_delay, horizon, beta)
        assert rep.growth == pytest.approx(factor * L ** 2 * (1.0 + delta), rel=1e-12)
        assert getattr(rep, f"{which}_ok") == ok
        assert (getattr(rep, f"{which}_margin") > 0) == ok


def test_gate_overflow_is_a_value_error_naming_the_quantity():
    with pytest.raises(ValueError, match=r"beta \* T = 1000"):
        check_wellposedness(1.0, 0.0, 1.0, 1000.0)
    with pytest.raises(ValueError, match=r"L = 1e\+300"):
        check_wellposedness(1e300, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError, match=r"L = 1e\+300"):
        resolve_beta(SolverConfig(), generators.linear_scalar(1e300, 0.0))
    check_wellposedness(1.0, 0.5, 1.0, 700.0)  # e^700 still fits


def test_gate_uniqueness_implies_existence():
    rng = np.random.default_rng(0)
    for _ in range(200):
        rep = check_wellposedness(rng.uniform(0, 3), rng.uniform(0, 3),
                                  rng.uniform(0.01, 2), rng.uniform(0.1, 30))
        if rep.uniqueness_ok:
            assert rep.existence_ok


# ---------------------------------------------------------------------------
# backward pass (of a classical solve)
# ---------------------------------------------------------------------------

def test_backward_pass_martingale_representation():
    tree = bsvi.lattice.build_tree(4, 1.0, 1)
    xi = terminal_linear(tree, 0.0, 1.0)
    sol = picard_solve(tree, xi, generators.zero())
    y, z = sol.Y, sol.Z
    w = tree.path_sums()
    for i in range(5):
        assert np.allclose(y.values[i], w.values[i], atol=1e-12)
    for i in range(4):
        assert np.allclose(z.values[i], 1.0, atol=1e-12)


def test_backward_pass_constant_terminal():
    tree = bsvi.lattice.build_tree(3, 0.75, 1)
    xi = terminal_constant(tree, 2.5)
    sol = picard_solve(tree, xi, generators.zero())
    y, z = sol.Y, sol.Z
    for arr in y.values:
        assert np.allclose(arr, 2.5)
    for arr in z.values:
        assert np.allclose(arr, 0.0)


def test_terminal_linear_reads_a_1d_b_as_the_one_row_or_column_it_must_be():
    # m = 1: b is the (1, d) row; d = 1: b is the (m, 1) column
    tree = bsvi.lattice.build_tree(2, 1.0, 2)
    w_t = tree.path_sums().values[-1]
    assert np.array_equal(terminal_linear(tree, 0.5, [1.0, -2.0]),
                          terminal_linear(tree, [0.5], [[1.0, -2.0]]))
    assert np.array_equal(terminal_linear(tree, 0.5, [1.0, -2.0])[:, 0],
                          0.5 + w_t @ np.array([1.0, -2.0]))
    tree = bsvi.lattice.build_tree(2, 1.0, 1)
    assert np.array_equal(terminal_linear(tree, [0.5, 0.0], [1.0, -2.0]),
                          terminal_linear(tree, [0.5, 0.0], [[1.0], [-2.0]]))


# ---------------------------------------------------------------------------
# picard iteration
# ---------------------------------------------------------------------------

def test_no_delay_converges_in_two_sweeps():
    tree = bsvi.lattice.build_tree(5, 1.0, 1)
    xi = terminal_linear(tree, 1.0, 2.0)
    sol = picard_solve(tree, xi, generators.linear_scalar(0.5, 0.25))
    assert sol.diagnostics.iterations_used <= 2
    assert sol.diagnostics.converged
    assert sol.diagnostics.iterate_distances[-1] == 0.0


def test_dirac_at_zero_delay_never_reads_frozen():
    # moving-average with a point mass at zero is instantaneous: the
    # confirmation sweep reproduces the first one exactly
    tree = bsvi.lattice.build_tree(3, 0.6, 1)
    xi = terminal_linear(tree, 0.0, 1.0)
    gen = generators.moving_average_z(g=lambda t: 1.0 + t, g_bound=2.0,
                                    alpha=generators.Dirac(0.0))
    sol = picard_solve(tree, xi, gen)
    assert sol.diagnostics.iterations_used == 2
    assert sol.diagnostics.iterate_distances[1] == 0.0


def test_delay_reduction_matches_zero_generator_bitwise():
    tree = bsvi.lattice.build_tree(4, 1.0, 1)
    xi = terminal_linear(tree, 0.3, 1.5)
    base = picard_solve(tree, xi, generators.zero())
    lagged = picard_solve(tree, xi, generators.delayed_z(kappa=3.0, lag=1.0))
    for a, b in zip(base.Y.values, lagged.Y.values):
        assert np.array_equal(a, b)
    for a, b in zip(base.Z.values, lagged.Z.values):
        assert np.array_equal(a, b)


def test_terminal_values_kept_bit_exact():
    tree, xi, gen, phi = box_linear_problem(4)
    for sol in (picard_solve(tree, xi, generators.zero()),
                picard_solve(tree, xi, gen, phi=phi, epsilon=0.125),
                prox_step_solve(tree, xi, gen, phi)):
        assert np.array_equal(sol.Y.values[-1], xi)


def test_z_delay_cannot_diverge_on_the_tree():
    # strictly-past reads resolve to common ancestors, so a z-delay drift is
    # identical across siblings: the martingale projection never moves between
    # sweeps and Picard terminates exactly, however violent kappa is
    tree = bsvi.lattice.build_tree(4, 1.0, 1)
    xi = terminal_linear(tree, 0.0, 1.0)
    gen = generators.delayed_z(kappa=60.0, lag=0.25)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sol = picard_solve(tree, xi, gen, SolverConfig(beta=1.0))
    assert sol.diagnostics.converged
    assert sol.diagnostics.iterations_used <= tree.grid.n_steps + 2


def test_divergent_y_delay_is_diagnosed():
    # y-delays do feed back into themselves through the Y(0) extension, so a
    # large coupling genuinely blows the fixed-point iteration up
    tree = bsvi.lattice.build_tree(4, 1.0, 1)
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


@pytest.mark.parametrize("gain", [1.1, 1.25, 1.4])
def test_ratios_settling_below_one_and_a_half_read_as_divergence(gain):
    # F = gain * Y(t - T) reads Y(0) through the extension at every level, so
    # from the third sweep on each difference is the last one scaled by
    # exactly T * gain: blow-up that a threshold of 1.5 would call a stall
    tree = bsvi.lattice.build_tree(4, 1.0, 1)
    xi = 0.5 + tree.path_sums().values[-1]
    gen = generators.CustomGenerator(fn=lambda t, y, z, past_y, past_z: gain * past_y(-1.0),
                                     declared_instant=0.0, declared_delay=4.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(PicardNonConvergence) as err:
            picard_solve(tree, xi, gen, SolverConfig(beta=1.0, picard_max_iters=20))
    diag = err.value.diagnostics
    assert err.value.diverged and not isinstance(err.value, NonFiniteIterate)
    assert len(diag.iterate_distances) <= solver_mod.DIVERGENCE_PATIENCE + 2
    settled = diag.contraction_ratios[1:]
    assert settled == pytest.approx([gain] * len(settled), rel=1e-12)


@pytest.mark.parametrize("bad_time", [0.5, 0.0])
def test_nonfinite_iterate_fails_on_first_sweep(bad_time):
    # a NaN drift at one grid time; at t = 0 it reaches Y(0) alone, where no
    # Z level sees it, so the sup part of the distance must carry it
    tree = bsvi.lattice.build_tree(4, 1.0, 1)
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


def test_probe_audit_keeps_a_nan_slack_and_the_gate_warns():
    tree = bsvi.lattice.build_tree(4, 1.0, 1)
    xi = terminal_linear(tree, 0.0, 1.0)

    def drift(t, y, z, past_y, past_z):
        return np.full_like(y, np.nan) if t == 0.5 else -y

    gen = generators.CustomGenerator(fn=drift, declared_instant=1.0,
                                     declared_delay=0.0)
    audit = generators.lipschitz_probe_audit(gen, 1, 1, 1.0, 4)
    assert math.isnan(audit["instant_slack"]) and math.isnan(audit["delay_slack"])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NonFiniteIterate):
            picard_solve(tree, xi, gen)
    assert any("declared Lipschitz constants look too small" in str(w.message)
               for w in caught)


def test_hard_gate_raises():
    tree = bsvi.lattice.build_tree(2, 1.0, 1)
    xi = terminal_linear(tree, 0.0, 1.0)
    gen = generators.delayed_z(kappa=3.0, lag=0.5)
    with pytest.raises(WellposednessError):
        picard_solve(tree, xi, gen, SolverConfig(beta=1.0, hard_gate=True))


def _gate_warnings(solve) -> int:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        solve()
    return sum("well-posedness gate failed" in str(w.message) for w in caught)


def test_solve_bsvi_checks_the_gate_once_per_schedule():
    # L = 0 with K > 0 fails the gate: the 11 epsilon solves warn once between
    # them, while picard_solve and prox_step_solve called on their own still warn
    tree = bsvi.lattice.build_tree(3, 1.0, 1)
    xi = terminal_clipped_linear(tree, 0.1, 1.0, -1.0, 1.0)
    gen = generators.delayed_z(kappa=0.5, lag=1 / 3)
    phi = convex.IndicatorBox(-1.0, 1.0)
    results = []
    assert _gate_warnings(lambda: results.append(solve_bsvi(tree, xi, gen, phi))) == 1
    res, = results
    assert [s.epsilon for _, s in res.per_epsilon] == list(SolverConfig().epsilon_schedule)
    assert _gate_warnings(lambda: picard_solve(tree, xi, gen)) == 1
    assert _gate_warnings(lambda: prox_step_solve(tree, xi, gen, phi)) == 1
    with pytest.raises(WellposednessError):
        solve_bsvi(tree, xi, gen, phi, SolverConfig(hard_gate=True))


GATE_AND_PROBE = ("well-posedness gate failed", "declared Lipschitz constants look too small")


@pytest.mark.parametrize("entry", ["picard_solve", "solve_bsvi", "prox_step_solve"])
def test_admission_warnings_name_the_caller_of_each_public_solve(entry):
    # L = 0 with K > 0 fails the gate, and the drift's slope 0.5 in y beats
    # the declared L = 0: both warnings name this file, not a library line
    tree = bsvi.lattice.build_tree(3, 1.0, 1)
    xi = terminal_clipped_linear(tree, 0.1, 1.0, -1.0, 1.0)
    gen = generators.CustomGenerator(
        fn=lambda t, y, z, past_y, past_z: 0.5 * y + 0.5 * past_z(-0.5)[..., 0],
        declared_instant=0.0, declared_delay=0.5)
    phi = convex.IndicatorBox(-1.0, 1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if entry == "picard_solve":
            picard_solve(tree, xi, gen, phi=phi, epsilon=0.25)
        elif entry == "solve_bsvi":
            solve_bsvi(tree, xi, gen, phi)
        else:
            prox_step_solve(tree, xi, gen, phi)
    assert {msg: w.filename for w in caught for msg in GATE_AND_PROBE
            if msg in str(w.message)} == dict.fromkeys(GATE_AND_PROBE, __file__)


def test_solve_bsvi_runs_the_probe_audit_once(monkeypatch):
    tree, xi, gen, phi = delayed_box_problem(3)
    audits = []
    real_audit = solver_mod.lipschitz_probe_audit

    def counted_audit(*args, **kwargs):
        audits.append(args)
        return real_audit(*args, **kwargs)

    monkeypatch.setattr(solver_mod, "lipschitz_probe_audit", counted_audit)
    res = solve_bsvi(tree, xi, gen, phi)
    assert len(res.per_epsilon) == 11 and len(audits) == 1
    picard_solve(tree, xi, gen)
    assert len(audits) == 2


def test_picard_solve_resolves_past_z_terms_once_per_level():
    # the frozen rows are resolved before the first sweep, not on every sweep,
    # and the record keeps them for a later solve on the same grid
    calls = []

    def counted_terms(t, horizon, dt):
        calls.append(t)
        return ((-dt, 2.0),)

    gen = generators.AffineDrift(np.array([[0.5]]), np.zeros((1, 1, 1)), counted_terms,
                                 k_root=2.0)
    tree = bsvi.lattice.build_tree(4, 1.0, 1)
    sol = picard_solve(tree, terminal_linear(tree, 0.0, 1.0), gen)
    assert sol.diagnostics.iterations_used > 2
    assert sorted(calls) == [i * tree.grid.dt for i in range(4)]
    assert generators.past_z_rows(gen, tree) is generators.past_z_rows(gen, tree)
    assert len(calls) == 4


def half_y_plus_lagged_z(kappa, lag):
    """F = y / 2 - z / 4 + kappa z(t - lag), a user's drift with both parts."""
    return generators.AffineDrift(np.array([[0.5]]), np.array([[[-0.25]]]),
                                  lambda t, horizon, dt: ((-lag, kappa),), k_root=kappa,
                                  alpha=generators.Dirac(-lag))


# reads the frozen Z 0.4 back, so that a sweep sees the iterate it measures against
LAGGED_Z = generators.CustomGenerator(
    fn=lambda t, y, z, past_y, past_z: 0.25 * y + 0.3 * past_z(-0.4)[..., 0],
    declared_instant=0.25, declared_delay=0.09)


def _sweep(tree, xi, frozen, zero_start=False, last=None):
    """One `_one_pass` prox sweep of LAGGED_Z under phi = 0: its Y, Z and U
    levels and its distance tables."""
    return solver_mod._one_pass(tree, xi, LAGGED_Z, *frozen, convex.Zero(), None,
                                generators.past_z_rows(LAGGED_Z, tree), None, last, zero_start)


@pytest.mark.parametrize("m, bm_dim", [(1, 1), (2, 2)])
def test_first_sweep_distance_is_the_distance_to_materialised_zeros(m, bm_dim):
    # the first sweep measures the iterate against the zero start by its own
    # norms: x - (+0.0) is x bitwise, -0.0 included
    tree, blocks = bsvi.lattice.build_tree(4, 1.0, bm_dim), 3
    b = tree.branching
    xi = np.random.default_rng(7).normal(size=(blocks * tree.level_size(4), m))  # every block's
    xi[5], xi[b:2 * b, 0] = -0.0, -0.0  # Y_3 = +0.0 at node 1 of block 0
    weights = solver_mod._distance_weights(tree, 3.0)
    zero_levels = solver_mod._zero_levels(tree, m, blocks)
    zeros = tuple([np.zeros(a.shape) for a in levels] for levels in zero_levels)

    def distance(frozen, zero_start):
        return solver_mod._weighted_distance(_sweep(tree, xi, frozen, zero_start)[-1], weights)

    want = distance(zeros, False)
    for old in (zeros, zero_levels):
        assert distance(old, False).tobytes() == want.tobytes()
    got = distance(zero_levels, True)
    assert got.tobytes() == want.tobytes()
    xi[0, 0] = np.nan  # a leaf of block 0: its Y levels turn NaN
    # block 2's last children sum to zero, so Y_3 stays finite, but Z_3^2 overflows
    xi[-b:, 0] = [1e200, -1e200] * (b // 2)
    with np.errstate(over="ignore"):
        got = distance(zero_levels, True)
    assert [math.isfinite(d) for d in got] == [False, True, False]


from helpers_oracle import weighted_distance_per_level


def _batch_levels(tree, blocks, m, rng):
    """Random (Y, Z) levels of a batch: block-stacked, but for the shared
    Y_n and Z_{n-1} (one block's rows)."""
    n, d = tree.grid.n_steps, tree.bm_dim
    ys = [rng.normal(size=(tree.level_size(i) * (blocks if i < n else 1), m))
          for i in range(n + 1)]
    zs = [rng.normal(size=(tree.level_size(i) * (blocks if i < n - 1 else 1), m, d))
          for i in range(n)]
    return ys, zs


@pytest.mark.parametrize("blocks", [1, 2, 11])
@pytest.mark.parametrize("n, m, bm_dim", [(10, 1, 1), (4, 2, 2)])
def test_weighted_distance_tables_give_the_per_level_folds_bits(blocks, n, m, bm_dim):
    # a sweep's (levels, blocks) tables, weighted and folded once, against the
    # weights and folds applied level by level: from the zero start and
    # against an old iterate that shares Y_n and Z_{n-1}, with -0.0 and NaN
    tree, beta = bsvi.lattice.build_tree(n, 1.0, bm_dim), 3.0
    weights = solver_mod._distance_weights(tree, beta)
    zero = solver_mod._zero_levels(tree, m, blocks)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        old_y, old_z = _batch_levels(tree, blocks, m, rng)
        xi = old_y[n]
        xi[1] = -0.0
        last = bsvi.lattice.level_moments(tree, xi)
        old_z[n - 1] = last[1]  # the shared levels, as the frozen iterate holds them
        old_y[1][0], old_z[2][-1] = -0.0, -0.0

        def check(leaves, frozen, zero_start, last):
            ys, zs, _, tables = _sweep(tree, leaves, frozen, zero_start, last)
            got = solver_mod._weighted_distance(tables, weights)
            old = (None, None) if zero_start else frozen
            want = weighted_distance_per_level(ys, zs, *old, tree, beta, blocks)
            assert got.tobytes() == want.tobytes(), seed
            return got

        for frozen, zero_start in ((zero, True), ((old_y, old_z), False)):
            assert np.isfinite(check(xi, frozen, zero_start, last)).all()
        # the last block's Y_2 and block 0's Z_0, which its drift reads; from
        # the zero start, every block's leaves with a NaN in the first and last
        old_y[2][-1, 0], old_z[0][0, 0, 0] = np.nan, np.nan
        leaves = np.tile(xi, (blocks, 1))
        leaves[0, 0], leaves[-1, 0] = np.nan, np.nan
        for args in ((leaves, zero, True, None), (xi, (old_y, old_z), False, last)):
            got = check(*args)
            assert np.isnan(got[[0, -1]]).all() and np.isfinite(got[1:-1]).all()


@pytest.mark.parametrize("blocks", [1, 2])
def test_weighted_distance_adds_the_h2_column_level_after_level(blocks):
    # beta = 0, Y = 0, Z_0 = sqrt(1/dt), the nine later levels' sqrt(0.9e-16/dt):
    # each later term is below half an ulp of the first, so level after level
    # the H^2 sum stays at the first term; a pairwise sum (np.add.reduce of
    # the contiguous one-block column) adds them up in pairs first and ends
    # 3 ulps above it
    tree = bsvi.lattice.build_tree(10, 1.0, 1)
    dt = tree.grid.dt
    ys = [np.zeros((blocks * tree.level_size(i), 1)) for i in range(11)]
    zs = [np.full((blocks * tree.level_size(i), 1, 1),
                  math.sqrt((1.0 if i == 0 else 0.9e-16) / dt)) for i in range(10)]
    weights = solver_mod._distance_weights(tree, 0.0)
    # the tables `_one_pass` fills from these levels at the zero start
    tables = (np.zeros((11, blocks)),
              np.array([row_sq_norms(z).reshape(blocks, -1).sum(axis=1) for z in zs]))
    got = solver_mod._weighted_distance(tables, weights)
    want = weighted_distance_per_level(ys, zs, None, None, tree, 0.0, blocks)
    assert got.tobytes() == want.tobytes()
    assert got.tolist() == [math.sqrt(dt * zs[0][0, 0, 0] ** 2)] * blocks


@pytest.mark.parametrize("keep", [[1, 2, 3], [0, 2, 3]], ids=["contiguous", "gap"])
def test_a_block_exit_copies_the_rows_of_the_fancy_index(keep):
    # blocks 1..3 of 5 run contiguously and are copied as one row slice, blocks
    # 0, 2, 3 by the fancy index: bitwise that copy either way, sharing no
    # memory with the batch; split, each block's levels are views of it;
    # the shared levels stay the same objects
    tree, blocks = bsvi.lattice.build_tree(4, 1.0, 1), 5
    ys, zs = _batch_levels(tree, blocks, 2, np.random.default_rng(3))
    sizes = tree.level_sizes
    for levels in (ys, zs):
        copied = solver_mod._blocks(levels, keep, blocks, sizes)
        want = [a.reshape(blocks, -1, *a.shape[1:])[keep].reshape(-1, *a.shape[1:])
                for a in levels[:-1]]
        assert copied[-1] is levels[-1]
        assert all(map(_same_bits, copied[:-1], want))
        assert not any(map(np.shares_memory, copied[:-1], levels[:-1]))
        split = solver_mod._blocks(levels, keep, blocks, sizes, split=True)
        viewed = [np.concatenate(rows) for rows in zip(*split)][:-1]
        assert all(own[-1] is levels[-1] for own in split) and len(split) == len(keep)
        assert all(map(_same_bits, viewed, copied[:-1]))
        assert all(v.base is a for own in split for v, a in zip(own[:-1], levels[:-1]))


# ---------------------------------------------------------------------------
# the batched schedule of solve_bsvi against one picard_solve per epsilon
# (see helpers_oracle.py)
# ---------------------------------------------------------------------------

from helpers_oracle import solve_one_per_epsilon


def _swap(problem, gen=None, phi=None):
    tree, xi, own_gen, own_phi = problem
    return (tree, xi, own_gen if gen is None else gen,
            own_phi if phi is None else phi)


SCHEDULE_CASES = {
    "moving_average_box": lambda: _swap(box_linear_problem(6), gen=generators.moving_average_z(
        g=lambda t: 0.5, g_bound=0.5, alpha=generators.UniformPast())),
    "delayed_z_box": lambda: _swap(box_linear_problem(6),
                                   gen=generators.delayed_z(kappa=0.5, lag=1 / 3)),
    # a user's AffineDrift with an instant part and a past term: level n - 1 of a
    # batch passes instant (1, size, m) rows
    "dataclass_drift": lambda: _swap(box_linear_problem(6),
                                     gen=half_y_plus_lagged_z(kappa=0.5, lag=1 / 3)),
    "custom_drift": lambda: delayed_box_problem(6),
    # the entries stop after 7 and after 8 sweeps, so the batch shrinks
    "one_norm": lambda: _swap(delayed_box_problem(10), phi=convex.OneNorm(0.25)),
    "quadratic": lambda: quadratic_problem(5),
    # a user's one-dimensional ConvexFunction subclass
    "custom1d": lambda: _swap(box_linear_problem(5), phi=ElasticPenalty()),
    "zero": lambda: _swap(box_linear_problem(5), phi=convex.Zero()),
}


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("case", sorted(SCHEDULE_CASES))
def test_solve_bsvi_matches_one_solve_per_epsilon(case):
    tree, xi, gen, phi = SCHEDULE_CASES[case]()
    want = solve_one_per_epsilon(tree, xi, gen, phi)
    got = solve_bsvi(tree, xi, gen, phi)
    assert got.epsilon_table == want.epsilon_table
    assert _rows_close(got.epsilon_table, epsilon_table_one_by_one(want.per_epsilon, phi, tree))
    assert got.solution is got.per_epsilon[-1][1]
    assert len(got.per_epsilon) == len(want.per_epsilon)
    for (eps, sol), (want_eps, want_sol) in zip(got.per_epsilon, want.per_epsilon):
        assert eps == want_eps == sol.epsilon == want_sol.epsilon
        assert sol.diagnostics == want_sol.diagnostics
        assert sol.wellposedness == want_sol.wellposedness
        for proc, want_proc in zip((sol.Y, sol.Z, sol.U, *sol.frozen_past),
                                   (want_sol.Y, want_sol.Z, want_sol.U,
                                    *want_sol.frozen_past)):
            assert len(proc.values) == len(want_proc.values)
            assert all(map(_same_bits, proc.values, want_proc.values))


def _assert_same_failure(got, want):
    assert type(got) is type(want)
    assert str(got) == str(want)
    assert repr(got.diagnostics) == repr(want.diagnostics)  # a NaN distance too
    assert got.diverged == want.diverged


def test_solve_bsvi_raises_the_failure_of_the_first_failing_epsilon():
    # within 7 sweeps the entries 2^-1 .. 2^-6 converge and 2^-7 .. 2^-10
    # stall: the failure of 2^-7 is raised
    tree, xi, gen, phi = SCHEDULE_CASES["one_norm"]()
    config = SolverConfig(picard_max_iters=7,
                          epsilon_schedule=tuple(2.0 ** -k for k in range(1, 11)))
    with pytest.raises(PicardNonConvergence) as want:
        solve_one_per_epsilon(tree, xi, gen, phi, config)
    with pytest.raises(PicardNonConvergence) as got:
        solve_bsvi(tree, xi, gen, phi, config)
    assert not want.value.diverged and want.value.diagnostics.iterations_used == 7
    _assert_same_failure(got.value, want.value)


def test_nonfinite_iterate_of_a_later_epsilon_names_its_own_node():
    # the drift at t_1 is NaN on a window holding only the third entry's
    # E[Y_2 | F_1] at node 1: the first two entries converge, the third fails
    tree, xi, _, phi = box_linear_problem(4)
    window = []

    def drift(t, y, z, past_y, past_z):
        if not window or t != tree.grid.dt:
            return 0.25 * y
        lo, hi = window
        return np.where((y > lo) & (y < hi), np.nan, 0.25 * y)

    gen = generators.CustomGenerator(fn=drift, declared_instant=0.25,
                                     declared_delay=0.0)
    clean = solve_bsvi(tree, xi, gen, phi)
    level_1 = np.concatenate([level_moments(tree, s.Y.values[2])[0].ravel()
                              for _, s in clean.per_epsilon])
    target = level_1[2 * 2 + 1]
    assert np.count_nonzero(level_1 == target) == 1
    gap = np.min(np.abs(level_1[level_1 != target] - target))
    window.extend((target - gap / 2, target + gap / 2))
    with pytest.raises(NonFiniteIterate) as want:
        solve_one_per_epsilon(tree, xi, gen, phi)
    with pytest.raises(NonFiniteIterate) as got:
        solve_bsvi(tree, xi, gen, phi)
    assert (want.value.level, want.value.node) == (1, 1)
    _assert_same_failure(got.value, want.value)
    assert (got.value.level, got.value.node) == (1, 1)


@pytest.mark.parametrize("case, sweeps", [("one_norm", {7, 8}), ("moving_average_box", {9, 10}),
                                         ("box", {2})],
                         ids=["staggered", "staggered_contiguous", "same_sweep"])
def test_solutions_are_copied_out_or_row_slices_of_one_batch_array(case, sweeps):
    # an entry that stops while others keep sweeping is copied out of the
    # batch, so it keeps no other entry's rows alive; the entries that stop
    # together hold level i of every process back to back in that sweep's
    # batch array and keep no other array alive, also when the entries that
    # left before them were contiguous in the batch
    make = box_linear_problem if case == "box" else SCHEDULE_CASES[case]
    tree, xi, gen, phi = make(6) if case == "box" else make()
    res = solve_bsvi(tree, xi, gen, phi)
    assert {s.diagnostics.iterations_used for _, s in res.per_epsilon} == sweeps
    sols = [s for _, s in res.per_epsilon]
    together = [s for s in sols if s.diagnostics.iterations_used == max(sweeps)]
    assert len(together) < len(sols) if case != "box" else together == sols
    # level n of Y and of its frozen past, and level n - 1 of Z and of its
    # frozen past, are decided by xi alone: one read-only array of one block's
    # rows, the same object in every solution
    n, leaf = tree.grid.n_steps, np.asarray(xi, dtype=float).reshape(len(xi), -1)
    shared = {(0, n): leaf, (3, n): leaf,
              (1, n - 1): level_moments(tree, leaf)[1], (4, n - 1): level_moments(tree, leaf)[1]}
    procs = (lambda s: s.Y, lambda s: s.Z, lambda s: s.U,
             lambda s: s.frozen_past[0], lambda s: s.frozen_past[1])
    for (k, i), want in shared.items():
        arrays = [procs[k](s).values[i] for s in sols]
        assert all(a is arrays[0] for a in arrays)
        assert not arrays[0].flags.writeable
        assert len(arrays[0]) == tree.level_size(i)
        assert _same_bits(arrays[0], want)
    for k, proc in enumerate(procs):
        for sol in sols:
            if sol not in together:
                # the memory an array keeps alive is that of its base
                assert all((a if a.base is None else a.base).nbytes == a.nbytes
                           for a in proc(sol).values)
        for i, level in enumerate(zip(*(proc(s).values for s in together))):
            if (k, i) in shared:
                continue
            base, first = level[0].base, level[0].__array_interface__["data"][0]
            assert base.nbytes == sum(a.nbytes for a in level)
            assert [a.__array_interface__["data"][0] for a in level] == \
                [first + e * level[0].nbytes for e in range(len(level))]
            assert all(a.base is base for a in level)


@pytest.mark.parametrize("case", ["box", "moving_average_box", "one_norm"])
def test_a_joint_exit_hands_each_solution_views_of_one_batch_array_per_level(case):
    # the entries that leave in the last sweep take views of one batch array per
    # level of every process, bitwise the separate solves; a replayed sweep froze
    # (Y, Z) itself, which is then the frozen past, and a computed one froze the
    # sweep before it, whose blocks the past views alike
    tree, xi, gen, phi = box_linear_problem(6) if case == "box" else SCHEDULE_CASES[case]()
    got = [s for _, s in solve_bsvi(tree, xi, gen, phi).per_epsilon]
    want = [s for _, s in solve_one_per_epsilon(tree, xi, gen, phi).per_epsilon]
    _assert_same_solutions(got, want)
    last = max(s.diagnostics.iterations_used for s in got)
    together = [s for s in got if s.diagnostics.iterations_used == last]
    assert len(together) > 1
    n = tree.grid.n_steps
    for s in together:
        assert (s.frozen_past[0] is s.Y and s.frozen_past[1] is s.Z) == (case == "box")
    for k in range(5):
        proc = [lambda s: s.Y, lambda s: s.Z, lambda s: s.U,
                lambda s: s.frozen_past[0], lambda s: s.frozen_past[1]][k]
        for i, level in enumerate(zip(*(proc(s).values for s in together))):
            if (k % 3, i) in ((0, n), (1, n - 1)):  # xi and its Z: one array for every block
                assert all(a is level[0] for a in level)
            else:
                assert level[0].base is not None and all(a.base is level[0].base for a in level)
                assert not any(np.shares_memory(a, b) for a, b in zip(level, level[1:]))


# ---------------------------------------------------------------------------
# the replayed confirmation sweep against every sweep computed
# (see helpers_oracle.py)
# ---------------------------------------------------------------------------

from helpers_oracle import picard_every_sweep


def _two_dimensional_quadratic():
    tree = bsvi.lattice.build_tree(5, 1.0, 1)
    xi = terminal_linear(tree, [0.5, -0.25], [[0.5], [0.3]])
    gen = generators.linear([[0.25, 0.1], [0.0, -0.3]], [[[0.2], [0.0]], [[0.0], [0.1]]])
    return tree, xi, gen, convex.Quadratic(4.0)


# (problem, scheme): "schedule" runs solve_bsvi, "classical" picard_solve
# without phi, "prox" prox_step_solve; no pass of these reads a frozen row
REPLAY_CASES = {
    "box": (lambda: box_linear_problem(5), "schedule"),
    "quadratic": (lambda: _swap(box_linear_problem(5), phi=convex.Quadratic(4.0)), "schedule"),
    "one_norm": (lambda: _swap(box_linear_problem(5), phi=convex.OneNorm(0.25)), "schedule"),
    "zero": (lambda: _swap(box_linear_problem(5), phi=convex.Zero()), "schedule"),
    "custom1d": (lambda: _swap(box_linear_problem(5), phi=ElasticPenalty()), "schedule"),
    "classical": (lambda: box_linear_problem(5), "classical"),
    "prox": (lambda: box_linear_problem(5), "prox"),
    "dirac_zero": (lambda: _swap(box_linear_problem(5), gen=generators.moving_average_z(
        g=lambda t: 1.0 + t, g_bound=2.0, alpha=generators.Dirac(0.0))), "schedule"),
    "delayed_z_lag_T": (lambda: _swap(box_linear_problem(5), gen=generators.delayed_z(
        kappa=0.5, lag=1.0)), "schedule"),
    "quadratic_m2": (_two_dimensional_quadratic, "schedule"),
}


def _solve_counting_passes(monkeypatch, scheme, tree, xi, gen, phi, config):
    """The solver's solutions, as a list, and the backward passes it ran."""
    passes = []
    real = solver_mod._one_pass

    def counted(*args):
        passes.append(1)
        return real(*args)

    monkeypatch.setattr(solver_mod, "_one_pass", counted)
    if scheme == "schedule":
        sols = [s for _, s in solve_bsvi(tree, xi, gen, phi, config).per_epsilon]
    elif scheme == "classical":
        sols = [picard_solve(tree, xi, gen, config)]
    else:
        sols = [prox_step_solve(tree, xi, gen, phi, config)]
    monkeypatch.undo()
    return sols, len(passes)


def _every_sweep(scheme, tree, xi, gen, phi, config):
    if scheme == "schedule":
        return [picard_every_sweep(tree, xi, gen, config, phi=phi, epsilon=eps)
                for eps in config.epsilon_schedule]
    return [picard_every_sweep(tree, xi, gen, config,
                               phi=convex.Zero() if scheme == "classical" else phi)]


def _assert_same_solutions(got, want):
    assert len(got) == len(want)
    for sol, want_sol in zip(got, want):
        assert sol.epsilon == want_sol.epsilon
        assert sol.diagnostics == want_sol.diagnostics
        assert sol.wellposedness == want_sol.wellposedness
        for proc, want_proc in zip((sol.Y, sol.Z, sol.U, *sol.frozen_past),
                                   (want_sol.Y, want_sol.Z, want_sol.U,
                                    *want_sol.frozen_past)):
            assert len(proc.values) == len(want_proc.values)
            assert all(map(_same_bits, proc.values, want_proc.values))


@pytest.mark.parametrize("case", sorted(REPLAY_CASES))
def test_replayed_confirmation_sweep_matches_every_sweep_computed(monkeypatch, case):
    make, scheme = REPLAY_CASES[case]
    tree, xi, gen, phi = make()
    config = SolverConfig()
    got, passes = _solve_counting_passes(monkeypatch, scheme, tree, xi, gen, phi, config)
    want = _every_sweep(scheme, tree, xi, gen, phi, config)
    _assert_same_solutions(got, want)
    # one batched pass, its confirmation replayed: frozen_past is (Y, Z) itself
    assert passes == 1
    for sol in got:
        assert sol.diagnostics.iterations_used == 2
        assert sol.diagnostics.iterate_distances[1] == 0.0
        assert sol.frozen_past[0] is sol.Y and sol.frozen_past[1] is sol.Z


def test_replay_after_some_entries_stop_at_the_first_sweep(monkeypatch):
    # a tolerance between the first distances: the entries at or below it
    # stop at sweep 1, the rest replay on their re-blocked (Y, Z, U)
    tree, xi, gen, phi = box_linear_problem(5)
    first = sorted(s.diagnostics.iterate_distances[0]
                   for _, s in solve_bsvi(tree, xi, gen, phi).per_epsilon)
    assert len(set(first)) > 2
    config = SolverConfig(picard_tol=first[len(first) // 2])
    got, passes = _solve_counting_passes(monkeypatch, "schedule", tree, xi, gen, phi, config)
    want = _every_sweep("schedule", tree, xi, gen, phi, config)
    _assert_same_solutions(got, want)
    sweeps = [s.diagnostics.iterations_used for s in got]
    assert set(sweeps) == {1, 2} and passes == 1


def test_custom_drift_under_declaring_its_delay_still_sweeps(monkeypatch):
    # declared_delay = 0 while the callback reads past_z: the loop cannot see
    # which rows a callback reads, so it sweeps to convergence as before
    tree, xi, _, phi = box_linear_problem(5)
    gen = generators.CustomGenerator(
        fn=lambda t, y, z, past_y, past_z: 0.25 * y + 0.3 * past_z(-0.4)[..., 0],
        declared_instant=0.25, declared_delay=0.0)
    config = SolverConfig(epsilon_schedule=(0.5, 0.125))
    with pytest.warns(RuntimeWarning, match="too small"):
        got, passes = _solve_counting_passes(monkeypatch, "schedule", tree, xi, gen, phi,
                                             config)
    with pytest.warns(RuntimeWarning, match="too small"):
        want = _every_sweep("schedule", tree, xi, gen, phi, config)
    _assert_same_solutions(got, want)
    assert min(s.diagnostics.iterations_used for s in got) > 2
    assert passes == max(s.diagnostics.iterations_used for s in got)


# ---------------------------------------------------------------------------
# the batched epsilon table and audits against one solution at a time
# (see helpers_oracle.py)
# ---------------------------------------------------------------------------

from helpers_oracle import (apriori_audit_one_by_one, epsilon_table_one_by_one,
                            origin_drift_mass_per_level, path_norms_one_by_one,
                            penalty_terms_from_u, yosida_audit_one_by_one)


def _solved(case):
    tree, xi, gen, phi = SCHEDULE_CASES[case]()
    return tree, xi, gen, phi, solve_bsvi(tree, xi, gen, phi)


def _bits(v):
    """A float as its type and bytes, so that values compare equal only if
    bitwise equal (a NaN too); anything else as it is."""
    return (type(v).__name__, np.float64(v).tobytes()) if isinstance(v, float) else v


def _row_bits(row):
    return [(name, _bits(getattr(row, name))) for name in row._fields]


def _rows_close(got, want) -> bool:
    """Audit rows field by field under the golden files' rule: bitwise the same
    (a NaN too), or two floats with |got - want| <= 1e-12 + 1e-10 |want|."""
    return len(got) == len(want) and all(
        _bits(a) == _bits(b) or isinstance(a, float) and abs(a - b) <= 1e-12 + 1e-10 * abs(b)
        for g, w in zip(got, want)
        for a, b in ((getattr(g, name), getattr(w, name)) for name in g._fields))


def _assert_yosida_rows(got, per_epsilon, phi, xi, gen, tree, beta):
    """The Yosida audit bitwise against the U-reading oracle, and within the
    golden files' rule of the prox-recomputing one."""
    want = yosida_audit_one_by_one(per_epsilon, phi, xi, gen, tree, beta, penalty_terms_from_u)
    ref = yosida_audit_one_by_one(per_epsilon, phi, xi, gen, tree, beta)
    for rows in ("grad_rows", "value_rows", "gap_rows"):
        assert list(map(_row_bits, getattr(got, rows))) == \
            list(map(_row_bits, getattr(want, rows)))
        assert _rows_close(getattr(got, rows), getattr(ref, rows))
    assert got.uniform_ok == want.uniform_ok == ref.uniform_ok


def _assert_table(got, per_epsilon, phi, tree):
    """The epsilon table bitwise against the U-reading oracle, and within the
    golden files' rule of the prox-recomputing one."""
    assert list(map(_row_bits, got)) == \
        list(map(_row_bits, epsilon_table_one_by_one(per_epsilon, phi, tree,
                                                      penalty_terms_from_u)))
    assert _rows_close(got, epsilon_table_one_by_one(per_epsilon, phi, tree))


def _apriori_bits(audit):
    """An a priori audit's rows, verdict, median constant and lhs parts, bit by bit."""
    return (list(map(_row_bits, audit.rows)), audit.uniform_ok, _bits(audit.median_constant),
            [_bits(v) for v in audit.y_s2], [_bits(v) for v in audit.z_h2])


def _assert_schedule_audits_match(per_epsilon, phi, xi, gen, tree, beta=0.0):
    _assert_table(epsilon_table(per_epsilon, phi, tree), per_epsilon, phi, tree)
    got = apriori_audit(per_epsilon, xi, gen, tree, beta)
    want = apriori_audit_one_by_one(per_epsilon, xi, gen, tree, beta)
    assert _apriori_bits(got) == _apriori_bits(want)
    _assert_yosida_rows(yosida_audit(per_epsilon, phi, xi, gen, tree, beta),
                        per_epsilon, phi, xi, gen, tree, beta)


@pytest.mark.parametrize("beta", [0.0, 1.5])
@pytest.mark.parametrize("case", sorted(SCHEDULE_CASES))
def test_schedule_audits_match_one_solution_at_a_time(case, beta):
    tree, xi, gen, phi, res = _solved(case)
    _assert_schedule_audits_match(res.per_epsilon, phi, xi, gen, tree, beta)


def test_schedule_audits_match_on_solutions_copied_out_at_different_sweeps():
    # the delay_bsvi benchmark config: the first entry stops at sweep 9, the
    # other ten at sweep 10, so it is copied out of the batch on its own
    cfg = config_from_dict({
        "model": {"horizon": 1.0, "n_steps": 8, "bm_dim": 1, "dim": 1},
        "terminal": {"kind": "clipped_linear", "a": [0.1], "b": [[1.0]], "lo": -1.0, "hi": 1.0},
        "generator": {"kind": "moving_average_z", "g_poly": [0.5], "g_bound": 0.5,
                      "alpha": {"kind": "uniform"}},
        "phi": {"kind": "box", "lo": -1.0, "hi": 1.0},
        "solver": {"picard_tol": 1.0e-10}, "run": {"mode": "bsvi"}})
    res = solve_bsvi(cfg.tree, cfg.xi, cfg.gen, cfg.phi, cfg.solver_config)
    assert [s.diagnostics.iterations_used for _, s in res.per_epsilon] == [9] + [10] * 10
    for beta in (0.0, 2.0):
        _assert_schedule_audits_match(res.per_epsilon, cfg.phi, cfg.xi, cfg.gen, cfg.tree, beta)


def _shifted_average():
    """A drift with a nonzero instant part beside past terms of both signs."""
    average = generators.moving_average_z(g=lambda t: t - 0.4, g_bound=0.6,
                                          alpha=generators.UniformPast())
    return generators.AffineDrift(np.array([[-0.5]]), np.zeros((1, 1, 1)),
                                  average.past_z_terms, average.k_root, alpha=average.alpha)


ORIGIN_GENS = {
    "zero": generators.zero(),
    "linear": generators.linear_scalar(0.7, -0.4),
    "delayed_z": generators.delayed_z(kappa=-0.5, lag=0.4),
    "running_integral_z": generators.running_integral_z(kappa=0.6),
    "moving_average_z_uniform": generators.moving_average_z(
        g=lambda t: 0.5 - 0.1 * t, g_bound=0.5, alpha=generators.UniformPast()),
    "moving_average_z_dirac": generators.moving_average_z(
        g=lambda t: -0.5, g_bound=0.5, alpha=generators.Dirac(-0.25)),
    "mixture": generators.moving_average_z(
        g=lambda t: 0.5, g_bound=0.5,
        alpha=generators.DiscreteMixture(((-0.5, 0.3), (-0.2, 0.2), (0.0, 0.5)))),
    "shifted_instant": _shifted_average(),
    "custom": generators.CustomGenerator(
        fn=lambda t, y, z, past_y, past_z: 0.2 + t - 0.5 * y + 0.25 * past_z(-0.25)[..., 0],
        declared_instant=0.5, declared_delay=0.0625),
}


@pytest.mark.parametrize("beta", [0.0, 0.7])
@pytest.mark.parametrize("name", sorted(ORIGIN_GENS))
def test_audits_take_the_origin_mass_of_every_level_once(name, beta):
    # both audits' rows, rhs_data included, against the drift evaluated level
    # by level, past terms included (helpers_oracle), which the one-row
    # instant of a built-in replaces
    gen = ORIGIN_GENS[name]
    tree, xi, _, phi = box_linear_problem(5)
    per_eps = solve_bsvi(tree, xi, generators.zero(), phi).per_epsilon
    _assert_schedule_audits_match(per_eps, phi, xi, gen, tree, beta)
    want = [origin_drift_mass_per_level(gen, tree, 1, b) for b in (beta, 0.0)]
    got = generators.origin_drift_mass(gen, tree, 1, (beta, 0.0))
    assert list(map(_bits, got)) == list(map(_bits, want))
    assert (want[0] > 0) == (name == "custom")  # an affine drift is 0 at the origin


def test_schedule_audits_match_on_a_two_dimensional_quadratic():
    tree = bsvi.lattice.build_tree(5, 1.0, 1)
    xi = terminal_linear(tree, [0.5, -0.25], [[0.5], [0.3]])
    gen = generators.linear([[0.25, 0.1], [0.0, -0.3]], [[[0.2], [0.0]], [[0.0], [0.1]]])
    phi = convex.Quadratic(4.0)
    res = solve_bsvi(tree, xi, gen, phi)
    assert res.solution.Y.values[0].shape == (1, 2)
    _assert_schedule_audits_match(res.per_epsilon, phi, xi, gen, tree, 0.5)


def test_schedule_audits_match_on_one_entry_and_on_separate_solves():
    tree, xi, gen, phi, res = _solved("one_norm")
    for one in (res.per_epsilon[:1], res.per_epsilon[-1:]):
        assert epsilon_table(one, phi, tree) == []
        _assert_schedule_audits_match(one, phi, xi, gen, tree, 1.0)
    # solutions of separate solves share no batch array
    _assert_schedule_audits_match(solve_one_per_epsilon(tree, xi, gen, phi).per_epsilon,
                                  phi, xi, gen, tree, 1.0)


def test_schedule_audits_match_on_two_batches_joined():
    # xi and Z at level n - 1 are one array within each batch, not across the two
    tree, xi, gen, phi = box_linear_problem(6)
    first, second = (solve_bsvi(tree, xi, gen, phi, SolverConfig(epsilon_schedule=schedule))
                     for schedule in ((1.0, 0.5, 0.25), (0.125, 0.0625)))
    per_eps = first.per_epsilon + second.per_epsilon
    for levels in ([s.Y.values[6] for _, s in per_eps], [s.Z.values[5] for _, s in per_eps]):
        assert levels[0] is levels[2] and levels[3] is levels[4]
        assert levels[2] is not levels[3]
    for beta in (0.0, 1.5):
        _assert_schedule_audits_match(per_eps, phi, xi, gen, tree, beta)


@pytest.mark.filterwarnings("ignore:invalid value encountered in subtract")
def test_schedule_audits_take_a_shared_z_level_with_an_inf_as_nan_differences():
    # z - z is NaN where z is inf: the shared level's pair differences are
    # taken, not assumed to be 0
    tree, xi, gen, phi = box_linear_problem(5)
    res = solve_bsvi(tree, xi, gen, phi)
    shared = res.solution.Z.values[4].copy()
    shared[3, 0, 0] = np.inf
    for _, sol in res.per_epsilon:
        sol.Z.values[4] = shared
    table = epsilon_table(res.per_epsilon, phi, tree)
    assert table and all(math.isnan(row.dz_h2) for row in table)
    assert all(math.isinf(r.lhs) for r in apriori_audit(res.per_epsilon, xi, gen, tree).rows)
    for beta in (0.0, 1.5):
        _assert_schedule_audits_match(res.per_epsilon, phi, xi, gen, tree, beta)


def test_schedule_audits_read_the_shared_z_level_once(monkeypatch):
    # at n = 12 level 11 runs one block at a time, so each solution's frame
    # would take the squared norms of the batch's one level-11 Z again
    tree, xi, gen, phi = box_linear_problem(12)
    res = solve_bsvi(tree, xi, gen, phi)
    shared = res.solution.Z.values[11]
    assert all(s.Z.values[11] is shared for _, s in res.per_epsilon)
    read, real = [], bsvi.analysis.row_sq_norms
    monkeypatch.setattr(bsvi.analysis, "row_sq_norms", lambda a: read.append(a) or real(a))
    bsvi.analysis.schedule_audits(res.per_epsilon, phi, xi, gen, tree)
    assert sum(a is shared for a in read) == 1


def test_schedule_audits_reject_an_empty_schedule():
    tree, xi, gen, phi, _ = _solved("quadratic")
    for audit in (lambda: apriori_audit([], xi, gen, tree),
                  lambda: yosida_audit([], phi, xi, gen, tree),
                  lambda: epsilon_table([], phi, tree)):
        with pytest.raises(ValueError, match="per_epsilon is empty"):
            audit()


def test_path_norms_match_one_process_at_a_time():
    tree, _, _, _, res = _solved("delayed_z_box")
    (_, a), (_, b) = res.per_epsilon[:2]
    for proc in (a.Y, a.Z, a.U, a.Y - b.Y, a.Z - b.Z):
        for beta in (0.0, 0.7):
            got = (path_norm(proc, tree, "s2", beta), path_norm(proc, tree, "h2", beta))
            want = path_norms_one_by_one(proc, tree, beta)
            assert tuple(map(_bits, got)) == tuple(map(_bits, want))


def peak_above_live(run):
    """The most memory Python held during ``run()`` beyond what it held before."""
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()


def test_schedule_audits_hold_at_most_e_plus_8_leaf_levels():
    # a stack of whole levels of the schedule (E leaf levels per temporary)
    # goes past this bound; runs capped at one tree's leaf level stay below
    tree, xi, gen, phi = box_linear_problem(12)
    res = solve_bsvi(tree, xi, gen, phi)
    bound = (len(res.per_epsilon) + 8) * tree.level_size(12) * xi.shape[1] * 8
    assert peak_above_live(lambda: (apriori_audit(res.per_epsilon, xi, gen, tree),
                                    yosida_audit(res.per_epsilon, phi, xi, gen, tree))) <= bound
    assert peak_above_live(lambda: epsilon_table(res.per_epsilon, phi, tree)) <= bound


def test_solve_bsvi_holds_the_leaf_level_once_per_schedule():
    # each of the E solutions holds its own levels below n - 1 (Y and U about
    # one leaf level each, Z half of one) and its own Y and U at level n - 1;
    # xi and Z at level n - 1 are one array for all of them.  A leaf level per
    # solution, or level n - 1's Z per solution, goes past these bounds, and so
    # does a level-sized temporary of the sweep held beside the whole batch.
    tree, xi, gen, phi = box_linear_problem(12)
    leaf_level = tree.level_size(12) * xi.shape[1] * 8
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        res = solve_bsvi(tree, xi, gen, phi)
        peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    count = len(res.per_epsilon)
    held = {id(a if a.base is None else a.base): (a if a.base is None else a.base).nbytes
            for _, s in res.per_epsilon for proc in (s.Y, s.Z, s.U, *s.frozen_past)
            for a in proc.values}
    assert count == 11
    assert sum(held.values()) <= (2.5 * count + 2) * leaf_level
    assert peak <= (3 * count + 4) * leaf_level


def test_a_delayed_pass_peaks_at_what_it_returns(monkeypatch):
    # each level's temporaries go before the next level is made, so a pass
    # peaks within a leaf level of what it returns; and after a block exit
    # the next pass starts without the whole batch's (Y, Z) of the last one
    tree, xi, _, phi = box_linear_problem(12)
    gen = generators.delayed_z(kappa=0.5, lag=1 / 3)
    leaf_level = tree.level_size(12) * xi.shape[1] * 8
    real, above, last_y0 = solver_mod._one_pass, [], []

    def traced(*args):
        blocks = len(args[3][0])  # the frozen Y_0 holds one row per block
        if last_y0 and last_y0[-1][1] > blocks:  # blocks left the batch
            assert last_y0[-1][0]() is None
        tracemalloc.reset_peak()
        out = real(*args)
        current, peak = tracemalloc.get_traced_memory()
        above.append(peak - current)
        last_y0.append((weakref.ref(out[0][0]), blocks))
        return out

    monkeypatch.setattr(solver_mod, "_one_pass", traced)
    tracemalloc.start()
    try:
        with pytest.warns(RuntimeWarning, match="well-posedness"):
            res = solve_bsvi(tree, xi, gen, phi)
    finally:
        tracemalloc.stop()
    sweeps = {s.diagnostics.iterations_used for _, s in res.per_epsilon}
    assert len(sweeps) > 1 and len(above) == max(sweeps)
    assert max(above) <= leaf_level


def test_solution_residuals_hold_at_most_5_leaf_levels():
    # the gradient is formed in the audit's own copy of the Y rows, the probes
    # are checked in chunks of at most 2^13 slacks and each level's equation
    # residual is one array: measured 4.77 leaf levels, bound 5 (a margin of
    # about 30 KB). A gradient beside that copy, a chunk of one probe over all
    # 16,383 pairs (6.03) or a residual of four temporaries (5.01) go past it
    tree, xi, gen, phi = box_linear_problem(14)
    sol = solve_bsvi(tree, xi, gen, phi).solution
    leaf_level = tree.level_size(14) * xi.shape[1] * 8
    assert peak_above_live(lambda: bsvi.analysis.solution_residuals(
        sol, xi, gen, phi, tree)) <= 5 * leaf_level


def test_shared_levels_are_a_private_read_only_copy_of_xi():
    # a caller writing to its terminal data after the solve changes no
    # solution, and a write through a solution's shared level raises
    tree, xi, gen, phi = box_linear_problem(5)
    xi = np.array(xi, dtype=float)
    sols = [s for _, s in solve_bsvi(tree, xi, gen, phi).per_epsilon]
    sols.append(picard_solve(tree, xi, gen))
    for sol in sols:
        for level in (sol.Y.values[5], sol.frozen_past[0].values[5],
                      sol.Z.values[4], sol.frozen_past[1].values[4]):
            assert not np.shares_memory(level, xi)
            with pytest.raises(ValueError, match="read-only"):
                level[0] = 0.0


@pytest.mark.parametrize("case", ["box", "one_norm"], ids=["replayed", "staggered"])
def test_solve_bsvi_takes_the_leaf_moments_once(monkeypatch, case):
    # level n - 1's moments are xi's alone: one call on one block's leaf level
    # per schedule, whichever sweep each entry stops at
    tree, xi, gen, phi = box_linear_problem(6) if case == "box" else SCHEDULE_CASES[case]()
    leaf = np.asarray(xi, dtype=float).reshape(len(xi), -1)
    leaf_calls = []
    real = solver_mod.level_moments

    def counted(tree_, y_next):  # a leaf level: xi's rows, once per block
        if len(y_next) % len(leaf) == 0 and (y_next.reshape(-1, *leaf.shape) == leaf).all():
            leaf_calls.append(len(y_next))
        return real(tree_, y_next)

    monkeypatch.setattr(solver_mod, "level_moments", counted)
    res = solve_bsvi(tree, xi, gen, phi)
    monkeypatch.undo()
    sweeps = {s.diagnostics.iterations_used for _, s in res.per_epsilon}
    assert sweeps == ({2} if case == "box" else {7, 8})
    assert leaf_calls == [tree.level_size(tree.grid.n_steps)]


# ---------------------------------------------------------------------------
# the one pass of schedule_audits over a schedule's levels, against the same oracles
# ---------------------------------------------------------------------------

def _delay_bsvi_drift():
    # the delay_bsvi benchmark's drift: entry 2^0 stops at sweep 9, the rest at 10
    return config_from_dict({
        "model": {"horizon": 1.0, "n_steps": 8, "bm_dim": 1, "dim": 1},
        "terminal": {"kind": "clipped_linear", "a": [0.1], "b": [[1.0]], "lo": -1.0, "hi": 1.0},
        "generator": {"kind": "moving_average_z", "g_poly": [0.5], "g_bound": 0.5,
                      "alpha": {"kind": "uniform"}},
        "phi": {"kind": "box", "lo": -1.0, "hi": 1.0}, "run": {"mode": "bsvi"}})


def _bm_dim_two():
    tree = bsvi.lattice.build_tree(4, 1.0, 2)
    xi = terminal_clipped_linear(tree, [0.1], [[1.0, -0.5]], -1.0, 1.0)
    gen = generators.linear([[0.25]], [[[0.1, -0.2]]])
    return tree, xi, gen, convex.IndicatorBox(-1.0, 1.0)


def _pass_case(case):
    """(per_epsilon, phi, xi, gen, tree) of one case."""
    if case == "staggered":
        cfg = _delay_bsvi_drift()
        tree, xi, gen, phi = cfg.tree, cfg.xi, cfg.gen, cfg.phi
    else:
        tree, xi, gen, phi = {"store": lambda: box_linear_problem(8), "bm_dim_2": _bm_dim_two,
                              # runs of 2^11 rows split the blocks of levels 8 to 12
                              "deep_store": lambda: box_linear_problem(12),
                              "m_2": _two_dimensional_quadratic,
                              "hand_built": lambda: box_linear_problem(6),
                              "reversed": lambda: box_linear_problem(6),
                              "one_entry": lambda: box_linear_problem(6)}[case]()
    res = solve_bsvi(tree, xi, gen, phi)
    per_eps = res.per_epsilon
    if case == "hand_built":  # separate solves: each solution owns its arrays
        per_eps = solve_one_per_epsilon(tree, xi, gen, phi).per_epsilon
    elif case == "reversed":  # the batch's solutions, but not in its order
        per_eps = per_eps[::-1]
    elif case == "one_entry":
        per_eps = per_eps[3:4]
    return per_eps, phi, xi, gen, tree


def _concatenations(monkeypatch, run):
    """run()'s result and, per np.concatenate it made, the rows of each array joined."""
    joined = []
    real_concatenate = np.concatenate

    def counted(arrays, *args, **kwargs):
        joined.append([len(a) for a in arrays])
        return real_concatenate(arrays, *args, **kwargs)

    monkeypatch.setattr(np, "concatenate", counted)
    try:
        return run(), joined
    finally:
        monkeypatch.undo()


PASS_CASES = ["store", "deep_store", "staggered", "hand_built", "reversed", "one_entry",
              "bm_dim_2", "m_2"]


@pytest.mark.parametrize("beta", [0.0, 1.5])
@pytest.mark.parametrize("case", PASS_CASES)
def test_schedule_audits_pass_matches_one_solution_at_a_time(monkeypatch, case, beta):
    per_eps, phi, xi, gen, tree = _pass_case(case)
    sweeps = {s.diagnostics.iterations_used for _, s in per_eps}
    assert sweeps == ({9, 10} if case == "staggered" else {2})
    (table, apriori, yosida), joined = _concatenations(
        monkeypatch, lambda: bsvi.analysis.schedule_audits(per_eps, phi, xi, gen, tree, beta))
    # a run of one block, or of blocks that left one batch together, is read without
    # a copy, and no copy holds more than 2^13 rows
    assert all(len(runs) > 1 and sum(runs) <= 2 ** 13 for runs in joined)
    assert bool(joined) == (case in ("staggered", "hand_built", "reversed"))
    _assert_table(table, per_eps, phi, tree)
    assert (table == []) == (case == "one_entry")
    want = apriori_audit_one_by_one(per_eps, xi, gen, tree, beta)
    assert list(map(_row_bits, apriori.rows)) == list(map(_row_bits, want.rows))
    assert (apriori.uniform_ok, _bits(apriori.median_constant)) == \
        (want.uniform_ok, _bits(want.median_constant))
    _assert_yosida_rows(yosida, per_eps, phi, xi, gen, tree, beta)


def _unmarked(per_epsilon, copy=False):
    """The schedule's solutions without their batch marks, on the same levels or on copies."""
    def process(p):
        return AdaptedProcess(p.tree, [v.copy() for v in p.values]) if copy else p
    return [(eps, solver_mod.Solution(process(s.Y), process(s.Z), process(s.U), s.diagnostics,
                                      s.epsilon, s.frozen_past, s.wellposedness))
            for eps, s in per_epsilon]


def test_schedule_audits_copy_at_most_2_13_rows_per_run(monkeypatch):
    # one part at n = 14 would run a leaf level's 2^14 rows; the ceiling
    # halves that, and a level of 2^13 rows is read one block at a time
    # (on the copy path: the batch's own solutions are read in place)
    tree, xi, gen, phi = box_linear_problem(14)
    per_eps = _unmarked(solve_bsvi(tree, xi, gen, phi).per_epsilon)
    table, joined = _concatenations(monkeypatch, lambda: epsilon_table(per_eps, phi, tree))
    assert all(len(runs) > 1 for runs in joined) and max(map(sum, joined)) == 2 ** 13
    _assert_table(table, per_eps, phi, tree)


def test_solutions_of_a_joint_exit_are_marked_as_blocks_of_their_batch():
    # every block leaves the replayed confirmation sweep together: solution e is
    # block e of one (Y, Z, U) batch, whose level i holds its rows e B^i .. (e + 1) B^i - 1,
    # and the mark keeps the very arrays the solution was handed
    tree, xi, gen, phi = box_linear_problem(6)
    per_eps = solve_bsvi(tree, xi, gen, phi).per_epsilon
    levels = per_eps[0][1]._batch[0]
    for e, (_, sol) in enumerate(per_eps):
        own = (sol.Y.values, sol.Z.values, sol.U.values)
        assert sol._batch[0] is levels and sol._batch[1] == e
        assert sol._block()[0] is levels and sol._block()[1] == e
        assert len(sol._batch[2]) == sum(map(len, own))
        assert all(a is b for a, b in zip(sol._batch[2], [v for vs in own for v in vs]))
        for batch, values in zip(levels, own):
            for i, (a, b) in enumerate(zip(batch, values)):
                size = tree.level_size(i)
                assert (a if len(a) == size else a[e * size:(e + 1) * size]).tobytes() == \
                    b.tobytes()
    # the mark is a slot, not a field: neither taken by the constructor, printed nor in vars
    sol = per_eps[0][1]
    assert "_batch" not in solver_mod.Solution._fields and "_batch" not in repr(sol)
    assert not hasattr(solver_mod.Solution(**vars(sol)), "_batch")
    # a block copied out while others keep sweeping is not marked; the blocks left
    # after it leave together and are
    cfg = _delay_bsvi_drift()
    staggered = solve_bsvi(cfg.tree, cfg.xi, cfg.gen, cfg.phi).per_epsilon
    assert not hasattr(staggered[0][1], "_batch")
    assert [s._batch[1] for _, s in staggered[1:]] == list(range(10))


def _replaced(per_epsilon):
    """The schedule with Z levels 9 and 11 of its fifth solution swapped for doubled copies."""
    zs = per_epsilon[4][1].Z.values
    for i in (9, 11):
        zs[i] = 2.0 * zs[i]
    return per_epsilon


@pytest.mark.parametrize("beta", [0.0, 1.5])
@pytest.mark.parametrize("variant", ["joint", "sub_list", "strided", "rotated", "two_batches",
                                     "copies", "replaced"])
def test_schedule_audits_read_a_jointly_exited_batch_in_place(monkeypatch, variant, beta):
    # at n = 12 the runs split the blocks of levels 8 to 12; a run inside one batch
    # that left together is a row slice of its levels, so the whole schedule (and
    # any stretch of it in order) is read without np.concatenate, and reordered,
    # strided, two batches', rebuilt-from-copies or level-replaced solutions take the
    # copy path where a run leaves a stretch: bitwise the same, a replaced level's new values
    tree, xi, gen, phi = box_linear_problem(12)
    per_eps = solve_bsvi(tree, xi, gen, phi).per_epsilon
    per_eps = {"joint": lambda: per_eps, "sub_list": lambda: per_eps[2:7],
               "strided": lambda: per_eps[::2], "rotated": lambda: per_eps[5:] + per_eps[:5],
               "two_batches": lambda: per_eps[:3] + solve_bsvi(
                   tree, 0.5 * xi, gen, phi).per_epsilon[3:6],
               "copies": lambda: _unmarked(per_eps, copy=True),
               "replaced": lambda: _replaced(per_eps)}[variant]()
    (table, apriori, yosida), joined = _concatenations(
        monkeypatch, lambda: bsvi.analysis.schedule_audits(per_eps, phi, xi, gen, tree, beta))
    assert (joined == []) == (variant in ("joint", "sub_list"))
    assert all(sum(runs) <= 2 ** 13 for runs in joined)
    _assert_table(table, per_eps, phi, tree)
    want = apriori_audit_one_by_one(per_eps, xi, gen, tree, beta)
    assert _apriori_bits(apriori) == _apriori_bits(want)
    _assert_yosida_rows(yosida, per_eps, phi, xi, gen, tree, beta)


@pytest.mark.parametrize("n", [10, 12])
def test_runs_inside_one_of_two_batches_copy_its_one_block_levels(n):
    # two solves share neither a leaf xi nor a Z_{n-1}, so runs of 2 or more blocks of
    # one batch reach those levels, each a single array of one block's rows for every
    # block of its batch: at n = 12 the a priori audit alone reads Z_11 two blocks a
    # run, at n = 10 every part reads the leaf and Z_9 two or four blocks a run
    tree, xi, gen, phi = box_linear_problem(n)
    per_eps = solve_bsvi(tree, xi, gen, phi).per_epsilon[:3] + \
        solve_bsvi(tree, 0.5 * xi, gen, phi).per_epsilon[3:6]
    _assert_schedule_audits_match(per_eps, phi, xi, gen, tree)
    table, apriori, yosida = bsvi.analysis.schedule_audits(per_eps, phi, xi, gen, tree)
    _assert_table(table, per_eps, phi, tree)
    assert _apriori_bits(apriori) == _apriori_bits(apriori_audit_one_by_one(per_eps, xi, gen, tree))
    _assert_yosida_rows(yosida, per_eps, phi, xi, gen, tree, 0.0)


def test_schedule_audits_pass_holds_at_most_9_leaf_levels():
    # the pass holds the running maxes of its two S^2 statistics going down
    # and one run's temporaries at a time
    tree, xi, gen, phi = box_linear_problem(12)
    res = solve_bsvi(tree, xi, gen, phi)
    leaf_level = tree.level_size(12) * xi.shape[1] * 8
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        bsvi.analysis.schedule_audits(res.per_epsilon, phi, xi, gen, tree)
        peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert peak <= 9 * leaf_level


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _u_case(case):
    """(per_epsilon, phi) of a SCHEDULE_CASES case, a `_pass_case` or the
    schedule of a shipped config's problem (its hard gate off)."""
    kind, name = case.split(":")
    if kind == "schedule":
        tree, xi, gen, phi, res = _solved(name)
        return res.per_epsilon, phi
    if kind == "pass":
        per_eps, phi, *_ = _pass_case(name)
        return per_eps, phi
    doc = yaml.safe_load((CONFIGS / f"{name}.yaml").read_text(encoding="utf-8"))
    doc.get("solver", {}).pop("hard_gate", None)
    cfg = config_from_dict(doc)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the delayed configs fail the gate
        return solve_bsvi(cfg.tree, cfg.xi, cfg.gen, cfg.phi, cfg.solver_config).per_epsilon, \
            cfg.phi


@pytest.mark.parametrize("case", [f"schedule:{c}" for c in sorted(SCHEDULE_CASES)]
                         + [f"pass:{c}" for c in PASS_CASES]
                         + [f"config:{p.stem}" for p in sorted(CONFIGS.glob("*.yaml"))])
def test_u_is_the_yosida_gradient_at_y_to_rounding(case):
    # the audit pass reads U as grad phi_eps(Y) = (Y - J_eps Y) / eps: here
    # the prox recomputes it, and each entry must lie within 64 ulps of
    # |Y| / eps + |U| (a U scaled by 1 + 1e-8 breaks this wherever U is not 0)
    per_eps, phi = _u_case(case)
    for eps, sol in per_eps:
        assert sol.epsilon == eps
        for y, u in zip(sol.Y.values, sol.U.values):
            grad = (y - convex.prox(phi, eps, y)) / eps
            tol = 64 * np.finfo(float).eps * (np.abs(y) / eps + np.abs(u))
            assert np.all(np.abs(u - grad) <= tol), float(np.max(np.abs(u - grad) - tol))


def test_schedule_audits_refuse_an_entry_not_penalized_at_its_epsilon():
    # the table and the Yosida audit read U as grad phi_eps(Y), which it is only
    # at the eps the solve penalized with, which must be positive: another eps,
    # a prox-step solution (no eps) and a solution claiming eps = 0 are each
    # refused, naming the entry's eps; the a priori audit reads no U and takes them
    tree, xi, gen, phi, res = _solved("quadratic")
    (eps, sol), rest = res.per_epsilon[0], res.per_epsilon[1:]
    prox_step = prox_step_solve(tree, xi, gen, phi)
    zero = solver_mod.Solution(sol.Y, sol.Z, sol.U, sol.diagnostics, 0.0)
    for entry in ((eps / 3, sol), (eps, prox_step), (0.0, zero)):
        for schedule in ([entry] + rest, rest + [entry]):
            for audit in (lambda s: epsilon_table(s, phi, tree),
                          lambda s: yosida_audit(s, phi, xi, gen, tree)):
                with pytest.raises(ValueError, match=f"^eps = {entry[0]!r} must be positive and "
                                   f"its solution's epsilon, not {entry[1].epsilon!r}$"):
                    audit(schedule)
            got = apriori_audit(schedule, xi, gen, tree)
            want = apriori_audit_one_by_one(schedule, xi, gen, tree)
            assert list(map(_row_bits, got.rows)) == list(map(_row_bits, want.rows))


@pytest.mark.parametrize("penalty", ["box", "quadratic"])
def test_schedule_audits_prox_xi_once_per_solution(monkeypatch, penalty):
    # xi has no U: separate solves (one xi array each) take one prox of xi per
    # solution at level n, and so does a batch (sharing one xi array) but for an
    # indicator, whose J_eps(xi) is one projection for every eps; below level n
    # only a non-indicator penalty takes a prox, for phi(J_eps Y).  Only the
    # data bound M_2 evaluates an indicator's phi.
    tree, xi, gen, phi = box_linear_problem(11)
    phi = phi if penalty == "box" else convex.Quadratic(2.0)
    leaf = tree.level_size(11)
    batch = solve_bsvi(tree, xi, gen, phi).per_epsilon
    separate = solve_one_per_epsilon(tree, xi, gen, phi).per_epsilon
    assert all(s.Y.values[11] is batch[0][1].Y.values[11] for _, s in batch)
    assert len({id(s.Y.values[11]) for _, s in separate}) == len(separate) == 11
    calls, results = {"prox": [], "value": []}, []
    for name in calls:
        real = getattr(type(phi), name)
        monkeypatch.setattr(type(phi), name, lambda self, *a, real=real, name=name: (
            calls[name].append(np.shape(a[-1])), real(self, *a))[1])
    for per_eps in (batch, separate):
        for part in calls.values():
            part.clear()
        results.append(bsvi.analysis.schedule_audits(per_eps, phi, xi, gen, tree))
        at_n = 1 if penalty == "box" and per_eps is batch else 11
        assert calls["prox"][-at_n:] == [xi.shape] * at_n  # level n, one solution after another
        below = calls["prox"][:-at_n]
        assert (below == []) == (penalty == "box")
        assert all(math.prod(shape[:-1]) < leaf * len(per_eps) for shape in below)
        assert (len(calls["value"]) == 1) == (penalty == "box")
    monkeypatch.undo()
    assert repr(results[0]) == repr(results[1])  # the same solutions, bitwise


def _with_leaf(per_eps, leaf, shared):
    """``per_eps`` with level n of every Y set to ``leaf``: one array, or a copy each."""
    return [(e, solver_mod.Solution(
        AdaptedProcess(s.Y.tree, [*s.Y.values[:-1], leaf if shared else leaf.copy()]),
        s.Z, s.U, s.diagnostics, s.epsilon, s.frozen_past, s.wellposedness))
        for e, s in per_eps]


@pytest.mark.filterwarnings("ignore:invalid value encountered")  # inf - inf
@pytest.mark.parametrize("leaf", ["finite", "inf"])
@pytest.mark.parametrize("beta", [0.0, 0.8])
@pytest.mark.parametrize("penalty", ["box", "quadratic"])
def test_schedule_audits_read_a_shared_leaf_once_with_the_bits_of_its_copies(
        monkeypatch, penalty, beta, leaf):
    # one leaf array for every solution takes the table's level-n running max
    # as the parent's (xi - xi is +0.0) and, for an indicator, one J_eps(xi);
    # equal copies take each per solution, and so does a leaf with an inf,
    # whose xi - xi is NaN: the same bits either way
    tree, xi, gen, phi = box_linear_problem(11)
    phi = phi if penalty == "box" else convex.Quadratic(2.0)
    per_eps = solve_bsvi(tree, xi, gen, phi).per_epsilon
    data = np.array(per_eps[0][1].Y.values[11])
    if leaf == "inf":
        data[3] = np.inf
    leaf_proxes, real = [], type(phi).prox
    monkeypatch.setattr(type(phi), "prox", lambda self, eps, y: (
        leaf_proxes.append(np.shape(y) == data.shape), real(self, eps, y))[1])
    for parts in (("table", "apriori", "yosida"), ("table",), ("apriori",), ("yosida",)):
        results = []
        for shared in (True, False):
            leaf_proxes.clear()
            results.append(repr(bsvi.analysis.schedule_audits(
                _with_leaf(per_eps, data, shared), phi, xi, gen, tree, beta, parts)))
            once = shared and leaf == "finite" and penalty == "box"
            assert sum(leaf_proxes) == ("yosida" in parts) * (1 if once else len(per_eps))
        assert results[0] == results[1]
        assert ("nan" in results[0]) == (leaf == "inf" and "table" in parts)


def test_schedule_audits_take_phi_at_the_prox_where_y_minus_eps_u_leaves_its_domain():
    # a penalized step sets U = (x - j) / (eps + dt) and Y = x - dt U with
    # j = J_{eps+dt}(x): for j on the boundary of dom phi, Y - eps U is j only
    # to rounding and leaves the domain in some rows, where phi is +inf.  A
    # user penalty need not declare itself an indicator, so the audits take
    # phi(J_eps Y) at the prox, inside the domain.  The schedule is hand-built
    # from that step on rows spread over [-2, 2], with a solve's Z and xi.
    tree, xi, gen, _ = box_linear_problem(6)
    phi, n, schedule = BoxedQuadratic(), 6, [0.1, 0.01, 0.001]
    base = solve_bsvi(tree, xi, gen, phi, SolverConfig(epsilon_schedule=schedule)).per_epsilon
    per_eps, outside = [], []
    for eps, sol in base:
        steps = [convex.resolvent(phi, eps, tree.grid.dt)(
            np.linspace(-2.0, 2.0, tree.level_size(i))[:, None]) for i in range(n)]
        outside.append(sum(int(np.sum(np.isinf(phi.value(y - eps * u)))) for y, u in steps))
        ys = AdaptedProcess(tree, [y for y, _ in steps] + [sol.Y.values[n]])
        us = AdaptedProcess(tree, [u for _, u in steps])
        per_eps.append((eps, solver_mod.Solution(ys, sol.Z, us, sol.diagnostics, eps)))
    assert all(outside), outside
    _assert_schedule_audits_match(per_eps, phi, xi, gen, tree)
    table, _, yosida = bsvi.analysis.schedule_audits(per_eps, phi, xi, gen, tree)
    assert all(math.isfinite(row.phi_resolvent_h1) for row in table)
    assert all(math.isfinite(row.lhs) for row in yosida.value_rows)


# ---------------------------------------------------------------------------
# fixed-point oracle: direct iteration of the discrete system, coded apart
# from the solver (see helpers_oracle.py)
# ---------------------------------------------------------------------------

from helpers_oracle import assert_solution_matches_oracle


def oracle_matches(tree, xi, gen, sol, drift_fn, penalty=None):
    assert_solution_matches_oracle(tree, xi, sol, drift_fn, penalty)


def test_oracle_delayed_z():
    tree = bsvi.lattice.build_tree(2, 0.5, 1)
    dt = tree.grid.dt
    xi = terminal_linear(tree, 0.1, 1.0)
    gen = generators.delayed_z(kappa=0.4, lag=dt)
    sol = picard_solve(tree, xi, gen, SolverConfig(picard_tol=1e-14))

    def drift(i, expect, z_now, old_y, old_z, node):
        if i - 1 < 0:
            return 0.0
        return 0.4 * old_z[i - 1][node >> 1]

    oracle_matches(tree, xi, gen, sol, drift)


def test_oracle_moving_average_dirac():
    tree = bsvi.lattice.build_tree(2, 0.5, 1)
    dt = tree.grid.dt
    xi = terminal_linear(tree, 0.0, 2.0)
    g = lambda t: 0.5 + t
    gen = generators.moving_average_z(g=g, g_bound=1.0, alpha=generators.Dirac(-dt))
    sol = picard_solve(tree, xi, gen, SolverConfig(picard_tol=1e-14))

    def drift(i, expect, z_now, old_y, old_z, node):
        t = i * dt - dt
        if t < 0:
            return 0.0
        return g(t) * old_z[i - 1][node >> 1]

    oracle_matches(tree, xi, gen, sol, drift)


def test_oracle_moving_average_mixture_with_present_atom():
    tree = bsvi.lattice.build_tree(2, 0.5, 1)
    dt = tree.grid.dt
    xi = terminal_linear(tree, -0.2, 1.0)
    alpha = generators.DiscreteMixture(((-dt, 0.4), (0.0, 0.6)))
    gen = generators.moving_average_z(g=lambda t: 1.0, g_bound=1.0, alpha=alpha)
    sol = picard_solve(tree, xi, gen, SolverConfig(picard_tol=1e-14))

    def drift(i, expect, z_now, old_y, old_z, node):
        lagged = old_z[i - 1][node >> 1] if i >= 1 else 0.0
        return 0.4 * lagged + 0.6 * z_now

    oracle_matches(tree, xi, gen, sol, drift)


def test_oracle_running_integral_uniform():
    tree = bsvi.lattice.build_tree(2, 0.5, 1)
    dt = tree.grid.dt
    xi = terminal_linear(tree, 0.0, 1.0)
    gen = generators.running_integral_z(kappa=0.7)
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
    tree = bsvi.lattice.build_tree(2, 0.5, 1)
    dt = tree.grid.dt
    xi = terminal_linear(tree, 0.5, 1.0)
    gen = generators.delayed_z(kappa=0.3, lag=dt)
    phi = convex.Quadratic(2.0)
    sol = picard_solve(tree, xi, gen, SolverConfig(picard_tol=1e-14), phi=phi, epsilon=0.2)

    def drift(i, expect, z_now, old_y, old_z, node):
        return 0.3 * old_z[i - 1][node >> 1] if i >= 1 else 0.0

    oracle_matches(tree, xi, gen, sol, drift, penalty=(phi, 0.2))


# ---------------------------------------------------------------------------
# penalized and prox schemes
# ---------------------------------------------------------------------------

def test_penalized_quadratic_matches_scalar_recursion():
    # constant terminal: each implicit step multiplies by
    # (1 + eps c) / (1 + (dt + eps) c)
    tree = bsvi.lattice.build_tree(4, 1.0, 1)
    c, eps = 1.0, 0.5
    xi = terminal_constant(tree, 2.0)
    sol = picard_solve(tree, xi, generators.zero(), phi=convex.Quadratic(c), epsilon=eps)
    dt = tree.grid.dt
    factor = (1 + eps * c) / (1 + (dt + eps) * c)
    assert sol.Y.values[0][0, 0] == pytest.approx(2.0 * factor ** 4, abs=1e-13)
    # the discrete equation holds with U at the corrected point
    for i in range(4):
        assert np.allclose(sol.Y.values[i] + dt * sol.U.values[i],
                           sol.Y.values[i + 1].reshape(-1, 2, 1).mean(axis=1),
                           atol=1e-14)


def test_penalized_zero_phi_is_unpenalized_bitwise():
    tree = bsvi.lattice.build_tree(4, 1.0, 1)
    xi = terminal_linear(tree, 0.2, 1.0)
    gen = generators.linear_scalar(0.3, -0.2)
    plain = picard_solve(tree, xi, gen)
    pen = picard_solve(tree, xi, gen, phi=convex.Zero(), epsilon=1e-3)
    for a, b in zip(plain.Y.values, pen.Y.values):
        assert np.array_equal(a, b)
    for arr in pen.U.values:
        assert np.array_equal(arr, np.zeros_like(arr))


def test_penalized_rejects_terminal_outside_domain():
    tree = bsvi.lattice.build_tree(3, 1.0, 1)
    xi = terminal_linear(tree, 0.0, 1.0)  # reaches +-sqrt(3)... outside the box
    with pytest.raises(ValueError, match="domain of phi"):
        picard_solve(tree, xi, generators.zero(), phi=convex.IndicatorBox(-1, 1), epsilon=0.5)


def test_penalized_halfline_martingale_stays_untouched():
    # phi = indicator of (-inf, 0]; a nonpositive martingale never activates it
    tree = bsvi.lattice.build_tree(3, 1.0, 1)
    w_T = tree.path_sums().values[-1]
    xi = np.minimum(w_T, 0.0)
    phi = convex.IndicatorBox(-np.inf, 0.0)
    sol = picard_solve(tree, xi, generators.zero(), phi=phi, epsilon=0.25)
    base = picard_solve(tree, xi, generators.zero())
    for a, b in zip(sol.Y.values, base.Y.values):
        assert np.allclose(a, b, atol=1e-14)
    for arr in sol.U.values:
        assert np.array_equal(arr, np.zeros_like(arr))


def test_bsvi_zero_phi_table_is_exact():
    tree = bsvi.lattice.build_tree(3, 1.0, 1)
    xi = terminal_linear(tree, 0.0, 1.0)
    res = solve_bsvi(tree, xi, generators.zero(), convex.Zero(),
                     SolverConfig(epsilon_schedule=(1.0, 0.5, 0.25)))
    assert len(res.epsilon_table) == 2
    for row in res.epsilon_table:
        assert row.dy_s2 == 0.0
        assert row.dz_h2 == 0.0


def test_bsvi_singleton_schedule_empty_table():
    tree = bsvi.lattice.build_tree(3, 1.0, 1)
    xi = terminal_linear(tree, 0.0, 1.0)
    res = solve_bsvi(tree, xi, generators.zero(), convex.Zero(),
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
    tree = bsvi.lattice.build_tree(3, 1.0, 1)
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
            assert convex.subgradient_check(phi, y_val, u_val, probes) <= 1e-10


def test_multivalued_term_is_monotone_across_data():
    tree, xi, gen, phi = box_linear_problem(4)
    xi2 = terminal_clipped_linear(tree, -0.3, 0.8, -1.0, 1.0)
    eps = 0.125
    sol_a = picard_solve(tree, xi, gen, phi=phi, epsilon=eps)
    sol_b = picard_solve(tree, xi2, gen, phi=phi, epsilon=eps)
    dt = tree.grid.dt
    total = sum(
        dt * float(np.mean(np.sum(
            (a_y - b_y) * (a_u - b_u), axis=1)))
        for a_y, b_y, a_u, b_u in zip(sol_a.Y.values, sol_b.Y.values,
                                      sol_a.U.values, sol_b.U.values))
    assert total >= -1e-10


def test_phi_and_epsilon_pick_the_step():
    # phi alone is the prox step; with the default phi = 0 the penalized step
    # is the classical one, down to the sign of U = +0.0
    tree, xi, gen, phi = box_linear_problem(4)
    pairs = ((picard_solve(tree, xi, gen, phi=phi), prox_step_solve(tree, xi, gen, phi)),
             (picard_solve(tree, xi, gen, epsilon=0.125), picard_solve(tree, xi, gen)))
    for got, want in pairs:
        for proc in ("Y", "Z", "U"):
            for a, b in zip(getattr(got, proc).values, getattr(want, proc).values):
                assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))
    assert pairs[0][0].epsilon is None and pairs[1][0].epsilon == 0.125
    assert not any(np.signbit(u).any() for u in pairs[1][1].U.values)


REFLECTED_DRIFTS = {  # each drift and its mirror, every z coefficient negated
    "moving_average": tuple(generators.moving_average_z(
        g=lambda t, s=sign: s * (0.5 - 0.1 * t), g_bound=0.5,
        alpha=generators.UniformPast()) for sign in (1.0, -1.0)),
    "delayed_z": (generators.delayed_z(0.7, 0.3), generators.delayed_z(-0.7, 0.3)),
    "linear": (generators.linear_scalar(0.25, 0.4), generators.linear_scalar(0.25, -0.4)),
}


@pytest.mark.parametrize("drift", sorted(REFLECTED_DRIFTS))
def test_reflected_noise_reflects_every_step_exactly(drift):
    # W -> -W reverses the rows of every level: with the z coefficients
    # negated, each scheme's (Y, U) on the mirror data is its (Y, U) reversed
    # and Z reversed and negated, exactly, and takes as many sweeps
    tree = bsvi.lattice.build_tree(8, 1.0, 1)
    phi = convex.IndicatorBox(-1.0, 1.0)
    xi = terminal_clipped_linear(tree, 0.1, 1.0, -1.0, 1.0)

    def solves(xi, gen):
        return [picard_solve(tree, xi, gen), prox_step_solve(tree, xi, gen, phi),
                picard_solve(tree, xi, gen, phi=phi, epsilon=0.01),
                *(sol for _, sol in solve_bsvi(tree, xi, gen, phi).per_epsilon)]

    gen, mirror = REFLECTED_DRIFTS[drift]
    pairs = list(zip(solves(xi, gen), solves(xi[::-1], mirror)))
    assert len(pairs) == 14
    for sol, ref in pairs:
        assert sol.diagnostics.iterations_used == ref.diagnostics.iterations_used
        for proc, sign in (("Y", 1.0), ("Z", -1.0), ("U", 1.0)):
            for a, b in zip(getattr(sol, proc).values, getattr(ref, proc).values):
                assert np.array_equal(sign * a[::-1], b), proc


def test_picard_solve_rejects_inconsistent_step_arguments():
    tree, xi, gen, phi = box_linear_problem(3)
    for eps in (0.0, -0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive"):
            picard_solve(tree, xi, gen, phi=phi, epsilon=eps)


def _nan_at_leaf_3(xi):
    xi = np.array(xi, dtype=float)
    xi[3] = np.nan
    return xi


@pytest.mark.parametrize("edit, message", [(lambda xi: xi[:-1], "7 rows, tree has 8 leaves"),
                                           (_nan_at_leaf_3, "must be finite on every leaf")],
                         ids=["one_leaf_short", "nan_leaf"])
@pytest.mark.parametrize("entry", ["picard_solve", "solve_bsvi"])
def test_solvers_refuse_terminal_data_that_is_not_one_finite_row_per_leaf(entry, edit, message):
    tree, xi, gen, phi = box_linear_problem(3)
    with pytest.raises(ValueError, match=message):
        getattr(solver_mod, entry)(tree, edit(xi), gen, phi=phi)


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
    with pytest.raises(ValueError, match="empty"):
        SolverConfig(epsilon_schedule=())
    with pytest.raises(ValueError, match="picard_max_iters"):
        SolverConfig(picard_max_iters=0)
    with pytest.raises(ValueError, match="beta"):
        SolverConfig(beta=-1.0)


# a bool is an int, and True read as one sweep
@pytest.mark.parametrize("iters", [2.5, float("nan"), 3.0, "3", True, False, np.True_])
def test_solver_config_rejects_a_non_integer_picard_max_iters(iters):
    with pytest.raises(ValueError, match="picard_max_iters"):
        SolverConfig(picard_max_iters=iters)


# bool("false") is True: the string turned the hard gate on
@pytest.mark.parametrize("gate", ["false", "true", 0, 1, None])
def test_solver_config_rejects_a_non_bool_hard_gate(gate):
    with pytest.raises(ValueError, match="hard_gate"):
        SolverConfig(hard_gate=gate)
    assert SolverConfig(hard_gate=np.True_).hard_gate


@pytest.mark.parametrize("knobs, name", [
    ({"beta": math.inf}, "beta"),
    ({"beta": -math.inf}, "beta"),
    ({"picard_tol": math.inf}, "picard_tol"),
    ({"epsilon_schedule": (math.inf, 1.0, 0.5)}, "epsilon_schedule"),
], ids=["beta_inf", "beta_minus_inf", "tol_inf", "schedule_inf"])
def test_solver_config_rejects_infinite_knobs(knobs, name):
    with pytest.raises(ValueError, match=name):
        SolverConfig(**knobs)


def test_solver_config_takes_a_numpy_integer_picard_max_iters():
    tree, xi, gen, _ = box_linear_problem(3)
    sol = picard_solve(tree, xi, gen, SolverConfig(picard_max_iters=np.int64(3)))
    assert sol.diagnostics.converged and sol.diagnostics.iterations_used <= 3


@pytest.mark.parametrize("knobs", [
    {"beta": float("nan")},
    {"picard_tol": -1.0},
    {"picard_tol": float("nan")},
    {"epsilon_schedule": (1.0, float("nan"), 0.25)},
], ids=["beta_nan", "tol_negative", "tol_nan", "schedule_nan"])
def test_solver_config_rejects_nan_and_negative_knobs(knobs):
    with pytest.raises(ValueError, match="positive|nonnegative"):
        SolverConfig(**knobs)


# ---------------------------------------------------------------------------
# the frozen past summed top-down against the per-term drift
# ---------------------------------------------------------------------------

def _moving_average_of_cli(g_poly):
    return config_from_dict({
        "model": {"horizon": 1.0, "n_steps": 1, "bm_dim": 1, "dim": 1},
        "terminal": {"kind": "constant", "c": [0.0]},
        "generator": {"kind": "moving_average_z", "g_poly": g_poly, "g_bound": 0.5,
                      "alpha": {"kind": "uniform"}},
        "phi": {"kind": "zero"}, "run": {"mode": "bsvi"}}).gen


def running_mean_z():
    """F(t) = mean of z over the grid times of [0, t]: every row 0..i-1 is
    read at level i, but with the weight 1/(i + 1), which moves with i."""
    def past_z_terms(t, horizon, dt):
        steps = int(round(t / dt))
        return tuple((-(steps - j) * dt, 1.0 / (steps + 1)) for j in range(steps + 1))

    return generators.AffineDrift(past_z_terms=past_z_terms, k_root=1.0)


PREFIX_DRIFTS = {  # drift, and whether its table is column-constant at n = 8
    "uniform_constant_g": (lambda: _moving_average_of_cli([0.5]), True),
    "uniform_g_poly": (lambda: _moving_average_of_cli([0.5, -0.1]), True),
    "running_integral": (lambda: generators.running_integral_z(0.6), True),
    "delayed_z": (lambda: generators.delayed_z(0.7, 0.3), False),
    "delayed_z_lag_beyond_horizon": (lambda: generators.delayed_z(0.7, 1.0), False),
    "mixture_average": (lambda: generators.moving_average_z(
        g=lambda t: 0.5, g_bound=0.5, alpha=generators.DiscreteMixture(
            ((-0.5, 0.25), (-0.25, 0.25), (0.0, 0.5)))), False),
    "running_mean": (running_mean_z, False),
}


@pytest.mark.parametrize("n", [1, 2, 8])
@pytest.mark.parametrize("drift", sorted(PREFIX_DRIFTS))
def test_prefix_summed_past_is_the_per_term_drift_through_every_sweep(drift, n, monkeypatch):
    make, column_constant = PREFIX_DRIFTS[drift]
    gen, tree = make(), bsvi.lattice.build_tree(n, 1.0, 1)
    phi = convex.IndicatorBox(-1.0, 1.0)
    xi = terminal_clipped_linear(tree, 0.1, 1.0, -1.0, 1.0)
    summed = []
    monkeypatch.setattr(solver_mod, "frozen_prefix",
                        lambda *a: summed.append(1) or generators.frozen_prefix(*a))
    fast = solve_bsvi(tree, xi, gen, phi).per_epsilon
    table = generators.prefix_coefficients(gen, generators.past_z_rows(gen, tree))
    assert bool(summed) == (table is not None)
    # on one level no frozen row exists: every zero-instant table takes the sum;
    # at n = 2 only level 1 reads a frozen row: a lag of 0.3 reads row 0,
    # which is the rows 0..0, and so does the running mean
    assert bool(summed) == {1: True, 8: column_constant}.get(
        n, column_constant or drift in ("delayed_z", "running_mean"))
    monkeypatch.setattr(solver_mod, "prefix_coefficients", lambda gen, rows: None)
    per_term = solve_bsvi(tree, xi, gen, phi).per_epsilon
    assert len(fast) == len(per_term) == 11
    for (eps, sol), (eps_ref, ref) in zip(fast, per_term):
        assert eps == eps_ref
        assert sol.diagnostics.iterate_distances == ref.diagnostics.iterate_distances
        for proc in ("Y", "Z", "U"):
            for a, b in zip(getattr(sol, proc).values, getattr(ref, proc).values):
                assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))
