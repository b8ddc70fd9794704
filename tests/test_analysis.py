import gc
import math
import statistics
import struct
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bsvi
from bsvi import convex, generators
from bsvi.analysis import (
    EpsilonTableRow,
    _median,
    _uniform_ok,
    apriori_audit,
    default_subdiff_probes,
    epsilon_rate_fit,
    path_norm,
    schedule_audits,
    solution_residuals,
    stability_audit,
    yosida_audit,
)
from bsvi.cli import parse_config
from bsvi.lattice import AdaptedProcess, build_tree
from bsvi.problems import (
    box_linear_problem,
    terminal_constant,
    terminal_linear,
)
from bsvi.solver import SolverConfig, picard_solve, prox_step_solve, solve_bsvi
from helpers_problems import delayed_box_problem, quadratic_problem

pytestmark = pytest.mark.filterwarnings("ignore:well-posedness gate failed")


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def constant_process(tree, value, levels=None):
    levels = levels if levels is not None else tree.grid.n_steps + 1
    return AdaptedProcess(tree, [np.full((tree.level_size(i), 1), value)
                                 for i in range(levels)])


def test_path_norms_zero_and_constant():
    tree = build_tree(4, 1.0, 1)
    zeros = constant_process(tree, 0.0)
    assert path_norm(zeros, tree, "s2") == 0.0 and path_norm(zeros, tree, "h2") == 0.0
    ones = constant_process(tree, 1.0)
    assert path_norm(ones, tree, "s2") == pytest.approx(1.0)
    assert path_norm(ones, tree, "h2") == pytest.approx(1.0)


def test_path_norms_brownian_two_steps():
    # hand enumeration of the four paths: h2 = 0.5*(E W1^2 + E W2^2) = 0.75,
    # s2 = mean of pathwise max(0, 0.5, W2^2) = (2 + 0.5 + 0.5 + 2)/4
    tree = build_tree(2, 1.0, 1)
    w = tree.path_sums()
    assert path_norm(w, tree, "h2") == pytest.approx(0.75, abs=1e-12)
    assert path_norm(w, tree, "s2") == pytest.approx(1.25, abs=1e-12)


def leaf_enumeration_norms(process, tree, beta):
    """Independent oracle: explicit loop over every leaf path."""
    n = tree.grid.n_steps
    dt = tree.grid.dt
    last = len(process.values) - 1
    sups = []
    for leaf in range(tree.level_size(last)):
        best = 0.0
        for i in range(last + 1):
            node = leaf >> (tree.bm_dim * (last - i))
            val = process.values[i][node]
            best = max(best, math.exp(beta * i * dt) * float(np.sum(val ** 2)))
        sups.append(best)
    s2 = float(np.mean(sups))
    levels = range(1, n + 1) if last == n else range(last + 1)
    h2 = 0.0
    for i in levels:
        h2 += dt * math.exp(beta * i * dt) * float(
            np.mean(np.sum(process.values[i] ** 2, axis=tuple(range(1, process.values[i].ndim)))))
    return s2, h2


@pytest.mark.parametrize("beta", [0.0, 1.3])
def test_path_norms_against_leaf_enumeration(beta):
    tree = build_tree(4, 0.8, 1)
    rng = np.random.default_rng(17)
    proc = AdaptedProcess(tree, [rng.normal(size=(tree.level_size(i), 2))
                                 for i in range(5)])
    zproc = AdaptedProcess(tree, [rng.normal(size=(tree.level_size(i), 2, 1))
                                  for i in range(4)])
    for p in (proc, zproc):
        s2, h2 = leaf_enumeration_norms(p, tree, beta)
        assert path_norm(p, tree, "s2", beta) == pytest.approx(s2, abs=1e-12)
        assert path_norm(p, tree, "h2", beta) == pytest.approx(h2, abs=1e-12)


# ---------------------------------------------------------------------------
# rate fit
# ---------------------------------------------------------------------------

def synthetic_table(fn):
    eps = [2.0 ** -k for k in range(8)]
    return [EpsilonTableRow(epsilon=a, epsilon_next=b, dy_s2=fn(a + b),
                            dz_h2=0.0, grad_h2_sq=0.0, phi_resolvent_h1=0.0)
            for a, b in zip(eps, eps[1:])]


def distance_table(eps, dists):
    return [EpsilonTableRow(epsilon=a, epsilon_next=b, dy_s2=d, dz_h2=0.0, grad_h2_sq=0.0,
                            phi_resolvent_h1=0.0) for a, b, d in zip(eps, eps[1:], dists)]


def assert_fit_matches_polyfit(table):
    """The closed-form line against np.polyfit's and the RMS residual of its
    points, to 1e-12 relative; a value of rounding size (the slope through equal
    distances, where np.polyfit returns ~1e-14) compares to 1e-12 absolute."""
    pts = [(math.log(r.epsilon + r.epsilon_next), math.log(r.dy_s2 + r.dz_h2))
           for r in table if r.dy_s2 + r.dz_h2 > 1e-14]
    xs, ys = (np.asarray(c) for c in zip(*pts))
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = float(np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2)))
    fit = epsilon_rate_fit(table)
    assert (fit.slope, fit.intercept, fit.residual) == pytest.approx(
        (slope, intercept, resid), rel=1e-12, abs=1e-12)


def test_rate_fit_recovers_planted_slopes():
    fit = epsilon_rate_fit(synthetic_table(lambda s: math.sqrt(s)))
    assert fit.slope == pytest.approx(0.5, abs=1e-12)
    assert fit.residual == pytest.approx(0.0, abs=1e-12)
    fit = epsilon_rate_fit(synthetic_table(lambda s: 3.0 * s))
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    for planted in (math.sqrt, lambda s: 3.0 * s,
                    lambda s: 0.1 * s ** 0.75 * (1 + 0.2 * math.sin(1 / s))):
        assert_fit_matches_polyfit(synthetic_table(planted))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 80), min_size=5, max_size=11, unique=True),
       st.lists(st.floats(1e-8, 1e2), min_size=10, max_size=10))
def test_rate_fit_matches_polyfit_on_decreasing_schedules(quarter_octaves, dists):
    # strictly decreasing eps = 2^(-k/4), 4 to 10 rows of any positive distances
    assert_fit_matches_polyfit(distance_table(
        [2.0 ** (-k / 4) for k in sorted(quarter_octaves)], dists))


def test_rate_fit_exact_and_underdetermined():
    fit = epsilon_rate_fit(synthetic_table(lambda s: 0.0))
    assert fit.exact
    table = synthetic_table(lambda s: 0.0)[:3] + synthetic_table(lambda s: s)[:2]
    with pytest.raises(ValueError, match="at least 4"):
        epsilon_rate_fit(table)
    # an empty table (a one-entry schedule) is no evidence of an exact solution
    with pytest.raises(ValueError, match="at least 4 nonzero distances, got 0"):
        epsilon_rate_fit([])
    # a non-finite distance refuses: inf made a NaN fit and NaN was dropped as if zero
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite distances"):
            epsilon_rate_fit(distance_table([2.0 ** -k for k in range(6)],
                                            [1.0, 0.5, 0.25, bad, 0.1]))
    # one eps + delta throughout has no slope (np.polyfit warned and fitted one)
    flat = distance_table([0.5, 0.25] * 3, [1.0, 0.5, 0.25, 0.1, 0.05])
    with pytest.raises(ValueError, match="at least 2 distinct eps"):
        epsilon_rate_fit(flat)


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------

def test_stability_identical_data_is_vacuous():
    tree = build_tree(3, 1.0, 1)
    xi = terminal_linear(tree, 0.0, 1.0)
    gen = generators.zero()
    sol = picard_solve(tree, xi, gen)
    audit = stability_audit(sol, sol, xi, xi, gen, gen, tree)
    assert audit.vacuous
    assert audit.lhs == 0.0


def test_stability_drift_term_is_the_integral_of_the_squared_drift_gap():
    # constant drifts on xi = 0.3: Y_a - Y_b = (T - t)(c_a - c_b) and Z = 0, so
    # lhs (the S^2 sup, at t = 0) and rhs (sum of dt (c_a - c_b)^2) are both
    # T (c_a - c_b)^2, exactly at these values
    tree = build_tree(2, 1.0, 1)
    xi = np.full(4, 0.3)
    gen_a, gen_b = (generators.CustomGenerator(
        fn=lambda t, y, z, py, pz, c=c: np.full_like(y, c), declared_instant=0.0,
        declared_delay=0.0) for c in (0.5, -0.25))
    sol_a, sol_b = picard_solve(tree, xi, gen_a), picard_solve(tree, xi, gen_b)
    audit = stability_audit(sol_a, sol_b, xi, xi, gen_a, gen_b, tree)
    assert audit.rhs_data == audit.lhs == 1.0 * (0.5 - -0.25) ** 2 == 0.5625
    assert audit.empirical_constant == 1.0 and not audit.vacuous


@pytest.mark.parametrize("beta", [0.0, 0.8])
def test_stability_martingale_shift_constant(beta):
    # shifting the terminal by delta shifts Y by delta and leaves Z alone:
    # the empirical constant is exactly exp(beta * T)
    tree = build_tree(3, 0.75, 1)
    gen = generators.zero()
    xi = terminal_linear(tree, 0.0, 1.0)
    delta = 0.37
    xi_shift = xi + delta
    sol_a = picard_solve(tree, xi, gen)
    sol_b = picard_solve(tree, xi_shift, gen)
    audit = stability_audit(sol_a, sol_b, xi, xi_shift, gen, gen, tree, beta)
    assert audit.empirical_constant == pytest.approx(
        math.exp(beta * tree.grid.horizon), abs=1e-10)


def test_stability_constant_stable_under_dt_halving():
    consts = []
    for n_steps in (2, 4):
        tree = build_tree(n_steps, 0.1, 1)
        lag = 0.05  # a grid point at both resolutions

        def drift(t, y, z, past_y, past_z):
            return -y + 0.3 * past_z(-lag)[..., 0]

        gen = generators.CustomGenerator(fn=drift, declared_instant=1.0,
                                         declared_delay=0.09,
                                         alpha=generators.Dirac(-lag))
        phi = convex.Quadratic(1.0)
        w_T = tree.path_sums().values[-1]
        xi = 0.2 + 0.5 * w_T
        xi_pert = xi + 0.05 * np.sin(3.0 * w_T)
        config = SolverConfig(picard_tol=1e-12)
        sol_a = picard_solve(tree, xi, gen, config, phi=phi, epsilon=0.25)
        sol_b = picard_solve(tree, xi_pert, gen, config, phi=phi, epsilon=0.25)
        audit = stability_audit(sol_a, sol_b, xi, xi_pert, gen, gen, tree)
        consts.append(audit.empirical_constant)
    assert consts[1] <= 2.0 * consts[0]
    assert consts[0] <= 2.0 * consts[1]


def test_stability_drift_perturbation_is_finite():
    tree = build_tree(3, 0.75, 1)
    xi = terminal_linear(tree, 0.1, 1.0)
    gen_a = generators.linear_scalar(0.4, 0.0)
    gen_b = generators.linear_scalar(0.4, 0.2)
    sol_a = picard_solve(tree, xi, gen_a)
    sol_b = picard_solve(tree, xi, gen_b)
    audit = stability_audit(sol_a, sol_b, xi, xi, gen_a, gen_b, tree)
    assert not audit.vacuous
    assert np.isfinite(audit.empirical_constant)
    assert audit.lhs > 0


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------

def test_residuals_zero_phi():
    tree = build_tree(4, 1.0, 1)
    xi = terminal_linear(tree, 0.2, 1.0)
    gen = generators.linear_scalar(0.3, 0.1)
    sol = picard_solve(tree, xi, gen)
    rep = solution_residuals(sol, xi, gen, convex.Zero(), tree)
    assert rep.equation_residual <= 1e-12
    assert rep.subdiff_residual <= 1e-12
    assert rep.phi_integrability == 0.0


@pytest.mark.parametrize("builder", [box_linear_problem, quadratic_problem,
                                     delayed_box_problem])
def test_residuals_penalized_and_prox(builder):
    tree, xi, gen, phi = builder()
    pen = picard_solve(tree, xi, gen, phi=phi, epsilon=2.0 ** -10)
    rep = solution_residuals(pen, xi, gen, phi, tree)
    assert rep.equation_residual <= 1e-12
    assert rep.subdiff_residual <= 1e-8
    assert np.isfinite(rep.phi_integrability)
    pr = prox_step_solve(tree, xi, gen, phi)
    rep = solution_residuals(pr, xi, gen, phi, tree)
    assert rep.equation_residual <= 1e-12
    assert rep.subdiff_residual <= 1e-10


from helpers_oracle import solution_residuals_per_level

COLUMN_CONSTANT = {
    "uniform_moving_average": generators.moving_average_z(g=lambda t: 0.5, g_bound=0.5,
                                                        alpha=generators.UniformPast()),
    "running_integral": generators.running_integral_z(kappa=0.4),
}


def _residual_bits(report):
    return [float.hex(v) for v in vars(report).values()]


def _prefix_calls(monkeypatch):
    calls = []
    real = bsvi.analysis.frozen_prefix

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(bsvi.analysis, "frozen_prefix", counted)
    return calls


@pytest.mark.parametrize("case", sorted(COLUMN_CONSTANT))
def test_residual_audit_reads_a_column_constant_past_through_its_prefix(case, monkeypatch):
    # every schedule entry, the prox solve and the classical solve: the
    # prefix path and one batched probe check give the per-term,
    # per-level audit's bits
    tree, xi, _, phi = box_linear_problem(6)
    gen = COLUMN_CONSTANT[case]
    runs = [(s, phi) for _, s in solve_bsvi(tree, xi, gen, phi).per_epsilon]
    runs += [(prox_step_solve(tree, xi, gen, phi), phi),
             (picard_solve(tree, xi, gen), convex.Zero())]
    calls = _prefix_calls(monkeypatch)
    for sol, run_phi in runs:
        want = solution_residuals_per_level(sol, xi, gen, run_phi, tree)
        assert _residual_bits(solution_residuals(sol, xi, gen, run_phi, tree)) == \
            _residual_bits(want)
        assert want.equation_residual <= 1e-12
    assert len(calls) == len(runs)


def test_residual_audit_sums_a_custom_past_term_by_term(monkeypatch):
    tree, xi, gen, phi = delayed_box_problem(6)
    sol = picard_solve(tree, xi, gen, phi=phi, epsilon=0.25)
    calls = _prefix_calls(monkeypatch)
    got = solution_residuals(sol, xi, gen, phi, tree)
    assert _residual_bits(got) == _residual_bits(
        solution_residuals_per_level(sol, xi, gen, phi, tree))
    assert not calls


class _UndeclaredBox(convex.IndicatorBox):
    indicator = False  # the same box, its value evaluated as any penalty's


@pytest.mark.parametrize("run", ["penalized", "prox"])
def test_residual_audit_evaluates_an_indicator_once_on_its_points(run, monkeypatch):
    # an indicator is 0 at every prox point: its mass is 0.0 without a value
    # call on the J_eps(Y) rows, which only the domain check evaluates; the
    # same box as a non-indicator is evaluated there once too, for its mass,
    # whose values the domain check reads, and the report keeps the same bits
    tree, xi, gen, phi = box_linear_problem(8)
    sol = picard_solve(tree, xi, gen, phi=phi, epsilon=2.0 ** -4) if run == "penalized" \
        else prox_step_solve(tree, xi, gen, phi)
    rows, real = [], convex.IndicatorBox.value
    monkeypatch.setattr(convex.IndicatorBox, "value",
                        lambda self, y: rows.append(len(y)) or real(self, y))
    calls = {}
    for spec in (phi, _UndeclaredBox(phi.lo, phi.hi)):
        rows.clear()
        bits = _residual_bits(solution_residuals(sol, xi, gen, spec, tree))
        calls[spec.indicator] = rows.count(2 ** 8 - 1), bits
    assert calls[True][0] == 1 and calls[False][0] == 1
    assert calls[True][1] == calls[False][1]
    assert solution_residuals(sol, xi, gen, phi, tree).phi_integrability == 0.0


def test_residual_audit_refuses_an_indicator_point_outside_its_domain():
    # the mass no longer evaluates phi, but the domain check still does
    tree, xi, gen, phi = box_linear_problem(4)
    sol = prox_step_solve(tree, xi, gen, phi)
    sol.Y.values[1] = np.full_like(sol.Y.values[1], 2.0)
    with pytest.raises(ValueError, match="domain of phi"):
        solution_residuals(sol, xi, gen, phi, tree)


def test_default_probe_set_contains_corners_and_origin():
    tree, xi, gen, phi = box_linear_problem(3)
    probes = default_subdiff_probes(phi, xi)
    stacked = np.stack(probes)
    assert any(np.allclose(p, 0.0) for p in stacked)
    assert any(np.allclose(p, phi.lo) for p in stacked)
    assert any(np.allclose(p, phi.hi) for p in stacked)


from helpers_oracle import subdiff_probes_pairwise

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.yaml"))


def _assert_same_probes(got, want):
    assert [(p.shape, p.dtype, p.tobytes()) for p in got] == \
        [(p.shape, p.dtype, p.tobytes()) for p in want]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_probe_dedupe_matches_the_pairwise_one_on_shipped_configs(config):
    cfg = parse_config(config)
    _assert_same_probes(default_subdiff_probes(cfg.phi, cfg.xi),
                        subdiff_probes_pairwise(cfg.phi, cfg.xi))


@pytest.mark.parametrize("cap", [1, 2, 3, 4, 5, 48, 100])
def test_probes_of_one_prox_are_the_row_by_row_ones_at_any_cap(cap):
    # the cap counts duplicates, and at least one terminal row always enters
    xi = np.array([[0.5], [2.0], [0.5], [-3.0], [0.25], [-0.0], [1.5]])
    for phi in (convex.IndicatorBox(-1.0, 1.0), convex.OneNorm(0.5), convex.Zero()):
        _assert_same_probes(default_subdiff_probes(phi, xi, cap),
                            subdiff_probes_pairwise(phi, xi, cap))


def test_probe_dedupe_takes_a_negative_zero_for_the_origin():
    # -0.0 equals 0.0 under array_equal: the terminal's -0.0 rows add no probe
    xi = np.array([[-0.0], [0.5], [0.0], [-0.0], [1.5], [0.5], [-1.5], [-0.0]])
    for phi in (convex.IndicatorBox(-1.0, 1.0), convex.Quadratic(1.0), convex.Zero()):
        got = default_subdiff_probes(phi, xi)
        _assert_same_probes(got, subdiff_probes_pairwise(phi, xi))
        assert sum(not p.any() for p in got) == 1


# ---------------------------------------------------------------------------
# schedule audits (smoke level; the full verdicts run in the acceptance suite)
# ---------------------------------------------------------------------------

def test_apriori_audit_epsilon_free_when_phi_inactive():
    tree = build_tree(3, 1.0, 1)
    xi = terminal_linear(tree, 0.0, 1.0)
    gen = generators.zero()
    config = SolverConfig(epsilon_schedule=(1.0, 0.25, 0.0625))
    res = solve_bsvi(tree, xi, gen, convex.Zero(), config)
    audit = apriori_audit(res.per_epsilon, xi, gen, tree)
    consts = [r.empirical_constant for r in audit.rows]
    assert audit.uniform_ok
    assert max(consts) == pytest.approx(min(consts))


def test_apriori_audit_vacuous_on_zero_problem():
    tree = build_tree(2, 1.0, 1)
    xi = terminal_constant(tree, 0.0)
    gen = generators.zero()
    config = SolverConfig(epsilon_schedule=(1.0, 0.5))
    res = solve_bsvi(tree, xi, gen, convex.Zero(), config)
    audit = apriori_audit(res.per_epsilon, xi, gen, tree)
    assert audit.uniform_ok
    assert all(r.lhs == 0.0 for r in audit.rows)


def test_yosida_audit_zero_phi_is_identically_zero():
    tree = build_tree(3, 1.0, 1)
    xi = terminal_linear(tree, 0.0, 1.0)
    gen = generators.zero()
    config = SolverConfig(epsilon_schedule=(1.0, 0.25, 0.0625))
    res = solve_bsvi(tree, xi, gen, convex.Zero(), config)
    audit = yosida_audit(res.per_epsilon, convex.Zero(), xi, gen, tree)
    assert audit.uniform_ok
    for row in audit.grad_rows + audit.value_rows + audit.gap_rows:
        assert row.lhs == 0.0


def test_yosida_audit_quadratic_gap_constant():
    # with phi = c|y|^2/2 the resolvent gap is eps*c*y/(1+eps*c): sanity-check
    # the audited value against the closed form at one epsilon
    tree = build_tree(2, 1.0, 1)
    xi = terminal_constant(tree, 1.5)
    gen = generators.zero()
    phi = convex.Quadratic(2.0)
    eps = 0.5
    sol = picard_solve(tree, xi, gen, phi=phi, epsilon=eps)
    audit = yosida_audit([(eps, sol)], phi, xi, gen, tree)
    shrink = eps * 2.0 / (1 + eps * 2.0)
    expected = max(float(np.mean((shrink * y) ** 2)) for y in sol.Y.values)
    assert audit.gap_rows[0].lhs == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# refused arguments and non-finite solutions
# ---------------------------------------------------------------------------

def test_a_nan_in_u_fails_both_residual_checks():
    tree, xi, gen, phi = box_linear_problem(4)
    sol = prox_step_solve(tree, xi, gen, phi)
    clean = solution_residuals(sol, xi, gen, phi, tree)
    assert clean.equation_residual <= 1e-12 and clean.subdiff_residual <= 1e-10
    sol.U.values[2] = sol.U.values[2].copy()
    sol.U.values[2][1, 0] = np.nan
    rep = solution_residuals(sol, xi, gen, phi, tree)
    # the builtin max drops a NaN met after a finite value; neither may pass
    assert math.isnan(rep.equation_residual)
    assert math.isnan(rep.subdiff_residual)


def test_path_norm_refuses_an_unknown_statistic():
    tree = build_tree(3, 1.0, 1)
    with pytest.raises(ValueError, match="H2"):
        path_norm(constant_process(tree, 1.0), tree, "H2")


@pytest.mark.parametrize("beta", [math.nan, -0.5, math.inf, 1000.0])
def test_weighted_audits_refuse_a_beta_without_finite_weights(beta):
    # NaN once gave a NaN lhs over constants 0.0 and uniform_ok=True, and an
    # overflowing e^(beta T) a bare OverflowError from math.exp
    tree, xi, gen, phi = box_linear_problem(4)
    res = solve_bsvi(tree, xi, gen, phi, SolverConfig(epsilon_schedule=(1.0, 0.5)))
    sol = res.solution
    for audit in (lambda: path_norm(sol.Y, tree, "s2", beta),
                  lambda: path_norm(sol.Z, tree, "h2", beta),
                  lambda: apriori_audit(res.per_epsilon, xi, gen, tree, beta),
                  lambda: yosida_audit(res.per_epsilon, phi, xi, gen, tree, beta),
                  lambda: schedule_audits(res.per_epsilon, phi, xi, gen, tree, beta),
                  lambda: stability_audit(sol, sol, xi, xi, gen, gen, tree, beta)):
        with pytest.raises(ValueError, match="beta"):
            audit()


def test_schedule_audits_refuse_an_unknown_part():
    tree, xi, gen, phi = box_linear_problem(3)
    res = solve_bsvi(tree, xi, gen, phi, SolverConfig(epsilon_schedule=(1.0, 0.5)))
    with pytest.raises(ValueError, match="tabel"):
        schedule_audits(res.per_epsilon, phi, xi, gen, tree, parts=("tabel",))


def test_schedule_audits_keep_no_solution_alive_after_they_return():
    # with the cyclic gc off, a level the pass kept in a reference cycle would outlive
    # the solution it belongs to
    tree, xi, gen, phi = box_linear_problem(6)
    gc.disable()
    try:
        res = solve_bsvi(tree, xi, gen, phi)
        level = weakref.ref(res.per_epsilon[3][1].U.values[2])
        schedule_audits(res.per_epsilon, phi, xi, gen, tree)
        del res
        assert level() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# the uniformity verdict: every constant at most factor x their median
# ---------------------------------------------------------------------------

def _float_bits(x) -> bytes:
    return struct.pack("<d", x)


@pytest.mark.parametrize("count", range(1, 10))
def test_median_is_the_statistics_median_bitwise(count):
    rng = np.random.default_rng(count)
    for values in (rng.normal(size=count).tolist(), list(rng.normal(size=count)),
                   [0.1 * k for k in rng.integers(0, 3, size=count)],
                   [-0.0, 0.0, math.inf][:count] + [1.0] * max(0, count - 3)):
        for order in (values, values[::-1]):  # sorted is stable: -0.0 and 0.0 keep their order
            assert _float_bits(_median(order)) == _float_bits(statistics.median(order))


# below the largest constant: the middle one of 5, or the mean of the middle two of 6
@pytest.mark.parametrize("rest, med", [([1.3, 0.7, 1.1, 0.9], 1.1),
                                       ([1.3, 0.7, 1.1, 0.9, 1.2], (1.1 + 1.2) / 2)],
                         ids=["odd", "even"])
@pytest.mark.parametrize("factor", [2.0, 4.0])
def test_uniform_ok_turns_exactly_past_factor_times_the_median(rest, med, factor):
    bound = factor * med
    for largest, ok in ((bound, True), (np.nextafter(bound, 0.0), True),
                        (np.nextafter(bound, math.inf), False)):
        constants = rest + [float(largest)]
        assert statistics.median(constants) == med
        assert _uniform_ok(constants, factor) is ok
        assert _uniform_ok(constants[::-1], factor) is ok


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_uniform_ok_fails_a_nonfinite_constant(bad):
    # without the finiteness check [0.0, bad] passes: max() keeps 0.0 over a later NaN,
    # and an infinite top is within any factor of the infinite median it makes
    assert not _uniform_ok([1.0, bad, 1.0], 2.0)
    assert not _uniform_ok([0.0, bad], 4.0)
