"""The contract of bsvi's value classes: construction by position or keyword
with the declared defaults, frozen classes refusing assignment and deletion,
equality and hashing by value or by identity, and the ``Name(field=value)``
repr.  Field names are spelled out here, so the contract reads the same
whatever builds the classes."""

import numpy as np
import pytest

from bsvi import analysis, cli, convex, generators, lattice, problems, solver
from bsvi.solver import DEFAULT_EPSILON_SCHEDULE


def _g(t):
    return 0.5


def _fn(t, y, z, past_y, past_z):
    return 0.5 * y


def _terms(t, horizon, dt):
    return ((-0.25, 0.3),)


GRID = lattice.TimeGrid(2, 1.0)
TREE = lattice.ScenarioTree(GRID, 1)
LEVELS = [np.zeros((1, 1)), np.ones((2, 1))]
PROC = lattice.AdaptedProcess(TREE, LEVELS)
DIAG = solver.PicardDiagnostics([0.5], [], True, 1)
SOL = solver.Solution(PROC, PROC, PROC, DIAG)
ROW = analysis.BoundAudit(1.0, 2.0, 0.5, "apriori eps=1")
BOX = convex.IndicatorBox([-1.0], [1.0])
DRIFT_FIELDS = ("a_y", "b_z", "past_z_terms", "k_root", "k_power", "alpha")

# class, field names, positional arguments, frozen, compares by value,
# and its repr (None where test_repr_of_callable_fields_and_defaults pins it)
CASES = [
    (lattice.TimeGrid, ("n_steps", "horizon"), (4, 1.0), True, True,
     "TimeGrid(n_steps=4, horizon=1.0)"),
    (lattice.ScenarioTree, ("grid", "bm_dim"), (GRID, 2), True, False,
     "ScenarioTree(grid=TimeGrid(n_steps=2, horizon=1.0), bm_dim=2)"),
    (lattice.AdaptedProcess, ("tree", "values"), (TREE, LEVELS), False, False,
     "AdaptedProcess(tree=ScenarioTree(grid=TimeGrid(n_steps=2, horizon=1.0), bm_dim=1), "
     "values=[array([[0.]]), array([[1.],\n       [1.]])])"),
    (convex.Zero, (), (), True, True, "Zero()"),
    (convex.IndicatorBox, ("lo", "hi"), ([-1.0, 0.0], [2.0, np.inf]), True, False,
     "IndicatorBox(lo=array([-1.,  0.]), hi=array([ 2., inf]))"),
    (convex.Quadratic, ("c",), (0.5,), True, True, "Quadratic(c=0.5)"),
    (convex.OneNorm, ("c",), (2.0,), True, True, "OneNorm(c=2.0)"),
    (convex.YosidaTriple, ("resolvent", "envelope", "gradient", "epsilon"),
     (np.array([0.5]), 0.25, np.array([1.0]), 0.5), True, False,
     "YosidaTriple(resolvent=array([0.5]), envelope=0.25, gradient=array([1.]), epsilon=0.5)"),
    (generators.Dirac, ("theta",), (-0.5,), True, True, "Dirac(theta=-0.5)"),
    (generators.UniformPast, (), (), True, True, "UniformPast()"),
    (generators.DiscreteMixture, ("atoms",), (((-0.5, 0.25), (0, 0.75)),), True, True,
     "DiscreteMixture(atoms=((-0.5, 0.25), (0.0, 0.75)))"),
    (generators.AffineDrift, DRIFT_FIELDS,
     (np.array([[0.5]]), np.array([[[0.25]]]), _terms, 0.3, 1, generators.Dirac(-0.25)),
     True, False, f"AffineDrift(a_y=array([[0.5]]), b_z=array([[[0.25]]]), past_z_terms="
     f"{_terms!r}, k_root=0.3, k_power=1, alpha=Dirac(theta=-0.25))"),
    (generators.CustomGenerator, ("fn", "declared_instant", "declared_delay", "alpha"),
     (_fn, 0.5, 0.0, generators.Dirac(-0.25)), True, False, None),
    (solver.SolverConfig, ("beta", "picard_tol", "picard_max_iters", "epsilon_schedule",
                           "hard_gate"), (2.0, 1e-9, 50, (1.0, 0.5), True), True, True,
     "SolverConfig(beta=2.0, picard_tol=1e-09, picard_max_iters=50, "
     "epsilon_schedule=(1.0, 0.5), hard_gate=True)"),
    (solver.WellposednessReport, ("L", "K", "beta", "growth", "uniqueness_ok",
                                  "existence_ok", "uniqueness_margin", "existence_margin"),
     (1.0, 0.5, 2.0, 3.5, False, True, -1.5, 2.5), True, True,
     "WellposednessReport(L=1.0, K=0.5, beta=2.0, growth=3.5, "
     "uniqueness_ok=False, existence_ok=True, uniqueness_margin=-1.5, existence_margin=2.5)"),
    (solver.PicardDiagnostics, ("iterate_distances", "contraction_ratios", "converged",
                                "iterations_used"), ([0.5, 0.25], [0.5], True, 2), False, True,
     "PicardDiagnostics(iterate_distances=[0.5, 0.25], contraction_ratios=[0.5], "
     "converged=True, iterations_used=2)"),
    (solver.Solution, ("Y", "Z", "U", "diagnostics", "epsilon", "frozen_past",
                       "wellposedness"), (PROC, PROC, PROC, DIAG, 0.5, None, None), False, False,
     f"Solution(Y={PROC!r}, Z={PROC!r}, U={PROC!r}, diagnostics=PicardDiagnostics("
     "iterate_distances=[0.5], contraction_ratios=[], converged=True, iterations_used=1), "
     "epsilon=0.5, frozen_past=None, wellposedness=None)"),
    (solver.BsviResult, ("solution", "per_epsilon", "phi", "tree"),
     (SOL, [(0.5, SOL)], BOX, TREE), False, False,
     f"BsviResult(solution={SOL!r}, per_epsilon=[(0.5, {SOL!r})], phi={BOX!r}, tree={TREE!r})"),
    (analysis.BoundAudit, ("lhs", "rhs_data", "empirical_constant", "context"),
     (1.0, 2.0, 0.5, "apriori eps=1"), True, True,
     "BoundAudit(lhs=1.0, rhs_data=2.0, empirical_constant=0.5, context='apriori eps=1')"),
    (analysis.AprioriAudit, ("rows", "uniform_ok", "median_constant", "y_s2", "z_h2"),
     ((ROW,), True, 0.5, (0.75,), (0.25,)), True, True,
     f"AprioriAudit(rows=({ROW!r},), uniform_ok=True, median_constant=0.5, y_s2=(0.75,), "
     "z_h2=(0.25,))"),
    (analysis.YosidaAudit, ("grad_rows", "value_rows", "gap_rows", "uniform_ok"),
     ((ROW,), (), (ROW, ROW), False), True, True,
     f"YosidaAudit(grad_rows=({ROW!r},), value_rows=(), gap_rows=({ROW!r}, {ROW!r}), "
     "uniform_ok=False)"),
    (analysis.EpsilonTableRow, ("epsilon", "epsilon_next", "dy_s2", "dz_h2", "grad_h2_sq",
                                "phi_resolvent_h1"), (1.0, 0.5, 0.25, 0.125, 3.0, 0.0),
     True, True, "EpsilonTableRow(epsilon=1.0, epsilon_next=0.5, dy_s2=0.25, dz_h2=0.125, "
     "grad_h2_sq=3.0, phi_resolvent_h1=0.0)"),
    (analysis.RateFit, ("slope", "intercept", "residual", "exact"), (0.5, -1.0, 0.0, False),
     True, True, "RateFit(slope=0.5, intercept=-1.0, residual=0.0, exact=False)"),
    (analysis.StabilityAudit, ("lhs", "rhs_data", "empirical_constant", "vacuous"),
     (0.0, 0.0, 0.0, True), True, True,
     "StabilityAudit(lhs=0.0, rhs_data=0.0, empirical_constant=0.0, vacuous=True)"),
    (analysis.ResidualReport, ("equation_residual", "subdiff_residual", "phi_integrability"),
     (1e-15, 0.0, 2.5), True, True,
     "ResidualReport(equation_residual=1e-15, subdiff_residual=0.0, phi_integrability=2.5)"),
    (cli.ProblemConfig, ("raw", "tree", "xi", "gen", "phi", "solver_config", "mode",
                         "epsilon", "out_dir", "out_format"),
     ({"a": 1}, TREE, np.zeros((2, 1)), generators.zero(), convex.Zero(),
      solver.SolverConfig(), "bsvi", None, "out", "json"), False, False, None),
]

# the fields a class fills in when a call leaves them out
DEFAULTS = {
    lattice.ScenarioTree: {"bm_dim": 1},
    generators.Dirac: {"theta": 0.0},
    generators.AffineDrift: {"a_y": None, "b_z": None,
                             "past_z_terms": generators.zero().past_z_terms,
                             "k_root": 0.0, "k_power": 0, "alpha": generators.Dirac()},
    generators.CustomGenerator: {"alpha": generators.Dirac()},
    solver.SolverConfig: {"beta": None, "picard_tol": 1e-10, "picard_max_iters": 200,
                          "epsilon_schedule": DEFAULT_EPSILON_SCHEDULE, "hard_gate": False},
    solver.PicardDiagnostics: {"iterate_distances": [], "contraction_ratios": [],
                               "converged": False, "iterations_used": 0},
    solver.Solution: {"epsilon": None, "frozen_past": None, "wellposedness": None},
}

IDS = [case[0].__name__ for case in CASES]


def _built_by(make, *args):  # the record a constructor returns, given again by its fields
    drift = make(*args)
    return (generators.AffineDrift, DRIFT_FIELDS, tuple(getattr(drift, n) for n in DRIFT_FIELDS),
            True, False, None)


# the drifts that were classes of their own, each now the AffineDrift its constructor returns
BUILT_DRIFTS = {
    "ZeroGen": _built_by(generators.zero),
    "DelayedZ": _built_by(generators.delayed_z, 0.3, 0.25),
    "RunningIntegralZ": _built_by(generators.running_integral_z, 0.3),
    "MovingAverageZ": _built_by(generators.moving_average_z, _g, 0.5, generators.UniformPast()),
}
CONTRACT_CASES, CONTRACT_IDS = CASES + list(BUILT_DRIFTS.values()), IDS + list(BUILT_DRIFTS)


def _fields(obj, names):
    return [repr(getattr(obj, n)) for n in names]


def test_every_value_class_of_the_package_is_listed():
    # the package's classes that print their fields, but for exceptions, named
    # tuples and the base the value classes share, if there is one
    found = {c for m in (analysis, cli, convex, generators, lattice, problems, solver)
             for c in vars(m).values()
             if isinstance(c, type) and c.__module__ == m.__name__
             and c.__repr__ is not object.__repr__ and not issubclass(c, (BaseException, tuple))}
    listed = {case[0] for case in CASES}
    assert found - {getattr(lattice, "Record", None)} == listed
    assert len(listed) == len(CASES) == 26 and set(DEFAULTS) <= listed


@pytest.mark.parametrize("case", CONTRACT_CASES, ids=CONTRACT_IDS)
def test_positional_and_keyword_construction_agree(case):
    cls, names, args, *_ = case
    by_position, by_keyword = cls(*args), cls(**dict(zip(names, args)))
    assert _fields(by_position, names) == _fields(by_keyword, names)
    assert list(vars(by_position))[:len(names)] == list(names)


@pytest.mark.parametrize("cls", DEFAULTS, ids=lambda c: c.__name__)
def test_defaults_hold(cls):
    names, args = next((c[1], c[2]) for c in CASES if c[0] is cls)
    required = {n: a for n, a in zip(names, args) if n not in DEFAULTS[cls]}
    obj = cls(**required)
    assert {n: getattr(obj, n) for n in DEFAULTS[cls]} == DEFAULTS[cls]


def test_default_lists_are_not_shared():
    a, b = solver.PicardDiagnostics(), solver.PicardDiagnostics()
    a.iterate_distances.append(1.0)
    assert b.iterate_distances == [] and a.contraction_ratios is not b.contraction_ratios


def test_a_missing_or_unknown_field_is_a_type_error():
    with pytest.raises(TypeError):
        analysis.BoundAudit(1.0, 2.0, 0.5)
    with pytest.raises(TypeError):
        generators.Dirac(theta=-0.5, lag=0.0)
    with pytest.raises(TypeError):
        generators.Dirac(-0.5, theta=-0.5)
    with pytest.raises(TypeError):
        lattice.TimeGrid(4, 1.0, 2)


@pytest.mark.parametrize("case", CONTRACT_CASES, ids=CONTRACT_IDS)
def test_frozen_classes_refuse_assignment_and_deletion(case):
    cls, names, args, frozen, *_ = case
    obj = cls(*args)
    name = names[0] if names else "extra"
    if frozen:
        with pytest.raises(AttributeError):
            setattr(obj, name, args[0] if args else 1.0)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert _fields(obj, names) == _fields(cls(*args), names)
    else:
        setattr(obj, name, None)
        assert getattr(obj, name) is None


@pytest.mark.parametrize("case", CONTRACT_CASES, ids=CONTRACT_IDS)
def test_equality_and_hashing(case):
    cls, names, args, frozen, by_value, _ = case
    a, b = cls(*args), cls(*args)
    lookalike = type("Lookalike", (cls,), {})(*args)
    assert a == a and a != lookalike and lookalike != a
    if not by_value:
        assert a != b and hash(a) == object.__hash__(a)
    elif frozen:
        assert a == b and not a != b
        assert hash(a) == hash(b) == hash(tuple(getattr(a, n) for n in names))
    else:
        assert a == b
        with pytest.raises(TypeError):
            hash(a)


def test_value_equality_is_field_by_field():
    assert generators.Dirac(-0.5) != generators.Dirac(-0.25)
    assert analysis.BoundAudit(1.0, 2.0, 0.5, "x") != analysis.BoundAudit(1.0, 2.0, 0.5, "y")
    assert {generators.UniformPast(), generators.UniformPast(), generators.Dirac()} \
        == {generators.UniformPast(), generators.Dirac(0.0)}
    assert solver.SolverConfig() == solver.SolverConfig(epsilon_schedule=[
        2.0 ** -k for k in range(11)])


@pytest.mark.parametrize("case", [c for c in CASES if c[5] is not None],
                         ids=[c[0].__name__ for c in CASES if c[5] is not None])
def test_repr_is_the_field_listing(case):
    cls, _, args, *_, expected = case
    assert repr(cls(*args)) == expected


def test_repr_of_callable_fields_and_defaults():
    gen = generators.moving_average_z(_g, 0.5)
    assert repr(gen) == (f"AffineDrift(a_y=None, b_z=None, past_z_terms={gen.past_z_terms!r}, "
                         "k_root=0.5, k_power=0, alpha=Dirac(theta=0.0))")
    assert repr(generators.CustomGenerator(_fn, 0.5, 0.0)) == (
        f"CustomGenerator(fn={_fn!r}, declared_instant=0.5, declared_delay=0.0, "
        "alpha=Dirac(theta=0.0))")
    cfg = cli.ProblemConfig({"a": 1}, TREE, np.zeros((2, 1)), gen, convex.Zero(),
                            solver.SolverConfig(), "bsvi", None, "out", "json")
    assert repr(cfg) == (
        f"ProblemConfig(raw={{'a': 1}}, tree={TREE!r}, xi=array([[0.],\n       [0.]]), "
        f"gen={gen!r}, phi=Zero(), solver_config={solver.SolverConfig()!r}, mode='bsvi', "
        "epsilon=None, out_dir='out', out_format='json')")
    assert repr(solver.SolverConfig()) == (
        "SolverConfig(beta=None, picard_tol=1e-10, picard_max_iters=200, epsilon_schedule="
        "(1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625, 0.0078125, 0.00390625, "
        "0.001953125, 0.0009765625), hard_gate=False)")


def test_vars_of_an_epsilon_table_row_is_its_six_fields_in_order():
    row = analysis.EpsilonTableRow(1.0, 0.5, 0.25, 0.125, 3.0, 0.0)
    assert vars(row) == {"epsilon": 1.0, "epsilon_next": 0.5, "dy_s2": 0.25,
                         "dz_h2": 0.125, "grad_h2_sq": 3.0, "phi_resolvent_h1": 0.0}
    assert list(vars(row)) == ["epsilon", "epsilon_next", "dy_s2", "dz_h2", "grad_h2_sq",
                               "phi_resolvent_h1"]


def test_post_init_still_checks_and_normalises():
    with pytest.raises(ValueError):
        generators.Dirac(0.5)
    with pytest.raises(ValueError):
        lattice.TimeGrid(n_steps=0, horizon=1.0)
    assert generators.delayed_z(0.3, 0.25).alpha == generators.Dirac(-0.25)
    # not an argument: the drift reads no delay measure
    assert generators.running_integral_z(0.3).alpha == generators.UniformPast()
    with pytest.raises(TypeError):
        generators.running_integral_z(0.3, alpha=generators.Dirac())
    assert solver.SolverConfig(epsilon_schedule=[1, 0.5]).epsilon_schedule == (1.0, 0.5)


def _half_y_plus_lagged_z(kappa, lag):  # F = y / 2 + kappa z(t - lag), lag dt when None
    return generators.AffineDrift(
        np.array([[0.5]]), np.zeros((1, 1, 1)),
        lambda t, horizon, dt: ((-(dt if lag is None else lag), kappa),), k_root=kappa)


@pytest.mark.parametrize("gen", [_half_y_plus_lagged_z(0.2, None),
                                 _half_y_plus_lagged_z(0.2, 0.25)],
                         ids=["lag_dt", "lag_quarter"])
def test_a_user_affine_drift_builds_and_solves(gen):
    tree = lattice.build_tree(4, 1.0)
    xi = 0.1 + tree.path_sums().values[-1]
    config = solver.SolverConfig(beta=1.0, epsilon_schedule=(1.0, 0.5))
    res = solver.solve_bsvi(tree, xi, gen, convex.IndicatorBox([-3.0], [3.0]), config)
    assert all(sol.diagnostics.converged for _, sol in res.per_epsilon)
    assert np.all(np.isfinite(res.solution.Y.values[0]))
