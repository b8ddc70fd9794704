import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsvi.lattice import (
    AdaptedProcess,
    TimeGrid,
    TreeSizeError,
    build_tree,
    level_moments,
)
from helpers_oracle import history_value, level_moments_einsum


def test_build_tree_one_step():
    tree = build_tree(1, 1.0, 1)
    assert tree.level_size(1) == 2
    assert np.allclose(tree.increment_patterns.ravel(), [1.0, -1.0])


def test_increment_patterns_are_built_once_and_read_only():
    tree = build_tree(3, 1.0, 2)
    assert tree.increment_patterns is tree.increment_patterns
    with pytest.raises(ValueError, match="read-only"):
        tree.increment_patterns[0, 0] = 0.0


def test_build_tree_two_steps_path_sums():
    # hand enumeration: +-sqrt(0.5) +- sqrt(0.5)
    tree = build_tree(2, 1.0, 1)
    leaves = tree.path_sums().values[-1].ravel()
    s = math.sqrt(0.5)
    assert np.allclose(sorted(leaves), sorted([2 * s, 0.0, 0.0, -2 * s]), atol=1e-15)


def test_build_tree_fractional_horizon():
    tree = build_tree(3, 0.75, 1)
    assert tree.grid.dt == pytest.approx(0.25)
    assert tree.level_size(3) == 8
    assert np.allclose(np.abs(tree.increment_patterns), 0.5)


def test_build_tree_rejects_oversize():
    with pytest.raises(TreeSizeError, match=r"\d+ nodes"):
        build_tree(23, 1.0, 1)
    with pytest.raises(TreeSizeError):
        build_tree(5, 1.0, 1, max_nodes=10)
    # the override also relaxes the cap
    build_tree(5, 1.0, 1, max_nodes=100)


def test_build_tree_refuses_exactly_the_trees_over_the_cap():
    # past 2^64 times the cap the count is not formed: the refusal must agree
    # with the exact count on both sides of that switch
    for bm_dim, n_steps, cap in itertools.product((1, 2, 3), range(1, 41),
                                                  (0, 1, 15, 2 ** 22, 2 ** 60)):
        exact = (2 ** (bm_dim * (n_steps + 1)) - 1) // (2 ** bm_dim - 1)
        if exact > cap:
            with pytest.raises(TreeSizeError, match=r"needs (over 2\^)?\d+ nodes"):
                build_tree(n_steps, 1.0, bm_dim, max_nodes=cap)
        else:
            assert build_tree(n_steps, 1.0, bm_dim, max_nodes=cap).bm_dim == bm_dim
    with pytest.raises(TreeSizeError, match=r"needs over 2\^30000000 nodes, over the cap of 15;"):
        build_tree(3, 1.0, 10 ** 7, max_nodes=np.int64(15))


def test_build_tree_bad_args():
    with pytest.raises(ValueError):
        build_tree(0, 1.0, 1)
    with pytest.raises(ValueError):
        build_tree(2, -1.0, 1)
    with pytest.raises(ValueError):
        build_tree(2, 1.0, 0)
    # a fractional size built a tree of 6.498 "leaves", a bool one of 1 step
    for n_steps, bm_dim in ((2.7, 1), (True, 1), (3, 1.5), (3, True), (3.0, 1)):
        with pytest.raises(ValueError, match="must be an integer"):
            build_tree(n_steps, 1.0, bm_dim)
    assert build_tree(np.int64(3), 1.0, np.int32(1)).grid.n_steps == 3


# a float cap of 1e6 was accepted
@pytest.mark.parametrize("max_nodes", [1e6, 100.0, True, "100"])
def test_build_tree_rejects_a_non_integer_max_nodes(max_nodes):
    with pytest.raises(ValueError, match="max_nodes must be an integer"):
        build_tree(3, 1.0, max_nodes=max_nodes)
    assert build_tree(3, 1.0, max_nodes=np.int64(15)).grid.n_steps == 3


@pytest.mark.parametrize("horizon", [math.inf, math.nan, -math.inf, 0.0])
def test_time_grid_rejects_a_nonpositive_or_nonfinite_horizon(horizon):
    # abs(inf - inf) is NaN, which passed the reproduction check
    with pytest.raises(ValueError, match="horizon must be positive and finite"):
        TimeGrid(4, horizon)


def test_time_grid_refuses_a_dt_that_does_not_reproduce_its_horizon():
    # a subnormal dt keeps too few bits for dt * n_steps to give the horizon back
    with pytest.raises(ValueError, match=r"dt \* n_steps does not reproduce horizon"):
        TimeGrid(3, 1e-320)
    assert TimeGrid(3, 1e-300).dt == 1e-300 / 3


def test_time_grid_weights_are_e_to_the_beta_t_at_every_grid_time():
    grid = TimeGrid(4, 2.0)
    assert grid.weights(0.75) == [math.exp(0.75 * i * 0.5) for i in range(5)]
    assert grid.weights(0.0) == [1.0] * 5
    # beta T = 710 would overflow e^(beta T)
    for beta in (-0.5, math.inf, math.nan, 355.0):
        with pytest.raises(ValueError, match=f"beta = {beta!r} must be finite and >= 0"):
            grid.weights(beta)


def test_conditional_expectation_examples():
    # one node: the mean of its children
    tree = build_tree(1, 1.0, 1)
    expect, _ = level_moments(tree, np.array([[1.0], [3.0]]))
    assert expect == pytest.approx(np.array([[2.0]]))
    expect, _ = level_moments(tree, np.array([[5.5], [5.5]]))
    assert expect == pytest.approx(np.array([[5.5]]))
    tree2 = build_tree(1, 1.0, 2)
    expect, _ = level_moments(tree2, np.array([[1.0, 0], [0, 1], [0, 0], [1, 1]]))
    assert np.allclose(expect, [[0.5, 0.5]])


def test_z_projection_examples():
    # one node: the projection of its children on the increment
    tree = build_tree(4, 1.0, 1)
    s = math.sqrt(tree.grid.dt)  # child 0 takes +s, child 1 takes -s
    # children equal to their own increment recover Z = 1
    _, z = level_moments(tree, np.array([[s], [-s]]))
    assert z == pytest.approx(np.array([[[1.0]]]))
    # constants are orthogonal to the increment
    _, z = level_moments(tree, np.array([[7.0], [7.0]]))
    assert z == pytest.approx(np.array([[[0.0]]]))
    # asymmetric children: (2 dt + 0) / (2 dt) = 1
    _, z = level_moments(tree, np.array([[2 * s], [0.0]]))
    assert z == pytest.approx(np.array([[[1.0]]]))


@pytest.fixture
def small_process():
    tree = build_tree(3, 0.75, 1)
    rng = np.random.default_rng(7)
    values = [rng.normal(size=(tree.level_size(i), 1)) for i in range(4)]
    return tree, AdaptedProcess(tree, values)


def test_history_value_extension(small_process):
    tree, proc = small_process
    y_neg = history_value(proc, 2, 1, -0.3, "y")
    assert np.array_equal(y_neg, proc.values[0][0])
    z_neg = history_value(proc, 2, 1, -0.3, "z")
    assert np.array_equal(z_neg, np.zeros(1))


def test_history_value_identity_and_floor(small_process):
    tree, proc = small_process
    dt = tree.grid.dt
    assert np.array_equal(history_value(proc, 2, 3, 2 * dt, "y"), proc.values[2][3])
    # off-grid query floors to the level below
    assert np.array_equal(history_value(proc, 2, 3, 1.6 * dt, "y"), proc.values[1][1])


def test_history_value_rejects_future(small_process):
    tree, proc = small_process
    with pytest.raises(ValueError, match="adaptedness"):
        history_value(proc, 1, 0, 0.6, "y")


def test_history_constant_on_subtree(small_process):
    tree, proc = small_process
    dt = tree.grid.dt
    vals = [history_value(proc, 3, node, 1 * dt, "y") for node in range(4)]
    # nodes 0..3 share the level-1 ancestor 0
    for v in vals:
        assert np.array_equal(v, proc.values[1][0])


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_tower_property(seed):
    tree = build_tree(3, 1.0, 1)
    rng = np.random.default_rng(seed)
    leaves = rng.normal(size=(8, 1))
    level = leaves
    for _ in (2, 1, 0):
        level, _z = level_moments(tree, level)
    assert abs(level[0, 0] - leaves.mean()) < 1e-12


def test_martingale_check():
    tree = build_tree(4, 2.0, 1)
    w = tree.path_sums()
    for i in range(4):
        expect, _ = level_moments(tree, w.values[i + 1])
        assert np.array_equal(expect, w.values[i])


@settings(max_examples=50, deadline=None)
@given(st.floats(-10, 10), st.floats(-10, 10))
def test_z_projection_recovers_linear_coefficient(a, b):
    tree = build_tree(2, 1.0, 1)
    s = math.sqrt(tree.grid.dt)
    _, z = level_moments(tree, np.array([[a + b * s], [a - b * s]]))
    assert abs(z[0, 0, 0] - b) < 1e-12


def _moment_inputs(rows, m):
    """Random values over 1e-5..1e5 scales, all -0.0, and a mix of signed
    zeros, +-1 and +-1e-300."""
    rng = np.random.default_rng(rows * 10 + m)
    scaled = rng.standard_normal((rows, m)) * 10.0 ** rng.uniform(-5, 5, (rows, m))
    mixed = rng.choice([0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300], size=(rows, m))
    return {"scaled": scaled, "negative_zero": np.full((rows, m), -0.0), "mixed": mixed}


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("bm_dim", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_level_moments_match_the_einsum_oracle(bm_dim, m):
    tree = build_tree(4, 0.7, bm_dim)
    for kind, y_next in _moment_inputs(tree.level_size(4), m).items():
        expect, z = level_moments(tree, y_next)
        want_expect, want_z = level_moments_einsum(tree, y_next)
        if bm_dim == 3 and m == 1:
            # numpy's pairwise sum of eight children adds in another order
            assert np.allclose(expect, want_expect, rtol=1e-15), kind
            assert np.allclose(z, want_z, rtol=1e-15), kind
        else:
            assert _same_bits(expect, want_expect), kind
            assert _same_bits(z, want_z), kind


def test_adapted_process_shape_validation():
    tree = build_tree(2, 1.0, 1)
    with pytest.raises(ValueError, match="level 1"):
        AdaptedProcess(tree, [np.zeros((1, 1)), np.zeros((3, 1))])
