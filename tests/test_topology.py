"""Tree topologies: coverage bound, explicit builds, random generation."""

import numpy as np
import pytest

from plcmac import NetworkTree, generate_tree, min_first_layer, single_layer, tree_from_parents
from plcmac.topology import CCO_ID


@pytest.mark.parametrize(
    "n,k,expected",
    [
        (64, 6, 2),    # perfect power: float pow would give 1.9999...
        (1200, 6, 4),
        (650, 6, 3),
        (200, 6, 3),
        (50, 6, 2),
        (5, 1, 5),
        (1, 1, 1),
        (1, 6, 1),
    ],
)
def test_min_first_layer_is_the_integer_root_ceiling(n, k, expected):
    assert min_first_layer(n, k) == expected
    # defining property of ceil(n ** (1/k))
    m = min_first_layer(n, k)
    assert m**k >= n
    assert m == 1 or (m - 1) ** k < n


def test_min_first_layer_validation():
    with pytest.raises(ValueError):
        min_first_layer(0, 6)
    with pytest.raises(ValueError):
        min_first_layer(10, 0)


def test_single_layer_is_a_star():
    tree = single_layer(5)
    tree.validate(max_layers=6)
    assert tree.max_depth == 1
    assert tree.children[CCO_ID] == (1, 2, 3, 4, 5)
    assert all(tree.parent[i] == CCO_ID for i in range(1, 6))
    assert list(tree.children) == [CCO_ID]  # the CCO is the only coordinator


def test_tree_from_parents_builds_layers_and_roles():
    tree = tree_from_parents({1: 0, 2: 0, 3: 1, 4: 1, 5: 3})
    tree.validate()
    assert tree.max_depth == 3
    assert tree.parent == (CCO_ID, 0, 0, 1, 1, 3)
    assert tree.depth == (0, 1, 1, 2, 2, 3)
    assert tree.children == {0: (1, 2), 1: (3, 4), 3: (5,)}  # 1 and 3 are PCOs, 2 is a leaf STA
    assert tree.n_sta == 5


def test_tree_from_parents_rejects_gappy_ids():
    with pytest.raises(ValueError):
        tree_from_parents({1: 0, 3: 1})


def test_tree_from_parents_accepts_parents_with_larger_ids():
    tree = tree_from_parents({1: 2, 2: 0, 3: 4, 4: 1, 5: 2})
    tree.validate()
    assert tree.depth == (0, 2, 1, 4, 3, 2)
    layers = [[node for node, d in enumerate(tree.depth) if d == k] for k in range(tree.max_depth + 1)]
    assert layers == [[0], [2], [1, 5], [4], [3]]
    assert tree.children == {2: (1, 5), 0: (2,), 4: (3,), 1: (4,)}


@pytest.mark.parametrize("parent", [{1: 2, 2: 1}, {1: 1}, {1: 0, 2: 3, 3: 4, 4: 2}])
def test_tree_from_parents_rejects_cycles(parent):
    with pytest.raises(ValueError, match="cycle"):
        tree_from_parents(parent)


def test_tree_from_parents_rejects_unknown_parents():
    with pytest.raises(ValueError, match="unknown parent 7"):
        tree_from_parents({1: 0, 2: 7})


def test_edge_list_is_sorted_by_child():
    tree = tree_from_parents({1: 0, 2: 1, 3: 0})
    assert tree.to_edge_list() == "1 0 1\n2 1 2\n3 0 1"


def test_validate_catches_corrupt_depth():
    good = tree_from_parents({1: 0, 2: 1})
    broken = NetworkTree(good.parent, (*good.depth[:2], 3))
    with pytest.raises(ValueError):
        broken.validate()


@pytest.mark.parametrize(
    "parent,depth",
    [
        ((0, 0, 3), (0, 1, 2)),  # unknown parent
        ((0, 0, -1), (0, 1, 2)),  # negative ids do not wrap around
        ((1, 0), (1, 2)),  # the CCO must be the root
        ((0, 0), (0, 1, 2)),  # one depth per node
    ],
)
def test_validate_catches_malformed_tuples(parent, depth):
    with pytest.raises(ValueError):
        NetworkTree(parent, depth).validate()


def test_children_and_n_sta_are_derived_from_parent():
    tree = NetworkTree((0, 0, 1, 0, 1), (0, 1, 2, 1, 2))
    tree.validate()
    assert tree.n_sta == 4
    assert tree.children == {0: (1, 3), 1: (2, 4)}
    assert tree.max_depth == 2
    assert tree == tree_from_parents({1: 0, 2: 1, 3: 0, 4: 1})


def test_validate_enforces_the_depth_cap():
    tree = tree_from_parents({1: 0, 2: 0, 3: 1})
    tree.validate(max_layers=2)
    with pytest.raises(ValueError):
        tree.validate(max_layers=1)


def test_validate_enforces_the_first_layer_bound():
    # a bare chain cannot cover 3 STAs in 3 layers starting from 1 branch
    chain = tree_from_parents({1: 0, 2: 1, 3: 2})
    with pytest.raises(ValueError):
        chain.validate(max_layers=3)


def test_generated_trees_satisfy_all_invariants():
    for seed in range(25):
        rng = np.random.default_rng(seed)
        tree = generate_tree(60, 6, rng)
        tree.validate(max_layers=6)
        assert tree.depth.count(1) == len(tree.children[CCO_ID]) >= min_first_layer(60, 6)
        assert tree.max_depth <= 6
        assert (tree.parent[CCO_ID], tree.depth[CCO_ID], tree.n_sta) == (CCO_ID, 0, 60)


def test_generation_is_deterministic_per_seed():
    a = generate_tree(40, 4, np.random.default_rng(123))
    b = generate_tree(40, 4, np.random.default_rng(123))
    assert a.to_edge_list() == b.to_edge_list()
    c = generate_tree(40, 4, np.random.default_rng(124))
    assert a.to_edge_list() != c.to_edge_list()


def test_generation_covers_deep_and_shallow_shapes():
    depths = {generate_tree(60, 6, np.random.default_rng(s)).max_depth for s in range(40)}
    assert 1 in depths      # shallow draws happen
    assert max(depths) > 2  # and so do genuinely deep ones


def test_generate_tree_validation():
    with pytest.raises(ValueError):
        generate_tree(0, 6, np.random.default_rng(0))
    with pytest.raises(ValueError):
        generate_tree(10, 0, np.random.default_rng(0))
