"""Tree topologies: coverage bound, explicit builds, random generation."""

import numpy as np
import pytest

from plcmac import NetworkTree, engine, generate_tree, min_first_layer, single_layer, tree_from_parents
from plcmac.topology import CCO_ID, _grown_coordinators, grow_tree


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


def test_min_first_layer_steps_down_from_a_float_root_that_rounds_up():
    # float(2**60 + 200) is 2**60 + 256, so the estimate starts above the root and steps down to it
    assert round(float(2**60 + 200)) == 2**60 + 256
    assert min_first_layer(2**60 + 200, 1) == 2**60 + 200


@pytest.mark.parametrize("n", [1, 2, 3, 5, 64, 65, 299, 2**20, 10**6, 2**60 + 200])
def test_min_first_layer_is_the_root_ceiling_at_any_depth_cap(n):
    # past n.bit_length() layers the ceiling is 2, or 1 for a lone STA, so the search stops there whatever the cap
    for k in [*range(1, 80), 10**3, 10**6]:
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


def test_single_layer_needs_a_sta():
    with pytest.raises(ValueError, match="n_sta must be at least 1"):
        single_layer(0)


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
        ((), ()),  # no CCO
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


def _reference_tree(n, max_layers, rng):
    """The growth rule written plainly, node by node: parent and depth lists, eligible ids in a list; and the target."""
    least = min_first_layer(n, max_layers)
    target = int(rng.integers(1, max_layers + 1))
    first = int(rng.integers(least, n + 1))
    parent, depth = [CCO_ID] * (first + 1), [0] + [1] * first
    eligible = [CCO_ID] + (list(range(1, first + 1)) if target > 1 else [])
    for node, u in enumerate(rng.random(n - first).tolist(), start=first + 1):
        parent.append(eligible[int(u * len(eligible))])
        depth.append(depth[parent[-1]] + 1)
        if depth[-1] < target:
            eligible.append(node)
    return parent, depth, target


def _mixed_groups(seed, count):
    """Groups of 1 to 11 (n, max_layers, seed) trees: n 1 (no draws), max_layers 1 (a target of 1, no loop, first = n),
    2 (targets of 2, whose growth visits only the draws that can pick the CCO), caps far above log2 n (chains of
    eligible STAs) and caps of 3 to 9 (the eligible list outgrows the first layer)."""
    picks = np.random.default_rng(seed)
    groups = []
    for _ in range(count):
        group = []
        for _ in range(int(picks.integers(1, 12))):
            n = int(picks.choice([1, 2, 3, int(picks.integers(4, 40)), int(picks.integers(40, 700))]))
            max_layers = int(picks.choice([1, 2, 3, int(picks.integers(4, 10)), 10**6]))
            group.append((n, max_layers, int(picks.integers(2**32))))
        groups.append(group)
    return groups


def test_generated_trees_match_the_rule_tree_by_tree():
    trees, covered = 0, set()
    for group in _mixed_groups(29, 40):
        for n, max_layers, seed in group:
            _, first, draws, eligible, _ = grow_tree(n, max_layers, np.random.default_rng(seed))
            parent, depth, target = _reference_tree(n, max_layers, np.random.default_rng(seed))
            tree = generate_tree(n, max_layers, np.random.default_rng(seed))
            assert list(tree.parent) == parent and list(tree.depth) == depth
            tree.validate(max_layers=max_layers)
            trees += 1
            # the draws a growth visits at a target of 2, the only ones that can pick the CCO: some meet a list grown
            # past 1 + first by earlier picks of the CCO and pick a first-layer STA instead
            tried = [j for j, u in enumerate(draws.tolist()) if u * (1 + first) < 1]
            cases = {"n=1": n == 1, "target 1": len(eligible) == 1, "first = n, n > 1": first == n > 1,
                     "depth 2 eligible": max(eligible) >= 2, "chain past 6": max(depth) > 6 and max_layers == 10**6,
                     "target 2, two CCO picks": target == 2 and parent[first + 1:].count(CCO_ID) >= 2,
                     "target 2, a tried draw past the grown list": target == 2
                     and any(parent[first + 1 + j] != CCO_ID for j in tried)}
            covered.update(case for case, hit in cases.items() if hit)
    assert trees >= 200
    assert covered == {"n=1", "target 1", "first = n, n > 1", "depth 2 eligible", "chain past 6",
                       "target 2, two CCO picks", "target 2, a tried draw past the grown list"}


def test_session_tables_from_growths_match_those_of_the_rule_trees():
    covered = set()
    for group in _mixed_groups(32, 48):
        growths = [grow_tree(n, max_layers, np.random.default_rng(seed)) for n, max_layers, seed in group]
        rule = [_reference_tree(n, max_layers, np.random.default_rng(seed)) for n, max_layers, seed in group]
        got = engine._table(*_grown_coordinators(growths))
        expected = engine._sessions([NetworkTree(tuple(parent), tuple(depth)) for parent, depth, _ in rule])
        assert got._fields == expected._fields
        for name, column, want in zip(got._fields, got, expected):
            assert column.dtype == want.dtype == np.int64 and column.tolist() == want.tolist(), name
        for (n, max_layers, _), (_, first, _, eligible, _) in zip(group, growths):
            cases = {"n=1": n == 1, "target 1": len(eligible) == 1, "first = n": first == n,
                     "chain past 6": max(eligible) > 6 and max_layers == 10**6}
            covered.update(case for case, hit in cases.items() if hit)
    assert covered == {"n=1", "target 1", "first = n", "chain past 6"}


def test_sessions_of_trees_hold_their_coordinators_one_tree_after_another():
    trees = [tree_from_parents({}), generate_tree(1, 6, np.random.default_rng(0)), single_layer(3),
             tree_from_parents({1: 0, 2: 1, 3: 1}), generate_tree(40, 4, np.random.default_rng(5))]
    # generate_tree reads its tree off numpy picks: its ids and depths must still be Python ints
    assert {type(v) for t in trees for v in t.parent + t.depth} == {int}
    table = engine._sessions(trees)
    assert table.n_sta.tolist() == [t.n_sta for t in trees] == [0, 1, 3, 3, 40]
    assert all(column.dtype == np.int64 for column in table)
    for t, tree in enumerate(trees):
        part = slice(table.start[t], table.start[t + 1])
        nodes, pending = table.nodes[part].tolist(), table.pending[part].tolist()
        assert dict(zip(nodes, pending)) == {c: len(kids) for c, kids in tree.children.items()}
        assert nodes == sorted(nodes, key=lambda c: (len(tree.children[c]) < 2, c))  # crowded first, each by id
        depth = [tree.depth[c] + 1 for c in nodes]  # each session's STAs' depth
        assert table.hops[t] == sum(p * d for p, d in zip(pending, depth))
        assert table.relays[t] == sum(2 * d - 2 for d in depth)
        assert table.layers[t] == max(depth, default=0) == tree.max_depth
        assert table.joins[t] == tree.n_sta
        assert table.crowded[t] == sum(p > 1 for p in pending)
