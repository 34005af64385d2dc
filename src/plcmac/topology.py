"""Rooted network topologies: one CCO at depth 0, STAs below, PCOs where children exist."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np

CCO_ID = 0


def min_first_layer(n_sta: int, max_layers: int) -> int:
    """Smallest first-layer size that lets max_layers layers cover n_sta STAs.

    Exactly ceil(n_sta ** (1 / max_layers)), computed by integer search
    so perfect powers (64 ** (1/6) == 2) do not fall to float error.
    """
    if n_sta < 1:
        raise ValueError("n_sta must be at least 1")
    if max_layers < 1:
        raise ValueError("max_layers must be at least 1")
    m = max(1, round(n_sta ** (1.0 / max_layers)))
    while m**max_layers < n_sta:
        m += 1
    while m > 1 and (m - 1) ** max_layers >= n_sta:
        m -= 1
    return m


@dataclass(frozen=True)
class NetworkTree:
    """Immutable rooted tree over node ids 0..n_sta (0 is the CCO), indexed by node id.

    children maps every coordinator (a node with children) to its child
    ids, ascending; it is derived from parent on first use, never passed in.
    """

    parent: tuple[int, ...]  # parent[i] = parent id of node i; parent[CCO_ID] == CCO_ID
    depth: tuple[int, ...]   # depth[i] = hops from the CCO; depth[CCO_ID] == 0

    @cached_property
    def children(self) -> dict[int, tuple[int, ...]]:
        kids: dict[int, list[int]] = {}
        for child, par in enumerate(islice(self.parent, 1, None), start=1):
            kids.setdefault(par, []).append(child)
        return {par: tuple(k) for par, k in kids.items()}

    @property
    def n_sta(self) -> int:
        return len(self.parent) - 1

    @cached_property
    def max_depth(self) -> int:
        return max(self.depth)

    def to_edge_list(self) -> str:
        """One line per STA: 'child_id parent_id depth', ascending by child."""
        edges = islice(zip(self.parent, self.depth), 1, None)
        return "\n".join(f"{c} {p} {d}" for c, (p, d) in enumerate(edges, start=1))

    def validate(self, max_layers: int | None = None) -> None:
        """Raise ValueError on any structural violation."""
        n_nodes = len(self.parent)
        if len(self.depth) != n_nodes:
            raise ValueError("parent and depth need one entry per node")
        if self.parent[CCO_ID] != CCO_ID or self.depth[CCO_ID] != 0:
            raise ValueError("CCO must be the root, at depth 0")
        for child in range(1, n_nodes):
            par = self.parent[child]
            if not 0 <= par < n_nodes:
                raise ValueError(f"node {child} has unknown parent {par}")
            if self.depth[child] != self.depth[par] + 1:
                raise ValueError(f"node {child} breaks depth(child) == depth(parent) + 1")
        if max_layers is not None:
            if self.max_depth > max_layers:
                raise ValueError(f"depth {self.max_depth} exceeds max_layers {max_layers}")
            first_layer = self.children.get(CCO_ID, ())
            if self.n_sta and len(first_layer) < min_first_layer(self.n_sta, max_layers):
                raise ValueError("first layer is thinner than the coverage bound allows")


def tree_from_parents(parent: dict[int, int]) -> NetworkTree:
    """Build a tree from an explicit child -> parent map (ids 1..n, root 0 implied)."""
    n_sta = len(parent)
    stas = range(1, n_sta + 1)
    if set(parent) != set(stas):
        raise ValueError("parent map must cover ids 1..n exactly")
    depth = {CCO_ID: 0}
    for node in stas:
        chain = []  # node and its unresolved ancestors, deepest first
        while node not in depth:
            if node not in parent:
                raise ValueError(f"node {chain[-1]} has unknown parent {node}")
            if len(chain) == n_sta:
                raise ValueError("parent map has a cycle")
            chain.append(node)
            node = parent[node]
        for d, node in enumerate(reversed(chain), start=depth[node] + 1):
            depth[node] = d
    tree = NetworkTree((CCO_ID, *map(parent.__getitem__, stas)), (0, *map(depth.__getitem__, stas)))
    tree.validate()
    return tree


def single_layer(n_sta: int) -> NetworkTree:
    """Star topology: every STA is a direct child of the CCO."""
    if n_sta < 1:
        raise ValueError("n_sta must be at least 1")
    return NetworkTree((CCO_ID,) * (n_sta + 1), (0,) + (1,) * n_sta)


def generate_tree(n_sta: int, max_layers: int, rng: np.random.Generator) -> NetworkTree:
    """Random tree no deeper than max_layers with a coverage-bounded first layer.

    A target depth is drawn uniformly from 1..max_layers, the first
    layer gets a uniform size between the coverage bound and n_sta, and
    every remaining STA attaches to a uniformly random already-placed
    node whose depth still allows a child within the target.
    """
    if n_sta < 1:
        raise ValueError("n_sta must be at least 1")
    if max_layers < 1:
        raise ValueError("max_layers must be at least 1")
    target_depth = int(rng.integers(1, max_layers + 1))
    first = int(rng.integers(min_first_layer(n_sta, max_layers), n_sta + 1))
    parent = [CCO_ID] * (first + 1)
    depth = [1] * (first + 1)
    depth[CCO_ID] = 0
    eligible = [CCO_ID]
    if target_depth > 1:
        eligible.extend(range(1, first + 1))
    # Python floats multiply exactly as numpy's float64 scalars do, only faster
    draws = rng.random(n_sta - first).tolist()
    for node, u in enumerate(draws, start=first + 1):
        par = eligible[int(u * len(eligible))]
        parent.append(par)
        d = depth[par] + 1
        depth.append(d)
        if d < target_depth:
            eligible.append(node)
    return NetworkTree(tuple(parent), tuple(depth))
