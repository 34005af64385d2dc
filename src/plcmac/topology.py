"""Rooted network topologies: one CCO at depth 0, STAs below, PCOs where children exist."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Role

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
    """Immutable rooted tree over node ids 0..n_sta (0 is the CCO)."""

    n_sta: int
    parent: dict[int, int]                    # child id -> parent id, root absent
    depth: dict[int, int]                     # node id -> depth, root 0
    children: dict[int, tuple[int, ...]]      # parent id -> child ids ascending
    layers: tuple[tuple[int, ...], ...]       # layers[d] = ids at depth d

    @property
    def max_depth(self) -> int:
        return len(self.layers) - 1

    def role(self, node_id: int) -> Role:
        if node_id == CCO_ID:
            return Role.CCO
        return Role.PCO if self.children.get(node_id) else Role.STA

    def to_edge_list(self) -> str:
        """One line per STA: 'child_id parent_id depth', ascending by child."""
        lines = [f"{c} {self.parent[c]} {self.depth[c]}" for c in sorted(self.parent)]
        return "\n".join(lines)

    def validate(self, max_layers: int | None = None) -> None:
        """Raise ValueError on any structural violation."""
        ids = {CCO_ID, *range(1, self.n_sta + 1)}
        if set(self.depth) != ids or set(self.parent) != ids - {CCO_ID}:
            raise ValueError("node ids must be exactly 0..n_sta")
        if self.depth[CCO_ID] != 0:
            raise ValueError("CCO must sit at depth 0")
        for child, par in self.parent.items():
            if par not in ids:
                raise ValueError(f"node {child} has unknown parent {par}")
            if self.depth[child] != self.depth[par] + 1:
                raise ValueError(f"node {child} breaks depth(child) == depth(parent) + 1")
        for d, layer in enumerate(self.layers):
            if not layer:
                raise ValueError(f"layer {d} is empty; layers must be contiguous")
            for node in layer:
                if self.depth[node] != d:
                    raise ValueError(f"node {node} listed at wrong depth {d}")
        if sum(len(layer) for layer in self.layers) != self.n_sta + 1:
            raise ValueError("layers must partition all nodes")
        for par, kids in self.children.items():
            for kid in kids:
                if self.parent.get(kid) != par:
                    raise ValueError("children map disagrees with parent map")
        if sum(len(k) for k in self.children.values()) != self.n_sta:
            raise ValueError("children map must cover every STA once")
        if max_layers is not None:
            if self.max_depth > max_layers:
                raise ValueError(f"depth {self.max_depth} exceeds max_layers {max_layers}")
            if len(self.layers) > 1 and len(self.layers[1]) < min_first_layer(self.n_sta, max_layers):
                raise ValueError("first layer is thinner than the coverage bound allows")


def _build(n_sta: int, parent: dict[int, int], depth: dict[int, int]) -> NetworkTree:
    """Assemble a tree from maps whose keys ascend, so children and layers come out sorted."""
    children: dict[int, list[int]] = {}
    for child, par in parent.items():
        children.setdefault(par, []).append(child)
    layers: list[list[int]] = [[] for _ in range(max(depth.values()) + 1)]
    for node, d in depth.items():
        layers[d].append(node)
    return NetworkTree(
        n_sta=n_sta,
        parent=parent,
        depth=depth,
        children={p: tuple(k) for p, k in children.items()},
        layers=tuple(map(tuple, layers)),
    )


def tree_from_parents(parent: dict[int, int]) -> NetworkTree:
    """Build a tree from an explicit child -> parent map (ids 1..n, root 0 implied)."""
    n_sta = len(parent)
    if set(parent) != set(range(1, n_sta + 1)):
        raise ValueError("parent map must cover ids 1..n exactly")
    parent = {node: parent[node] for node in sorted(parent)}
    depth = {CCO_ID: 0}
    for node in parent:
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
    tree = _build(n_sta, parent, {node: depth[node] for node in range(n_sta + 1)})
    tree.validate()
    return tree


def single_layer(n_sta: int) -> NetworkTree:
    """Star topology: every STA is a direct child of the CCO."""
    if n_sta < 1:
        raise ValueError("n_sta must be at least 1")
    stas = tuple(range(1, n_sta + 1))
    depth = dict.fromkeys(range(n_sta + 1), 1)
    depth[CCO_ID] = 0
    return NetworkTree(
        n_sta=n_sta,
        parent=dict.fromkeys(stas, CCO_ID),
        depth=depth,
        children={CCO_ID: stas},
        layers=((CCO_ID,), stas),
    )


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
    parent = dict.fromkeys(range(1, first + 1), CCO_ID)
    depth = dict.fromkeys(range(first + 1), 1)
    depth[CCO_ID] = 0
    eligible = [CCO_ID]
    if target_depth > 1:
        eligible.extend(range(1, first + 1))
    # Python floats multiply exactly as numpy's float64 scalars do, only faster
    draws = rng.random(n_sta - first).tolist()
    for node, u in enumerate(draws, start=first + 1):
        par = eligible[int(u * len(eligible))]
        parent[node] = par
        d = depth[node] = depth[par] + 1
        if d < target_depth:
            eligible.append(node)
    return _build(n_sta, parent, depth)
