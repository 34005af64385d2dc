"""Rooted network topologies: one CCO at depth 0, STAs below, PCOs where children exist."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from typing import NamedTuple, Sequence

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
    max_layers = min(max_layers, int(n_sta).bit_length())  # any deeper cap gives this m, 1 or 2: 2**bit_length > n_sta
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


def grow_tree(n_sta: int, max_layers: int, rng: np.random.Generator) -> tuple:
    """One random tree's draws and growth loop, as (n_sta, first, draws, eligible, events) for Forest.grown.

    A target depth is drawn uniformly from 1..max_layers, the first
    layer gets a uniform size first between the coverage bound and
    n_sta, and each later STA, first + 1..n_sta, attaches to the eligible
    node int(u * len(eligible)) for its uniform u in draws. The eligible
    nodes are the CCO, then the first layer unless the target is 1, then
    each later STA whose depth still allows a child within the target,
    as it attaches. The loop keeps only the eligible nodes' depths, and
    in events the 0-based places of the later STAs that became eligible.
    """
    least = min_first_layer(n_sta, max_layers)  # checks n_sta and max_layers before any draw
    target = int(rng.integers(1, max_layers + 1))
    first = int(rng.integers(least, n_sta + 1))
    draws = rng.random(n_sta - first)
    eligible, events = [0], []
    if target > 1:  # else every later STA hangs off the CCO
        eligible += [1] * first
        # Python floats multiply exactly as numpy's float64 scalars do, only faster
        for j, u in enumerate(draws.tolist()):
            d = eligible[int(u * len(eligible))] + 1
            if d < target:
                eligible.append(d)
                events.append(j)
    return n_sta, first, draws, eligible, events


class Forest(NamedTuple):
    """Trees as int64 arrays, one tree after another: tree t's nodes, its CCO first, by tree-local node id."""

    n_sta: np.ndarray   # each tree's STAs as its builder states them, which the engine checks its joins against
    sizes: np.ndarray   # each tree's node count
    parent: np.ndarray  # every node's parent id in its tree; a CCO's is CCO_ID
    depth: np.ndarray   # every node's hops from its CCO

    @classmethod
    def of(cls, trees: Sequence[NetworkTree]) -> Forest:
        """The forest of trees that hold their nodes as sequences, such as NetworkTrees."""
        sizes = np.array([len(t.parent) for t in trees], dtype=np.int64)
        total = int(sizes.sum())
        nodes = np.fromiter(chain(*(t.parent for t in trees), *(t.depth for t in trees)), np.int64, 2 * total)
        return cls(np.array([t.n_sta for t in trees], dtype=np.int64), sizes, nodes[:total], nodes[total:])

    @classmethod
    def grown(cls, growths: Sequence[tuple]) -> Forest:
        """The forest of grow_tree's growths, every later STA's parent and depth derived at once for all trees.

        When a later STA attached, its tree's eligible list held L0 nodes
        (the CCO, and the first layer unless the target is 1) and then
        the tree's events before it. Its parent is that list's entry
        k = (u * length).astype(int64), the same float64 product as
        grow_tree's int(u * len(eligible)): node k itself below L0, else
        the STA of the tree's event k - L0, whose depth the loop kept.
        """
        n, first, draws, eligible, events = zip(*growths)
        n, first = np.array(n, dtype=np.int64), np.array(first, dtype=np.int64)
        count = np.array(list(map(len, events)), dtype=np.int64)
        base = np.array(list(map(len, eligible)), dtype=np.int64) - count  # each tree's L0
        later = n - first
        starts, ev_starts = np.cumsum(later) - later, np.cumsum(count) - count
        # every tree's events, one tree after another: each one's place among the later STAs, node id and depth
        ev = np.fromiter(chain.from_iterable(events), np.int64, int(count.sum()))
        ev_depth = np.fromiter(chain.from_iterable(e[b:] for e, b in zip(eligible, base.tolist())), np.int64, len(ev))
        ev_id = ev + np.repeat(first + 1, count)
        flags = np.zeros(int(later.sum()) + 1, dtype=np.int64)
        flags[ev + np.repeat(starts + 1, count)] = 1
        # each later STA's list length: L0 plus the events before it over all trees, less those of earlier trees
        lo = np.repeat(ev_starts, later)
        shift = np.repeat(base, later) - lo
        k = (np.concatenate(draws) * (np.cumsum(flags[:-1]) + shift)).astype(np.int64)
        picked = k - shift  # entry k from L0 on: the event k - L0, counted over all trees' events
        late = picked >= lo
        picked = picked[late]
        par, dep = k, np.minimum(k, 1)  # below L0, node k: the CCO at depth 0 or a first-layer STA at depth 1
        par[late] = ev_id.take(picked)
        dep[late] = ev_depth.take(picked)
        # every node: each tree's CCO at depth 0, its first layer at depth 1 under it, then its later STAs
        sizes = n + 1
        parent, depth = np.zeros(int(sizes.sum()), dtype=np.int64), np.ones(int(sizes.sum()), dtype=np.int64)
        depth[np.cumsum(sizes) - sizes] = 0
        at = np.repeat(np.cumsum(first + 1), later) + np.arange(len(par))
        parent[at] = par
        depth[at] = dep + 1
        return cls(n, sizes, parent, depth)


def generate_tree(n_sta: int, max_layers: int, rng: np.random.Generator) -> NetworkTree:
    """Random tree no deeper than max_layers with a coverage-bounded first layer: grow_tree's forest of one."""
    forest = Forest.grown([grow_tree(n_sta, max_layers, rng)])
    return NetworkTree(tuple(forest.parent.tolist()), tuple(forest.depth.tolist()))
