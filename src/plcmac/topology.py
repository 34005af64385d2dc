"""Rooted network topologies: one CCO at depth 0, STAs below, PCOs where children exist."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from typing import Sequence

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
        if not n_nodes:
            raise ValueError("a tree needs its CCO, node 0")
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
    """One random tree's draws and growth loop, as (n_sta, first, draws, eligible, events) for _picks.

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
        # Python floats multiply exactly as numpy's float64 scalars do, only faster: int(u * length) is each pick
        append, length = eligible.append, first + 1.0
        if target > 2:
            picks = enumerate(draws.tolist())
        else:  # only a pick of the CCO makes an event; the list only grows, so only u * (1 + first) < 1 can be one
            tried = np.flatnonzero(draws * length < 1)
            picks = zip(tried.tolist(), draws[tried].tolist())
        for j, u in picks:
            d = eligible[int(u * length)] + 1
            if d < target:
                append(d)
                events.append(j)
                length += 1
    return n_sta, first, draws, eligible, events


def _picks(growths: Sequence[tuple]) -> tuple:
    """Every later STA's pick over grow_tree's growths, as (n, first, base, ev_at, ev_id, ev_depth, k), per tree or STA.

    A later STA's pick is entry k = (u * length).astype(int64) of its
    tree's eligible list, the same float64 product as grow_tree's: the
    list's first base entries, L0, are nodes 0..L0 - 1, and entry L0 + e
    the STA of the tree's event e. ev_id and ev_depth hold every tree's
    events, tree t's from ev_at[t] on, as node ids and the kept depths.
    """
    n, first, draws, eligible, events = zip(*growths)
    n, first = np.array(n, dtype=np.int64), np.array(first, dtype=np.int64)
    count = np.array(list(map(len, events)), dtype=np.int64)
    base = np.array(list(map(len, eligible)), dtype=np.int64) - count
    later = n - first
    starts, ev_at = np.cumsum(later) - later, np.cumsum(count) - count
    ev = np.fromiter(chain.from_iterable(events), np.int64, int(count.sum()))
    ev_depth = np.fromiter(chain.from_iterable(e[b:] for e, b in zip(eligible, base.tolist())), np.int64, len(ev))
    flags = np.zeros(int(later.sum()) + 1, dtype=np.int64)
    flags[ev + np.repeat(starts + 1, count)] = 1
    # each later STA's list length: L0 plus the events before it over all trees, less those of earlier trees
    length = np.cumsum(flags[:-1]) + np.repeat(base - ev_at, later)
    k = (np.concatenate(draws) * length).astype(np.int64)
    return n, first, base, ev_at, ev + np.repeat(first + 1, count), ev_depth, k


def _grown_coordinators(growths: Sequence[tuple]) -> tuple:
    """The coordinators of grow_tree's growths from their picks alone, without any node's parent or depth: columns
    (tree, node id, children, depth), tree by tree and each tree's by node id, and the trees' n_sta.

    An eligible entry's children are the later STAs that picked it, and a CCO's also its first layer. Entries ascend
    with node ids: entry i below L0 is node i at depth min(i, 1), any other the STA of its event at its kept depth.
    """
    n, first, base, ev_at, ev_id, ev_depth, k = _picks(growths)
    at = np.cumsum(base) - base + ev_at  # each tree's entries, L0 and then its events, one tree after another
    children = np.bincount(k + np.repeat(at, n - first), minlength=int(base.sum()) + len(ev_id))
    children[at] += first
    entry = np.flatnonzero(children > 0)
    tree = np.searchsorted(at, entry, side="right") - 1
    node = entry - at[tree]
    late, depth = node >= base[tree], np.minimum(node, 1)
    event = (node - base[tree] + ev_at[tree])[late]
    node[late], depth[late] = ev_id[event], ev_depth[event]
    return tree, node, children[entry], depth, n


def generate_tree(n_sta: int, max_layers: int, rng: np.random.Generator) -> NetworkTree:
    """Random tree no deeper than max_layers with a coverage-bounded first layer, read off grow_tree's picks."""
    _, first, base, _, ev_id, ev_depth, k = _picks([grow_tree(n_sta, max_layers, rng)])
    late = k >= base
    event = k[late] - base  # entry k from L0 on: the STA of event k - L0
    par, dep = k, np.minimum(k, 1)  # below L0, node k: the CCO at depth 0 or a first-layer STA at depth 1
    par[late], dep[late] = ev_id[event], ev_depth[event]
    head = int(first[0]) + 1  # the CCO at depth 0 and the first layer at depth 1 under it, before the later STAs
    return NetworkTree((CCO_ID,) * head + tuple(par.tolist()), (0,) + (1,) * (head - 1) + tuple((dep + 1).tolist()))
