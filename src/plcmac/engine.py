"""Formation engine: coordinator sessions over a topology, cycle by cycle.

A formation run walks the tree in BFS order. The CCO runs a session
over its direct children; every node that ends up with children runs a
proxy session over its own, in discovery order, one session at a time.
Each session loops networking cycles until its pending set drains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .core import Protocol, RunConfig
from .mac_protocols import PendingSet, simulate_nc_csma, simulate_nc_epmac, simulate_nc_pmac
from .slot_alloc import ceil_scale, check_first_window, fresh_state, next_slot_count, record_pte
from .topology import CCO_ID, NetworkTree, generate_tree, single_layer


class NonTermination(RuntimeError):
    """A formation run exceeded its networking-cycle budget."""


class EmptySample(ValueError):
    """summarize needs at least one sample."""


@dataclass(frozen=True)
class FormationResult:
    total_us: int
    nc_count: int
    data_frames: int
    preambles: int
    joined: int


def run_formation(
    protocol: Protocol,
    tree: NetworkTree,
    cfg: RunConfig,
    slot_ratio: float,
    rng: np.random.Generator,
) -> FormationResult:
    """Simulate one complete network formation and account for every slot.

    Proxy sessions at depth k >= 2 are charged a relay overhead of
    2*(k-1) data-frame slots up front (beacon chain down, report chain
    up); the per-cycle slots come from the protocol simulators. The run
    adds up slot counts by kind and prices them once, with
    cfg.timing.cost.

    slot_ratio is the experiment's free parameter (PTE slots per pending
    STA); the sweeps explore 0.5 to 2.0 but any positive finite value is legal.
    """
    if not (slot_ratio > 0 and math.isfinite(slot_ratio)):
        raise ValueError(f"slot_ratio must be positive and finite, got {slot_ratio!r}")
    check_first_window(slot_ratio, tree.n_sta)
    # slot counts by kind, one entry per cycle or relay overhead; the zero row prices a tree with no STAs
    paid: list[tuple[int, ...]] = [(0, 0, 0, 0, 0, 0)]
    nc_count = 0
    data_frames = 0
    joined_total = 0

    # decided once per run; the names are read from this module per call so wrappers set on it see every call
    epmac = protocol is Protocol.EPMAC
    pmac = protocol is Protocol.PMAC
    pays_relay = protocol is not Protocol.IEEE1901
    kernel = simulate_nc_pmac if pmac else simulate_nc_csma
    max_nc = cfg.max_nc
    # BFS over coordinators only: the session order decides how the rng is consumed
    coordinators = tree.children
    queue = [CCO_ID] if coordinators else []
    for node in queue:  # the queue grows while it is walked
        kids = coordinators[node]
        if len(queue) < len(coordinators):  # else every coordinator is queued
            queue.extend(filter(coordinators.__contains__, kids))
        depth_k, pending = tree.depth[node] + 1, len(kids)
        if pays_relay and depth_k >= 2:
            overhead = 2 * (depth_k - 1)
            data_frames += overhead
            paid.append((0, overhead, 0, 0, 0, 0))
        if epmac:
            n0 = ceil_scale(slot_ratio, pending)
            state = fresh_state(n0)
        while pending:
            if nc_count >= max_nc:
                raise NonTermination(
                    f"{protocol.value} run exceeded max_nc={max_nc} with "
                    f"{pending} STA(s) still pending at depth {depth_k}"
                )
            batch = PendingSet(pending, depth_k)
            if epmac:
                n_slot = next_slot_count(state, cfg)
                if n_slot == 0:
                    # probe budget exhausted with STAs left: forced restart, fresh first PTE
                    state = fresh_state(n0)
                    n_slot = next_slot_count(state, cfg)
                joins, cycle_counts, frames, _ = simulate_nc_epmac(batch, n_slot, state.t_pte == 0, cfg, rng)
                state = record_pte(state, n_slot, joins)
            else:
                n_slot = ceil_scale(slot_ratio, pending)
                if pmac and n_slot < 2 and pending >= 2:
                    n_slot = 2  # two contenders in one slot collide forever; floor the window at 2
                joins, cycle_counts, frames, _ = kernel(batch, n_slot, cfg, rng)
            nc_count += 1
            paid.append(cycle_counts)
            data_frames += frames
            joined_total += joins
            pending -= joins

    if joined_total != tree.n_sta:
        raise RuntimeError("formation ended with unjoined STAs despite empty sessions")
    counts = list(map(sum, zip(*paid)))  # one total per slot kind
    return FormationResult(cfg.timing.cost(counts), nc_count, data_frames, counts[0], joined_total)


@dataclass(frozen=True)
class ResultRow:
    protocol: str
    n_node: int
    ratio: float
    trial: int
    elapsed_us: int
    nc_count: int
    data_frames: int
    preambles: int
    layers: int


CSV_HEADER: tuple[str, ...] = tuple(f.name for f in fields(ResultRow))


@dataclass(frozen=True, kw_only=True)
class ExperimentPlan(RunConfig):
    """A full sweep: protocols x sizes x ratio cells x trials.

    Exactly one of ratio_grid / ratio_random is set. In random mode the
    ratio is each cell's first rng draw, so every cell stays a pure
    function of (seed, protocol, n, ratio cell, trial) and results are
    identical no matter how the work is scheduled. The inherited model
    constants are what every cell's formation run reads.
    """

    protocols: tuple[Protocol, ...]
    n_values: tuple[int, ...]
    ratio_grid: tuple[float, ...] | None = None
    ratio_random: tuple[float, float] | None = None
    trials: int = 100
    seed: int = 1
    multi_layer: bool = False
    max_layers: int = 6

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.protocols or not self.n_values:
            raise ValueError("need at least one protocol and one network size")
        if min(self.n_values) < 1:
            raise ValueError("network sizes must be at least 1")
        if (self.ratio_grid is None) == (self.ratio_random is None):
            raise ValueError("set exactly one of ratio_grid / ratio_random")
        if self.ratio_grid is not None:
            if not self.ratio_grid:
                raise ValueError("ratio_grid must not be empty")
            if not all(r > 0 for r in self.ratio_grid):
                raise ValueError("grid ratios must be positive")
        if self.ratio_random is not None:
            lo, hi = self.ratio_random
            if not 0 < lo <= hi:
                raise ValueError("ratio_random bounds must satisfy 0 < lo <= hi")
        for r in self.ratio_grid or self.ratio_random:
            if not math.isfinite(r):
                raise ValueError(f"slot ratios must be finite, got {r!r}")
            check_first_window(r, max(self.n_values))
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.max_layers < 1:
            raise ValueError("max_layers must be at least 1")


@lru_cache(maxsize=1)
def _star(n: int) -> NetworkTree:
    # run_experiment visits all cells of one (protocol, n) in a row, and
    # run_formation only reads its tree, so one star serves them all
    return single_layer(n)


def _run_cell(plan: ExperimentPlan, proto_idx: int, n: int, ratio_idx: int, trial: int) -> ResultRow:
    protocol = plan.protocols[proto_idx]
    try:
        rng = np.random.default_rng(np.random.SeedSequence((plan.seed, proto_idx, n, ratio_idx, trial)))
        if plan.ratio_random is not None:
            lo, hi = plan.ratio_random
            ratio = float(lo + (hi - lo) * rng.random())
        else:
            ratio = plan.ratio_grid[ratio_idx]
        tree = generate_tree(n, plan.max_layers, rng) if plan.multi_layer else _star(n)
        result = run_formation(protocol, tree, plan, ratio, rng)
    except Exception as exc:
        # name the cell in its own field, keeping type and message; an exception pickles
        # its __dict__, so the field also travels back from a worker process
        exc.cell = f"protocol={protocol.value} n={n} ratio_index={ratio_idx} trial={trial}"
        raise
    return ResultRow(
        protocol=protocol.value,
        n_node=n,
        ratio=ratio,
        trial=trial,
        elapsed_us=result.total_us,
        nc_count=result.nc_count,
        data_frames=result.data_frames,
        preambles=result.preambles,
        layers=tree.max_depth,
    )


def _run_cell_args(args: tuple) -> ResultRow:
    return _run_cell(*args)


def run_experiment(plan: ExperimentPlan, jobs: int = 1) -> list[ResultRow]:
    """Run every cell of the plan; rows come back ordered by cell coordinates.

    jobs > 1 fans cells out to worker processes; because each cell seeds
    itself from its coordinates, the rows are identical either way.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    ratio_indices = range(len(plan.ratio_grid)) if plan.ratio_grid is not None else range(1)
    cells = [
        (plan, pi, n, ri, trial)
        for pi in range(len(plan.protocols))
        for n in plan.n_values
        for ri in ratio_indices
        for trial in range(plan.trials)
    ]
    if jobs == 1 or len(cells) < 2:
        return [_run_cell(*cell) for cell in cells]
    from concurrent.futures import ProcessPoolExecutor  # deferred: a jobs=1 process never pays for it
    chunk = max(1, len(cells) // (jobs * 8))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_run_cell_args, cells, chunksize=chunk))


@dataclass(frozen=True)
class SummaryStats:
    """Five-number summary plus mean; quartiles use inclusive linear interpolation."""

    n: int
    mean: float
    min: float
    q1: float
    median: float
    q3: float
    max: float

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1


def summarize_groups(groups: Sequence[Sequence[float]]) -> list[SummaryStats]:
    """SummaryStats for each group, in input order.

    Groups of one size are stacked into one array, so the percentiles,
    mean, min and max cost one numpy call each per distinct size.
    """
    rows_by_size: dict[int, list[int]] = {}
    for i, group in enumerate(groups):
        rows_by_size.setdefault(len(group), []).append(i)
    if 0 in rows_by_size:
        raise EmptySample("cannot summarize an empty sample")
    stats = [None] * len(groups)
    for size, rows in rows_by_size.items():
        block = np.array([groups[i] for i in rows], dtype=float)
        q1, median, q3 = np.percentile(block, [25.0, 50.0, 75.0], axis=1).tolist()
        columns = zip(
            block.mean(axis=1).tolist(), block.min(axis=1).tolist(), q1, median, q3, block.max(axis=1).tolist()
        )
        for i, values in zip(rows, columns):
            stats[i] = SummaryStats(size, *values)
    return stats


def summarize(samples: Iterable[float] | Sequence[float]) -> SummaryStats:
    return summarize_groups([list(samples)])[0]
