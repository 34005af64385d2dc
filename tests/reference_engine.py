"""Scalar reference for the block engine: the session-by-session formation loop under keyed draws.

This is the engine as it ran before sessions were stepped together: a
BFS over coordinators, one session at a time, one networking cycle at a
time through the per-cycle kernels of mac_protocols and the scalar slot
controller of slot_alloc. Each cycle hands its kernel a KeyedCycle in
place of a numpy Generator, which deals the cycle's keyed draws through
plcmac.engine.keyed_draws. A draw depends only on its identity, so this
loop and the block engine must agree on every field of every result.
Formation keys are folded here as the engine once folded them, one
word and one 64-bit limb at a time in Python ints.
"""

from __future__ import annotations

import numpy as np

from plcmac import engine
from plcmac.core import Protocol, RunConfig
from plcmac.engine import ExperimentPlan, FormationResult, NonTermination, ResultRow
from plcmac.mac_protocols import simulate_nc_csma, simulate_nc_epmac, simulate_nc_pmac
from plcmac.slot_alloc import _as_fraction, ceil_scale, check_first_window, fresh_state, next_slot_count, record_pte
from plcmac.topology import CCO_ID, NetworkTree, generate_tree, single_layer


_MASK = 2**64 - 1
_GAMMA = 0x9E3779B97F4A7C15
_M1, _M2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_PROTOCOL_CODE = {Protocol.EPMAC: 1, Protocol.PMAC: 2, Protocol.IEEE1901: 3}


def _mix64(z: int) -> int:
    """SplitMix64's finalizer on one 64-bit word."""
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return z ^ (z >> 31)


def _fold(h: int, *words: int) -> int:
    """Fold non-negative words of any size into the 64-bit key h, each as its 64-bit limbs and then their count."""
    for word in words:
        count = 0
        while True:
            h = _mix64(((h ^ (word & _MASK)) + _GAMMA) & _MASK)
            count += 1
            word >>= 64
            if not word:
                break
        h = _mix64(((h ^ count) + _GAMMA) & _MASK)
    return h


def formation_key(seed: int, n: int, trial: int, protocol: Protocol, ratio: float) -> int:
    """The formation's key, folded one word and one limb at a time in Python ints."""
    return _fold(_fold(0, seed, n, trial, _PROTOCOL_CODE[protocol]), *_as_fraction(ratio))


def keyed_draws(keys, counts, windows, coins=False):
    """The keyed draws as first written: ranks from a fresh arange, the uniform scaled by 2**-53 and then by the
    window, and every slot clipped to its window's top."""
    stride = np.uint64(2 * _GAMMA & _MASK)
    starts = (np.cumsum(counts) - counts).astype(np.uint64)
    x = np.repeat(keys + np.uint64(_GAMMA) - starts * stride, counts)
    x += np.arange(len(x), dtype=np.uint64) * stride
    coin = x + np.uint64(_GAMMA) if coins else None
    u = (engine._mix(x) >> 11).astype(np.float64) * 2.0**-53
    top = np.repeat(windows, counts)
    slots = np.minimum((u * top).astype(np.int64), top - 1)
    return slots, (None if coin is None else (engine._mix(coin) >> 11).astype(np.float64) * 2.0**-53)


class KeyedCycle:
    """The Generator calls the kernels make, answered with one cycle's keyed draws.

    integers(0, n_slot, size=count) gives the slots of ranks 0..count-1
    and random(count) their coin uniforms; without size, rank 0 alone.
    """

    def __init__(self, cycle_key: int) -> None:
        self.key = np.array([cycle_key], dtype=np.uint64)

    def _draws(self, size, window: int, coins: bool):
        count = 1 if size is None else int(size)
        slots, u = engine.keyed_draws(self.key, np.array([count]), np.array([min(window, 2**63 - 1)]), coins)
        return slots, u, size is None

    def integers(self, low, high=None, size=None):
        if high is None:
            low, high = 0, low
        assert low == 0
        if high > engine.MAX_WINDOW:
            raise ValueError(f"a window of {high} slots is above 2**63, more than one draw can take")
        slots, _, scalar = self._draws(size, high, False)
        return int(slots[0]) if scalar else slots

    def random(self, size=None):
        _, u, scalar = self._draws(size, 1, True)
        return float(u[0]) if scalar else u


def _cycle_key(key: int, node: int, cycle: int) -> int:
    session = engine._child_keys(np.array([key], dtype=np.uint64), np.array([node]))
    return int(engine._child_keys(session, np.array([cycle]))[0])


def run_formation(protocol: Protocol, tree: NetworkTree, cfg: RunConfig, slot_ratio: float, key: int) -> FormationResult:
    """The former run_formation, cycle by cycle, drawing from the formation's key."""
    check_first_window(slot_ratio, tree.n_sta)
    paid: list[tuple[int, ...]] = [(0, 0, 0, 0, 0, 0)]
    nc_count = 0
    data_frames = 0
    joined_total = 0
    epmac = protocol is Protocol.EPMAC
    pmac = protocol is Protocol.PMAC
    pays_relay = protocol is not Protocol.IEEE1901
    kernel = simulate_nc_pmac if pmac else simulate_nc_csma
    coordinators = tree.children
    queue = [CCO_ID] if coordinators else []
    for node in queue:
        kids = coordinators[node]
        if len(queue) < len(coordinators):
            queue.extend(filter(coordinators.__contains__, kids))
        depth_k, pending = tree.depth[node] + 1, len(kids)
        if pays_relay and depth_k >= 2:
            overhead = 2 * (depth_k - 1)
            data_frames += overhead
            paid.append((0, overhead, 0, 0, 0, 0))
        if epmac:
            n0 = ceil_scale(slot_ratio, pending)
            state = fresh_state(n0)
        cycle = 0
        while pending:
            if nc_count >= cfg.max_nc:
                raise NonTermination(
                    f"{protocol.value} run exceeded max_nc={cfg.max_nc} with "
                    f"{pending} STA(s) still pending at depth {depth_k}"
                )
            rng = KeyedCycle(_cycle_key(key, node, cycle))
            if epmac:
                n_slot = next_slot_count(state, cfg)
                if n_slot == 0:
                    state = fresh_state(n0)
                    n_slot = next_slot_count(state, cfg)
                joins, cycle_counts, frames = simulate_nc_epmac(pending, n_slot, state.t_pte == 0, cfg, rng)
                state = record_pte(state, n_slot, joins)
            else:
                n_slot = ceil_scale(slot_ratio, pending)
                if pmac and n_slot < 2 and pending >= 2:
                    n_slot = 2
                joins, cycle_counts, frames = kernel(pending, depth_k, n_slot, cfg, rng)
            cycle += 1
            nc_count += 1
            paid.append(cycle_counts)
            data_frames += frames
            joined_total += joins
            pending -= joins
    if joined_total != tree.n_sta:
        raise RuntimeError("formation ended with unjoined STAs despite empty sessions")
    counts = list(map(sum, zip(*paid)))
    return FormationResult(cfg.timing.cost(counts), nc_count, data_frames, counts[0])


def run_experiment(plan: ExperimentPlan) -> list[ResultRow]:
    """Every cell of the plan in row order, one reference formation at a time, from the same trees and keys."""
    rows = []
    for protocol in plan.protocols:
        for n in plan.n_values:
            ratio_cells = range(len(plan.ratio_grid)) if plan.ratio_grid is not None else range(1)
            for ratio_idx in ratio_cells:
                for trial in range(plan.trials):
                    rng = np.random.default_rng(np.random.SeedSequence((plan.seed, n, trial)))
                    if plan.ratio_random is not None:
                        lo, hi = plan.ratio_random
                        ratio = float(lo + (hi - lo) * rng.random())
                    else:
                        ratio = plan.ratio_grid[ratio_idx]
                    tree = generate_tree(n, plan.max_layers, rng) if plan.multi_layer else single_layer(n)
                    key = formation_key(plan.seed, n, trial, protocol, ratio)
                    result = run_formation(protocol, tree, plan, ratio, key)
                    rows.append(ResultRow(protocol.value, n, ratio, trial, result.total_us, result.nc_count,
                                          result.data_frames, result.preambles, tree.max_depth))
    return rows
