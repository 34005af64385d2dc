"""Formation engine: every coordinator session of a group of formations, stepped together.

Every contention draw is a pure function of its identity: the formation
(seed, n, trial, protocol and the ratio's value), the coordinator's node
id, the cycle's index within its session and the STA's rank. So a
session's course depends on nothing outside it, and the engine steps
every pending session of a block of formations at once: one keyed draw
over all pending STAs, one count of the STAs alone in their slot, and
closed-form slot counts by kind added to each formation's totals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import repeat
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .core import Protocol, RunConfig
from .slot_alloc import MAX_WINDOW, _as_fraction, check_first_window
from .topology import NetworkTree, generate_tree, single_layer

# bench/tracer.py looks these per-cycle names up on this module; the block engine does not call them
from .mac_protocols import simulate_nc_csma, simulate_nc_epmac, simulate_nc_pmac  # noqa: F401
from .slot_alloc import ceil_scale, fresh_state, next_slot_count, record_pte  # noqa: F401


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


# ---- keyed draws: counter-based (Salmon et al., SC'11) with SplitMix64's finalizer (Steele, Lea & Flood, OOPSLA 2014)

_MASK = 2**64 - 1
_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's increment, 2**64 over the golden ratio
_M1, _M2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_UNIT = 2.0**-53
_PROTOCOL_CODE = {Protocol.EPMAC: 1, Protocol.PMAC: 2, Protocol.IEEE1901: 3}  # stable, whatever the enum order


def _mix64(z: int) -> int:
    """SplitMix64's finalizer on one 64-bit word."""
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return z ^ (z >> 31)


def _mix(z: np.ndarray) -> np.ndarray:
    """_mix64 over a uint64 array, in place; numpy's uint64 products wrap mod 2**64."""
    z ^= z >> 30
    z *= np.uint64(_M1)
    z ^= z >> 27
    z *= np.uint64(_M2)
    z ^= z >> 31
    return z


def _child_keys(keys: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Keys one level down: the finalizer over key + (counter + 1) * gamma."""
    return _mix(keys + (counters.astype(np.uint64) + np.uint64(1)) * np.uint64(_GAMMA))


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
    """The 64-bit key of one formation, folded from (seed, n, trial, protocol, ratio).

    The ratio enters as the numerator and denominator of its exact decimal
    value, the Fraction ceil_scale uses, so its value keys the formation,
    not its place in a grid. A word's limb count follows its limbs, so
    words of any size, a seed among them, key distinctly.
    """
    return _fold(_fold(0, seed, n, trial, _PROTOCOL_CODE[protocol]), *_as_fraction(ratio))


def keyed_draws(
    keys: np.ndarray, counts: np.ndarray, windows: np.ndarray, coins: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """Slots, and with coins the transmit uniforms, of counts[i] draws from session i's windows[i] slots.

    keys[i] is the session's cycle key. Its draw of rank r hashes
    (keys[i], 2r) to h and takes slot floor((h >> 11) * 2**-53 * windows[i]),
    clipped to windows[i] - 1. The 53-bit uniform times the window is
    rounded once, so a slot's probability is off 1/windows[i] by less
    than windows[i] / 2**53; the clip catches a product that rounds up
    to the window. A coin is the 53-bit uniform of the second word
    (keys[i], 2r + 1); the STA transmits when it lies below csma_p.
    Draws come back session by session, in rank order.
    """
    stride = np.uint64(2 * _GAMMA & _MASK)
    starts = (np.cumsum(counts) - counts).astype(np.uint64)
    # key + (2r + 1) * gamma for rank r = position - start
    x = np.repeat(keys + np.uint64(_GAMMA) - starts * stride, counts)
    x += np.arange(len(x), dtype=np.uint64) * stride
    coin = x + np.uint64(_GAMMA) if coins else None
    u = (_mix(x) >> 11).astype(np.float64)
    u *= _UNIT
    top = np.repeat(windows, counts)
    u *= top
    top -= 1
    slots = np.minimum(u.astype(np.int64), top, out=top)
    if coin is None:
        return slots, None
    u = (_mix(coin) >> 11).astype(np.float64)
    u *= _UNIT
    return slots, u


# ---- the block engine

_INT64_MAX = 2**63 - 1
GROUP_STAS = 2**16  # a group's (n, trial) pairs hold at most this many STAs over their ratio cells (one pair may hold more)
DRAW_CHUNK = 2**12  # the draws of one step are handled in runs of sessions of about this many draws
BIN_SLOTS = 2**14  # a run's draws are binned while its windows add up to at most this many slots (128 KB of bins)


class _Sessions(NamedTuple):
    """A tree as the engine reads it: its coordinator sessions, ascending by node id, and a few sums."""

    nodes: np.ndarray    # coordinator node ids
    pending: np.ndarray  # each coordinator's children: its session's STAs
    depth: np.ndarray    # the children's depth, k
    n_sta: int
    max_depth: int
    joins: int           # STAs over all sessions; equals n_sta for a well-formed tree
    hops: int            # sum of k over all STAs
    relays: int          # sum of 2*(k-1) over all sessions: the relay frames of E-PMAC and P-MAC


def _sessions(tree: NetworkTree) -> _Sessions:
    parent = np.asarray(tree.parent, dtype=np.int64)
    children = np.bincount(parent[1:], minlength=len(parent))
    nodes = np.flatnonzero(children)
    pending = children[nodes]
    depth = np.asarray(tree.depth, dtype=np.int64)[nodes] + 1
    return _Sessions(nodes, pending, depth, tree.n_sta, tree.max_depth, int(pending.sum()),
                     int(pending @ depth), 2 * int((depth - 1).sum()))


class _Ratios:
    """Positive decimal factors as exact fractions, for ceil(factor * x) per element, picked by index."""

    def __init__(self, ratios: Sequence[float]) -> None:
        fracs = [_as_fraction(r) for r in ratios]
        self.num, self.den = [p for p, _ in fracs], [q for _, q in fracs]
        self.num_max, self.den_max = max(self.num, default=1), max(self.den, default=1)
        fits = max(self.num_max, self.den_max) <= _INT64_MAX
        self.num64 = np.array(self.num if fits else [], dtype=np.int64)
        self.den64 = np.array(self.den if fits else [], dtype=np.int64)
        whole = [p // q for p, q in fracs]
        self.whole_max = max(whole, default=0)
        self.whole = np.array(whole if self.whole_max <= _INT64_MAX else [], dtype=np.int64)
        self.part = np.array([(p % q) / q for p, q in fracs])  # each correctly rounded

    def windows(self, f: np.ndarray, x: np.ndarray) -> np.ndarray:
        """ceil(factor[f[i]] * x[i]) per i for x >= 0, exactly: int64 when every value fits, else Python ints.

        Three ways, cheapest first: int64 products when they cannot
        overflow; else the whole part in int64 plus the ceiling of the
        fraction part in floats, checked against the float error
        (below x * 2**-51) and redone in Python ints for the rare product
        too near an integer; else Python ints throughout.
        """
        top = int(x.max(initial=0))
        if len(self.num64) and self.num_max * top <= _INT64_MAX:
            return -(-self.num64[f] * x // self.den64[f])
        if len(self.whole) and (self.whole_max + 1) * top <= _INT64_MAX and top < 2**40:
            y = self.part[f] * x
            c = np.ceil(y)
            gap = c - y
            tol = x * 2.0**-48
            w = self.whole[f] * x + c.astype(np.int64)
            for i in np.flatnonzero((gap < tol) | (gap > 1 - tol)).tolist():
                w[i] = -(-self.num[f[i]] * int(x[i]) // self.den[f[i]])
            return w
        num, den = np.array(self.num, dtype=object)[f], np.array(self.den, dtype=object)[f]
        out = -(-num * x.astype(object) // den)
        return out.astype(np.int64) if out.max(initial=0) <= _INT64_MAX else out


def _draw_joins(ckeys, counts, windows, csma_p):
    """Joins per drawing session, and with csma_p the transmitters, from one keyed draw per STA.

    A draw joins when no other draw of its session, among the
    transmitters, took its slot. Memory follows the draws, not the
    windows: the draws go in runs of sessions of about DRAW_CHUNK, and a
    run whose windows add up to at most BIN_SLOTS bins them at each
    session's offset with one bincount; a wider run sorts (session, slot)
    pairs instead. Sessions may draw nothing (counts of 0).
    """
    n = len(counts)
    joins = np.empty(n, dtype=np.int64)
    sent = None if csma_p is None else np.empty(n, dtype=np.int64)
    ends = np.cumsum(counts)
    cuts = np.searchsorted(ends, np.arange(DRAW_CHUNK, int(ends[-1]), DRAW_CHUNK), side="right")
    bounds = sorted({0, n, *cuts.tolist()})
    for lo, hi in zip(bounds, bounds[1:]):
        c, w, keys = counts[lo:hi], windows[lo:hi], ckeys[lo:hi]
        binned = w.max() <= BIN_SLOTS and w.sum() <= BIN_SLOTS
        if binned and (m := int(c.sum())) < 1024:
            # a dummy last session, whose joins are dropped, pads a short run to a power of two of at least
            # 128 draws and to 128 slots: numpy caches freed buffers under 1 KB by exact size, few sizes keep it small
            c = np.append(c, max(128, 1 << m.bit_length()) - m)
            w = np.append(w, max(1, 128 - int(w.sum())))
            keys = np.append(keys, np.uint64(0))
        slots, u = keyed_draws(keys, c, w, sent is not None)
        send = None if u is None else u < csma_p
        sess = np.repeat(np.arange(len(c)), c)
        if binned:
            cell = np.repeat(np.cumsum(w) - w, c) + slots
            hits = np.bincount(cell if send is None else cell[send], minlength=int(w.sum()))
            alone = hits[cell] == 1
        else:
            pick = np.arange(len(slots)) if send is None else np.flatnonzero(send)
            order = np.lexsort((slots[pick], sess[pick]))
            by_sess, by_slot = sess[pick][order], slots[pick][order]
            same = (by_sess[1:] == by_sess[:-1]) & (by_slot[1:] == by_slot[:-1])
            lone = np.ones(len(order), dtype=bool)
            lone[1:] &= ~same
            lone[:-1] &= ~same
            alone = np.zeros(len(slots), dtype=bool)
            alone[pick[order[lone]]] = True
        if send is not None:
            alone &= send
            sent[lo:hi] = np.bincount(sess[send], minlength=len(c))[: hi - lo]
        joins[lo:hi] = np.bincount(sess[alone], minlength=len(c))[: hi - lo]
    return joins, sent


def _run_block(
    protocol: Protocol,
    cfg: RunConfig,
    trees: Sequence[_Sessions],
    formations: Sequence[tuple[int, float, int]],
) -> list[FormationResult | Exception]:
    """Run formations, each (index into trees, slot ratio, key), in lockstep; one result or error per formation.

    Each step runs one networking cycle of every pending session. Its
    window comes from ceil_scale (P-MAC floors it at 2 for two or more
    contenders) or, for E-PMAC, from the slot controller written over
    arrays, which restarts a session whose probes ran out with a fresh
    first PTE. A lone E-PMAC or P-MAC contender joins without a draw; a
    lone CSMA contender still flips its coin. Slots are priced once per
    formation from its totals: windows, cycles and first cycles per
    session, plus sums over the tree (relay frames 2*(k-1) per E-PMAC or
    P-MAC session at depth k >= 2). A formation whose cycle count would
    pass cfg.max_nc gets a NonTermination, and one whose window would
    pass 2**63 slots with a draw to make a ValueError; the others run on.
    """
    epmac = protocol is Protocol.EPMAC
    pmac = protocol is Protocol.PMAC
    csma_p = cfg.csma_p if protocol is Protocol.IEEE1901 else None
    n_form = len(formations)
    picks = [trees[t] for t, _, _ in formations]
    sizes = np.array([len(t.nodes) for t in picks], dtype=np.int64)
    form = np.repeat(np.arange(n_form), sizes)
    n_ses = len(form)

    def stacked(field: str) -> np.ndarray:  # one tree field over every session of the block
        return np.concatenate([getattr(t, field) for t in picks]) if n_ses else form

    ratios = _Ratios([ratio for _, ratio, _ in formations])
    zeros = np.zeros(n_ses, dtype=np.int64)
    st = {  # one entry per session; a drained one stays, with pend 0, until the arrays shrink
        "form": form,
        "pend": stacked("pending"),
        "skey": _child_keys(np.array([k for *_, k in formations], dtype=np.uint64)[form], stacked("nodes")),
        "cyc": zeros,   # cycles run, which is also the index of the next one
        "paid": zeros,  # window slots over the session's cycles
    }
    if epmac:
        growth = _Ratios([cfg.k1, cfg.k2])  # k1 after a thin PTE, k2 after an idle one
        n0 = ratios.windows(form, st["pend"])
        st.update(n0=n0, wp=n0, sp=zeros, tf=zeros, first=np.ones(n_ses, dtype=bool), firsts=zeros, batch=zeros)
    elif csma_p is not None:
        st.update(sent=zeros, cco=stacked("depth") == 1)  # the CCO's session opens with central beacons
    # per formation, what its drained sessions ran and paid
    totals = {key: np.zeros(n_form, dtype=np.int64) for key in ("cyc", "paid", "firsts", "batch", "sent") if key in st}
    if csma_p is not None:
        totals["central"] = np.zeros(n_form, dtype=np.int64)
    outcome: list = [None] * n_form
    form_cycles = np.zeros(n_form, dtype=np.int64)
    most = max(int(sizes.max(initial=0)), 1)  # sessions of the largest formation
    free_steps = cfg.max_nc // most  # no formation can pass its budget before this
    paid_bound = 0  # no session has paid more window slots than this
    step = 0

    def keep_only(keep: np.ndarray) -> None:
        for key, v in st.items():  # one array at a time, so the state is never held twice
            st[key] = v[keep]

    def fail(errors: dict) -> np.ndarray:
        """Record each formation's error and drop all its sessions; returns the kept mask over sessions."""
        failed = np.zeros(n_form, dtype=bool)
        for f, exc in errors.items():
            outcome[f] = exc
            failed[f] = True
        keep = ~failed[st["form"]]
        keep_only(keep)
        return keep

    while st["pend"].any():
        step += 1
        active = st["pend"] > 0
        form_cycles += np.bincount(st["form"], weights=active, minlength=n_form).astype(np.int64)
        if step > free_steps and (over := form_cycles > cfg.max_nc).any():
            waiting = np.bincount(st["form"], weights=st["pend"], minlength=n_form)
            fail({f: NonTermination(
                f"{protocol.value} run exceeded max_nc={cfg.max_nc} with {int(waiting[f])} STA(s) still pending"
            ) for f in np.flatnonzero(over).tolist()})
            form_cycles[over] = 0  # it has no sessions left to count
            if not st["pend"].any():
                break
            active = st["pend"] > 0
        pend = st["pend"]
        if epmac:
            wp, sp, first = st["wp"], st["sp"], st["first"]
            idle = sp == 0
            restart = idle & ~first & (st["tf"] > cfg.t_f_max)  # probes ran out: a fresh first PTE
            thin = ~idle & (sp / wp <= cfg.eta_min)
            first = first | restart
            w = np.where(first, st["n0"], np.where(idle | thin, growth.windows(idle.astype(np.intp), wp), wp))
        else:
            w = ratios.windows(st["form"], pend)
            if pmac:
                w[(w < 2) & (pend >= 2)] = 2  # two contenders in one slot collide forever
        if w.dtype == object:  # a window above 2**63 - 1 slots
            bad = np.flatnonzero((w > MAX_WINDOW) & ((pend >= 2) | (csma_p is not None)))
            if len(bad):
                keep = fail({int(st["form"][i]): ValueError(
                    f"a window of {w[i]} slots is above 2**63, more than one draw can take"
                ) for i in bad.tolist()})
                if not st["pend"].any():
                    break
                w, pend, active = w[keep], st["pend"], active[keep]
                if epmac:
                    first, restart = first[keep], restart[keep]
            exact = w
            w = np.minimum(w, _INT64_MAX).astype(np.int64)  # 2**63 draws as 2**63 - 1: no draw reaches its top slot
        else:
            exact = w
            paid_bound += int(w.max())
            if paid_bound * most > _INT64_MAX and st["paid"].dtype != object:  # sums that could wrap: Python ints
                st["paid"], totals["paid"] = st["paid"].astype(object), totals["paid"].astype(object)
        # a lone E-PMAC or P-MAC contender joins without a draw; a lone CSMA contender flips its coin
        counts = pend if csma_p is not None else np.where(pend >= 2, pend, 0)
        s, sent = _draw_joins(_child_keys(st["skey"], st["cyc"]), counts, w, csma_p)
        if csma_p is not None:
            st["sent"] = st["sent"] + sent
        else:
            s[pend == 1] = 1
        st["pend"] = pend - s
        st["cyc"] = st["cyc"] + active
        st["paid"] = st["paid"] + (exact * active if epmac else exact)  # a drained session's ratio window is 0
        if epmac:
            st["firsts"] = st["firsts"] + (first & active)
            st["batch"] = st["batch"] - (-s // cfg.tdf_capacity) - (-s // cfg.sdf_capacity)
            st["tf"] = np.where(s > 0, 0, np.where(restart, 0, st["tf"]) + 1)
            st["wp"], st["sp"], st["first"] = np.where(active, exact, 1), s, np.zeros(len(s), dtype=bool)
        done = active & (st["pend"] == 0)
        if done.any():
            gone = st["form"][done]
            for key, total in totals.items():
                if key == "central":
                    np.add.at(total, gone, st["cyc"][done] * st["cco"][done])
                    continue
                if st[key].dtype == object and total.dtype != object:
                    totals[key] = total = total.astype(object)
                np.add.at(total, gone, st[key][done])
            # once half the sessions have drained, shrink to the next power of two, padded with drained
            # ones: numpy caches freed buffers under 1 KB by exact size, and few sizes keep that cache small
            keep = st["pend"] > 0
            left = int(keep.sum())
            if 2 * left <= len(keep):
                keep[np.flatnonzero(~keep)[: (1 << max(left - 1, 0).bit_length()) - left]] = True
                keep_only(keep)

    for f, t in enumerate(picks):
        if outcome[f] is not None:
            continue
        if t.joins != t.n_sta:
            outcome[f] = RuntimeError("formation ended with unjoined STAs despite empty sessions")
            continue
        cycles, paid, n = int(totals["cyc"][f]), int(totals["paid"][f]), t.n_sta
        if epmac:
            firsts = int(totals["firsts"][f])
            data = firsts + int(totals["batch"][f]) + n + t.relays
            counts = (paid + n + cycles - firsts, data, 0, 0, 0, 0)
        elif pmac:
            data = 3 * t.hops + t.relays
            counts = (cycles + paid + n, data, 0, 0, 0, 0)
        else:
            central, extra = int(totals["central"][f]), t.hops - n  # a request/indication pair per extra hop
            counts = (0, 0, central, cycles - central, paid + extra, n + extra)
            data = cycles + int(totals["sent"][f]) + n + 2 * extra
        outcome[f] = FormationResult(cfg.timing.cost(counts), cycles, data, counts[0], n)
    return outcome


def run_formation(
    protocol: Protocol,
    tree: NetworkTree,
    cfg: RunConfig,
    slot_ratio: float,
    key: int,
) -> FormationResult:
    """Simulate one complete network formation and account for every slot.

    The block engine on a block of one. key is the formation's 64-bit
    draw key; a sweep's cells use formation_key(seed, n, trial,
    protocol, ratio). Proxy sessions at depth k >= 2 are charged a relay
    overhead of 2*(k-1) data-frame slots (beacon chain down, report
    chain up); the run adds up slot counts by kind and prices them once,
    with cfg.timing.cost.

    slot_ratio is the experiment's free parameter (PTE slots per pending
    STA); the sweeps explore 0.5 to 2.0 but any positive finite value is legal.
    """
    if not (slot_ratio > 0 and math.isfinite(slot_ratio)):
        raise ValueError(f"slot_ratio must be positive and finite, got {slot_ratio!r}")
    check_first_window(slot_ratio, tree.n_sta)
    result = _run_block(protocol, cfg, [_sessions(tree)], [(0, slot_ratio, key)])[0]
    if isinstance(result, Exception):
        raise result
    return result


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

    Exactly one of ratio_grid / ratio_random is set. Every (n, trial)
    seeds one generator from (seed, n, trial); in random mode the ratio
    is its first draw, and a multi-layer tree comes next. All protocols
    and ratio cells of the pair share that tree and ratio, and every
    contention draw is keyed by formation_key, so a row is a pure
    function of (seed, protocol, n, ratio value, trial), however the
    work is grouped or scheduled. The inherited model constants are what
    every formation reads.
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

    @property
    def ratio_cells(self) -> int:
        return len(self.ratio_grid) if self.ratio_grid is not None else 1

    def cell_index(self, proto_idx: int, n_idx: int, ratio_idx: int, trial: int) -> int:
        """The cell's place in row order: protocol, then size, then ratio cell, then trial."""
        return ((proto_idx * len(self.n_values) + n_idx) * self.ratio_cells + ratio_idx) * self.trials + trial

    def cell_name(self, index: int) -> str:
        rest, trial = divmod(index, self.trials)
        rest, ratio_idx = divmod(rest, self.ratio_cells)
        proto_idx, n_idx = divmod(rest, len(self.n_values))
        return f"protocol={self.protocols[proto_idx].value} n={self.n_values[n_idx]} ratio_index={ratio_idx} trial={trial}"


Group = list[tuple[int, int]]  # (index into n_values, trial) pairs, n-major


def _groups(plan: ExperimentPlan) -> list[Group]:
    """Consecutive (n, trial) pairs, n-major, while their STAs over all ratio cells stay within GROUP_STAS."""
    groups: list[Group] = []
    held = GROUP_STAS + 1
    for n_idx, n in enumerate(plan.n_values):
        for trial in range(plan.trials):
            if held + n * plan.ratio_cells > GROUP_STAS:
                groups.append([])
                held = 0
            groups[-1].append((n_idx, trial))
            held += n * plan.ratio_cells
    return groups


def _run_group(plan: ExperimentPlan, group: Group) -> tuple[list[tuple[int, ResultRow]], list[tuple[int, Exception]]]:
    """Rows of every cell of the group's pairs, and every failure, each with its cell index.

    The trees are built once and every protocol runs them in one block.
    A pair whose tree fails ends the group's building: the pairs before
    it still run, and no cell after it can come before it in cell order.
    """
    rows: list[tuple[int, ResultRow]] = []
    failures: list[tuple[int, Exception]] = []
    trees: list[_Sessions] = []  # one per pair; a single-layer plan's trials share their star
    cells: list[tuple[int, int, int, int, float]] = []  # (pair, n index, ratio index, trial, ratio)
    for n_idx, trial in group:
        n = plan.n_values[n_idx]
        try:
            if plan.multi_layer or plan.ratio_random is not None:
                rng = np.random.default_rng(np.random.SeedSequence((plan.seed, n, trial)))
            if plan.ratio_random is not None:
                lo, hi = plan.ratio_random
                ratios = (float(lo + (hi - lo) * rng.random()),)
            else:
                ratios = plan.ratio_grid
            if plan.multi_layer:
                trees.append(_sessions(generate_tree(n, plan.max_layers, rng)))
            else:
                trees.append(trees[-1] if trees and trees[-1].n_sta == n else _sessions(single_layer(n)))
        except Exception as exc:
            failures.append((plan.cell_index(0, n_idx, 0, trial), exc))
            break
        cells.extend((len(trees) - 1, n_idx, ratio_idx, trial, r) for ratio_idx, r in enumerate(ratios))
    for proto_idx, protocol in enumerate(plan.protocols):
        code = _PROTOCOL_CODE[protocol]
        prefix = [_fold(0, plan.seed, plan.n_values[n_idx], trial, code) for n_idx, trial in group[:len(trees)]]
        formations = [(t, r, _fold(prefix[t], *_as_fraction(r))) for t, _, _, _, r in cells]
        indices = [plan.cell_index(proto_idx, n_idx, ratio_idx, trial) for _, n_idx, ratio_idx, trial, _ in cells]
        try:
            results = _run_block(protocol, plan, trees, formations) if cells else []
        except Exception as exc:
            failures.append((min(indices), exc))
            continue
        for index, (t, n_idx, _, trial, r), result in zip(indices, cells, results):
            if isinstance(result, Exception):
                failures.append((index, result))
                continue
            rows.append((index, ResultRow(
                protocol=protocol.value,
                n_node=plan.n_values[n_idx],
                ratio=r,
                trial=trial,
                elapsed_us=result.total_us,
                nc_count=result.nc_count,
                data_frames=result.data_frames,
                preambles=result.preambles,
                layers=trees[t].max_depth,
            )))
    return rows, failures


def run_experiment(plan: ExperimentPlan, jobs: int = 1) -> list[ResultRow]:
    """Run every cell of the plan; rows come back ordered by cell coordinates.

    Cells run in groups of (n, trial) pairs, one block per protocol.
    jobs > 1 fans the groups out to worker processes; every row is a
    pure function of its cell, so the rows are identical either way. If
    cells fail, the first failing cell in row order raises, with the
    cell named in the exception's cell attribute.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    groups = _groups(plan)
    if jobs == 1 or len(groups) < 2:
        outs = [_run_group(plan, group) for group in groups]
    else:
        from concurrent.futures import ProcessPoolExecutor  # deferred: a jobs=1 process never pays for it
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outs = list(pool.map(_run_group, repeat(plan), groups))
    rows: list = [None] * (len(plan.protocols) * len(plan.n_values) * plan.ratio_cells * plan.trials)
    failures = []
    for got, failed in outs:
        for index, row in got:
            rows[index] = row
        failures += failed
    if failures:
        index, exc = min(failures, key=lambda item: item[0])
        exc.cell = plan.cell_name(index)
        raise exc
    return rows


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
