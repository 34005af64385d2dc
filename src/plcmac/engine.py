"""Formation engine: every coordinator session of a group of formations, stepped together.

Every contention draw is a pure function of its identity: the formation
(seed, n, trial, protocol and the ratio's value), the coordinator's node
id, the cycle's index within its session and the STA's rank. So a
session's course depends on nothing outside it, and the engine steps
every pending session of a block of formations at once, whatever their
protocols: one keyed draw over all pending STAs, one count of the STAs
alone in their slot, and closed-form slot counts by kind added to each
formation's totals.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cache
from itertools import repeat
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .core import Protocol, RunConfig, TimingTable, _as_int
from .slot_alloc import MAX_WINDOW, _as_fraction, check_first_window
from .topology import CCO_ID, Forest, NetworkTree, grow_tree, single_layer

# bench/tracer.py looks these names up on this module; the block engine does not call them (a sweep calls grow_tree)
from .mac_protocols import simulate_nc_csma, simulate_nc_epmac, simulate_nc_pmac  # noqa: F401
from .slot_alloc import ceil_scale, fresh_state, next_slot_count, record_pte  # noqa: F401
from .topology import generate_tree  # noqa: F401


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


# ---- keyed draws: counter-based (Salmon et al., SC'11) with SplitMix64's finalizer (Steele, Lea & Flood, OOPSLA 2014)

_MASK = 2**64 - 1
_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's increment, 2**64 over the golden ratio
# the words as numpy scalars, made once: _STRIDE steps from one rank's words to the next (a slot word and a coin word)
_ONE, _GAMMA64, _STRIDE, _M1, _M2 = map(np.uint64, (1, _GAMMA, 2 * _GAMMA & _MASK, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB))
_UNIT = 2.0**-53
_PROTOCOL_CODE = {Protocol.EPMAC: 1, Protocol.PMAC: 2, Protocol.IEEE1901: 3}  # in code order, whatever the enum order


def _protocol_code(protocol: Protocol) -> int:
    """protocol's code in the keys and the block: 1 for E-PMAC, 2 for P-MAC, 3 for IEEE 1901.1; anything else raises."""
    if isinstance(protocol, Protocol):
        return _PROTOCOL_CODE[protocol]
    raise ValueError(f"protocols must be Protocol members, got {protocol!r}")


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer over a uint64 array, in place, its shifts in one scratch array; uint64 products wrap."""
    shifted = np.empty_like(z)
    z ^= np.right_shift(z, 30, out=shifted)
    z *= _M1
    z ^= np.right_shift(z, 27, out=shifted)
    z *= _M2
    z ^= np.right_shift(z, 31, out=shifted)
    return z


def _child_keys(keys: np.ndarray, counters: int | np.ndarray) -> np.ndarray:
    """Keys one level down: the finalizer over key + (counter + 1) * gamma, for one counter or one per key."""
    return _mix(keys + np.multiply(np.uint64(counters) + _ONE, _GAMMA64))  # a ufunc: a scalar product wraps silently


def _fold(h: np.ndarray, *words) -> np.ndarray:
    """Fold words into the 64-bit keys h, key by key: each word as its 64-bit limbs, low first, and then their count.

    A word is one non-negative int for every key, or a column of them,
    one per key, of any size. A key folds a limb l as
    finalizer((h ^ l) + gamma), so a word's limb count follows its limbs
    and words of any size key distinctly.
    """
    for word in words:
        try:
            h = _mix((h ^ np.asarray(word, dtype=np.uint64)) + _GAMMA64)
            count = _ONE
        except OverflowError:  # some word has two limbs or more, or is negative
            rest = np.asarray(word, dtype=object).reshape(-1)
            if (rest < 0).any():
                raise ValueError(f"a key word must be non-negative, got {rest[rest < 0][0]}") from None
            h = _mix((h ^ (rest & _MASK).astype(np.uint64)) + _GAMMA64)
            count = np.ones(h.shape, dtype=np.uint64)
            rest = rest >> 64
            while (more := rest != 0).any():
                h = np.where(more, _mix((h ^ (rest & _MASK).astype(np.uint64)) + _GAMMA64), h)
                count += more
                rest = rest >> 64
        h = _mix((h ^ count) + _GAMMA64)
    return h


def formation_key(seed: int, n: int, trial: int, protocol: Protocol, ratio: float) -> int:
    """The 64-bit key of one formation, folded from (seed, n, trial, protocol, ratio).

    The ratio enters as the numerator and denominator of its exact decimal
    value, the Fraction ceil_scale uses, so its value keys the formation,
    not its place in a grid. A word's limb count follows its limbs, so
    words of any size, a seed among them, key distinctly.
    """
    words = [_as_int("a key word", word) for word in (seed, n, trial)]
    return int(_fold(np.zeros(1, dtype=np.uint64), *words, _protocol_code(protocol), *_as_fraction(ratio))[0])


@cache
def _rank_strides() -> np.ndarray:
    """rank * _STRIDE for the ranks of a usual draw run, made on first use; read-only."""
    table = np.arange(2 * DRAW_CHUNK, dtype=np.uint64) * _STRIDE
    table.flags.writeable = False
    return table


def keyed_draws(
    keys: np.ndarray, counts: np.ndarray, windows: np.ndarray, coins: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """Slots, and with coins the transmit uniforms, of counts[i] draws from session i's windows[i] slots.

    keys[i] is the session's cycle key. Its draw of rank r hashes
    (keys[i], 2r) to h and takes slot floor((h >> 11) * (windows[i] *
    2**-53)). The window times 2**-53 is exact, so the 53-bit uniform
    times the window is rounded once, and a slot's probability is off
    1/windows[i] by less than windows[i] / 2**53. Below 2**52 slots the
    largest uniform, 1 - 2**-53, rounds to less than the window; a run
    with a wider window clips its slots to windows[i] - 1. A coin is the
    53-bit uniform of the second word (keys[i], 2r + 1); the STA
    transmits when it lies below csma_p. Draws come back session by
    session, in rank order. The slot words, and the coin words after
    them, are hashed in place in one buffer; the inputs are only read.
    """
    starts = (counts.cumsum() - counts).astype(np.uint64)
    # key + (2r + 1) * gamma for rank r = position - start: the slot words, then the coin words one gamma on
    first = (keys + _GAMMA64 - starts * _STRIDE).repeat(counts)
    m, ranks = len(first), _rank_strides()
    x = np.empty(2 * m if coins else m, dtype=np.uint64)
    np.add(first, ranks[:m] if m <= len(ranks) else np.arange(m, dtype=np.uint64) * _STRIDE, out=x[:m])
    if coins:
        np.add(x[:m], _GAMMA64, out=x[m:])
    np.right_shift(_mix(x), 11, out=x)  # 53-bit words, which turn into floats exactly
    u = (windows * _UNIT).repeat(counts)
    u *= x[:m]
    slots = u.astype(np.int64)
    if windows.max(initial=0) >= 2**52:
        np.minimum(slots, (windows - 1).repeat(counts), out=slots)
    return slots, x[m:] * _UNIT if coins else None


# ---- the block engine

_INT64_MAX = 2**63 - 1
GROUP_STAS = 2**16  # a group's (n, trial) pairs hold at most this many STAs over their ratio cells (one pair may hold more)
DRAW_CHUNK = 2**13  # the draws of one step are handled in runs of sessions of about this many draws
BIN_SLOTS = 2**16  # a run's draws are binned while its windows add up to at most this many slots (512 KB of counts)
SHRINK_FLOOR = 64  # a block of this many sessions or fewer no longer shrinks


class _Table(NamedTuple):
    """Trees as the engine reads them: each tree's coordinator sessions, crowded ones first, each part by node id,
    one tree after another; and per-tree columns."""

    nodes: np.ndarray      # coordinator node ids
    pending: np.ndarray    # each coordinator's children: its session's STAs
    start: np.ndarray      # tree t's sessions are [start[t], start[t + 1])
    crowded: np.ndarray    # sessions of two or more STAs, which come first
    n_sta: np.ndarray
    joins: np.ndarray      # STAs over all sessions; equals n_sta for a well-formed tree
    hops: np.ndarray       # sum of k over all STAs
    relays: np.ndarray     # sum of 2*(k-1) over all sessions: the relay frames of E-PMAC and P-MAC
    layers: np.ndarray     # the depth of the deepest STA


def _sessions(forest: Forest) -> _Table:
    """The sessions of every tree of the forest, from one pass over all their nodes."""
    sizes, total = forest.sizes, len(forest.parent)
    first = np.cumsum(sizes) - sizes  # each tree's CCO
    owner = np.repeat(np.arange(len(sizes)), sizes)
    parent = forest.parent + first[owner]
    parent[first] = -1  # a CCO is no child
    children = np.bincount(parent[parent >= 0], minlength=total)
    coords = np.flatnonzero(children)
    coords = coords[np.argsort(2 * owner[coords] + (children[coords] < 2), kind="stable")]
    tree = owner[coords]
    pending, depth = children[coords], forest.depth[coords] + 1
    start = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(np.bincount(tree, minlength=len(sizes)), out=start[1:])
    layers = np.maximum.reduceat(np.append(depth, 0), start[:-1]) * (start[1:] > start[:-1])  # 0 without sessions

    def per_tree(x: np.ndarray) -> np.ndarray:
        upto = np.zeros(len(x) + 1, dtype=np.int64)
        np.cumsum(x, out=upto[1:])
        return upto[start[1:]] - upto[start[:-1]]

    return _Table(coords - first[tree], pending, start, np.bincount(tree[pending > 1], minlength=len(sizes)),
                  forest.n_sta, per_tree(pending), per_tree(pending * depth),
                  2 * per_tree(depth - 1), layers)


class _Ratios:
    """Positive decimal factors as exact fractions, for ceil(factor * x) per element, picked by index."""

    def __init__(self, ratios: Sequence[float]) -> None:
        fracs = [_as_fraction(r) for r in ratios]
        self.num, self.den = [p for p, _ in fracs], [q for _, q in fracs]
        self.num_max, self.den_max = max(self.num, default=1), max(self.den, default=1)
        # each numerator and denominator mod 2**64, as int64: the values themselves wherever they are below 2**63
        self.num64 = np.array([p & _MASK for p in self.num], dtype=np.uint64).astype(np.int64)
        self.den64 = np.array([q & _MASK for q in self.den], dtype=np.uint64).astype(np.int64)
        self.value = np.array([p / q if p < q << 1022 else np.inf for p, q in fracs])  # correctly rounded; inf from 2**1022
        self.value_max = float(self.value.max(initial=0))

    def windows(self, f: np.ndarray, x: np.ndarray) -> np.ndarray:
        """ceil(factor[f[i]] * x[i]) per i for x >= 0, exactly: int64 when every value fits, else Python ints.

        Three ways, cheapest first: int64 products when they cannot
        overflow; else, while every factor * x is below 2**50 and every
        denominator at most 2**62, a float estimate and one exact
        correction; else Python ints throughout. The estimate rounds three
        times, by a relative 2**-53 each, so it lies within 3/8 of
        factor * x and its ceiling c within one of the true one. The
        residue c * den - num * x then lies in [-den, 2 * den), so int64
        holds it, and products that wrap mod 2**64 give it exactly.
        """
        top = int(x.max(initial=0))
        if self.num_max * top <= _INT64_MAX and self.den_max <= _INT64_MAX:
            return -(-self.num64[f] * x // self.den64[f])
        if self.value_max * top < 2**50 and self.den_max <= 2**62:
            c = np.ceil(self.value[f] * x).astype(np.int64)
            den = self.den64[f]
            d = c.view(np.uint64) * den.view(np.uint64) - self.num64[f].view(np.uint64) * x.view(np.uint64)
            d = d.view(np.int64)
            c += d < 0
            c -= d >= den
            return c
        num, den = np.array(self.num, dtype=object)[f], np.array(self.den, dtype=object)[f]
        out = -(-num * x.astype(object) // den)
        return out.astype(np.int64) if out.max(initial=0) <= _INT64_MAX else out


def _draw_joins(ckeys, counts, windows, csma_p, coins_from):
    """Joins per drawing session, and the transmitters of sessions coins_from on, from one keyed draw per STA.

    A draw joins when no other draw of its session, among the
    transmitters, took its slot, so a session's only draw joins whenever
    it transmits. A draw of a session coins_from or later transmits when
    its coin lies below csma_p, and every other draw transmits; with
    coins_from = len(counts), no draw takes a coin. Memory follows the
    draws, not the windows: the draws go in runs of sessions of about
    DRAW_CHUNK, and a step of at most DRAW_CHUNK draws is one run, found
    without a search. A run lays its sessions' windows end to end (in Python
    ints when their total could pass 2**63 - 1) and moves each draw's slot
    to its session's place, with one repeat. A session's transmitters are
    one segment sum (add.reduceat) of the transmit flags from its first
    draw, and the transmitters are picked by index. While the windows add
    up to at most BIN_SLOTS, they are binned with one bincount and a
    session's joins are one segment sum of the lone bins from its
    window's start; otherwise they are sorted and one searchsorted finds
    each lone cell's session. Each array summed by segments ends in one
    zero past the last segment, so the start of a session that draws
    nothing is a valid index even at the end; reduceat reads an empty
    segment as the element at its start, so such sessions (counts of 0,
    which any window of 0 slots has) are set to 0 afterwards.
    """
    n, total = len(counts), int(counts.sum())
    if total <= DRAW_CHUNK:  # one run, found without a search; a step of no sessions draws nothing
        return _draw_run(ckeys, counts, windows, csma_p, coins_from) if n else (np.zeros(0, dtype=np.int64),) * 2
    cuts = counts.cumsum().searchsorted(np.arange(DRAW_CHUNK, total, DRAW_CHUNK), side="right")
    bounds = sorted({0, n, *cuts.tolist()})
    runs = [_draw_run(ckeys[lo:hi], counts[lo:hi], windows[lo:hi], csma_p, coins_from - lo)
            for lo, hi in zip(bounds, bounds[1:])]
    return tuple(map(np.concatenate, zip(*runs)))


def _draw_run(keys, c, w, csma_p, coins_from):
    """_draw_joins over one run of sessions: their joins, and the transmitters of sessions coins_from on."""
    coins, drew, sent = len(c) > coins_from, c > 0, np.zeros(0, dtype=np.int64)
    slots, u = keyed_draws(keys, c, w, coins)
    # a draw joins when its (session, slot) cell holds no other draw
    off = (w if int(w.max()) <= _INT64_MAX // len(w) else w.astype(object)).cumsum()
    base, total = off - w, off[-1]
    cells = base.repeat(c)
    cells += slots
    if coins:  # from here on, only the transmitting draws
        send = np.empty(len(u) + 1, dtype=bool)
        send[-1] = False
        np.less(u, csma_p, out=send[:-1])
        if coins_from > 0:  # a draw before coins_from sends whatever its coin
            send[: int(c[:coins_from].sum())] = True
        sent = (np.add.reduceat(send, c.cumsum() - c) * drew)[max(coins_from, 0):]
        cells = cells.compress(send[:-1])
    if total <= BIN_SLOTS:
        return np.add.reduceat(np.bincount(cells, minlength=total + 1) == 1, base) * drew, sent
    cells.sort()
    same = cells[1:] == cells[:-1]
    lone = np.ones(len(cells), dtype=bool)
    lone[1:] &= ~same
    lone[:-1] &= ~same
    return np.bincount(off.searchsorted(cells.compress(lone), side="right"), minlength=len(c)), sent


class _Columns(NamedTuple):
    """A block's results: each FormationResult field as a column over its formations, and each failed one's error."""

    total_us: list[int]
    nc_count: list[int]
    data_frames: list[int]
    preambles: list[int]
    errors: dict[int, Exception]

    def result(self, f: int) -> FormationResult | Exception:
        return self.errors.get(f) or FormationResult(*(column[f] for column in self[:4]))


def _run_block(
    cfg: RunConfig,
    table: _Table,
    code: Sequence[int],
    tree: Sequence[int],
    ratios: _Ratios,
    ratio: Sequence[int],
    key: Sequence[int],
) -> _Columns:
    """Run formations in lockstep: formation f runs protocol code[f] on table's tree[f] at ratios' ratio[f], keyed key[f].

    Each step runs one networking cycle of every pending session, whatever
    its protocol. Sessions are held E-PMAC first, then P-MAC, then CSMA, and
    stay in that order as the block shrinks, so each protocol's rule runs on
    its own contiguous slice. A window comes from ceil_scale (P-MAC floors
    it at 2 for two or more contenders) or, for E-PMAC, from the slot
    controller written over arrays, which sets a session's next window after
    each cycle and restarts one whose probes ran out with a fresh first PTE.
    An E-PMAC or P-MAC session lone from the start joins in its first cycle
    and is priced before the first step. Slots are priced once, for all
    formations together, from their totals: windows, cycles and first cycles
    per session, plus sums over the tree (relay frames 2*(k-1) per E-PMAC or
    P-MAC session at depth k >= 2). A formation whose cycle count would pass
    cfg.max_nc gets a NonTermination, and one whose window would pass 2**63
    slots with a draw to make a ValueError; the others run on.
    """
    n_form = len(code)
    code = np.asarray(code, dtype=np.int64) - 1  # a block's session order
    tree = np.asarray(tree, dtype=np.int64)
    order = np.argsort(code, kind="stable")
    sessions = np.diff(table.start)[tree]
    most = max(1, int(sessions.max(initial=0)))  # sessions of the largest formation
    free_steps = cfg.max_nc // most  # no formation can pass its budget before this
    # a lone E-PMAC or P-MAC contender joins in the first cycle, in ceil(ratio) slots, without a draw: priced now
    size = np.where(code < 2, table.crowded[tree], sessions)  # sessions it brings into the block
    lone = sessions - size
    e, p = int(size[code == 0].sum()), int(size[code < 2].sum())  # [0, e) E-PMAC, [e, p) P-MAC, [p, end) CSMA
    # every formation's sessions, in session order, gathered from the table
    size = size[order]
    form = np.repeat(order, size)
    at = np.repeat(table.start[tree[order]] - (np.cumsum(size) - size), size) + np.arange(len(form))
    pending, nodes = table.pending[at], table.nodes[at]
    rat = np.asarray(ratio, dtype=np.int64)
    growth = _Ratios([cfg.k1, cfg.k2])  # E-PMAC's window grows by k1 after a thin PTE, by k2 after an idle one
    window = ratios.windows(rat, np.ones(n_form, dtype=np.int64))  # a lone contender's
    paid_bound = int(window.max(initial=0)) if lone.any() else 0  # no session has paid more window slots than this
    firsts = lone * (code == 0)

    def zeros(size: int, *names: str) -> dict[str, np.ndarray]:
        return {name: np.zeros(size, dtype=np.int64) for name in names}

    # per formation, what its settled sessions ran and paid; a lone E-PMAC contender sends one TDF and one SDF
    totals = {
        "paid": lone * (window.astype(object) if paid_bound * most > _INT64_MAX else window),
        "cyc": lone,
        "firsts": firsts,
        "batch": 2 * firsts,
        **zeros(n_form, "sent", "central"),
    }
    # per-session state, one array per variable in session order; a drained session stays until a shrink settles it.
    # sent is 0 outside CSMA's [p, end), and cco marks CSMA's CCO sessions, whose cycles open with central beacons
    keys = np.asarray(key, dtype=np.uint64)[form]
    st = {"form": form, "pend": pending, "key": _child_keys(keys, nodes),
          "cco": (nodes == CCO_ID) & (np.arange(len(form)) >= p), **zeros(len(form), "cyc", "paid", "sent")}
    n0 = ratios.windows(rat[form[:e]], pending[:e])
    # E-PMAC's own state over [0, e): each session's next PTE, its window, whether it is a fresh first one and the idle
    # streak before it, and its first PTEs and batch frames (kept over all sessions, they slowed multi-layer sweeps)
    ep = {"n0": n0, "w": n0, "first": np.ones(e, dtype=bool), **zeros(e, "tf", "firsts", "batch")}
    del form, pending, nodes, keys  # only the state arrays stay alive through the steps
    errors: dict[int, Exception] = {}
    step = 0

    def settle(at: np.ndarray) -> None:
        """Add the drained sessions at these ascending places to their formations' totals."""
        f, to_e = st["form"].take(at), np.searchsorted(at, e)  # at[:to_e] are E-PMAC's
        for name, total in totals.items():
            rows, places = (ep, at[:to_e]) if name in ep else (st, at)
            v = st["cyc"].take(at) * st["cco"].take(at) if name == "central" else rows[name].take(places)
            np.add.at(total, f[: len(places)], v)

    def shrink(keep: np.ndarray) -> None:
        """Settle the sessions keep drops and drop them, one array at a time, so the state is never held twice."""
        nonlocal e, p, active
        settle(np.flatnonzero(~keep))
        at = np.flatnonzero(keep)
        e, p = np.searchsorted(at, (e, p)).tolist()
        for rows, picked in ((ep, at[:e]), (st, at)):
            for name, v in rows.items():
                rows[name] = v.take(picked)
        active = st["pend"] > 0

    def fail(failed: dict) -> None:
        """Record each formation's error and drop all its sessions."""
        errors.update(failed)
        gone = np.zeros(n_form, dtype=bool)
        gone[list(failed)] = True
        shrink(~gone[st["form"]])
        for total in totals.values():
            total[gone] = 0

    active = st["pend"] > 0  # the sessions still pending; each step's closing count carries over to the next
    while True:
        pend = st["pend"]
        if step >= free_steps:  # the next step may pass a budget; checked before the exit, so lone totals are too
            form = st["form"]
            cycles = np.bincount(form, weights=st["cyc"] + active, minlength=n_form) + totals["cyc"]
            if over := np.flatnonzero(cycles > cfg.max_nc).tolist():
                waiting = np.bincount(form, weights=pend, minlength=n_form)
                fail({f: NonTermination(f"{[*_PROTOCOL_CODE][code[f]].value} run exceeded max_nc={cfg.max_nc} with "
                                        f"{int(waiting[f])} STA(s) still pending") for f in over})
                continue  # the step again, without the failed formations' sessions
        if not active.any():
            break
        w = ratios.windows(rat[st["form"][e:]], pend[e:])
        if p > e:  # two contenders in one slot collide forever
            w_p = w[: p - e]
            np.maximum(w_p, np.minimum(pend[e:p], 2), out=w_p)
        if e:
            w = np.concatenate((ep["w"], w))
        if w.dtype == object:  # a window above 2**63 - 1 slots
            bad = np.flatnonzero(w > MAX_WINDOW)
            if len(bad):
                fail({int(st["form"][i]): ValueError(
                    f"a window of {w[i]} slots is above 2**63, more than one draw can take"
                ) for i in bad.tolist()})
                continue
            exact, w = w, np.minimum(w, _INT64_MAX).astype(np.int64)  # 2**63 draws as 2**63 - 1: no draw reaches its top slot
        else:
            exact = w
        step += 1
        paid_bound += int(exact.max())
        if paid_bound * most > _INT64_MAX:  # sums that could wrap: Python ints, each array converted once
            st["paid"], totals["paid"] = (v.astype(object, copy=False) for v in (st["paid"], totals["paid"]))
        s, sent = _draw_joins(_child_keys(st["key"], step - 1), pend, w, cfg.csma_p, p)
        pend -= s
        keep = pend > 0
        st["cyc"] += active
        st["paid"] = st["paid"] + exact * active  # Python ints once a window is; a drained session pays nothing
        st["sent"][p:] += sent
        if e:  # E-PMAC's slot controller sets each session's next PTE from the joins s of the one just run
            s, w, idle = s[:e], exact[:e], s[:e] == 0
            ep["firsts"] += ep["first"] & active[:e]
            ep["batch"] -= (-s // cfg.tdf_capacity) + (-s // cfg.sdf_capacity)
            ep["tf"] = np.where(idle, np.where(ep["first"], 0, ep["tf"]) + 1, 0)
            ep["first"] = idle & (ep["tf"] > cfg.t_f_max)  # probes ran out: a fresh first PTE
            # a thin PTE stretches the window by k1, an idle one (always thin) by k2; a drained session keeps 1 slot
            grown = np.where(s / w <= cfg.eta_min, growth.windows(idle.astype(np.intp), w), w)
            ep["w"] = np.where(keep[:e], np.where(ep["first"], ep["n0"], grown), 1)
        # once half the sessions of a block above SHRINK_FLOOR have drained, drop the drained ones
        active = keep
        if len(keep) > SHRINK_FLOOR and 2 * int(np.count_nonzero(keep)) <= len(keep):
            shrink(keep)
    settle(np.arange(len(st["pend"])))

    # every formation priced at once, from its totals and its tree's sums. Each count below is at most top, so each
    # price is at most the cost of top slots of every kind, which also bounds every slot length: when that could
    # pass 2**63 - 1, the columns, and so every count and price, are Python ints
    columns = [*totals.values(), table.n_sta[tree], table.hops[tree], table.relays[tree]]
    top = max(1, 3 * sum(int(column.max(initial=0)) for column in columns))
    if cfg.timing.cost([top] * len(fields(TimingTable))) > _INT64_MAX:
        columns = [column.astype(object) for column in columns]
    paid, cycles, firsts, batch, sent, central, n, hops, relays = columns
    extra = hops - n  # IEEE 1901.1 pays a request/indication pair per extra hop
    epmac, csma = code == 0, code == 2
    data = np.where(epmac, firsts + batch + n, 3 * hops) + relays  # E-PMAC's and P-MAC's data frames
    kinds = (np.where(csma, 0, paid + n + cycles - firsts), np.where(csma, 0, data), central,
             np.where(csma, cycles - central, 0), np.where(csma, paid + extra, 0), np.where(csma, n + extra, 0))
    frames = np.where(csma, cycles + sent + n + 2 * extra, data)
    for f in np.flatnonzero(table.joins[tree] != n).tolist():
        errors.setdefault(f, RuntimeError("formation ended with unjoined STAs despite empty sessions"))
    return _Columns(cfg.timing.cost(kinds).tolist(), cycles.tolist(), frames.tolist(), kinds[0].tolist(), errors)


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
    check_first_window(slot_ratio, tree.n_sta)
    if not 0 <= (key := _as_int("key", key)) <= _MASK:
        raise ValueError(f"key must be in [0, 2**64), got {key}")
    table = _sessions(Forest.of([tree]))
    block = _run_block(cfg, table, [_protocol_code(protocol)], (0,), _Ratios([slot_ratio]), (0,), (key,))
    if isinstance(result := block.result(0), Exception):
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
        for protocol in self.protocols:
            _protocol_code(protocol)
        object.__setattr__(self, "n_values", tuple(_as_int("a network size", n) for n in self.n_values))
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if min(self.n_values) < 1:
            raise ValueError("network sizes must be at least 1")
        if (self.ratio_grid is None) == (self.ratio_random is None):
            raise ValueError("set exactly one of ratio_grid / ratio_random")
        if self.ratio_grid is not None and not self.ratio_grid:
            raise ValueError("ratio_grid must not be empty")
        for r in self.ratio_grid or self.ratio_random:
            check_first_window(r, max(self.n_values))
        if self.ratio_random is not None:
            lo, hi = self.ratio_random
            if not lo <= hi:
                raise ValueError("ratio_random bounds must satisfy 0 < lo <= hi")
            object.__setattr__(self, "ratio_random", (float(lo), float(hi)))  # every random ratio is drawn in float64
        if not 1 <= self.max_layers <= _INT64_MAX:  # grow_tree draws the target depth below max_layers + 1
            raise ValueError(f"max_layers must lie in [1, 2**63 - 1], got {self.max_layers}")
        # every tree of two or more STAs has a session of two or more; once two are pending at a ratio of at most
        # 0.5, their window is one slot, and with csma_p = 1 both transmit in it every cycle
        reachable = self.ratio_grid or self.ratio_random[:1]  # a random ratio can be its low bound
        if (self.csma_p == 1 and Protocol.IEEE1901 in self.protocols and max(self.n_values) >= 2
                and any(2 * p <= q for p, q in map(_as_fraction, reachable))):
            raise ValueError("ieee1901 at csma_p 1 cannot finish a session of two or more STAs at a ratio of 0.5 "
                             "or less: two pending STAs get one slot and always both transmit")

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

    The trees are built once, grown into one forest (multi-layer) or
    tabulated from stars, and every protocol runs them in one block,
    whose formations go in as columns, protocol by protocol in plan
    order, each over the cells of the pairs in group order. A pair whose
    tree fails ends the group's building: the pairs before it still run,
    and no cell after it can come before it in cell order. An error of
    the block itself, not tied to one formation, is charged to the
    group's first cell in row order.
    """
    failures: list[tuple[int, Exception]] = []
    nets: list = []  # each pair's growth, or a star per size, shared by its trials
    tree: list[int] = []  # each built pair's tree, an index into nets
    drawn: list[float] = []  # each built pair's ratio, in random mode
    for n_idx, trial in group:
        n = plan.n_values[n_idx]
        try:
            if plan.multi_layer or plan.ratio_random is not None:
                rng = np.random.default_rng(np.random.SeedSequence((plan.seed, n, trial)))
            if plan.ratio_random is not None:
                lo, hi = plan.ratio_random
                ratio = lo + (hi - lo) * rng.random()
            if plan.multi_layer:
                nets.append(grow_tree(n, plan.max_layers, rng))
            elif not nets or nets[-1].n_sta != n:
                nets.append(single_layer(n))
        except Exception as exc:
            failures.append((plan.cell_index(0, n_idx, 0, trial), exc))
            break
        tree.append(len(nets) - 1)
        if plan.ratio_random is not None:
            drawn.append(ratio)
    if not tree:
        return [], failures
    # the cells of one protocol, pair by pair, each pair's ratio cells in order
    pairs, cells, protocols = len(tree), plan.ratio_cells, len(plan.protocols)
    pair = np.repeat(np.arange(pairs), cells)
    n_idx, trial = (np.array(column)[pair] for column in zip(*group[:pairs]))
    ratio_idx = np.tile(np.arange(cells), pairs)
    values, value = (plan.ratio_grid, ratio_idx) if plan.ratio_random is None else (drawn, pair)
    sizes = np.array(plan.n_values)[n_idx]
    # keys: formation_key's six words, folded for every formation at once
    codes = np.repeat([_protocol_code(protocol) for protocol in plan.protocols], len(pair))
    fracs = _Ratios(values)  # each ratio as given, for the keys and the windows alike
    num, den = (np.tile(np.array(part, dtype=object)[value], protocols) for part in (fracs.num, fracs.den))
    keys = _fold(np.zeros(len(codes), dtype=np.uint64), plan.seed, np.tile(sizes, protocols), np.tile(trial, protocols),
                 codes, num, den)
    index = plan.cell_index(np.arange(protocols)[:, None], n_idx, ratio_idx, trial).ravel().tolist()
    ratio = [values[v] for v in value.tolist()]
    try:
        table = _sessions(Forest.grown(nets) if plan.multi_layer else Forest.of(nets))
        block = _run_block(plan, table, codes, np.tile(np.array(tree)[pair], protocols), fracs, np.tile(value, protocols),
                           keys)
    except Exception as exc:
        return [], [*failures, (min(index), exc)]
    columns = ([v for v in [p.value for p in plan.protocols] for _ in pair], sizes.tolist() * protocols, ratio * protocols,
               trial.tolist() * protocols, block.total_us, block.nc_count, block.data_frames, block.preambles,
               table.layers[tree][pair].tolist() * protocols)
    rows = []
    for i, values in zip(index, zip(*columns)):
        row = object.__new__(ResultRow)  # filled as the frozen __init__ fills it, without its object.__setattr__ a field
        row.__dict__.update(zip(CSV_HEADER, values))
        rows.append((i, row))
    if block.errors:
        failures += [(index[f], exc) for f, exc in block.errors.items()]
        rows = [row for f, row in enumerate(rows) if f not in block.errors]
    return rows, failures


def run_experiment(plan: ExperimentPlan, jobs: int = 1) -> list[ResultRow]:
    """Run every cell of the plan; rows come back ordered by cell coordinates.

    Cells run in groups of (n, trial) pairs, one block per group over
    every protocol. jobs > 1 fans the groups out to min(jobs, groups)
    worker processes, so a plan that fits one group runs in one process;
    every row is a pure function of its cell, so the rows are identical
    either way. If cells fail, the first failing cell in row order
    raises, with the cell named in the exception's cell attribute.
    """
    if (jobs := _as_int("jobs", jobs)) < 1:
        raise ValueError("jobs must be at least 1")
    groups = _groups(plan)
    workers = min(jobs, len(groups))
    if workers < 2:
        outs = [_run_group(plan, group) for group in groups]
    else:
        from concurrent.futures import ProcessPoolExecutor  # deferred: a serial run never pays for it
        with ProcessPoolExecutor(max_workers=workers) as pool:
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


def summarize_groups(groups: Sequence[Sequence[float]]) -> list[list]:
    """Each group's SummaryStats fields (n, mean, min, q1, median, q3, max) as seven columns, in input order.

    Groups of one size are stacked into one array, so the percentiles,
    mean, min and max cost one numpy call each per distinct size.
    """
    rows_by_size: dict[int, list[int]] = {}
    for i, group in enumerate(groups):
        rows_by_size.setdefault(len(group), []).append(i)
    if 0 in rows_by_size:
        raise EmptySample("cannot summarize an empty sample")
    columns = np.empty((6, len(groups)))
    for size, rows in rows_by_size.items():
        block = np.array([groups[i] for i in rows], dtype=float)
        q1, median, q3 = np.percentile(block, [25.0, 50.0, 75.0], axis=1)
        columns[:, rows] = block.mean(axis=1), block.min(axis=1), q1, median, q3, block.max(axis=1)
    return [list(map(len, groups)), *columns.tolist()]


def summarize(samples: Iterable[float] | Sequence[float]) -> SummaryStats:
    return SummaryStats(*(column[0] for column in summarize_groups([list(samples)])))
