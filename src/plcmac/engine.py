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

import math
from dataclasses import dataclass, fields
from functools import cache
from itertools import chain, repeat
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .core import Protocol, RunConfig, TimingTable
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
_STRIDE = 2 * _GAMMA & _MASK  # from one rank's words to the next: a rank takes a slot word and a coin word
_M1, _M2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_UNIT = 2.0**-53
_PROTOCOL_CODE = {Protocol.EPMAC: 1, Protocol.PMAC: 2, Protocol.IEEE1901: 3}  # stable, whatever the enum order


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer over a uint64 array, in place; numpy's uint64 products wrap mod 2**64."""
    z ^= z >> 30
    z *= np.uint64(_M1)
    z ^= z >> 27
    z *= np.uint64(_M2)
    z ^= z >> 31
    return z


def _child_keys(keys: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Keys one level down: the finalizer over key + (counter + 1) * gamma."""
    return _mix(keys + (counters.astype(np.uint64) + np.uint64(1)) * np.uint64(_GAMMA))


def _fold(h: np.ndarray, *words) -> np.ndarray:
    """Fold words into the 64-bit keys h, key by key: each word as its 64-bit limbs, low first, and then their count.

    A word is one non-negative int for every key, or a column of them,
    one per key, of any size. A key folds a limb l as
    finalizer((h ^ l) + gamma), so a word's limb count follows its limbs
    and words of any size key distinctly.
    """
    gamma = np.uint64(_GAMMA)
    for word in words:
        try:
            h = _mix((h ^ np.asarray(word, dtype=np.uint64)) + gamma)
            count = np.uint64(1)
        except OverflowError:  # some word has two limbs or more
            rest = np.asarray(word, dtype=object).reshape(-1)
            h = _mix((h ^ (rest & _MASK).astype(np.uint64)) + gamma)
            count = np.ones(h.shape, dtype=np.uint64)
            rest = rest >> 64
            while (more := rest != 0).any():
                h = np.where(more, _mix((h ^ (rest & _MASK).astype(np.uint64)) + gamma), h)
                count += more
                rest = rest >> 64
        h = _mix((h ^ count) + gamma)
    return h


def formation_key(seed: int, n: int, trial: int, protocol: Protocol, ratio: float) -> int:
    """The 64-bit key of one formation, folded from (seed, n, trial, protocol, ratio).

    The ratio enters as the numerator and denominator of its exact decimal
    value, the Fraction ceil_scale uses, so its value keys the formation,
    not its place in a grid. A word's limb count follows its limbs, so
    words of any size, a seed among them, key distinctly.
    """
    words = (seed, n, trial, _PROTOCOL_CODE[protocol], *_as_fraction(ratio))
    return int(_fold(np.zeros(1, dtype=np.uint64), *words)[0])


@cache
def _rank_strides() -> np.ndarray:
    """rank * _STRIDE for the ranks of a usual draw run, made on first use; read-only."""
    table = np.arange(2 * DRAW_CHUNK, dtype=np.uint64) * np.uint64(_STRIDE)
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
    session, in rank order.
    """
    starts = (np.cumsum(counts) - counts).astype(np.uint64)
    # key + (2r + 1) * gamma for rank r = position - start
    x = np.repeat(keys + np.uint64(_GAMMA) - starts * np.uint64(_STRIDE), counts)
    ranks = _rank_strides()
    x += ranks[: len(x)] if len(x) <= len(ranks) else np.arange(len(x), dtype=np.uint64) * np.uint64(_STRIDE)
    coin = x + np.uint64(_GAMMA) if coins else None
    u = (_mix(x) >> 11).astype(np.float64)
    u *= np.repeat(windows * _UNIT, counts)
    slots = u.astype(np.int64)
    if windows.max(initial=0) >= 2**52:
        np.minimum(slots, np.repeat(windows - 1, counts), out=slots)
    if coin is None:
        return slots, None
    u = (_mix(coin) >> 11).astype(np.float64)
    u *= _UNIT
    return slots, u


# ---- the block engine

_INT64_MAX = 2**63 - 1
GROUP_STAS = 2**16  # a group's (n, trial) pairs hold at most this many STAs over their ratio cells (one pair may hold more)
DRAW_CHUNK = 2**13  # the draws of one step are handled in runs of sessions of about this many draws
BIN_SLOTS = 2**14  # a run's draws are binned while its windows add up to at most this many slots (128 KB of bins)
SHRINK_FLOOR = 64  # a block of this many sessions or fewer no longer shrinks


class _Table(NamedTuple):
    """Trees as the engine reads them: each tree's coordinator sessions, crowded ones first, each part by node id,
    one tree after another; and per-tree columns."""

    nodes: np.ndarray      # coordinator node ids
    pending: np.ndarray    # each coordinator's children: its session's STAs
    depth: np.ndarray      # the children's depth, k
    start: np.ndarray      # tree t's sessions are [start[t], start[t + 1])
    crowded: np.ndarray    # sessions of two or more STAs, which come first
    n_sta: np.ndarray
    max_depth: list[int]
    joins: np.ndarray      # STAs over all sessions; equals n_sta for a well-formed tree
    hops: np.ndarray       # sum of k over all STAs
    relays: np.ndarray     # sum of 2*(k-1) over all sessions: the relay frames of E-PMAC and P-MAC


def _sessions(trees: Sequence[NetworkTree]) -> _Table:
    """The sessions of every tree, from one pass over all their nodes."""
    sizes = np.array([len(t.parent) for t in trees], dtype=np.int64)
    total = int(sizes.sum())
    nodes = np.fromiter(chain(*(t.parent for t in trees), *(t.depth for t in trees)), np.int64, 2 * total)
    parent, depth = nodes[:total], nodes[total:]  # every tree's nodes, one tree after another
    first = np.cumsum(sizes) - sizes  # each tree's CCO
    owner = np.repeat(np.arange(len(trees)), sizes)
    parent += first[owner]
    parent[first] = -1  # a CCO is no child
    children = np.bincount(parent[parent >= 0], minlength=total)
    coords = np.flatnonzero(children)
    coords = coords[np.argsort(2 * owner[coords] + (children[coords] < 2), kind="stable")]
    tree = owner[coords]
    pending, depth = children[coords], depth[coords] + 1
    start = np.zeros(len(trees) + 1, dtype=np.int64)
    np.cumsum(np.bincount(tree, minlength=len(trees)), out=start[1:])

    def per_tree(x: np.ndarray) -> np.ndarray:
        upto = np.zeros(len(x) + 1, dtype=np.int64)
        np.cumsum(x, out=upto[1:])
        return upto[start[1:]] - upto[start[:-1]]

    return _Table(coords - first[tree], pending, depth, start, np.bincount(tree[pending > 1], minlength=len(trees)),
                  np.array([t.n_sta for t in trees], dtype=np.int64), [t.max_depth for t in trees],
                  per_tree(pending), per_tree(pending * depth), 2 * per_tree(depth - 1))


class _Ratios:
    """Positive decimal factors as exact fractions, for ceil(factor * x) per element, picked by index."""

    def __init__(self, ratios: Sequence[float]) -> None:
        fracs = [_as_fraction(r) for r in ratios]
        self.num, self.den = [p for p, _ in fracs], [q for _, q in fracs]
        self.num_max, self.den_max = max(self.num, default=1), max(self.den, default=1)
        # each numerator and denominator mod 2**64, as int64: the values themselves wherever they are below 2**63
        self.num64 = np.array([p & _MASK for p in self.num], dtype=np.uint64).astype(np.int64)
        self.den64 = np.array([q & _MASK for q in self.den], dtype=np.uint64).astype(np.int64)
        self.value = np.array([p / q for p, q in fracs])  # each correctly rounded
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


def _draw_joins(ckeys, counts, windows, csma_p, coins_from=0):
    """Joins per drawing session, and with csma_p the transmitters of sessions coins_from on, from one keyed draw per STA.

    A draw joins when no other draw of its session, among the
    transmitters, took its slot. With csma_p set, a draw of a session
    coins_from or later transmits when its coin lies below csma_p, and
    every other draw transmits. Memory follows the draws, not the
    windows: the draws go in runs of sessions of about DRAW_CHUNK. Each
    draw's slot is first moved to its session's place in the run, with
    one repeat: a run whose windows add up to at most BIN_SLOTS lays the
    windows end to end and bins the draws with one bincount; a wider run
    gives session i the slots from i * (widest window) on and sorts the
    draws (in Python ints where that could pass 2**63). A session's
    transmitters are read off the running count of transmitting draws.
    Sessions may draw nothing (counts of 0).
    """
    n = len(counts)
    joins = np.zeros(n, dtype=np.int64)
    sent = None if csma_p is None else np.zeros(n - coins_from, dtype=np.int64)
    cuts = np.searchsorted(np.cumsum(counts), np.arange(DRAW_CHUNK, int(counts.sum()), DRAW_CHUNK), side="right")
    bounds = sorted({0, n, *cuts.tolist()})
    for lo, hi in zip(bounds, bounds[1:]):
        c, w, keys = counts[lo:hi], windows[lo:hi], ckeys[lo:hi]
        if not (m := int(c.sum())):
            continue
        coins = sent is not None and hi > coins_from
        top = int(w.max())
        binned = top <= BIN_SLOTS and int(w.sum()) <= BIN_SLOTS
        if binned and m < 1024:
            # a dummy last session, whose joins are dropped, pads a short run to a power of two of at least
            # 128 draws and to 128 slots: numpy caches freed buffers under 1 KB by exact size, few sizes keep it small
            c = np.append(c, max(128, 1 << m.bit_length()) - m)
            w = np.append(w, max(1, 128 - int(w.sum())))
            keys = np.append(keys, np.uint64(0))
        slots, u = keyed_draws(keys, c, w, coins)
        # a draw joins when its (session, slot) cell holds no other draw; owner is the session of each such cell
        if binned:
            off = np.cumsum(w)
            slots += np.repeat(off - w, c)
        elif len(c) * top <= _INT64_MAX:
            slots += np.repeat(np.arange(0, len(c) * top, top), c)
        else:
            slots = slots.astype(object) + np.repeat(np.arange(len(c)).astype(object) * top, c)
        if coins:  # from here on, only the transmitting draws
            send = u < csma_p
            send[: int(c[: max(coins_from - lo, 0)].sum())] = True  # a draw before coins_from sends whatever its coin
            first = max(coins_from, lo)
            upto = np.zeros(len(send) + 1, dtype=np.int64)  # transmitters among the draws before each
            np.cumsum(send, out=upto[1:])
            ends = np.cumsum(c)[first - lo:hi - lo]
            sent[first - coins_from:hi - coins_from] = upto[ends] - upto[ends - c[first - lo:hi - lo]]
            slots = slots[send]
        if binned:
            hits = np.bincount(slots, minlength=int(off[-1]))
            owner = np.searchsorted(off, np.flatnonzero(hits == 1), side="right")
        else:
            cell = np.sort(slots)
            same = cell[1:] == cell[:-1]
            lone = np.ones(len(cell), dtype=bool)
            lone[1:] &= ~same
            lone[:-1] &= ~same
            owner = (cell[lone] // top).astype(np.int64)
        joins[lo:hi] = np.bincount(owner, minlength=len(c))[: hi - lo]
    return joins, sent


class _Columns(NamedTuple):
    """A block's results: each FormationResult field as a column over its formations, and each failed one's error."""

    total_us: list[int]
    nc_count: list[int]
    data_frames: list[int]
    preambles: list[int]
    joined: list[int]
    errors: dict[int, Exception]

    def result(self, f: int) -> FormationResult | Exception:
        return self.errors.get(f) or FormationResult(*(column[f] for column in self[:5]))


def _run_block(
    cfg: RunConfig,
    table: _Table,
    protocol: Sequence[Protocol],
    tree: Sequence[int],
    ratio: Sequence[float],
    key: Sequence[int],
) -> _Columns:
    """Run formations in lockstep: formation f runs protocol[f] on table's tree[f], at slot ratio ratio[f], keyed key[f].

    Each step runs one networking cycle of every pending session, whatever
    its protocol. Sessions are held E-PMAC first, then P-MAC, then CSMA,
    and stay in that order as the block shrinks, so each protocol's rule
    runs on its own contiguous slice. A window comes from ceil_scale
    (P-MAC floors it at 2 for two or more contenders) or, for E-PMAC,
    from the slot controller written over arrays, which restarts a
    session whose probes ran out with a fresh first PTE. A lone E-PMAC or
    P-MAC contender joins without a draw; a lone CSMA contender still
    flips its coin. Slots are priced once, for all formations together,
    from their totals: windows, cycles and first cycles per session, plus
    sums over the tree (relay frames 2*(k-1) per E-PMAC or P-MAC session
    at depth k >= 2). A formation whose cycle count would pass cfg.max_nc
    gets a NonTermination, and one whose window would pass 2**63 slots
    with a draw to make a ValueError; the others run on.
    """
    n_form = len(protocol)
    code = np.fromiter(map(_PROTOCOL_CODE.__getitem__, protocol), np.int64, n_form) - 1  # a block's session order
    tree = np.asarray(tree, dtype=np.int64)
    order = np.argsort(code, kind="stable")
    sessions = np.diff(table.start)[tree]
    most = max(1, int(sessions.max(initial=0)))  # sessions of the largest formation
    free_steps = cfg.max_nc // most  # no formation can pass its budget before this
    # a lone E-PMAC or P-MAC contender joins in the first cycle, in ceil(ratio) slots, without a draw: its
    # session is priced before the first step (unless the budget can bind there, which counts it as pending)
    size = np.where((code < 2) & (free_steps > 0), table.crowded[tree], sessions)  # sessions it brings into the block
    lone = sessions - size
    e, p = int(size[code == 0].sum()), int(size[code < 2].sum())  # [0, e) E-PMAC, [e, p) P-MAC, [p, end) CSMA
    # every formation's sessions, in session order, gathered from the table
    size = size[order]
    form = np.repeat(order, size)
    at = np.repeat(table.start[tree[order]] - (np.cumsum(size) - size), size) + np.arange(len(form))
    pending, nodes, depth = table.pending[at], table.nodes[at], table.depth[at]
    values, rat = np.unique(np.asarray(ratio, dtype=np.float64), return_inverse=True)
    ratios = _Ratios(values.tolist())
    growth = _Ratios([cfg.k1, cfg.k2])  # E-PMAC's window grows by k1 after a thin PTE, by k2 after an idle one
    window = ratios.windows(rat, np.ones(n_form, dtype=np.int64))  # a lone contender's
    paid_bound = int(window.max(initial=0)) if lone.any() else 0  # no session has paid more window slots than this
    firsts = lone * (code == 0)
    # per formation, what its settled sessions ran and paid
    totals = {
        "paid": lone * (window.astype(object) if paid_bound * most > _INT64_MAX else window),
        "cyc": lone,
        "firsts": firsts,
        "batch": firsts * (-(-1 // cfg.tdf_capacity) - (-1 // cfg.sdf_capacity)),
        **{name: np.zeros(n_form, dtype=np.int64) for name in ("sent", "central")},
    }

    def zeros(size: int, *names: str) -> dict[str, np.ndarray]:
        return {name: np.zeros(size, dtype=np.int64) for name in names}

    # per-session state, one array per variable in session order; a drained session stays, with pending 0, until
    # a shrink settles it into its formation's totals. E-PMAC's controller covers [0, e), CSMA's counts [p, end).
    keys = np.asarray(key, dtype=np.uint64)[form]
    st = {"form": form, "pend": pending, "key": _child_keys(keys, nodes), **zeros(len(form), "cyc", "paid")}
    ep = {"n0": ratios.windows(rat[form[:e]], pending[:e]), **zeros(e, "wp", "sp", "tf", "firsts", "batch")}
    cs = {"cco": depth[p:] == 1, **zeros(len(form) - p, "sent")}  # the CCO's session opens with central beacons
    del form, pending, nodes, depth, keys  # only the state arrays stay alive through the steps
    errors: dict[int, Exception] = {}
    step = 0

    def settle(gone: np.ndarray) -> None:
        """Add the drained sessions that gone picks to their formations' totals."""
        form, gone_e, gone_c = st["form"], gone[:e], gone[p:]
        f, f_e, f_c = form[gone], form[:e][gone_e], form[p:][gone_c]
        for name, where, v in (("paid", f, st["paid"][gone]), ("cyc", f, st["cyc"][gone]),
                               ("firsts", f_e, ep["firsts"][gone_e]), ("batch", f_e, ep["batch"][gone_e]),
                               ("sent", f_c, cs["sent"][gone_c]), ("central", f_c, st["cyc"][p:][gone_c] * cs["cco"][gone_c])):
            if v.dtype == object and totals[name].dtype != object:
                totals[name] = totals[name].astype(object)
            np.add.at(totals[name], where, v)

    def shrink(keep: np.ndarray) -> None:
        """Settle the sessions keep drops and drop them, one array at a time, so the state is never held twice."""
        nonlocal e, p
        settle(~keep)
        for rows, picked in ((ep, keep[:e]), (cs, keep[p:]), (st, keep)):
            for name, v in rows.items():
                rows[name] = v[picked]
        e, p = int(np.count_nonzero(keep[:e])), int(np.count_nonzero(keep[:p]))

    def fail(failed: dict) -> None:
        """Record each formation's error and drop all its sessions."""
        errors.update(failed)
        gone = np.zeros(n_form, dtype=bool)
        gone[list(failed)] = True
        shrink(~gone[st["form"]])
        for total in totals.values():
            total[gone] = 0

    while True:
        pend = st["pend"]
        active = pend > 0
        if not active.any():
            break
        step += 1
        if step > free_steps:  # from here a formation's cycles may pass its budget
            form = st["form"]
            cycles = np.bincount(form, weights=st["cyc"] + active, minlength=n_form) + totals["cyc"]
            if over := np.flatnonzero(cycles > cfg.max_nc).tolist():
                waiting = np.bincount(form, weights=pend, minlength=n_form)
                fail({f: NonTermination(
                    f"{protocol[f].value} run exceeded max_nc={cfg.max_nc} with {int(waiting[f])} STA(s) still pending"
                ) for f in over})
                step -= 1  # the step again, without the failed formations' sessions
                continue
        if e:
            tf = ep["tf"]
            if step == 1:
                first = np.ones(e, dtype=bool)
                w_e = ep["n0"]
            else:
                sp, wp = ep["sp"], ep["wp"]
                idle = sp == 0
                first = idle & (tf > cfg.t_f_max)  # probes ran out: a fresh first PTE
                thin = ~idle & (sp / wp <= cfg.eta_min)
                w_e = np.where(first, ep["n0"], np.where(idle | thin, growth.windows(idle.astype(np.intp), wp), wp))
        w = ratios.windows(rat[st["form"][e:]], pend[e:])
        if p > e:
            w_p = w[: p - e]
            w_p[(w_p < 2) & (pend[e:p] >= 2)] = 2  # two contenders in one slot collide forever
        if e:
            w = np.concatenate((w_e, w))
        if w.dtype == object:  # a window above 2**63 - 1 slots
            bad = np.flatnonzero((w > MAX_WINDOW) & ((pend >= 2) | (np.arange(len(w)) >= p)))
            if len(bad):
                fail({int(st["form"][i]): ValueError(
                    f"a window of {w[i]} slots is above 2**63, more than one draw can take"
                ) for i in bad.tolist()})
                step -= 1
                continue
            exact, w = w, np.minimum(w, _INT64_MAX).astype(np.int64)  # 2**63 draws as 2**63 - 1: no draw reaches its top slot
            if st["paid"].dtype != object:
                st["paid"] = st["paid"].astype(object)
        else:
            exact = w
            paid_bound += int(w.max())
            if paid_bound * most > _INT64_MAX and st["paid"].dtype != object:  # sums that could wrap: Python ints
                st["paid"] = st["paid"].astype(object)
        counts = np.where(pend >= 2, pend, 0)  # a lone E-PMAC or P-MAC contender joins without a draw
        counts[p:] = pend[p:]  # a lone CSMA contender flips its coin
        # the cycle keys, _child_keys at cycle index step - 1
        s, sent = _draw_joins(_mix(st["key"] + np.uint64(step * _GAMMA & _MASK)), counts, w, cfg.csma_p, p)
        s[:p][pend[:p] == 1] = 1
        pend -= s
        st["cyc"] += active
        st["paid"] += exact * active  # an E-PMAC session's window stays open after it drains; it is not paid
        cs["sent"] += sent
        if e:
            s_e, active_e = s[:e], active[:e]
            ep["firsts"] += first & active_e
            ep["batch"] -= (-s_e // cfg.tdf_capacity) + (-s_e // cfg.sdf_capacity)
            ep["tf"] = np.where(s_e > 0, 0, np.where(first, 0, tf) + 1)
            ep["wp"], ep["sp"] = np.where(active_e, exact[:e], 1), s_e
        # once half the sessions of a block above SHRINK_FLOOR have drained, shrink each protocol's slice to the
        # next power of two (or to nothing), padded with its drained ones: numpy caches freed buffers under 1 KB
        # by exact size, and few sizes keep that cache small
        keep = pend > 0
        if len(keep) > SHRINK_FLOOR and 2 * int(np.count_nonzero(keep)) <= len(keep):
            for lo, hi in ((0, e), (e, p), (p, len(keep))):
                kept = int(np.count_nonzero(keep[lo:hi]))
                pad = (1 << (kept - 1).bit_length()) - kept if kept else 0
                keep[lo + np.flatnonzero(~keep[lo:hi])[:pad]] = True
            shrink(keep)
    settle(np.ones(len(st["pend"]), dtype=bool))

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
    return _Columns(cfg.timing.cost(kinds).tolist(), cycles.tolist(), frames.tolist(), kinds[0].tolist(), n.tolist(), errors)


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
    result = _run_block(cfg, _sessions([tree]), (protocol,), (0,), (slot_ratio,), (key,)).result(0)
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

    The trees are built once and every protocol runs them in one block,
    whose formations go in as columns, protocol by protocol in plan
    order, each over the cells of the pairs in group order. A pair whose
    tree fails ends the group's building: the pairs before it still run,
    and no cell after it can come before it in cell order. An error of
    the block itself, not tied to one formation, is charged to the
    group's first cell in row order.
    """
    failures: list[tuple[int, Exception]] = []
    nets: list[NetworkTree] = []  # a single-layer plan's trials share their star
    tree: list[int] = []  # each built pair's tree, an index into nets
    drawn: list[float] = []  # each built pair's ratio, in random mode
    for n_idx, trial in group:
        n = plan.n_values[n_idx]
        try:
            if plan.multi_layer or plan.ratio_random is not None:
                rng = np.random.default_rng(np.random.SeedSequence((plan.seed, n, trial)))
            if plan.ratio_random is not None:
                lo, hi = plan.ratio_random
                ratio = float(lo + (hi - lo) * rng.random())
            if plan.multi_layer:
                nets.append(generate_tree(n, plan.max_layers, rng))
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
    n_idx, trial = (np.array(column) for column in zip(*group[:pairs]))
    pair = np.repeat(np.arange(pairs), cells)
    ratio_idx = np.tile(np.arange(cells), pairs)
    values, value = (plan.ratio_grid, ratio_idx) if plan.ratio_random is None else (drawn, pair)
    # keys: (seed, n, trial) folded once per pair, each protocol code once, each distinct ratio's fraction once
    sizes = np.array(plan.n_values)[n_idx]
    prefix = _fold(np.zeros(pairs, dtype=np.uint64), plan.seed, sizes, trial)
    codes = np.array([_PROTOCOL_CODE[protocol] for protocol in plan.protocols])
    keys = _fold(np.tile(prefix, protocols), np.repeat(codes, pairs)).reshape(protocols, pairs)[:, pair]
    num, den = (np.array(part, dtype=object)[value] for part in zip(*map(_as_fraction, values)))
    keys = _fold(keys, num, den).ravel()
    index = plan.cell_index(np.arange(protocols)[:, None], n_idx[pair], ratio_idx, trial[pair]).ravel().tolist()
    ratio = [values[v] for v in value.tolist()]
    try:
        table = _sessions(nets)
        block = _run_block(plan, table, np.repeat(np.array(plan.protocols, dtype=object), len(pair)),
                           np.tile(np.array(tree)[pair], protocols), ratio * protocols, keys)
    except Exception as exc:
        return [], [*failures, (min(index), exc)]
    layers = [table.max_depth[tree[i]] for i in pair.tolist()]
    made = map(ResultRow, [protocol.value for protocol in plan.protocols for _ in pair],
               [plan.n_values[i] for i in n_idx[pair].tolist()] * protocols, ratio * protocols,
               trial[pair].tolist() * protocols, block.total_us, block.nc_count, block.data_frames, block.preambles,
               layers * protocols)
    rows = list(zip(index, made))
    if block.errors:
        failures += [(index[f], exc) for f, exc in block.errors.items()]
        rows = [row for f, row in enumerate(rows) if f not in block.errors]
    return rows, failures


def run_experiment(plan: ExperimentPlan, jobs: int = 1) -> list[ResultRow]:
    """Run every cell of the plan; rows come back ordered by cell coordinates.

    Cells run in groups of (n, trial) pairs, one block per group over
    every protocol. jobs > 1 fans the groups out to worker processes, so
    a plan that fits one group runs in one process; every row is a
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
