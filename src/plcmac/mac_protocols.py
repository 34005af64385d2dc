"""Per-networking-cycle simulators for the three association mechanisms.

Each simulator runs one networking cycle for one coordinator session:
slotted contention in the PTE window, then the protocol's framing for
whoever got through. A cycle reports the slots it paid for by kind;
core.TimingTable.cost turns slot counts into time, never frame air times.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

import numpy as np

from .core import RunConfig


@dataclass(frozen=True)
class PendingSet:
    """STAs still waiting to join one session, all at the same tree depth (>= 1)."""

    stas: tuple[int, ...]
    depth: int = 1

    def __post_init__(self) -> None:
        stas = tuple(sorted(self.stas))
        if not stas:
            raise ValueError("a pending set is never empty")
        if len(set(stas)) != len(stas):
            raise ValueError("pending ids must be unique")
        if self.depth < 1:
            raise ValueError("depth starts at 1")
        object.__setattr__(self, "stas", stas)


@dataclass(frozen=True)
class NcOutcome:
    """One networking cycle's result for one session.

    slot_counts holds the slots the cycle paid for, one count per
    TimingTable field in field order: (preamble, data frame, central
    beacon, proxy beacon, association request, association indication).
    data_frames counts frames sent, which for association is not the
    slots paid: every request slot costs, used or not.
    """

    joined: tuple[int, ...]
    slot_counts: tuple[int, int, int, int, int, int]
    data_frames: int
    slots_used: int


def _winners(stas: tuple[int, ...], slots: np.ndarray, n_slot: int) -> tuple[int, ...]:
    """The ids of stas whose slot (slots[i] for stas[i]) no other id drew, in input order."""
    counts = np.bincount(slots, minlength=n_slot)
    return tuple(compress(stas, (counts[slots] == 1).tolist()))


def _contend(stas: tuple[int, ...], n_slot: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Uniform slotted contention over stas; a lone contender wins without a draw."""
    if n_slot < 1:
        raise ValueError("need at least one slot")
    if len(stas) == 1:
        return stas
    return _winners(stas, rng.integers(0, n_slot, size=len(stas)), n_slot)


def contend(pending_count: int, n_slot: int, rng: np.random.Generator) -> tuple[int, np.ndarray]:
    """Uniform slotted contention: each STA draws one slot, alone-in-slot wins.

    Returns (successes, per-STA success flags in input order).
    """
    if pending_count < 1:
        raise ValueError("need at least one contender")
    flags = np.zeros(pending_count, dtype=bool)
    flags[list(_contend(tuple(range(pending_count)), n_slot, rng))] = True
    return int(np.count_nonzero(flags)), flags


def simulate_nc_epmac(
    pending: PendingSet,
    n_slot: int,
    first_nc: bool,
    cfg: RunConfig,
    rng: np.random.Generator,
) -> NcOutcome:
    """One batched networking cycle.

    Announcement (a slot-count data frame on the first cycle, a NET
    preamble afterwards), a PTE of n_slot preamble slots, then for the
    s winners: ceil(s/tdf_capacity) TDFs, s MAC-address frames,
    ceil(s/sdf_capacity) SDFs, and one ACK preamble each.
    """
    joined = _contend(pending.stas, n_slot, rng)
    s = len(joined)
    # the announcement plus every PTE slot, landed or not
    data, preambles = (1, n_slot) if first_nc else (0, 1 + n_slot)
    if s:
        data += -(-s // cfg.tdf_capacity) + s + -(-s // cfg.sdf_capacity)
        preambles += s
    return NcOutcome(joined, (preambles, data, 0, 0, 0, 0), data, n_slot)


def simulate_nc_pmac(
    pending: PendingSet,
    n_slot: int,
    cfg: RunConfig,
    rng: np.random.Generator,
) -> NcOutcome:
    """One unbatched networking cycle at depth k.

    NET preamble, the PTE window, then three data frames per winner
    (time difference, MAC address, SID) each crossing k hops, and one
    ACK preamble per winner.
    """
    joined = _contend(pending.stas, n_slot, rng)
    s = len(joined)
    data = 3 * pending.depth * s
    return NcOutcome(joined, (1 + n_slot + s, data, 0, 0, 0, 0), data, n_slot)


def simulate_nc_csma(
    pending: PendingSet,
    n_slot: int,
    cfg: RunConfig,
    rng: np.random.Generator,
) -> NcOutcome:
    """One beacon-plus-association cycle at depth k.

    A central (k = 1) or proxy (k > 1) beacon opens the cycle, then
    n_slot association-request slots. Each pending STA picks a slot and
    transmits with probability csma_p; alone-in-slot transmitters get an
    association indication, plus one request/indication pair per extra
    hop. Non-transmitters and collided STAs wait for the next cycle.
    """
    stas = pending.stas
    if n_slot < 1:
        raise ValueError("need at least one slot")
    if len(stas) == 1:
        # scalar draws consume the same stream as size=1 ones, without numpy's size handling
        rng.integers(0, n_slot)
        joined = stas if rng.random() < cfg.csma_p else ()
        transmitters = len(joined)
    else:
        slots = rng.integers(0, n_slot, size=len(stas))
        transmit = rng.random(len(stas)) < cfg.csma_p
        sending = tuple(compress(stas, transmit.tolist()))
        joined = _winners(sending, slots[transmit], n_slot)
        transmitters = len(sending)
    s = len(joined)
    relayed = s * (pending.depth - 1)  # a request/indication pair per winner per extra hop
    req, ind = n_slot + relayed, s + relayed
    counts = (0, 0, 1, 0, req, ind) if pending.depth == 1 else (0, 0, 0, 1, req, ind)
    return NcOutcome(joined, counts, 1 + transmitters + s + 2 * relayed, n_slot)
