"""Per-networking-cycle simulators for the three association mechanisms.

Each simulator runs one networking cycle for one coordinator session:
slotted contention in the PTE window, then the protocol's framing for
whoever got through. Durations come from the slot schedule, never from
frame air times.
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
    """One networking cycle's result for one session."""

    joined: tuple[int, ...]
    elapsed_us: int
    data_frames: int
    preambles: int
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
    t = cfg.timing
    joined = _contend(pending.stas, n_slot, rng)
    s = len(joined)
    if first_nc:
        data, preambles = 1, 0
        elapsed = t.data_frame_slot_us
    else:
        data, preambles = 0, 1
        elapsed = t.preamble_slot_us
    elapsed += n_slot * t.preamble_slot_us  # every PTE slot is paid for, landed or not
    preambles += n_slot
    if s:
        tdf = -(-s // cfg.tdf_capacity)
        sdf = -(-s // cfg.sdf_capacity)
        data += tdf + s + sdf
        preambles += s
        elapsed += (tdf + s + sdf) * t.data_frame_slot_us + s * t.preamble_slot_us
    return NcOutcome(joined, elapsed, data, preambles, n_slot)


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
    t = cfg.timing
    joined = _contend(pending.stas, n_slot, rng)
    s = len(joined)
    data = 3 * pending.depth * s
    preambles = 1 + n_slot + s
    elapsed = preambles * t.preamble_slot_us + data * t.data_frame_slot_us
    return NcOutcome(joined, elapsed, data, preambles, n_slot)


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
    t = cfg.timing
    k = pending.depth
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
    beacon = t.central_beacon_slot_us if k == 1 else t.proxy_beacon_slot_us
    elapsed = beacon + n_slot * t.assoc_req_slot_us + s * t.assoc_ind_slot_us
    data = 1 + transmitters + s
    if k > 1:
        elapsed += s * (k - 1) * (t.assoc_req_slot_us + t.assoc_ind_slot_us)
        data += 2 * s * (k - 1)
    return NcOutcome(joined, elapsed, data, 0, n_slot)
