"""Per-networking-cycle simulators for the three association mechanisms.

Each simulator runs one networking cycle for one coordinator session:
slotted contention in the PTE window, then the protocol's framing for
whoever got through. A session is two ints: its pending count (>= 1;
its STAs are exchangeable, so they have no ids) and their tree depth
(>= 1). A cycle reports the slots it paid for by kind;
core.TimingTable.cost turns slot counts into time, never frame air times.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import RunConfig


class NcOutcome(NamedTuple):
    """One networking cycle's result for one session.

    joins counts the STAs that got through. slot_counts holds the slots
    the cycle paid for, one count per TimingTable field in field order:
    (preamble, data frame, central beacon, proxy beacon, association
    request, association indication). data_frames counts frames sent,
    which for association is not the slots paid: every request slot
    costs, used or not.
    """

    joins: int
    slot_counts: tuple[int, int, int, int, int, int]
    data_frames: int


BINCOUNT_MAX_SLOTS = 2**20  # the widest window counted with one int64 per slot (8 MB)


def _singletons(slots: np.ndarray, n_slot: int) -> int:
    """How many draws picked a slot no other draw picked.

    Memory follows the draws, not the window: above BINCOUNT_MAX_SLOTS
    the draws are sorted and counted instead of binned.
    """
    if n_slot <= BINCOUNT_MAX_SLOTS:
        return int(np.count_nonzero(np.bincount(slots, minlength=n_slot) == 1))
    _, counts = np.unique(slots, return_counts=True)
    return int(np.count_nonzero(counts == 1))


def contend(pending_count: int, n_slot: int, rng: np.random.Generator) -> int:
    """Uniform slotted contention: each STA draws one slot, alone-in-slot wins.

    Returns how many won. A lone contender wins without a draw.
    """
    if pending_count < 1:
        raise ValueError("need at least one contender")
    if n_slot < 1:
        raise ValueError("need at least one slot")
    if pending_count == 1:
        return 1
    return _singletons(rng.integers(0, n_slot, size=pending_count), n_slot)


def simulate_nc_epmac(
    pending: int,
    n_slot: int,
    first_nc: bool,
    cfg: RunConfig,
    rng: np.random.Generator,
) -> NcOutcome:
    """One batched networking cycle.

    Announcement (a slot-count data frame on the first cycle, a NET
    preamble afterwards), a PTE of n_slot preamble slots, then for the
    s winners: ceil(s/tdf_capacity) TDFs, s MAC-address frames,
    ceil(s/sdf_capacity) SDFs, and one ACK preamble each. Depth is
    not read: the caller charges a session's relays once.
    """
    s = contend(pending, n_slot, rng)
    # the announcement plus every PTE slot, landed or not
    data, preambles = (1, n_slot) if first_nc else (0, 1 + n_slot)
    if s:
        data += -(-s // cfg.tdf_capacity) + s + -(-s // cfg.sdf_capacity)
        preambles += s
    return NcOutcome(s, (preambles, data, 0, 0, 0, 0), data)


def simulate_nc_pmac(
    pending: int,
    depth: int,
    n_slot: int,
    cfg: RunConfig,
    rng: np.random.Generator,
) -> NcOutcome:
    """One unbatched networking cycle at depth k.

    NET preamble, the PTE window, then three data frames per winner
    (time difference, MAC address, SID) each crossing k hops, and one
    ACK preamble per winner.
    """
    s = contend(pending, n_slot, rng)
    data = 3 * depth * s
    return NcOutcome(s, (1 + n_slot + s, data, 0, 0, 0, 0), data)


def simulate_nc_csma(
    pending: int,
    depth: int,
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
    if n_slot < 1:
        raise ValueError("need at least one slot")
    slots = rng.integers(0, n_slot, size=pending)
    sending = rng.random(pending) < cfg.csma_p
    s = _singletons(slots[sending], n_slot)
    transmitters = int(np.count_nonzero(sending))
    relayed = s * (depth - 1)  # a request/indication pair per winner per extra hop
    req, ind = n_slot + relayed, s + relayed
    counts = (0, 0, 1, 0, req, ind) if depth == 1 else (0, 0, 0, 1, req, ind)
    return NcOutcome(s, counts, 1 + transmitters + s + 2 * relayed)
