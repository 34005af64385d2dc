"""Shared vocabulary: protocols, the slot schedule and its prices, and the model constants."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from operator import attrgetter, mul
from typing import Sequence


class Protocol(Enum):
    EPMAC = "epmac"
    PMAC = "pmac"
    IEEE1901 = "ieee1901"


@dataclass(frozen=True)
class TimingTable:
    """Slot schedule in integer microseconds, one field per slot kind.

    Slot lengths are scheduling quantities: every occupied or reserved
    slot of a kind costs its full slot time regardless of the actual
    frame air time inside it. The simulator counts slots by kind, in
    field order, and cost() is the one place counts become time.
    """

    preamble_slot_us: int = 400
    data_frame_slot_us: int = 20000
    central_beacon_slot_us: int = 12000
    proxy_beacon_slot_us: int = 12000
    assoc_req_slot_us: int = 20000
    assoc_ind_slot_us: int = 20000

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
                raise ValueError(f"{f.name} must be a positive integer of microseconds")

    def to_dict(self) -> dict[str, int]:
        return asdict(self)

    def cost(self, counts: Sequence[int]) -> int:
        """Microseconds for counts[i] slots of the kind of the i-th field."""
        lengths = _slot_lengths(self)
        if len(counts) != len(lengths):
            raise ValueError(f"need one count per slot kind ({len(lengths)}), got {len(counts)}")
        return sum(map(mul, counts, lengths))


_slot_lengths = attrgetter(*(f.name for f in fields(TimingTable)))


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    """Model constants every formation run of a sweep shares.

    The topology, the slot ratio and the draw key come per run, as
    arguments of run_formation. t_f_max, eta_min, k1 and k2 drive the
    E-PMAC slot controller: k1 stretches the window when the success
    ratio is positive but thin, k2 doubles down after a fully collided
    PTE, and t_f_max bounds the run of idle PTEs before a forced restart.
    """

    timing: TimingTable = field(default_factory=TimingTable)
    t_f_max: int = 3
    eta_min: float = 0.35
    k1: float = 1.3
    k2: float = 2.0
    csma_p: float = 0.75
    tdf_capacity: int = 20
    sdf_capacity: int = 10
    max_nc: int = 100_000

    def __post_init__(self) -> None:
        if self.t_f_max < 0:
            raise ValueError("t_f_max must be non-negative")
        if not 0.0 < self.eta_min < 1.0:
            raise ValueError("eta_min must lie strictly inside (0, 1)")
        if not 1.0 < self.k1 < self.k2 < math.inf:
            raise ValueError("growth factors must be finite and satisfy 1 < k1 < k2")
        if not 0.0 < self.csma_p <= 1.0:
            raise ValueError("csma_p must lie in (0, 1]")
        if self.tdf_capacity < 1 or self.sdf_capacity < 1:
            raise ValueError("frame capacities must be at least 1")
        if self.max_nc < 1:
            raise ValueError("max_nc must be at least 1")
