"""Shared vocabulary: protocols, roles, the slot schedule, and the model constants."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from enum import Enum

from .slot_alloc import AllocParams


class Protocol(Enum):
    EPMAC = "epmac"
    PMAC = "pmac"
    IEEE1901 = "ieee1901"


class Role(Enum):
    CCO = "cco"
    PCO = "pco"
    STA = "sta"


@dataclass(frozen=True)
class TimingTable:
    """Slot schedule in integer microseconds.

    Slot lengths are scheduling quantities: every occupied or reserved
    slot of a kind costs its full slot time regardless of the actual
    frame air time inside it.
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

    @classmethod
    def from_dict(cls, data: dict[str, int]) -> "TimingTable":
        return cls(**data)


def default_timing_table() -> TimingTable:
    return TimingTable()


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    """Model constants every formation run of a sweep shares.

    The topology, the slot ratio and the rng come per run, as arguments
    of run_formation.
    """

    timing: TimingTable = field(default_factory=TimingTable)
    alloc: AllocParams = field(default_factory=AllocParams)
    csma_p: float = 0.75
    tdf_capacity: int = 20
    sdf_capacity: int = 10
    max_nc: int = 100_000

    def __post_init__(self) -> None:
        if not 0.0 < self.csma_p <= 1.0:
            raise ValueError("csma_p must lie in (0, 1]")
        if self.tdf_capacity < 1 or self.sdf_capacity < 1:
            raise ValueError("frame capacities must be at least 1")
        if self.max_nc < 1:
            raise ValueError("max_nc must be at least 1")
