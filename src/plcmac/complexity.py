"""Closed-form data-frame counts for formation over uniform trees.

All totals are evaluated twice on demand: once by running the per-layer
recurrence, once from the closed form in exact rational arithmetic. The
two must agree, and tests hold them to that.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class TreeShape:
    """Uniform tree: every coordinator in layers 0..k-1 has exactly m children.

    The batched counts assume one TDF and one SDF per session, so they
    hold for m <= sdf_capacity (10 by default, with tdf_capacity >= it);
    past that, every session sends frames they do not count.
    """

    m: int
    k: int

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError("m must be at least 2")
        if self.k < 1:
            raise ValueError("k must be at least 1")

    @property
    def sta_count(self) -> int:
        """Total STAs: m + m^2 + ... + m^k."""
        return self.m * (self.m**self.k - 1) // (self.m - 1)


def _check_layer(shape: TreeShape, layer: int) -> None:
    if not 1 <= layer <= shape.k:
        raise ValueError(f"layer must lie in [1, {shape.k}]")


def pmac_session_frames(shape: TreeShape, layer: int) -> int:
    """Data frames one unbatched session at this layer needs.

    Layer 1 costs 3m (time difference, MAC address, SID per STA); each
    extra layer adds 3m relayed copies plus a beacon down and a report up.
    """
    _check_layer(shape, layer)
    return 3 * shape.m + (layer - 1) * (3 * shape.m + 2)


def epmac_session_frames(shape: TreeShape, layer: int) -> int:
    """Data frames one batched session at this layer needs: m + 2*layer (m <= sdf_capacity)."""
    _check_layer(shape, layer)
    return shape.m + 2 * layer


def pmac_total_frames(shape: TreeShape) -> int:
    """Whole-network unbatched frame count via the per-layer recurrence."""
    total = 0
    session = 3 * shape.m
    for layer in range(1, shape.k + 1):
        if layer > 1:
            session += 3 * shape.m + 2
        total += session * shape.m ** (layer - 1)
    return total


def pmac_total_frames_closed(shape: TreeShape) -> Fraction:
    """Closed form (A*k + B) * m^k - B with A = 3 + 5/(m-1), B = -5m/(m-1)^2."""
    m, k = shape.m, shape.k
    a = 3 + Fraction(5, m - 1)
    b = Fraction(-5 * m, (m - 1) ** 2)
    return (a * k + b) * m**k - b


def epmac_total_frames(shape: TreeShape) -> int:
    """Whole-network batched frame count via the per-layer recurrence."""
    total = 0
    session = shape.m + 2
    for layer in range(1, shape.k + 1):
        if layer > 1:
            session += 2
        total += session * shape.m ** (layer - 1)
    return total


def epmac_total_frames_closed(shape: TreeShape) -> Fraction:
    """Closed form (A*k + B) * m^k - B with A = 2/(m-1), B = 1 + (m-3)/(m-1)^2."""
    m, k = shape.m, shape.k
    a = Fraction(2, m - 1)
    b = 1 + Fraction(m - 3, (m - 1) ** 2)
    return (a * k + b) * m**k - b


def delta_sta_exact(shape: TreeShape) -> Fraction:
    """Per-STA frame saving of batching, exact."""
    saved = pmac_total_frames(shape) - epmac_total_frames(shape)
    return Fraction(saved, shape.sta_count)


def delta_sta_approx(shape: TreeShape) -> int:
    """The 3k - 1 rule of thumb for the per-STA saving; overshoots at small k."""
    return 3 * shape.k - 1


def epmac_single_layer_frames(n: int, tdf_capacity: int = 20, sdf_capacity: int = 10) -> int:
    """Exact batched frame count for one single-layer session of n STAs.

    One TDF per tdf_capacity joins, one SDF per sdf_capacity joins,
    one MAC-address frame per STA: ceil(n/20) + ceil(n/10) + n at the
    default capacities.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if tdf_capacity < 1 or sdf_capacity < 1:
        raise ValueError("capacities must be at least 1")
    return -(-n // tdf_capacity) + -(-n // sdf_capacity) + n
