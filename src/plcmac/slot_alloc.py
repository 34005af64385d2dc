"""Adaptive PTE slot-count controller used by E-PMAC networking cycles."""

from __future__ import annotations

from decimal import Decimal
from numbers import Rational, Real
from typing import NamedTuple

from .core import RunConfig


class ZeroSlots(ValueError):
    """Raised when asked for a follow-up slot count after a zero-slot PTE."""


def _as_fraction(factor) -> tuple[int, int]:
    """factor's exact value as (numerator, denominator), a float's that of the decimal it prints; a non-number raises."""
    if isinstance(factor, bool) or not isinstance(factor, (Real, Decimal)):
        raise TypeError(f"a slot ratio must be a number, got a {type(factor).__name__}")
    if isinstance(factor, Rational):
        return int(factor.numerator), int(factor.denominator)
    return (factor if isinstance(factor, Decimal) else Decimal(str(factor))).as_integer_ratio()  # np.float32(1.1) prints 1.1


def ceil_scale(factor: float, n: int) -> int:
    """Ceiling of factor * n, exact for decimal-literal factors.

    Plain float multiplication can overshoot an integer product
    (1.1 * 10 == 11.000000000000002) and inflate the ceiling by one slot.
    """
    numerator, denominator = _as_fraction(factor)
    return -(-numerator * n // denominator)


MAX_WINDOW = 2**63  # the widest window one draw takes: numpy's int64 rng.integers bound, and the engine's


def check_first_window(factor: float, n: int) -> None:
    """Raise ValueError unless factor is a positive number and ceil_scale(factor, n) slots fit one int64 draw."""
    try:
        numerator, denominator = _as_fraction(factor)
    except (TypeError, ValueError, ArithmeticError):  # not a number, or nan or an infinity, which have no fraction
        numerator = 0
    if numerator <= 0 or numerator * n > MAX_WINDOW * denominator:
        try:
            name = repr(factor)
        except ValueError:  # an int past the digits str() may print
            name = f"<{type(factor).__name__} of {numerator.bit_length()} bits>"
        raise ValueError(f"slot ratio {name} gives {n} STA(s) a first window above 2**63 slots, more than one draw can take"
                         if numerator > 0 else f"slot ratio must be positive and finite, got {name}")


class SlotAllocState(NamedTuple):
    """What the controller remembers after t_pte completed PTE rounds."""

    n_slot: int = 0  # slots used in the previous PTE; before the first, n0
    n_sta: int = 0   # joins observed in the previous PTE
    t_f: int = 0     # consecutive PTEs with zero joins
    t_pte: int = 0   # completed PTEs this session


def fresh_state(n0: int) -> SlotAllocState:
    """State before any PTE has run.

    n0 is the first-PTE slot count, normally chosen by the experiment as
    ceil(slot_ratio * pending).
    """
    if n0 < 0:
        raise ValueError("n0 must be non-negative")
    return SlotAllocState(n0)


def next_slot_count(state: SlotAllocState, cfg: RunConfig) -> int:
    """Slot count for the next PTE round, under cfg's controller constants.

    The first round uses n0. Afterwards the previous round's success
    ratio eta = n_sta / n_slot picks the branch: a thin ratio
    (0 < eta <= eta_min) stretches the window by k1, a healthy one keeps
    it, and a fully collided or idle round doubles it by k2 until
    t_f_max idle rounds have passed; then it returns 0, and the engine
    restarts the session with a fresh first PTE of n0 slots.
    """
    if state.t_pte == 0:
        return state.n_slot
    if state.n_slot <= 0:
        raise ZeroSlots("previous PTE ran with no slots; cannot derive a follow-up count")
    if state.n_sta > 0:
        eta = state.n_sta / state.n_slot
        if eta <= cfg.eta_min:
            return ceil_scale(cfg.k1, state.n_slot)
        return state.n_slot
    if state.t_f <= cfg.t_f_max:
        return ceil_scale(cfg.k2, state.n_slot)
    return 0


def record_pte(state: SlotAllocState, n_slot_used: int, n_joined: int) -> SlotAllocState:
    """Fold one finished PTE round into the state.

    Any success resets the idle counter; an idle round increments it.
    """
    if n_slot_used < 1:
        raise ValueError("a PTE round uses at least one slot")
    if not 0 <= n_joined <= n_slot_used:
        raise ValueError("joins must lie in [0, n_slot_used]")
    return SlotAllocState(n_slot_used, n_joined, 0 if n_joined else state.t_f + 1, state.t_pte + 1)
