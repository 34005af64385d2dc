"""Propagation-delay calibration from PTE round-trip observations.

During a PTE exchange the coordinator and the joining STA each observe
send/receive time differences that mix processing delays with the
one-way path delay. Three round-trip measurements determine the four
device delays exactly, and the recovered offset corrects the
coordinator-side time difference down to what the STA actually saw.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class InconsistentMeasurement(ValueError):
    """Measurements imply a negative processing or path delay."""


class NegativeResult(ValueError):
    """Corrected time difference came out negative."""


@dataclass(frozen=True)
class DelayProfile:
    """Ground-truth device delays in integer microseconds.

    t_p: transmit processing delay
    r_p: receive processing delay
    r_m: one-way medium delay (path plus analog front end)

    The carrier-detect delay t_c is modelled as zero, so it has no field.
    """

    t_p: int
    r_p: int
    r_m: int

    def __post_init__(self) -> None:
        if min(self.t_p, self.r_p, self.r_m) < 0:
            raise ValueError("device delays must be non-negative")

    @property
    def tau(self) -> int:
        """Effective offset r_p + r_m - t_p; may be negative."""
        return self.r_p + self.r_m - self.t_p


@dataclass(frozen=True)
class CalibrationMeasurement:
    """The three observable round-trip differences, integer microseconds."""

    tau_cco1: int
    tau_cco2: int
    tau_sta: int


@dataclass(frozen=True)
class CalibrationResult:
    """Recovered delays.

    tau and r_p are exact fractions because they are half-integral when
    tau_cco1 is odd.
    """

    t_p: int
    r_m: int
    tau: Fraction

    @property
    def r_p(self) -> Fraction:
        """Receive processing delay, from r_p + r_m - t_p - tau = 0."""
        return self.t_p + self.tau - self.r_m


def synthesize_measurements(profile: DelayProfile) -> CalibrationMeasurement:
    """Noise-free measurements a device pair with this profile would report."""
    rt = profile.r_p + profile.r_m
    return CalibrationMeasurement(
        tau_cco1=2 * rt,
        tau_cco2=2 * rt - profile.t_p,
        tau_sta=profile.r_m + profile.t_p,
    )


def solve_calibration(meas: CalibrationMeasurement) -> CalibrationResult:
    """Invert the three measurements back into the device delays.

    The defining relations are
        r_p + r_m - t_p - tau = 0
        r_p + r_m + tau       = tau_cco2
        r_p + r_m + t_p + tau = tau_cco1
        r_m + t_p             = tau_sta
    which pin t_p = tau_cco1 - tau_cco2 and 2*tau = 2*tau_cco2 - tau_cco1.
    """
    t_p = meas.tau_cco1 - meas.tau_cco2
    result = CalibrationResult(t_p=t_p, r_m=meas.tau_sta - t_p, tau=Fraction(2 * meas.tau_cco2 - meas.tau_cco1, 2))
    if min(result.t_p, result.r_m, result.r_p) < 0:
        raise InconsistentMeasurement(
            f"measurements {meas} imply negative delays "
            f"(t_p={result.t_p}, r_m={result.r_m}, r_p={result.r_p})"
        )
    return result


def measurement_residuals(
    result: CalibrationResult, meas: CalibrationMeasurement
) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """The four defining relations evaluated at a solution; all zero when it is exact."""
    tau = result.tau
    rt = result.r_p + result.r_m
    return (
        rt - result.t_p - tau,
        rt + tau - meas.tau_cco2,
        rt + result.t_p + tau - meas.tau_cco1,
        Fraction(result.r_m + result.t_p - meas.tau_sta),
    )


def simulate_pte_measurement(profile: DelayProfile, backoff_us: int) -> tuple[int, int]:
    """One PTE request as both sides time it.

    Returns (delta_t_sta, delta_t_cco): the STA-side difference is the
    chosen backoff plus its own send path, the coordinator additionally
    sees the offset twice (once per direction).
    """
    if backoff_us < 0:
        raise ValueError("backoff must be non-negative")
    delta_t_sta = backoff_us + profile.r_m + profile.t_p
    delta_t_cco = delta_t_sta + 2 * profile.tau
    return delta_t_sta, delta_t_cco


def calibrate_time_difference(delta_t_cco: int, tau: int | Fraction):
    """Correct a coordinator-observed time difference by the recovered offset.

    Returns delta_t_cco - 2*tau, which equals the STA-side difference
    when tau came from the same exchange.
    """
    corrected = delta_t_cco - 2 * tau
    if corrected < 0:
        raise NegativeResult(
            f"corrected difference {corrected} is negative; offset {tau} "
            "cannot belong to this measurement"
        )
    if isinstance(corrected, Fraction) and corrected.denominator == 1:
        return int(corrected)
    return corrected
