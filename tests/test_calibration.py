"""Delay calibration: three round-trip measurements pin four device delays."""

from fractions import Fraction

import numpy as np
import pytest

from plcmac import (
    CalibrationMeasurement,
    DelayProfile,
    InconsistentMeasurement,
    NegativeResult,
    calibrate_time_difference,
    measurement_residuals,
    simulate_pte_measurement,
    solve_calibration,
    synthesize_measurements,
)


def test_profile_rejects_negative_delays():
    with pytest.raises(ValueError):
        DelayProfile(t_p=-1, r_p=5, r_m=5)
    with pytest.raises(TypeError):
        DelayProfile(t_p=1, r_p=5, r_m=5, t_c=2)  # t_c is modelled as zero and has no field


def test_profile_offset_combines_the_three_delays():
    assert DelayProfile(t_p=100, r_p=60, r_m=50).tau == 10
    # the offset may be negative when the send path dominates
    assert DelayProfile(t_p=200, r_p=60, r_m=50).tau == -90


def test_known_profile_round_trips_exactly():
    profile = DelayProfile(t_p=120, r_p=75, r_m=40)
    meas = synthesize_measurements(profile)
    assert meas == CalibrationMeasurement(tau_cco1=230, tau_cco2=110, tau_sta=160)
    result = solve_calibration(meas)
    assert result.t_p == 120
    assert result.r_m == 40
    assert result.r_p == Fraction(75)
    assert result.tau == Fraction(profile.tau)
    assert all(r == 0 for r in measurement_residuals(result, meas))


def test_half_integral_offset_stays_exact():
    # odd tau_cco1 makes r_p and tau half-integers; nothing may round
    profile = DelayProfile(t_p=7, r_p=5, r_m=3)
    result = solve_calibration(synthesize_measurements(profile))
    assert result.tau == profile.tau
    assert result.r_p == 5
    assert result.tau == Fraction(1)

    meas = CalibrationMeasurement(tau_cco1=17, tau_cco2=10, tau_sta=10)
    res = solve_calibration(meas)
    assert res.tau == Fraction(3, 2)
    assert res.r_p == res.t_p + res.tau - res.r_m == Fraction(11, 2)
    assert all(r == 0 for r in measurement_residuals(res, meas))


def test_random_profiles_round_trip(seeded_loop_count=500):
    rng = np.random.default_rng(42)
    for _ in range(seeded_loop_count):
        t_p, r_p, r_m = (int(x) for x in rng.integers(0, 10_001, size=3))
        profile = DelayProfile(t_p=t_p, r_p=r_p, r_m=r_m)
        result = solve_calibration(synthesize_measurements(profile))
        assert (result.t_p, result.r_m) == (t_p, r_m)
        assert result.r_p == r_p
        assert result.tau == Fraction(profile.tau)


def test_contradictory_measurements_are_detected():
    # tau_cco1 < tau_cco2 would mean a negative transmit delay
    with pytest.raises(InconsistentMeasurement):
        solve_calibration(CalibrationMeasurement(tau_cco1=50, tau_cco2=80, tau_sta=10))
    # tau_sta smaller than t_p would mean a negative medium delay
    with pytest.raises(InconsistentMeasurement):
        solve_calibration(CalibrationMeasurement(tau_cco1=100, tau_cco2=40, tau_sta=10))


def test_pte_measurement_shows_the_offset_twice():
    profile = DelayProfile(t_p=300, r_p=200, r_m=150)
    delta_sta, delta_cco = simulate_pte_measurement(profile, backoff_us=1200)
    assert delta_sta == 1200 + 150 + 300
    assert delta_cco - delta_sta == 2 * profile.tau


def test_calibration_recovers_the_sta_side_difference():
    profile = DelayProfile(t_p=300, r_p=200, r_m=150)
    delta_sta, delta_cco = simulate_pte_measurement(profile, backoff_us=777)
    assert calibrate_time_difference(delta_cco, profile.tau) == delta_sta


def test_fractional_offset_correction_returns_int_when_integral():
    corrected = calibrate_time_difference(10, Fraction(3, 2))
    assert corrected == 7
    assert isinstance(corrected, int)
    assert calibrate_time_difference(10, Fraction(5, 4)) == Fraction(15, 2)


def test_overlarge_offset_is_rejected():
    with pytest.raises(NegativeResult):
        calibrate_time_difference(10, 6)


def test_negative_backoff_is_rejected():
    with pytest.raises(ValueError):
        simulate_pte_measurement(DelayProfile(1, 1, 1), backoff_us=-1)
