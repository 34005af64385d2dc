"""Adaptive slot-count controller: branch table and state transitions."""

import pytest

from plcmac import ExperimentPlan, Protocol, RunConfig, run_experiment
from plcmac.slot_alloc import SlotAllocState, ZeroSlots, _as_fraction, ceil_scale, fresh_state, next_slot_count, record_pte

CFG = RunConfig()


@pytest.mark.parametrize(
    "factor,n,expected",
    [
        (1.1, 10, 11),   # float 1.1 * 10 overshoots 11; the exact product must not
        (1.3, 10, 13),
        (1.3, 3, 4),
        (2.0, 5, 10),
        (0.5, 3, 2),
        (0.5, 2, 1),
        (1.0, 7, 7),
        (1.25, 8, 10),
    ],
)
def test_ceil_scale_is_exact_for_decimal_factors(factor, n, expected):
    assert ceil_scale(factor, n) == expected


def test_ratio_cache_stays_bounded_over_a_random_ratio_sweep():
    maxsize = _as_fraction.cache_info().maxsize
    assert maxsize is not None
    plan = ExperimentPlan(protocols=(Protocol.EPMAC,), n_values=(5,), ratio_random=(0.5, 2.0),
                          trials=3 * maxsize, seed=4)
    rows = run_experiment(plan)
    assert len({r.ratio for r in rows}) > maxsize
    assert _as_fraction.cache_info().currsize <= maxsize


def test_params_validation():
    with pytest.raises(ValueError, match="n0 must be non-negative"):
        fresh_state(-1)
    with pytest.raises(ValueError, match="t_f_max must be non-negative"):
        RunConfig(t_f_max=-1)
    with pytest.raises(ValueError, match="eta_min must lie strictly inside"):
        RunConfig(eta_min=0.0)
    with pytest.raises(ValueError, match="eta_min must lie strictly inside"):
        RunConfig(eta_min=1.0)
    with pytest.raises(ValueError, match="growth factors must be finite and satisfy"):
        RunConfig(k1=1.0)
    with pytest.raises(ValueError, match="growth factors must be finite and satisfy"):
        RunConfig(k1=2.0, k2=2.0)
    with pytest.raises(ValueError, match="growth factors must be finite and satisfy"):
        RunConfig(k2=float("inf"))


def test_first_round_uses_n0():
    assert next_slot_count(fresh_state(9), CFG) == 9


def test_healthy_ratio_keeps_the_window():
    # 3 of 6 joined: eta = 0.5 > 0.35
    state = SlotAllocState(n_slot=6, n_sta=3, t_f=0, t_pte=1)
    assert next_slot_count(state, CFG) == 6


def test_thin_ratio_stretches_by_k1():
    # 2 of 6 joined: eta = 1/3 <= 0.35, so ceil(1.3 * 6) = 8
    state = SlotAllocState(n_slot=6, n_sta=2, t_f=0, t_pte=1)
    assert next_slot_count(state, CFG) == 8


def test_idle_round_doubles_by_k2():
    state = SlotAllocState(n_slot=6, n_sta=0, t_f=1, t_pte=1)
    assert next_slot_count(state, CFG) == 12


def test_idle_budget_exhaustion_returns_zero():
    state = SlotAllocState(n_slot=6, n_sta=0, t_f=4, t_pte=4)
    assert next_slot_count(state, RunConfig(t_f_max=3)) == 0


def test_boundary_eta_counts_as_thin():
    # exactly eta_min must stretch, not hold
    cfg = RunConfig(eta_min=0.5)
    state = SlotAllocState(n_slot=4, n_sta=2, t_f=0, t_pte=1)
    assert next_slot_count(state, cfg) == ceil_scale(cfg.k1, 4)


def test_follow_up_after_zero_slot_round_is_an_error():
    state = SlotAllocState(n_slot=0, n_sta=0, t_f=0, t_pte=2)
    with pytest.raises(ZeroSlots):
        next_slot_count(state, CFG)


def test_record_pte_transitions():
    state = fresh_state(10)
    state = record_pte(state, 10, 2)
    assert (state.n_slot, state.n_sta, state.t_f, state.t_pte) == (10, 2, 0, 1)
    state = record_pte(state, 13, 0)
    assert (state.n_slot, state.n_sta, state.t_f, state.t_pte) == (13, 0, 1, 2)
    state = record_pte(state, 26, 0)
    assert state.t_f == 2
    state = record_pte(state, 52, 5)
    assert state.t_f == 0  # any success resets the idle counter


def test_record_pte_validation():
    state = fresh_state(1)
    with pytest.raises(ValueError):
        record_pte(state, 0, 0)
    with pytest.raises(ValueError):
        record_pte(state, 4, 5)
    with pytest.raises(ValueError):
        record_pte(state, 4, -1)


def test_controller_trajectory_is_deterministic():
    """Feed a scripted join sequence and freeze the windows it produces.

    n0=10, joins 2 (thin), 0 (idle), 26 (healthy), 0, 0, 0, 0 (budget gone).
    """
    state = fresh_state(10)
    windows = []
    for joins in (2, 0, 26, 0, 0, 0, 0):
        n_slot = next_slot_count(state, CFG)
        windows.append(n_slot)
        joins = min(joins, n_slot)
        state = record_pte(state, n_slot, joins)
    assert windows == [10, 13, 26, 26, 52, 104, 208]
    assert next_slot_count(state, CFG) == 0
