"""Per-cycle simulators: contention outcomes and frozen slot-accounting traces."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

from plcmac import RunConfig, mac_protocols
from plcmac.mac_protocols import (
    BINCOUNT_MAX_SLOTS,
    NcOutcome,
    _singletons,
    contend,
    simulate_nc_csma,
    simulate_nc_epmac,
    simulate_nc_pmac,
)
from plcmac.slot_alloc import fresh_state


def _cycle_us(out, cfg=RunConfig()):
    return cfg.timing.cost(out.slot_counts)


def test_value_types_are_immutable():
    fields_of = {
        NcOutcome(1, (2, 0, 0, 0, 0, 0), 0): ("joins", "slot_counts", "data_frames"),
        fresh_state(4): ("n_slot", "n_sta", "t_f", "t_pte"),
    }
    for value, names in fields_of.items():
        for name in names:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))

def test_single_contender_always_wins():
    rng = np.random.default_rng(0)
    assert contend(1, 7, rng) == 1
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state  # without a draw


def test_two_contenders_one_slot_always_collide():
    for seed in range(10):
        assert contend(2, 1, np.random.default_rng(seed)) == 0


def test_contend_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        contend(0, 4, rng)
    with pytest.raises(ValueError):
        contend(3, 0, rng)


def test_contend_mean_matches_the_alone_in_slot_probability():
    # E[S] = m * (1 - 1/n)^(m-1); quick check at m=n=4 (exact 1.6875)
    rng = np.random.default_rng(7)
    total = sum(contend(4, 4, rng) for _ in range(10_000))
    assert abs(total / 10_000 - 1.6875) < 0.05


def test_batched_cycle_first_round_trace(collision_free_rng):
    """Two STAs, two slots, both alone: the full first-cycle bill.

    announcement data frame + 2 preamble slots + 1 TDF + 2 address
    frames + 1 SDF + 2 ACK preambles = 101600 us.
    """
    out = simulate_nc_epmac(2, 2, True, RunConfig(), collision_free_rng)
    assert out.joins == 2
    assert _cycle_us(out) == 101600
    assert out.data_frames == 5
    assert out.slot_counts == (4, 5, 0, 0, 0, 0)


def test_batched_cycle_later_round_trace():
    # announcement shrinks to a preamble after the first cycle
    out = simulate_nc_epmac(1, 1, False, RunConfig(), np.random.default_rng(0))
    assert out.joins == 1
    assert _cycle_us(out) == 61200
    assert out.data_frames == 3
    assert out.slot_counts == (3, 3, 0, 0, 0, 0)


def test_batched_cycle_total_collision_charges_only_the_window():
    out = simulate_nc_epmac(2, 1, True, RunConfig(), np.random.default_rng(3))
    assert out.joins == 0
    assert _cycle_us(out) == 20400
    assert out.data_frames == 1
    assert out.slot_counts == (1, 1, 0, 0, 0, 0)
    out = simulate_nc_epmac(2, 1, False, RunConfig(), np.random.default_rng(3))
    assert _cycle_us(out) == 800
    assert out.data_frames == 0
    assert out.slot_counts == (2, 0, 0, 0, 0, 0)


def test_batched_cycle_respects_frame_capacities(collision_free_rng):
    # 25 joins: 2 TDFs of 20, 3 SDFs of 10
    out = simulate_nc_epmac(25, 25, True, RunConfig(), collision_free_rng)
    assert out.data_frames == 1 + 2 + 25 + 3
    assert out.slot_counts == (25 + 25, 1 + 2 + 25 + 3, 0, 0, 0, 0)


def test_unbatched_cycle_trace(collision_free_rng):
    out = simulate_nc_pmac(2, 1, 2, RunConfig(), collision_free_rng)
    assert out.joins == 2
    assert _cycle_us(out) == 122000
    assert out.data_frames == 6
    assert out.slot_counts == (5, 6, 0, 0, 0, 0)


def test_unbatched_cycle_scales_frames_with_depth(collision_free_rng):
    out = simulate_nc_pmac(1, 2, 1, RunConfig(), collision_free_rng)
    assert out.data_frames == 6
    assert _cycle_us(out) == 121200


def test_unbatched_cycle_collision_costs_preambles_only():
    out = simulate_nc_pmac(3, 1, 1, RunConfig(), np.random.default_rng(0))
    assert out.joins == 0
    assert _cycle_us(out) == 800
    assert out.data_frames == 0
    assert out.slot_counts == (2, 0, 0, 0, 0, 0)


def test_association_cycle_singleton_trace():
    cfg = RunConfig(csma_p=1.0)
    out = simulate_nc_csma(1, 1, 1, cfg, np.random.default_rng(0))
    assert out.joins == 1
    assert _cycle_us(out) == 52000
    assert out.data_frames == 3
    assert out.slot_counts == (0, 0, 1, 0, 1, 1)  # no preamble slots at all


def test_association_cycle_needs_a_slot():
    with pytest.raises(ValueError, match="need at least one slot"):
        simulate_nc_csma(1, 1, 0, RunConfig(), np.random.default_rng(0))


def test_association_cycle_collision_still_pays_every_request_slot():
    cfg = RunConfig(csma_p=1.0)
    out = simulate_nc_csma(2, 1, 1, cfg, np.random.default_rng(0))
    assert out.joins == 0
    assert _cycle_us(out) == 32000
    assert out.data_frames == 3  # beacon and both doomed requests


@pytest.mark.parametrize("csma_p", [0.05, 0.75, 1.0])
@pytest.mark.parametrize("n_slot", [1, 3, 40])
def test_lone_association_contender_consumes_the_size_one_stream(csma_p, n_slot):
    """A lone contender takes the size-1 draws of the stream, and leaves it where they would."""
    cfg = RunConfig(csma_p=csma_p)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        out = simulate_nc_csma(1, 1, n_slot, cfg, rng)
        ref = np.random.default_rng(seed)
        ref.integers(0, n_slot, size=1)
        assert out.joins == int(ref.random(1)[0] < csma_p)
        assert rng.bit_generator.state == ref.bit_generator.state


def test_association_cycle_relays_per_extra_hop(collision_free_rng):
    cfg = RunConfig()
    out = simulate_nc_csma(1, 3, 2, cfg, collision_free_rng)
    assert _cycle_us(out) == 12000 + 2 * 20000 + 20000 + 2 * (20000 + 20000)
    assert out.data_frames == 1 + 1 + 1 + 4
    assert out.slot_counts == (0, 0, 0, 1, 2 + 2, 1 + 2)


def test_association_cycle_deferral():
    """With a small transmit probability a lone STA often sits a cycle out."""
    cfg = RunConfig(csma_p=0.05)
    outcomes = [
        simulate_nc_csma(1, 1, 1, cfg, np.random.default_rng(seed)).joins
        for seed in range(200)
    ]
    joined = sum(outcomes)
    assert 0 < joined < 60  # p = 0.05: transmission is rare but not impossible
    deferred = next(out for out in (
        simulate_nc_csma(1, 1, 1, cfg, np.random.default_rng(seed))
        for seed in range(200)
    ) if not out.joins)
    assert _cycle_us(deferred) == 12000 + 20000
    assert deferred.data_frames == 1  # the beacon went out, nothing else


def _alone_in_slot(slots) -> int:
    return sum(1 for hits in Counter(slots).values() if hits == 1)


@pytest.mark.parametrize("kernel", ["epmac", "pmac", "ieee1901"])
def test_joins_replay_the_alone_in_slot_count_of_the_same_draws(kernel):
    """Each cycle's joins equal the singletons among a twin generator's draws, counted without numpy."""
    cfg = RunConfig(csma_p=0.75)
    cycle = {
        "epmac": lambda pending, n_slot, rng: simulate_nc_epmac(pending, n_slot, True, cfg, rng),
        "pmac": lambda pending, n_slot, rng: simulate_nc_pmac(pending, 1, n_slot, cfg, rng),
        "ieee1901": lambda pending, n_slot, rng: simulate_nc_csma(pending, 1, n_slot, cfg, rng),
    }[kernel]
    rng, twin = np.random.default_rng(11), np.random.default_rng(11)
    for count in (1, 2, 5, 40):
        for n_slot in (1, count, 3 * count):
            for _ in range(20):
                joins = cycle(count, n_slot, rng).joins
                if kernel == "ieee1901":  # the coins come after the slots; only transmitters contend
                    slots = twin.integers(0, n_slot, size=count).tolist()
                    coins = twin.random(count).tolist()
                    expected = _alone_in_slot(slot for slot, coin in zip(slots, coins) if coin < cfg.csma_p)
                elif count == 1:  # a lone contender wins without a draw
                    expected = 1
                else:
                    expected = _alone_in_slot(twin.integers(0, n_slot, size=count).tolist())
                assert joins == expected
                assert rng.bit_generator.state == twin.bit_generator.state
                assert 0 <= joins <= count


@pytest.mark.parametrize("n_slot", [1, 7, 1000, BINCOUNT_MAX_SLOTS, BINCOUNT_MAX_SLOTS + 1, 2**40, 2**62])
def test_binned_and_sorted_singleton_counts_agree_with_a_counter(n_slot, monkeypatch):
    rng = np.random.default_rng(n_slot % 1009)
    cases = []
    for count in (0, 1, 2, 5, 60):
        draws = rng.integers(0, n_slot, size=count)
        cases += [draws, np.concatenate([draws, draws[: count // 3]])]  # repeats collide in any window
    for slots in cases:
        expected = _alone_in_slot(slots.tolist())
        assert _singletons(slots, n_slot) == expected
        with monkeypatch.context() as m:
            m.setattr(mac_protocols, "BINCOUNT_MAX_SLOTS", 0)  # force the sort for every window
            assert _singletons(slots, n_slot) == expected


def test_a_wide_window_costs_memory_by_the_draws_not_the_slots():
    n_slot = 2**22  # binned, one int64 per slot: 32 MB
    slots = np.random.default_rng(5).integers(0, n_slot, size=10)
    tracemalloc.start()
    try:
        joins = _singletons(slots, n_slot)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert joins == _alone_in_slot(slots.tolist())
    assert peak < 2**20

def test_each_kernel_charges_each_slot_kind_its_own_length(per_kind_timing):
    cfg = RunConfig(timing=per_kind_timing, csma_p=1.0)
    out = simulate_nc_epmac(3, 4, True, cfg, np.random.default_rng(1))
    assert (out.joins, _cycle_us(out, cfg)) == (3, 6_007)
    out = simulate_nc_epmac(3, 4, False, cfg, np.random.default_rng(1))
    assert (out.joins, _cycle_us(out, cfg)) == (3, 5_008)
    out = simulate_nc_pmac(3, 2, 4, cfg, np.random.default_rng(1))
    assert (out.joins, _cycle_us(out, cfg)) == (3, 18_008)
    out = simulate_nc_csma(3, 1, 4, cfg, np.random.default_rng(1))
    assert (out.joins, _cycle_us(out, cfg)) == (3, 3_004_000_001_000_000)
    out = simulate_nc_csma(3, 3, 4, cfg, np.random.default_rng(1))
    assert (out.joins, _cycle_us(out, cfg)) == (3, 9_010_001_000_000_000)
