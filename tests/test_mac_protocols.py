"""Per-cycle simulators: contention outcomes and frozen slot-accounting traces."""

import numpy as np
import pytest

from plcmac import (
    PendingSet,
    RunConfig,
    contend,
    simulate_nc_csma,
    simulate_nc_epmac,
    simulate_nc_pmac,
)




def _cycle_us(out, cfg=RunConfig()):
    return cfg.timing.cost(out.slot_counts)


def test_pending_set_normalizes_and_validates():
    ps = PendingSet((5, 2, 9))
    assert ps.stas == (2, 5, 9)
    assert ps.depth == 1
    with pytest.raises(ValueError):
        PendingSet(())
    with pytest.raises(ValueError):
        PendingSet((1, 1))
    with pytest.raises(ValueError):
        PendingSet((1,), depth=0)


def test_single_contender_always_wins():
    successes, flags = contend(1, 7, np.random.default_rng(0))
    assert successes == 1
    assert flags.tolist() == [True]


def test_two_contenders_one_slot_always_collide():
    for seed in range(10):
        successes, _ = contend(2, 1, np.random.default_rng(seed))
        assert successes == 0


def test_contend_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        contend(0, 4, rng)
    with pytest.raises(ValueError):
        contend(3, 0, rng)


def test_contend_mean_matches_the_alone_in_slot_probability():
    # E[S] = m * (1 - 1/n)^(m-1); quick check at m=n=4 (exact 1.6875)
    rng = np.random.default_rng(7)
    total = sum(contend(4, 4, rng)[0] for _ in range(10_000))
    assert abs(total / 10_000 - 1.6875) < 0.05


def test_batched_cycle_first_round_trace(collision_free_rng):
    """Two STAs, two slots, both alone: the full first-cycle bill.

    announcement data frame + 2 preamble slots + 1 TDF + 2 address
    frames + 1 SDF + 2 ACK preambles = 101600 us.
    """
    out = simulate_nc_epmac(PendingSet((1, 2)), 2, True, RunConfig(), collision_free_rng)
    assert out.joined == (1, 2)
    assert _cycle_us(out) == 101600
    assert out.data_frames == 5
    assert out.slot_counts == (4, 5, 0, 0, 0, 0)
    assert out.slots_used == 2


def test_batched_cycle_later_round_trace():
    # announcement shrinks to a preamble after the first cycle
    out = simulate_nc_epmac(PendingSet((7,)), 1, False, RunConfig(), np.random.default_rng(0))
    assert out.joined == (7,)
    assert _cycle_us(out) == 61200
    assert out.data_frames == 3
    assert out.slot_counts == (3, 3, 0, 0, 0, 0)


def test_batched_cycle_total_collision_charges_only_the_window():
    out = simulate_nc_epmac(PendingSet((1, 2)), 1, True, RunConfig(), np.random.default_rng(3))
    assert out.joined == ()
    assert _cycle_us(out) == 20400
    assert out.data_frames == 1
    assert out.slot_counts == (1, 1, 0, 0, 0, 0)
    out = simulate_nc_epmac(PendingSet((1, 2)), 1, False, RunConfig(), np.random.default_rng(3))
    assert _cycle_us(out) == 800
    assert out.data_frames == 0
    assert out.slot_counts == (2, 0, 0, 0, 0, 0)


def test_batched_cycle_respects_frame_capacities(collision_free_rng):
    # 25 joins: 2 TDFs of 20, 3 SDFs of 10
    out = simulate_nc_epmac(PendingSet(tuple(range(1, 26))), 25, True, RunConfig(), collision_free_rng)
    assert out.data_frames == 1 + 2 + 25 + 3
    assert out.slot_counts == (25 + 25, 1 + 2 + 25 + 3, 0, 0, 0, 0)


def test_unbatched_cycle_trace(collision_free_rng):
    out = simulate_nc_pmac(PendingSet((1, 2)), 2, RunConfig(), collision_free_rng)
    assert out.joined == (1, 2)
    assert _cycle_us(out) == 122000
    assert out.data_frames == 6
    assert out.slot_counts == (5, 6, 0, 0, 0, 0)


def test_unbatched_cycle_scales_frames_with_depth(collision_free_rng):
    out = simulate_nc_pmac(PendingSet((9,), depth=2), 1, RunConfig(), collision_free_rng)
    assert out.data_frames == 6
    assert _cycle_us(out) == 121200


def test_unbatched_cycle_collision_costs_preambles_only():
    out = simulate_nc_pmac(PendingSet((1, 2, 3)), 1, RunConfig(), np.random.default_rng(0))
    assert out.joined == ()
    assert _cycle_us(out) == 800
    assert out.data_frames == 0
    assert out.slot_counts == (2, 0, 0, 0, 0, 0)


def test_association_cycle_singleton_trace():
    cfg = RunConfig(csma_p=1.0)
    out = simulate_nc_csma(PendingSet((1,)), 1, cfg, np.random.default_rng(0))
    assert out.joined == (1,)
    assert _cycle_us(out) == 52000
    assert out.data_frames == 3
    assert out.slot_counts == (0, 0, 1, 0, 1, 1)  # no preamble slots at all


def test_association_cycle_collision_still_pays_every_request_slot():
    cfg = RunConfig(csma_p=1.0)
    out = simulate_nc_csma(PendingSet((1, 2)), 1, cfg, np.random.default_rng(0))
    assert out.joined == ()
    assert _cycle_us(out) == 32000
    assert out.data_frames == 3  # beacon and both doomed requests


@pytest.mark.parametrize("csma_p", [0.05, 0.75, 1.0])
@pytest.mark.parametrize("n_slot", [1, 3, 40])
def test_lone_association_contender_consumes_the_size_one_stream(csma_p, n_slot):
    """A lone contender's scalar draws leave the stream where size=1 draws would."""
    cfg = RunConfig(csma_p=csma_p)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        out = simulate_nc_csma(PendingSet((4,)), n_slot, cfg, rng)
        ref = np.random.default_rng(seed)
        ref.integers(0, n_slot, size=1)
        assert out.joined == ((4,) if ref.random(1)[0] < csma_p else ())
        assert rng.bit_generator.state == ref.bit_generator.state


def test_association_cycle_relays_per_extra_hop(collision_free_rng):
    cfg = RunConfig()
    out = simulate_nc_csma(PendingSet((5,), depth=3), 2, cfg, collision_free_rng)
    assert _cycle_us(out) == 12000 + 2 * 20000 + 20000 + 2 * (20000 + 20000)
    assert out.data_frames == 1 + 1 + 1 + 4
    assert out.slot_counts == (0, 0, 0, 1, 2 + 2, 1 + 2)


def test_association_cycle_deferral():
    """With a small transmit probability a lone STA often sits a cycle out."""
    cfg = RunConfig(csma_p=0.05)
    outcomes = [
        simulate_nc_csma(PendingSet((1,)), 1, cfg, np.random.default_rng(seed)).joined
        for seed in range(200)
    ]
    joined = sum(1 for j in outcomes if j)
    assert 0 < joined < 60  # p = 0.05: transmission is rare but not impossible
    deferred = next(out for out in (
        simulate_nc_csma(PendingSet((1,)), 1, cfg, np.random.default_rng(seed))
        for seed in range(200)
    ) if not out.joined)
    assert _cycle_us(deferred) == 12000 + 20000
    assert deferred.data_frames == 1  # the beacon went out, nothing else


def test_joined_ids_follow_input_order(collision_free_rng):
    out = simulate_nc_epmac(PendingSet((27, 3, 9)), 3, True, RunConfig(), collision_free_rng)
    assert out.joined == (3, 9, 27)


def test_each_kernel_charges_each_slot_kind_its_own_length(per_kind_timing):
    cfg = RunConfig(timing=per_kind_timing, csma_p=1.0)
    trio = PendingSet((1, 2, 3))
    out = simulate_nc_epmac(trio, 4, True, cfg, np.random.default_rng(1))
    assert (out.joined, _cycle_us(out, cfg)) == ((1, 2, 3), 6_007)
    out = simulate_nc_epmac(trio, 4, False, cfg, np.random.default_rng(1))
    assert (out.joined, _cycle_us(out, cfg)) == ((1, 2, 3), 5_008)
    out = simulate_nc_pmac(PendingSet((1, 2, 3), depth=2), 4, cfg, np.random.default_rng(1))
    assert (out.joined, _cycle_us(out, cfg)) == ((1, 2, 3), 18_008)
    out = simulate_nc_csma(trio, 4, cfg, np.random.default_rng(1))
    assert (out.joined, _cycle_us(out, cfg)) == ((1, 2, 3), 3_004_000_001_000_000)
    out = simulate_nc_csma(PendingSet((1, 2, 3), depth=3), 4, cfg, np.random.default_rng(1))
    assert (out.joined, _cycle_us(out, cfg)) == ((1, 2, 3), 9_010_001_000_000_000)
