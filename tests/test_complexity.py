"""Closed-form frame counts versus their defining recurrences."""

from fractions import Fraction

import numpy as np
import pytest

from plcmac import (
    Protocol,
    RunConfig,
    TreeShape,
    delta_sta_approx,
    delta_sta_exact,
    epmac_session_frames,
    epmac_single_layer_frames,
    epmac_total_frames,
    epmac_total_frames_closed,
    generate_tree,
    pmac_session_frames,
    pmac_total_frames,
    pmac_total_frames_closed,
    run_formation,
    tree_from_parents,
)


def test_shape_validation_and_sta_count():
    assert TreeShape(2, 2).sta_count == 6
    assert TreeShape(10, 3).sta_count == 1110
    assert TreeShape(2, 1).sta_count == 2
    with pytest.raises(ValueError):
        TreeShape(1, 3)
    with pytest.raises(ValueError):
        TreeShape(4, 0)


def test_session_frames_per_layer():
    shape = TreeShape(4, 3)
    assert pmac_session_frames(shape, 1) == 12
    assert pmac_session_frames(shape, 2) == 12 + 14
    assert pmac_session_frames(shape, 3) == 12 + 28
    assert epmac_session_frames(shape, 1) == 6
    assert epmac_session_frames(shape, 3) == 10
    with pytest.raises(ValueError):
        pmac_session_frames(shape, 4)
    with pytest.raises(ValueError):
        epmac_session_frames(shape, 0)


def test_hand_computed_totals():
    # m=2, k=2: layer 1 session 6, two layer-2 sessions of 14 each
    assert pmac_total_frames(TreeShape(2, 2)) == 34
    # batched: layer 1 session 4, two layer-2 sessions of 6 each
    assert epmac_total_frames(TreeShape(2, 2)) == 16
    assert pmac_total_frames(TreeShape(2, 1)) == 6
    assert epmac_total_frames(TreeShape(2, 1)) == 4


def test_closed_forms_match_recurrences_exactly():
    for m in range(2, 11):
        for k in range(1, 7):
            shape = TreeShape(m, k)
            assert pmac_total_frames_closed(shape) == pmac_total_frames(shape)
            assert epmac_total_frames_closed(shape) == epmac_total_frames(shape)


def test_per_sta_saving_exact_values():
    assert delta_sta_exact(TreeShape(2, 2)) == 3
    assert delta_sta_exact(TreeShape(2, 1)) == 1
    assert float(delta_sta_exact(TreeShape(10, 3))) == pytest.approx(7.4757, abs=1e-4)
    assert isinstance(delta_sta_exact(TreeShape(3, 3)), Fraction)


def test_rule_of_thumb_overshoots_at_small_depth():
    assert delta_sta_approx(TreeShape(2, 1)) == 2
    assert delta_sta_exact(TreeShape(2, 1)) == 1
    # the gap closes as the tree widens
    wide = TreeShape(1000, 2)
    assert float(delta_sta_exact(wide)) == pytest.approx(delta_sta_approx(wide), rel=1e-2)


def test_saving_grows_with_depth():
    prev = Fraction(0)
    for k in range(1, 7):
        cur = delta_sta_exact(TreeShape(5, k))
        assert cur > prev
        prev = cur


@pytest.mark.parametrize(
    "n,expected",
    [(1, 3), (10, 12), (25, 30), (100, 115), (650, 748)],
)
def test_single_layer_batched_frame_count(n, expected):
    assert epmac_single_layer_frames(n) == expected


def test_single_layer_frame_count_custom_capacities():
    # 25 joins at capacities (20, 10): 2 + 3 + 25; the capacities come from the RunConfig, which checks them
    assert epmac_single_layer_frames(25, RunConfig(tdf_capacity=20, sdf_capacity=10)) == 30
    assert epmac_single_layer_frames(25, RunConfig(tdf_capacity=5, sdf_capacity=5)) == 5 + 5 + 25
    with pytest.raises(ValueError):
        epmac_single_layer_frames(0)
    with pytest.raises(ValueError):
        epmac_single_layer_frames(10, RunConfig(tdf_capacity=0))


def _uniform_tree(shape):
    """Every coordinator in layers 0..k-1 gets m children; ids ascend layer by layer."""
    parents = {}
    layer = [0]
    for _ in range(shape.k):
        below = []
        for par in layer:
            for _ in range(shape.m):
                below.append(len(parents) + 1)
                parents[below[-1]] = par
        layer = below
    return tree_from_parents(parents)


# m 2..10 and k 1..6, capped at 10000 STAs: 43 shapes, about 0.1 s under the collision-free stub
UNIFORM_SHAPES = [TreeShape(m, k) for m in range(2, 11) for k in range(1, 7) if TreeShape(m, k).sta_count <= 10_000]


def test_engine_frame_counts_match_the_complexity_analysis(collision_free_draws):
    """Collision-free runs on uniform trees send exactly the frames the analysis counts.

    E-PMAC adds one frame per session: its first cycle's slot-count
    announcement, which the per-session count m + 2*layer leaves out.
    Every session of every protocol joins all its STAs in one cycle.
    """
    for shape in UNIFORM_SHAPES:
        tree = _uniform_tree(shape)
        sessions = len(tree.children)
        assert sessions == (shape.m**shape.k - 1) // (shape.m - 1)
        epmac, pmac, csma = (run_formation(protocol, tree, RunConfig(), 1.0, 0) for protocol in Protocol)
        assert pmac.data_frames == pmac_total_frames(shape), shape
        assert epmac.data_frames == epmac_total_frames(shape) + sessions, shape
        assert pmac.nc_count == epmac.nc_count == csma.nc_count == sessions, shape


def test_every_slot_kind_on_uniform_trees_hits_the_protocol_descriptions(per_kind_timing, collision_free_draws):
    """Collision-free runs at ratio 1.0 under one power of 1000 a slot kind, so total_us holds every kind's count.

    A session at depth k with m STAs opens a window of m slots, and all m
    join in its one cycle. Per session, in slot-kind order (preambles, data
    frames, central beacons, proxy beacons, association requests and
    indications):
    - E-PMAC: m PTE slots and m ACK preambles; a first-PTE announcement,
      ceil(m/20) TDFs, m MAC-address frames, ceil(m/10) SDFs and 2(k - 1)
      relay frames;
    - P-MAC: a PTE announcement, m PTE slots and m ACK preambles; 3 frames
      per hop for each of its m STAs, 3km, and 2(k - 1) relay frames;
    - IEEE 1901.1: one beacon, central at k = 1 and proxy below; a request
      and an indication per hop for each of its m STAs, km of each.
    Layer k holds m**(k - 1) sessions.
    """
    cfg = RunConfig(timing=per_kind_timing)
    for shape in UNIFORM_SHAPES:
        m, tree = shape.m, _uniform_tree(shape)
        want = {protocol: [0] * 6 for protocol in Protocol}
        for k in range(1, shape.k + 1):
            per_session = {
                Protocol.EPMAC: (2 * m, 1 + -(-m // 20) + m + -(-m // 10) + 2 * (k - 1), 0, 0, 0, 0),
                Protocol.PMAC: (2 * m + 1, 3 * k * m + 2 * (k - 1), 0, 0, 0, 0),
                Protocol.IEEE1901: (0, 0, int(k == 1), int(k > 1), k * m, k * m),
            }
            for protocol, counts in per_session.items():
                want[protocol] = [total + m ** (k - 1) * c for total, c in zip(want[protocol], counts)]
        for protocol, counts in want.items():
            result = run_formation(protocol, tree, cfg, 1.0, 0)
            assert result.total_us == sum(c * 1000**i for i, c in enumerate(counts)), (shape, protocol)
            assert result.preambles == counts[0], (shape, protocol)


def test_batched_frames_past_one_sdf_a_session_count_every_frame(collision_free_draws):
    """For m 11..25, beyond TreeShape's m <= 10: a session at depth k sends its slot-count announcement,
    ceil(m/20) TDFs, ceil(m/10) SDFs, m MAC-address frames and 2(k - 1) relay frames."""
    for m in range(11, 26):
        for k in range(1, 4):
            frames = 1 + -(-m // 20) + -(-m // 10) + m  # a session's own, before its relay frames
            want = sum(m ** (depth - 1) * (frames + 2 * (depth - 1)) for depth in range(1, k + 1))
            epmac = run_formation(Protocol.EPMAC, _uniform_tree(TreeShape(m, k)), RunConfig(), 1.0, 0)
            assert epmac.data_frames == want, (m, k)


def test_batched_frames_are_below_unbatched_on_random_trees(collision_free_draws):
    """The complexity section's claim, read off the engine: 200 generate_tree trees, n 60..259, seeds 0..199."""
    for seed in range(200):
        tree = generate_tree(60 + seed, 6, np.random.default_rng(seed))
        epmac, pmac = (run_formation(p, tree, RunConfig(), 1.0, 0).data_frames for p in (Protocol.EPMAC, Protocol.PMAC))
        assert epmac < pmac, (seed, epmac, pmac)


def test_batched_count_holds_only_while_one_sdf_covers_a_session(collision_free_draws):
    """At m > sdf_capacity every session sends a second SDF the analysis does not count."""
    shape = TreeShape(11, 2)
    cfg = RunConfig()
    assert shape.m == cfg.sdf_capacity + 1
    epmac = run_formation(Protocol.EPMAC, _uniform_tree(shape), cfg, 1.0, 0)
    sessions = 1 + shape.m
    assert epmac.data_frames == epmac_total_frames(shape) + 2 * sessions == 202
