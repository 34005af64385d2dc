"""Closed-form frame counts versus their defining recurrences."""

from fractions import Fraction

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
    # 25 joins at capacities (20, 10): 2 + 3 + 25
    assert epmac_single_layer_frames(25, tdf_capacity=20, sdf_capacity=10) == 30
    assert epmac_single_layer_frames(25, tdf_capacity=5, sdf_capacity=5) == 5 + 5 + 25
    with pytest.raises(ValueError):
        epmac_single_layer_frames(0)
    with pytest.raises(ValueError):
        epmac_single_layer_frames(10, tdf_capacity=0)


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


UNIFORM_SHAPES = [TreeShape(m, k) for m in range(2, 11) for k in range(1, 4)]


def test_engine_frame_counts_match_the_complexity_analysis(collision_free_draws):
    """Collision-free runs on uniform trees send exactly the frames the analysis counts.

    E-PMAC adds one frame per session: its first cycle's slot-count
    announcement, which the per-session count m + 2*layer leaves out.
    """
    for shape in UNIFORM_SHAPES:
        tree = _uniform_tree(shape)
        sessions = len(tree.children)
        assert sessions == (shape.m**shape.k - 1) // (shape.m - 1)
        pmac = run_formation(Protocol.PMAC, tree, RunConfig(), 1.0, 0)
        epmac = run_formation(Protocol.EPMAC, tree, RunConfig(), 1.0, 0)
        assert pmac.data_frames == pmac_total_frames(shape), shape
        assert epmac.data_frames == epmac_total_frames(shape) + sessions, shape
        assert pmac.nc_count == epmac.nc_count == sessions, shape


def test_batched_count_holds_only_while_one_sdf_covers_a_session(collision_free_draws):
    """At m > sdf_capacity every session sends a second SDF the analysis does not count."""
    shape = TreeShape(11, 2)
    cfg = RunConfig()
    assert shape.m == cfg.sdf_capacity + 1
    epmac = run_formation(Protocol.EPMAC, _uniform_tree(shape), cfg, 1.0, 0)
    sessions = 1 + shape.m
    assert epmac.data_frames == epmac_total_frames(shape) + 2 * sessions == 202
