"""Formation engine: frozen whole-run traces, sweeps and their identities, summaries."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from plcmac import engine, slot_alloc
from plcmac import (
    EmptySample,
    ExperimentPlan,
    FormationResult,
    NonTermination,
    Protocol,
    RunConfig,
    run_experiment,
    run_formation,
    single_layer,
    summarize,
    tree_from_parents,
)


def _chain():
    # CCO -> STA1 -> STA2: one root session, one proxy session at depth 2
    return tree_from_parents({1: 0, 2: 1})


def test_batched_chain_run_is_fully_accounted():
    """Root session 80800 us, then 2 relay frames plus a second session 80800 us."""
    result = run_formation(Protocol.EPMAC, _chain(), RunConfig(), 1.0, 0)
    assert result == FormationResult(
        total_us=201600, nc_count=2, data_frames=10, preambles=4, joined=2
    )


def test_unbatched_chain_run_is_fully_accounted():
    result = run_formation(Protocol.PMAC, _chain(), RunConfig(), 1.0, 0)
    assert result == FormationResult(
        total_us=222400, nc_count=2, data_frames=11, preambles=6, joined=2
    )


def test_association_chain_run_is_fully_accounted():
    # association pays hop relays per STA instead of per-session overhead
    cfg = RunConfig(csma_p=1.0)
    result = run_formation(Protocol.IEEE1901, _chain(), cfg, 1.0, 0)
    assert result == FormationResult(
        total_us=144000, nc_count=2, data_frames=8, preambles=0, joined=2
    )


CHAIN_2 = {1: 0, 2: 1}
CHAIN_3 = {1: 0, 2: 1, 3: 2}


@pytest.mark.parametrize(
    "parents, protocol, expected",
    [
        (CHAIN_2, Protocol.EPMAC, FormationResult(10_004, 2, 10, 4, 2)),
        (CHAIN_2, Protocol.PMAC, FormationResult(11_006, 2, 11, 6, 2)),
        (CHAIN_2, Protocol.IEEE1901, FormationResult(3_003_001_001_000_000, 2, 8, 0, 2)),
        (CHAIN_3, Protocol.EPMAC, FormationResult(18_006, 3, 18, 6, 3)),
        (CHAIN_3, Protocol.PMAC, FormationResult(24_009, 3, 24, 9, 3)),
        (CHAIN_3, Protocol.IEEE1901, FormationResult(6_006_002_001_000_000, 3, 15, 0, 3)),
    ],
    ids=["chain2-epmac", "chain2-pmac", "chain2-ieee1901", "chain3-epmac", "chain3-pmac", "chain3-ieee1901"],
)
def test_each_slot_kind_is_charged_its_own_length(parents, protocol, expected, per_kind_timing, collision_free_draws):
    """Chains run under six distinct slot lengths, so a count charged to the wrong kind moves a digit group."""
    cfg = RunConfig(timing=per_kind_timing)
    result = run_formation(protocol, tree_from_parents(parents), cfg, 1.0, 0)
    assert result == expected


def test_single_layer_first_cycle_matches_the_per_cycle_trace(collision_free_draws):
    result = run_formation(Protocol.EPMAC, single_layer(2), RunConfig(), 1.0, 0)
    assert result == FormationResult(
        total_us=101600, nc_count=1, data_frames=5, preambles=4, joined=2
    )


@pytest.mark.parametrize("protocol", list(Protocol))
def test_formation_leaves_its_tree_unchanged(protocol):
    # sweeps hand one star to every cell of a size, so a run must not alter it
    tree = single_layer(40)
    run_formation(protocol, tree, RunConfig(), 0.75, 3)
    assert tree == single_layer(40)


def _tracer():
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_name_the_tracer_wraps_resolves():
    # bench/tracer.py swaps these names on plcmac.engine and plcmac.slot_alloc for timing wrappers
    tracer = _tracer()
    assert {"run_formation", "generate_tree", "simulate_nc_pmac", "next_slot_count"} <= set(tracer.ENGINE_NAMES)
    for module, names in ((engine, tracer.ENGINE_NAMES), (slot_alloc, tracer.SLOT_ALLOC_NAMES)):
        for name in names:
            assert callable(getattr(module, name)), name



@pytest.mark.parametrize("protocol", list(Protocol))
def test_engine_calls_every_wrapped_name_through_its_module_globals(monkeypatch, protocol):
    # bench/tracer.py swaps the engine globals it names for wrappers; binding one at import time would hide its calls
    multi = ExperimentPlan(protocols=(protocol,), n_values=(12, 30), ratio_grid=(0.5, 1.0), trials=2, seed=4, multi_layer=True, max_layers=3)
    single = ExperimentPlan(protocols=(protocol,), n_values=(10, 20), ratio_grid=(0.5, 1.0), trials=2, seed=4)
    expected = [run_experiment(multi), run_experiment(single)]
    names = _tracer().ENGINE_NAMES
    calls = dict.fromkeys(names, 0)

    def counting(name):
        original = getattr(engine, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(engine, name, counting(name))
    assert run_experiment(multi) == expected[0]
    assert calls["generate_tree"] == 4  # one tree per (n, trial) pair, shared by both ratio cells
    assert run_experiment(single) == expected[1]
    assert calls["single_layer"] == 2  # one star per size, shared by its trials
    # the block engine prices every session itself: the per-cycle kernels and the controller go uncalled
    assert {name: count for name, count in calls.items() if count} == {"generate_tree": 4, "single_layer": 2}

def test_every_run_joins_every_sta():
    for protocol in Protocol:
        for seed in range(4):
            result = run_formation(protocol, single_layer(25), RunConfig(), 0.5, seed)
            assert result.joined == 25
            assert result.total_us > 0


@pytest.mark.parametrize("protocol", list(Protocol))
def test_a_tree_with_no_stas_forms_in_no_time(protocol):
    result = run_formation(protocol, tree_from_parents({}), RunConfig(), 1.0, 0)
    assert result == FormationResult(total_us=0, nc_count=0, data_frames=0, preambles=0, joined=0)


def test_multi_layer_runs_join_every_sta():
    from plcmac import generate_tree

    for protocol in Protocol:
        for seed in range(4):
            tree = generate_tree(25, 4, np.random.default_rng(seed))
            result = run_formation(protocol, tree, RunConfig(), 1.0, seed)
            assert result.joined == 25


def test_tight_window_at_the_low_ratio_edge_still_terminates():
    # 2 pending at ratio 0.5 is the worst legal grid point
    result = run_formation(Protocol.PMAC, single_layer(2), RunConfig(), 0.5, 0)
    assert result.joined == 2


def test_runs_are_deterministic_per_seed():
    cfg = RunConfig()
    a = run_formation(Protocol.EPMAC, single_layer(30), cfg, 0.75, 11)
    b = run_formation(Protocol.EPMAC, single_layer(30), cfg, 0.75, 11)
    assert a == b


def test_cycle_budget_violation_raises():
    cfg = RunConfig(max_nc=1)
    with pytest.raises(NonTermination):
        run_formation(Protocol.EPMAC, single_layer(2), cfg, 0.5, 0)


@pytest.mark.parametrize("ratio", [0.0, -1.0, float("nan")])
def test_nonpositive_slot_ratio_is_rejected(ratio):
    with pytest.raises(ValueError, match="slot_ratio"):
        run_formation(Protocol.PMAC, _chain(), RunConfig(), ratio, 0)


def test_infinite_slot_ratio_is_rejected():
    with pytest.raises(ValueError, match="slot_ratio must be positive and finite, got inf"):
        run_formation(Protocol.PMAC, _chain(), RunConfig(), float("inf"), 0)


@pytest.mark.parametrize("protocol", list(Protocol))
def test_slot_ratio_whose_first_window_overflows_a_draw_is_rejected(protocol):
    # 2 STAs at 4.611686018427388e18 need a window of 9223372036854776000 > 2**63 slots
    with pytest.raises(ValueError, match=r"slot ratio 4\.611686018427388e\+18 gives 2 STA"):
        run_formation(protocol, _chain(), RunConfig(), 4.611686018427388e18, 0)


def test_plan_bounds_the_first_window_by_its_largest_size():
    base = dict(protocols=(Protocol.EPMAC,), n_values=(1,))
    ExperimentPlan(**base, ratio_grid=(9.223372036854775e18,))  # 9223372036854775000 slots still fit
    for ratios in ({"ratio_grid": (1.0, 9.223372036854776e18)}, {"ratio_random": (0.5, 1e30)}):
        with pytest.raises(ValueError, match="slot ratio"):
            ExperimentPlan(**base, **ratios)
    with pytest.raises(ValueError, match=r"slot ratio 5e\+18 gives 2 STA"):
        ExperimentPlan(protocols=(Protocol.EPMAC,), n_values=(2, 1), ratio_grid=(5e18,))

def test_experiment_rows_follow_cell_order():
    plan = ExperimentPlan(
        protocols=(Protocol.EPMAC, Protocol.PMAC),
        n_values=(10, 20),
        ratio_grid=(0.5, 1.0),
        trials=2,
        seed=3,
    )
    rows = run_experiment(plan)
    assert len(rows) == 2 * 2 * 2 * 2
    coords = [(r.protocol, r.n_node, r.ratio, r.trial) for r in rows]
    expected = [
        (p.value, n, ratio, trial)
        for p in plan.protocols
        for n in plan.n_values
        for ratio in plan.ratio_grid
        for trial in range(plan.trials)
    ]
    assert coords == expected
    assert all(r.layers == 1 for r in rows)


def test_experiment_is_deterministic_and_job_count_invariant():
    plan = ExperimentPlan(
        protocols=(Protocol.EPMAC, Protocol.IEEE1901),
        n_values=(15,),
        ratio_grid=(1.0, 2.0),
        trials=3,
        seed=9,
        multi_layer=True,
        max_layers=3,
    )
    rows_a = run_experiment(plan)
    rows_b = run_experiment(plan)
    rows_c = run_experiment(plan, jobs=2)
    assert rows_a == rows_b == rows_c


def test_random_ratio_mode_draws_within_bounds():
    plan = ExperimentPlan(
        protocols=(Protocol.PMAC,),
        n_values=(12,),
        ratio_random=(0.5, 2.0),
        trials=20,
        seed=5,
    )
    rows = run_experiment(plan)
    assert len(rows) == 20
    assert all(0.5 <= r.ratio <= 2.0 for r in rows)
    assert len({r.ratio for r in rows}) > 1  # actually random, not pinned
    assert run_experiment(plan) == rows


def test_plan_validation():
    base = dict(protocols=(Protocol.EPMAC,), n_values=(10,))
    with pytest.raises(ValueError):
        ExperimentPlan(**base)  # no ratio mode
    with pytest.raises(ValueError):
        ExperimentPlan(**base, ratio_grid=(1.0,), ratio_random=(0.5, 2.0))
    with pytest.raises(ValueError):
        ExperimentPlan(**base, ratio_grid=())
    with pytest.raises(ValueError):
        ExperimentPlan(**base, ratio_random=(2.0, 0.5))
    with pytest.raises(ValueError):
        ExperimentPlan(**base, ratio_grid=(1.0,), trials=0)
    with pytest.raises(ValueError):
        ExperimentPlan(protocols=(), n_values=(10,), ratio_grid=(1.0,))
    # sizes, grid ratios, the depth cap and the model constants are checked when the plan is built
    with pytest.raises(ValueError):
        ExperimentPlan(protocols=(Protocol.EPMAC,), n_values=(10, 0), ratio_grid=(1.0,))
    for grid in ((0.0,), (1.0, -1.0)):
        with pytest.raises(ValueError):
            ExperimentPlan(**base, ratio_grid=grid)
    with pytest.raises(ValueError):
        ExperimentPlan(**base, ratio_grid=(1.0,), max_layers=0)
    with pytest.raises(ValueError):
        ExperimentPlan(**base, ratio_grid=(1.0,), csma_p=1.5)
    for ratios in ({"ratio_grid": (1.0, float("inf"))}, {"ratio_random": (0.5, float("inf"))}):
        with pytest.raises(ValueError, match="slot ratios must be finite, got inf"):
            ExperimentPlan(**base, **ratios)


def test_nontermination_names_the_offending_cell():
    plan = ExperimentPlan(
        protocols=(Protocol.EPMAC,),
        n_values=(2,),
        ratio_grid=(0.5,),
        trials=1,
        seed=0,
        max_nc=1,
    )
    with pytest.raises(NonTermination) as raised:
        run_experiment(plan)
    assert raised.value.cell == "protocol=epmac n=2 ratio_index=0 trial=0"


def test_summarize_quartiles_use_inclusive_interpolation():
    stats = summarize([1, 2, 3, 4])
    assert stats.n == 4
    assert stats.mean == 2.5
    assert (stats.q1, stats.median, stats.q3) == (1.75, 2.5, 3.25)
    assert stats.iqr == 1.5
    assert (stats.min, stats.max) == (1.0, 4.0)


def test_summarize_degenerate_and_empty_samples():
    stats = summarize([7.0])
    assert stats.min == stats.q1 == stats.median == stats.q3 == stats.max == 7.0
    with pytest.raises(EmptySample):
        summarize([])


def test_summary_invariants_on_random_data():
    rng = np.random.default_rng(2)
    stats = summarize(rng.random(101) * 1000)
    assert stats.min <= stats.q1 <= stats.median <= stats.q3 <= stats.max
    assert stats.n == 101


def test_batched_summaries_equal_per_group_numpy():
    rng = np.random.default_rng(9)
    groups = [
        [5],
        [9, 3],
        [4, 4, 1, 8, 4, 2, 8],
        rng.integers(0, 50, 100).tolist(),  # unsorted, many ties
        [7, 7],
        rng.integers(0, 10**9, 100).tolist(),
    ]
    for group, stats in zip(groups, engine.summarize_groups(groups)):
        arr = np.asarray(group, dtype=float)
        q1, median, q3 = np.percentile(arr, [25, 50, 75])
        assert stats.n == len(group)
        assert stats.mean == arr.mean()
        assert (stats.min, stats.max) == (arr.min(), arr.max())
        assert (stats.q1, stats.median, stats.q3) == (q1, median, q3)
    with pytest.raises(EmptySample):
        engine.summarize_groups([[1, 2], []])
