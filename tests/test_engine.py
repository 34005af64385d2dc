"""Formation engine: frozen whole-run traces, sweeps and their identities, summaries."""

import concurrent.futures
import importlib.util
import re
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from plcmac import engine, slot_alloc, topology
from plcmac import (
    EmptySample,
    ExperimentPlan,
    FormationResult,
    NonTermination,
    Protocol,
    RunConfig,
    TimingTable,
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
        total_us=201600, nc_count=2, data_frames=10, preambles=4
    )


def test_unbatched_chain_run_is_fully_accounted():
    result = run_formation(Protocol.PMAC, _chain(), RunConfig(), 1.0, 0)
    assert result == FormationResult(
        total_us=222400, nc_count=2, data_frames=11, preambles=6
    )


def test_association_chain_run_is_fully_accounted():
    # association pays hop relays per STA instead of per-session overhead
    cfg = RunConfig(csma_p=1.0)
    result = run_formation(Protocol.IEEE1901, _chain(), cfg, 1.0, 0)
    assert result == FormationResult(
        total_us=144000, nc_count=2, data_frames=8, preambles=0
    )


CHAIN_2 = {1: 0, 2: 1}
CHAIN_3 = {1: 0, 2: 1, 3: 2}


@pytest.mark.parametrize(
    "parents, protocol, expected",
    [
        (CHAIN_2, Protocol.EPMAC, FormationResult(10_004, 2, 10, 4)),
        (CHAIN_2, Protocol.PMAC, FormationResult(11_006, 2, 11, 6)),
        (CHAIN_2, Protocol.IEEE1901, FormationResult(3_003_001_001_000_000, 2, 8, 0)),
        (CHAIN_3, Protocol.EPMAC, FormationResult(18_006, 3, 18, 6)),
        (CHAIN_3, Protocol.PMAC, FormationResult(24_009, 3, 24, 9)),
        (CHAIN_3, Protocol.IEEE1901, FormationResult(6_006_002_001_000_000, 3, 15, 0)),
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
        total_us=101600, nc_count=1, data_frames=5, preambles=4
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
    names = (*_tracer().ENGINE_NAMES, "grow_tree")
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
    assert calls["grow_tree"] == 4  # one tree per (n, trial) pair, shared by both ratio cells
    assert run_experiment(single) == expected[1]
    assert calls["single_layer"] == 2  # one star per size, shared by its trials
    # the block engine prices every session itself: the per-cycle kernels and the controller go uncalled
    assert {name: count for name, count in calls.items() if count} == {"grow_tree": 4, "single_layer": 2}


def test_a_pair_whose_growth_fails_ends_its_group_after_the_pairs_before_it(monkeypatch):
    plan = ExperimentPlan(protocols=(Protocol.EPMAC, Protocol.IEEE1901), n_values=(5, 9), ratio_grid=(0.5, 1.0),
                          trials=2, seed=3, multi_layer=True, max_layers=4)
    expected = run_experiment(plan)
    grown = []

    def third_fails(n, max_layers, rng):
        if len(grown) == 2:
            raise KeyError("no tree")
        grown.append(n)
        return topology.grow_tree(n, max_layers, rng)

    monkeypatch.setattr(engine, "grow_tree", third_fails)
    [group] = engine._groups(plan)
    rows, failures = engine._run_group(plan, group)
    # the pairs (n 5, trial 0) and (n 5, trial 1) ran every protocol and ratio; (n 9, trial 0) failed and ended the group
    assert sorted(rows) == [(i, row) for i, row in enumerate(expected) if row.n_node == 5]
    assert [(i, type(exc)) for i, exc in failures] == [(plan.cell_index(0, 1, 0, 0), KeyError)]
    grown.clear()
    with pytest.raises(KeyError) as raised:
        run_experiment(plan)
    assert raised.value.cell == "protocol=epmac n=9 ratio_index=0 trial=0"


def test_a_multi_layer_sweep_builds_no_network_tree(monkeypatch):
    # grown trees reach the session table as arrays: no NetworkTree, so no tuple of Python ints per node
    plan = ExperimentPlan(protocols=tuple(Protocol), n_values=(1, 30, 200), ratio_random=(0.5, 2.0), trials=3, seed=8,
                          multi_layer=True, max_layers=6)
    expected = run_experiment(plan)

    def no_tree(*args):
        raise AssertionError("a NetworkTree was built")

    monkeypatch.setattr(topology, "NetworkTree", no_tree)
    assert run_experiment(plan) == expected

def test_every_run_joins_every_sta():
    # a run returns only once every session has drained, and raises if its sessions did not hold every STA
    for protocol in Protocol:
        for seed in range(4):
            result = run_formation(protocol, single_layer(25), RunConfig(), 0.5, seed)
            assert result.total_us > 0


@pytest.mark.parametrize("protocol", list(Protocol))
def test_a_tree_with_no_stas_forms_in_no_time(protocol):
    result = run_formation(protocol, tree_from_parents({}), RunConfig(), 1.0, 0)
    assert result == FormationResult(total_us=0, nc_count=0, data_frames=0, preambles=0)


def test_multi_layer_runs_join_every_sta():
    from plcmac import generate_tree

    for protocol in Protocol:
        for seed in range(4):
            tree = generate_tree(25, 4, np.random.default_rng(seed))
            result = run_formation(protocol, tree, RunConfig(), 1.0, seed)
            assert result.nc_count >= len(tree.children)  # every session runs a cycle or more


def test_tight_window_at_the_low_ratio_edge_still_terminates():
    # 2 pending at ratio 0.5 is the worst legal grid point
    result = run_formation(Protocol.PMAC, single_layer(2), RunConfig(), 0.5, 0)
    assert result.nc_count >= 1


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
    with pytest.raises(ValueError, match=rf"^slot ratio must be positive and finite, got {re.escape(repr(ratio))}$"):
        run_formation(Protocol.PMAC, _chain(), RunConfig(), ratio, 0)


def test_infinite_slot_ratio_is_rejected():
    with pytest.raises(ValueError, match="slot ratio must be positive and finite, got inf"):
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


def test_experiment_is_deterministic_and_job_count_invariant(monkeypatch):
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
    monkeypatch.setattr(engine, "GROUP_STAS", 1)  # one (n, trial) pair per group, so jobs=2 starts two workers
    assert len(engine._groups(plan)) >= 2
    rows_c = run_experiment(plan, jobs=2)
    assert rows_a == rows_b == rows_c


def test_the_pool_gets_at_most_one_worker_per_group(monkeypatch):
    pools = []

    class InProcessPool:
        """Stands in for ProcessPoolExecutor: records its max_workers and maps in this process, so no process starts."""

        def __init__(self, max_workers=None):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    plan = ExperimentPlan(protocols=(Protocol.PMAC, Protocol.IEEE1901), n_values=(10,), ratio_grid=(1.0,), trials=2,
                          seed=3)
    serial = run_experiment(plan)
    assert run_experiment(plan, jobs=2) == serial  # one group: no pool
    assert pools == []
    monkeypatch.setattr(engine, "GROUP_STAS", 10)  # one (n, trial) pair per group: two groups
    assert len(engine._groups(plan)) == 2
    assert run_experiment(plan, jobs=64) == serial
    assert pools == [2]


def test_jobs_below_one_are_rejected():
    plan = ExperimentPlan(protocols=(Protocol.PMAC,), n_values=(4,), ratio_grid=(1.0,), trials=1)
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        run_experiment(plan, jobs=0)


@pytest.mark.parametrize("jobs", [True, 2.5, np.float64(2.0)], ids=["True", "2.5", "np.float64(2.0)"])
def test_jobs_that_are_not_integers_are_rejected_before_any_worker_starts(jobs, monkeypatch):
    # jobs=2.5 started a pool of two workers on a plan of two groups
    pools = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", lambda max_workers=None: pools.append(max_workers))
    monkeypatch.setattr(engine, "GROUP_STAS", 4)  # one (n, trial) pair per group: two groups
    plan = ExperimentPlan(protocols=(Protocol.PMAC,), n_values=(4,), ratio_grid=(1.0,), trials=2)
    assert len(engine._groups(plan)) == 2
    with pytest.raises(ValueError, match=rf"^jobs must be an integer, got {re.escape(repr(jobs))}$"):
        run_experiment(plan, jobs=jobs)
    assert pools == []


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
        with pytest.raises(ValueError, match="slot ratio must be positive and finite, got inf"):
            ExperimentPlan(**base, **ratios)


@pytest.mark.parametrize("word", ["seed", "trials", "n_values"])
@pytest.mark.parametrize("value", [1.5, 2.0**70, np.float64(3.0)], ids=["1.5", "2.0**70", "np.float64(3.0)"])
def test_plan_words_must_be_integers(word, value):
    # the key fold truncates a float, so seed=1.5 would run seed=1's rows
    plan = dict(protocols=(Protocol.PMAC,), n_values=(4,), ratio_grid=(1.0,), trials=2, seed=1)
    with pytest.raises(ValueError, match=rf"must be an integer, got {re.escape(repr(value))}$"):
        ExperimentPlan(**{**plan, word: (value,) if word == "n_values" else value})


@pytest.mark.parametrize("value", [2.5, 2.0, np.float64(3.0)], ids=["2.5", "2.0", "np.float64(3.0)"])
def test_max_layers_must_be_an_integer(value):
    # generate_tree truncated a float depth cap, so max_layers=2.5 ran exactly the rows of max_layers=2
    plan = dict(protocols=(Protocol.PMAC,), n_values=(20,), ratio_grid=(1.0,), trials=2, seed=1, multi_layer=True)
    with pytest.raises(ValueError, match=rf"max_layers must be an integer, got {re.escape(repr(value))}$"):
        ExperimentPlan(**plan, max_layers=value)
    assert run_experiment(ExperimentPlan(**plan, max_layers=np.int64(3))) == run_experiment(
        ExperimentPlan(**plan, max_layers=3))


def test_numpy_integer_plan_words_run_as_their_values():
    # uint64 trials times int64 indices are float64 cell indices: the plan stores each word as a Python int
    plan = dict(protocols=(Protocol.PMAC, Protocol.IEEE1901), ratio_grid=(1.0,), multi_layer=True)
    expected = run_experiment(ExperimentPlan(**plan, n_values=(4, 9), trials=2, seed=3, max_layers=3))
    for word in (np.int64, np.uint32, np.uint64):
        numpy_words = ExperimentPlan(**plan, n_values=(word(4), word(9)), trials=word(2), seed=word(3),
                                     max_layers=word(3))
        words = (*numpy_words.n_values, numpy_words.trials, numpy_words.seed, numpy_words.max_layers)
        assert all(type(v) is int for v in words), word
        assert run_experiment(numpy_words) == expected, word


@pytest.mark.parametrize(
    "ratio", [2**1100, Decimal("NaN"), Decimal("Infinity"), float("nan"), float("inf"), 0, -1],
    ids=["2**1100", "Decimal-NaN", "Decimal-Infinity", "nan", "inf", "0", "-1"],
)
def test_a_slot_ratio_is_checked_by_one_rule_at_every_entry(ratio):
    # 2**1100 overflowed math.isfinite and float(), and Decimal("NaN") raised decimal.InvalidOperation
    named = rf"^slot ratio .*{re.escape(repr(ratio))}"
    base = dict(protocols=(Protocol.EPMAC,), n_values=(3,))
    for ratios in ((ratio,), (1.0, ratio)):
        with pytest.raises(ValueError, match=named):
            ExperimentPlan(**base, ratio_grid=ratios)
    for bounds in ((0.5, ratio), (ratio, 2.0)):
        with pytest.raises(ValueError, match=named):
            ExperimentPlan(**base, ratio_random=bounds)
    with pytest.raises(ValueError, match=named):
        run_formation(Protocol.EPMAC, _chain(), RunConfig(), ratio, 0)


def test_a_protocol_that_is_not_a_protocol_member_is_rejected_by_name():
    with pytest.raises(ValueError, match=r"^protocols must be Protocol members, got 'epmac'$"):
        ExperimentPlan(protocols=(Protocol.PMAC, "epmac"), n_values=(3,), ratio_grid=(1.0,), trials=1)


def test_run_formation_and_formation_key_reject_a_protocol_name_as_the_plan_does():
    # both raised KeyError: 'epmac'
    with pytest.raises(ValueError, match=r"^protocols must be Protocol members, got 'epmac'$"):
        run_formation("epmac", _chain(), RunConfig(), 1.0, 0)
    with pytest.raises(ValueError, match=r"^protocols must be Protocol members, got 'epmac'$"):
        engine.formation_key(1, 5, 0, "epmac", 1.0)


@pytest.mark.parametrize(
    "word, value",
    [("n_values", (True,)), ("trials", True), ("seed", False), ("max_layers", True), ("max_nc", True)],
)
def test_a_bool_is_not_an_integer_plan_word(word, value):
    # each ran a sweep as the int of its value
    plan = dict(protocols=(Protocol.PMAC,), n_values=(4,), ratio_grid=(1.0,), trials=2, seed=1)
    got = value[0] if word == "n_values" else value
    with pytest.raises(ValueError, match=rf"must be an integer, got {got}$"):
        ExperimentPlan(**{**plan, word: value})


def test_a_bool_is_not_an_integer_word_at_any_other_entry():
    with pytest.raises(ValueError, match=r"^max_nc must be an integer, got True$"):
        RunConfig(max_nc=True)
    with pytest.raises(ValueError, match=r"^preamble_slot_us must be an integer, got True$"):
        TimingTable(preamble_slot_us=True)
    for words in ((True, 5, 0), (1, 5, False)):
        with pytest.raises(ValueError, match=r"^a key word must be an integer, got (True|False)$"):
            engine.formation_key(*words, Protocol.EPMAC, 1.0)
    with pytest.raises(ValueError, match=r"^key must be an integer, got True$"):
        run_formation(Protocol.EPMAC, _chain(), RunConfig(), 1.0, True)


@pytest.mark.parametrize("ratio", ["1.5", "3/2", b"1.5", True, np.True_, None])
def test_a_slot_ratio_that_is_not_a_number_is_rejected_at_every_entry(ratio):
    # a string ratio ran a sweep, and "3/2" wrote a ratio field that summarize rejects
    named = rf"^slot ratio must be positive and finite, got {re.escape(repr(ratio))}$"
    base = dict(protocols=(Protocol.EPMAC,), n_values=(3,))
    with pytest.raises(ValueError, match=named):
        ExperimentPlan(**base, ratio_grid=(1.0, ratio))
    for bounds in ((0.5, ratio), (ratio, 2.0)):
        with pytest.raises(ValueError, match=named):
            ExperimentPlan(**base, ratio_random=bounds)
    with pytest.raises(ValueError, match=named):
        run_formation(Protocol.EPMAC, _chain(), RunConfig(), ratio, 0)


def test_a_slot_ratio_past_the_digits_str_prints_is_named_by_its_size():
    # 10**5000 has more digits than Python's int-to-str limit, so the check raised that limit's error instead
    named = r"^slot ratio <int of 16610 bits> gives 3 STA\(s\) a first window above 2\*\*63 slots"
    with pytest.raises(ValueError, match=named):
        ExperimentPlan(protocols=(Protocol.EPMAC,), n_values=(3,), ratio_grid=(10**5000,))
    with pytest.raises(ValueError, match=named):
        run_formation(Protocol.EPMAC, single_layer(3), RunConfig(), 10**5000, 0)


@pytest.mark.parametrize("protocol", list(Protocol))
def test_a_ratio_past_the_floats_forms_a_tree_with_no_stas_in_no_time(protocol):
    # the float estimate of 2**1100 raised OverflowError
    assert run_formation(protocol, tree_from_parents({}), RunConfig(), 2**1100, 0) == FormationResult(0, 0, 0, 0)


@pytest.mark.parametrize("protocol", [Protocol.PMAC, Protocol.IEEE1901])
def test_a_growth_factor_past_the_floats_leaves_the_protocols_without_a_controller_alone(protocol):
    # k2 drives only E-PMAC's controller, but its float estimate of 1e400 raised OverflowError in every formation
    tree = single_layer(30)
    assert run_formation(protocol, tree, RunConfig(k2=Decimal("1e400")), 1.0, 5) == run_formation(
        protocol, tree, RunConfig(), 1.0, 5)


@pytest.mark.parametrize(
    "ratio", [2**53 + 1, np.float32(1.05), Fraction(1, 3), Decimal("1.10000000000000000001")],
    ids=["int-above-2**53", "float32", "fraction", "long-decimal"],
)
def test_a_sweep_row_is_the_formation_keyed_by_its_ratio_as_given(ratio):
    # float64 cannot hold these ratios' fractions: the key and the windows both read the ratio as given
    plan = ExperimentPlan(protocols=tuple(Protocol), n_values=(3, 9), ratio_grid=(ratio, 0.75), trials=2, seed=5)
    rows = run_experiment(plan)
    assert [row.ratio for row in rows] == [ratio, ratio, 0.75, 0.75] * 6
    for row in rows:
        protocol = Protocol(row.protocol)
        key = engine.formation_key(plan.seed, row.n_node, row.trial, protocol, row.ratio)
        alone = run_formation(protocol, single_layer(row.n_node), plan, row.ratio, key)
        assert (row.elapsed_us, row.nc_count, row.data_frames, row.preambles) == (
            alone.total_us, alone.nc_count, alone.data_frames, alone.preambles)


def test_a_float32_ratio_keys_its_rows_whatever_was_converted_before():
    # np.float32(1.1) equals the float 1.100000023841858 and hashes alike, but its decimal literal is 1.1
    x = np.float32(1.1)
    plan = ExperimentPlan(protocols=tuple(Protocol), n_values=(10, 20, 30), ratio_grid=(x,), trials=3, seed=5,
                          multi_layer=True)
    cold = run_experiment(plan)
    slot_alloc._as_fraction(float(x))
    assert run_experiment(plan) == cold


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
    for group, *fields in zip(groups, *engine.summarize_groups(groups)):
        stats = engine.SummaryStats(*fields)
        arr = np.asarray(group, dtype=float)
        q1, median, q3 = np.percentile(arr, [25, 50, 75])
        assert stats.n == len(group)
        assert stats.mean == arr.mean()
        assert (stats.min, stats.max) == (arr.min(), arr.max())
        assert (stats.q1, stats.median, stats.q3) == (q1, median, q3)
        assert stats == summarize(group)
    with pytest.raises(EmptySample):
        engine.summarize_groups([[1, 2], []])
