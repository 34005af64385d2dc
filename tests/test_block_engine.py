"""The block engine: equal to the scalar reference engine, keyed by identity, and failing as the scalar one did."""

import collections
import functools
import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import reference_engine as ref
from plcmac import (
    ExperimentPlan,
    NonTermination,
    Protocol,
    RunConfig,
    engine,
    generate_tree,
    run_experiment,
    single_layer,
    tree_from_parents,
)
from plcmac.topology import Forest
from test_golden import GOLDEN

P = tuple(Protocol)


def _outcome(result):
    return type(result) if isinstance(result, Exception) else result


def _reference(protocol, tree, cfg, ratio, key):
    try:
        return ref.run_formation(protocol, tree, cfg, ratio, key)
    except (NonTermination, ValueError) as exc:
        return type(exc)


def _mixed(cfg, picks, cases):
    """Every (protocol, case index) pick in one block, results in pick order, an error as its type."""
    table = engine._sessions(Forest.of([tree for tree, _, _ in cases]))
    protocol, tree = zip(*picks)
    block = engine._run_block(cfg, table, list(map(engine._protocol_code, protocol)), tree,
                              engine._Ratios([cases[i][1] for i in tree]), range(len(tree)), [cases[i][2] for i in tree])
    return [_outcome(block.result(f)) for f in range(len(picks))]


def _block(protocol, cfg, cases):
    """Every case in one block of one protocol, results in case order, an error as its type."""
    return _mixed(cfg, [(protocol, i) for i in range(len(cases))], cases)


def _cases(seed, count):
    """Random trees and stars with grid, small and 17-digit random ratios, plus chains of lone contenders."""
    rng = np.random.default_rng(seed)
    cases = [
        (single_layer(2), 0.3, 1),  # ceil(0.3 * 2) = 1 slot: P-MAC's floor of 2
        (tree_from_parents({k: k - 1 for k in range(1, 9)}), 1.0, 2),  # every session one contender
        (single_layer(7), 1.2345678901234567, 3),
        (tree_from_parents({}), 1.0, 4),
    ]
    for i in range(count):
        n = int(rng.integers(1, 90))
        tree = generate_tree(n, int(rng.integers(1, 7)), rng) if i % 4 else single_layer(n)
        ratio = (0.3, 0.5, 1.0, 1.3, 2.0, float(rng.uniform(0.2, 3.0)))[i % 6]
        cases.append((tree, ratio, int(rng.integers(0, 2**63)) * 2 + i % 2))  # keys over all 64 bits
    return cases


CASES = _cases(2026, 48)
CONFIGS = {
    "default": RunConfig(),
    # E-PMAC restarts after one idle PTE, so a crowded window never grows; the budget ends such runs
    "no-idle-probe": RunConfig(t_f_max=0, max_nc=3000),
    "shy-csma": RunConfig(csma_p=0.3),
    "controller": RunConfig(k1=1.1, k2=1.7, eta_min=0.6),
    # nearly every PTE with a join is thin, so the window grows by k1 on most cycles
    "thin-everywhere": RunConfig(k1=1.9, k2=2.0, eta_min=0.99, t_f_max=8),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_plans_equal_the_reference_engine(name):
    plan = ExperimentPlan(**GOLDEN[name][0])
    assert run_experiment(plan) == ref.run_experiment(plan)


@functools.cache
def _expected(protocol, config):
    """The reference engine's outcome of every case, run once per protocol and config for all tests."""
    cfg = CONFIGS[config]
    return [_reference(protocol, tree, cfg, ratio, key) for tree, ratio, key in CASES]


@pytest.mark.parametrize("config", list(CONFIGS))
@pytest.mark.parametrize("protocol", P, ids=[p.value for p in P])
def test_one_block_equals_the_reference_formation_by_formation(protocol, config):
    cfg = CONFIGS[config]
    expected = _expected(protocol, config)
    assert _block(protocol, cfg, CASES) == expected
    # a formation's result does not depend on the block it runs in
    assert _block(protocol, cfg, CASES[::-3]) == expected[::-3]


@pytest.mark.parametrize("config", list(CONFIGS))
def test_a_block_of_all_three_protocols_equals_the_reference(config):
    cfg = CONFIGS[config]
    picks = [(protocol, i) for protocol in P for i in range(len(CASES))]
    expected = [_expected(protocol, config)[i] for protocol, i in picks]
    assert _mixed(cfg, picks, CASES) == expected
    # the engine orders sessions by protocol itself, so the order formations come in changes nothing
    shuffled = np.random.default_rng(9).permutation(len(picks)).tolist()
    assert _mixed(cfg, [picks[j] for j in shuffled], CASES) == [expected[j] for j in shuffled]


def test_a_budget_that_binds_fails_only_its_own_formations_in_a_mixed_block():
    cases = CASES[:24]
    picks = [(protocol, i) for i in range(len(cases)) for protocol in P]
    cycles = {p: max(r.nc_count for r in _block(p, RunConfig(), cases)) for p in P}
    # a budget one cycle short of the longest formation, which every other protocol's formations stay within
    longest = max(P, key=cycles.get)
    budget = cycles[longest] - 1
    assert budget >= max(c for p, c in cycles.items() if p is not longest)
    cfg = RunConfig(max_nc=budget)
    got = _mixed(cfg, picks, cases)
    assert got == [_reference(protocol, cases[i][0], cfg, cases[i][1], cases[i][2]) for protocol, i in picks]
    failed = {protocol for (protocol, _), r in zip(picks, got) if r is NonTermination}
    assert failed == {longest}
    assert sum(r is NonTermination for r in got) < len(cases)


def test_forced_restarts_happen_in_the_property_cases(monkeypatch):
    restarts = []
    original = ref.next_slot_count

    def counting(state, cfg):
        out = original(state, cfg)
        restarts.append(out == 0)
        return out

    monkeypatch.setattr(ref, "next_slot_count", counting)
    finished = [_reference(Protocol.EPMAC, tree, CONFIGS["no-idle-probe"], ratio, key) for tree, ratio, key in CASES]
    assert sum(restarts) >= 5
    assert NonTermination in finished and sum(r is not NonTermination for r in finished) > len(CASES) // 2


@pytest.mark.parametrize("protocol", P, ids=[p.value for p in P])
def test_the_cycle_budget_binds_where_the_reference_binds(protocol):
    cases = CASES[:24]
    cycles = sorted({r.nc_count for r in _block(protocol, RunConfig(), cases)})
    # budgets below the largest formation's session count can bind before the first step
    most = max(len(tree.children) for tree, _, _ in cases)
    for longest in (*cycles[-3:], most // 2 + 1, most // 2):
        for budget in (longest, longest - 1):
            cfg = RunConfig(max_nc=budget)
            got = _block(protocol, cfg, cases)
            assert got == [_reference(protocol, tree, cfg, ratio, key) for tree, ratio, key in cases]
            assert NonTermination in got or budget == longest


@pytest.mark.parametrize("protocol", P[:2], ids=[p.value for p in P[:2]])
def test_a_budget_below_a_lone_contender_chain_fails_before_any_step(protocol):
    # every session of the chain is one contender, priced before the first step, so no step runs to check it
    tree, ratio, key = CASES[1]
    sessions = len(tree.children)
    for budget in range(1, sessions + 1):
        cfg = RunConfig(max_nc=budget)
        got = _block(protocol, cfg, [CASES[1]])
        assert got == [_reference(protocol, tree, cfg, ratio, key)]
        assert (got[0] is NonTermination) == (budget < sessions)


def test_the_budget_message_keeps_its_prefix():
    # three contenders in two slots: at most one joins per cycle, so a budget of one cycle runs out
    with pytest.raises(NonTermination, match=r"^pmac run exceeded max_nc=1 with \d+ STA\(s\) still pending"):
        engine.run_formation(Protocol.PMAC, single_layer(3), RunConfig(max_nc=1), 0.5, 0)


def _sweep_or_error(run, plan):
    try:
        return run(plan)
    except ValueError as exc:
        return type(exc)


def test_a_multi_layer_run_at_ratio_1e18_equals_the_reference_or_raises():
    plan = ExperimentPlan(protocols=P, n_values=(2, 5, 9), ratio_grid=(1e18,), trials=6, seed=3,
                          multi_layer=True, max_layers=3)
    got = _sweep_or_error(run_experiment, plan)
    assert got == _sweep_or_error(ref.run_experiment, plan)
    assert got is ValueError or all(r.preambles >= 10**18 for r in got if r.protocol != "ieee1901")


def test_a_window_grown_past_int64_as_its_session_drains_equals_the_reference():
    # both STAs of the first star join in 1e10 slots, whose thin PTE grows the drained session's window to 1e21:
    # Python ints, while the other star's windows stay far below 2**63
    cfg = RunConfig(k1=1e11, k2=1e12)
    cases = [(single_layer(2), 5e9, 7), (single_layer(30), 0.5, 8)]
    expected = [_reference(Protocol.EPMAC, tree, cfg, ratio, key) for tree, ratio, key in cases]
    assert _block(Protocol.EPMAC, cfg, cases) == expected


def test_paid_sums_past_int64_after_a_drained_window_grew_past_it_equal_the_reference():
    # E-PMAC's two STAs join in 2e17 slots, whose thin PTE grows the drained session's window to 2e19: its windows and
    # the sessions' paid slots hold Python ints from the second step on, while every value still fits int64. The CSMA
    # formations beside it, transmitting at 0.01, pay 1e17-2e17 slots a cycle for 69-175 cycles: their paid sums pass
    # 2**63 - 1 later, and the formations' totals must turn into Python ints then too
    plan = ExperimentPlan(protocols=(Protocol.EPMAC, Protocol.IEEE1901), n_values=(2,), ratio_grid=(1e17,), trials=3,
                          seed=1, k1=100.0, k2=200.0, csma_p=0.01)
    rows = run_experiment(plan)
    assert rows == ref.run_experiment(plan)
    assert max(r.elapsed_us for r in rows) > RunConfig().timing.assoc_req_slot_us * 2**63  # request slots alone


def _always_collide(keys, counts, windows, coins=False):
    slots = np.zeros(int(counts.sum()), dtype=np.int64)
    return slots, (np.zeros(len(slots)) if coins else None)


def test_a_window_grown_past_2_63_raises_value_error_in_both_engines(monkeypatch):
    # every draw collides, so E-PMAC doubles 4e18 slots to 8e18 and then to 1.6e19, which no draw can take
    monkeypatch.setattr(engine, "keyed_draws", _always_collide)
    tree = single_layer(2)
    with pytest.raises(ValueError, match="above 2\\*\\*63"):
        engine.run_formation(Protocol.EPMAC, tree, RunConfig(), 2e18, 0)
    with pytest.raises(ValueError, match="above 2\\*\\*63"):
        ref.run_formation(Protocol.EPMAC, tree, RunConfig(), 2e18, 0)
    # the other formations of the block run on
    table = engine._sessions(Forest.of([tree, single_layer(1)]))
    block = engine._run_block(RunConfig(), table, (1, 1), (0, 1), engine._Ratios([2e18]), (0, 0), (0, 0))
    got = [block.result(f) for f in range(2)]
    assert isinstance(got[0], ValueError)
    assert got[1] == ref.run_formation(Protocol.EPMAC, single_layer(1), RunConfig(), 2e18, 0)


def test_a_window_past_2_63_fails_only_its_own_formation_in_a_mixed_block(monkeypatch):
    monkeypatch.setattr(engine, "keyed_draws", _always_collide)
    cases = [(single_layer(2), 2e18, 0), (single_layer(1), 2e18, 1), (single_layer(3), 0.5, 2)]
    # the crowded E-PMAC star fails; lone contenders of every protocol, and a CSMA star whose coins
    # all transmit into one slot until its budget runs out, finish or fail on their own
    picks = [(Protocol.EPMAC, 0), (Protocol.IEEE1901, 1), (Protocol.PMAC, 1), (Protocol.EPMAC, 1), (Protocol.IEEE1901, 2)]
    cfg = RunConfig(max_nc=50)
    got = _mixed(cfg, picks, cases)
    assert got == [_reference(protocol, cases[i][0], cfg, cases[i][1], cases[i][2]) for protocol, i in picks]
    assert got[0] is ValueError and got[-1] is NonTermination
    assert all(isinstance(r, engine.FormationResult) for r in got[1:-1])


def test_no_epmac_or_pmac_session_is_left_with_one_sta(monkeypatch):
    # a draw that fails to join shares its slot with another that fails too, so a crowded session keeps no STA
    # or two and more: only sessions lone from the start, priced before the first step, hold one contender
    lone = []
    original = engine._draw_joins

    def watching(ckeys, counts, windows, csma_p, coins_from=0):
        lone.append(int(np.count_nonzero(counts[:coins_from] == 1)))
        return original(ckeys, counts, windows, csma_p, coins_from)

    monkeypatch.setattr(engine, "_draw_joins", watching)
    picks = [(protocol, i) for protocol in P for i in range(len(CASES))]
    for config in ("default", "thin-everywhere"):
        assert _mixed(CONFIGS[config], picks, CASES) == [_expected(protocol, config)[i] for protocol, i in picks]
    assert len(lone) > 100 and sum(lone) == 0


def test_a_window_stretched_past_2_63_beside_draws_in_the_clipped_window_equals_the_reference(monkeypatch):
    # three contenders in 6 slots: a first PTE with one join (thin) or none (idle) stretches the window by
    # k1 = 2e18 or k2 = 3e18, past 2**63, with two STAs left, which fails the formation. Beside it, a star of 1024
    # at ratio 2**53 opens a window of exactly 2**63 slots, drawn as 2**63 - 1 in a run whose offsets pass int64
    cfg = RunConfig(k1=2e18, k2=3e18)
    key = next(k for k in range(64) if _reference(Protocol.EPMAC, single_layer(3), cfg, 2.0, k) is ValueError)
    cases = [(single_layer(3), 2.0, key), (single_layer(1024), float(2**53), 1), (single_layer(30), 0.5, 2)]
    runs = []
    original = engine.keyed_draws

    def watching(keys, counts, windows, coins=False):
        runs.append((int(windows.max()), len(windows)))
        return original(keys, counts, windows, coins)

    monkeypatch.setattr(engine, "keyed_draws", watching)
    picks = [(Protocol.EPMAC, 0), *((protocol, 1) for protocol in P), (Protocol.PMAC, 2), (Protocol.IEEE1901, 2)]
    got = _mixed(cfg, picks, cases)
    assert got == [_reference(protocol, cases[i][0], cfg, cases[i][1], cases[i][2]) for protocol, i in picks]
    assert got[0] is ValueError and all(isinstance(r, engine.FormationResult) for r in got[1:])
    assert any(top == 2**63 - 1 and sessions >= 2 for top, sessions in runs)


def test_an_all_protocol_sweep_takes_the_steps_of_its_longest_protocol(monkeypatch):
    # one lockstep step makes one _draw_joins call, which the engine reads through its module globals
    calls = []
    original = engine._draw_joins

    def counting(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(engine, "_draw_joins", counting)

    def steps(protocols):
        plan = ExperimentPlan(**{**GOLDEN["multi-grid"][0], "protocols": protocols})
        assert len(engine._groups(plan)) == 1
        calls.clear()
        run_experiment(plan)
        return len(calls)

    alone = [steps((protocol,)) for protocol in P]
    assert steps(P) == max(alone) < sum(alone)


def _rows(**kw):
    return {(r.protocol, r.n_node, r.ratio, r.trial): r for r in run_experiment(ExperimentPlan(**kw))}


FULL = dict(protocols=P, n_values=(12, 40, 90), ratio_grid=(0.5, 1.0, 1.75), trials=4, seed=5,
            multi_layer=True, max_layers=4)


@pytest.mark.parametrize(
    "subset",
    [
        dict(protocols=(Protocol.PMAC,)),
        dict(n_values=(40,)),
        dict(n_values=(90, 12)),
        dict(ratio_grid=(0.5, 1.0, 1.25, 1.75)),
        dict(trials=2),
        dict(multi_layer=False, n_values=(40,), trials=2),
        dict(ratio_grid=None, ratio_random=(0.5, 2.0), protocols=(Protocol.IEEE1901,), n_values=(90, 12), trials=3),
    ],
    ids=["protocols", "one-size", "sizes-reordered", "one-more-ratio", "fewer-trials", "single-layer-subset",
         "random-subset"],
)
def test_a_subset_sweep_reproduces_the_matching_rows(subset):
    mode = {k: v for k, v in subset.items() if k == "multi_layer" or "ratio_random" in subset and k.startswith("ratio")}
    full = _rows(**{**FULL, **mode})  # the full sweep in the subset's tree and ratio mode
    part = _rows(**{**FULL, **subset})
    shared = part.keys() & full.keys()
    assert len(shared) == sum(key[2] != 1.25 for key in part)  # only the added ratio's rows are new
    assert all(part[key] == full[key] for key in shared)


@pytest.mark.parametrize("mode", [dict(ratio_grid=(0.5, 2.0)), dict(ratio_random=(0.5, 2.0))], ids=["grid", "random"])
def test_every_protocol_of_an_n_and_trial_shares_its_tree_and_ratio(mode):
    plan = ExperimentPlan(protocols=P, n_values=(30, 200), trials=5, seed=8, multi_layer=True, max_layers=6, **mode)
    seen = {}
    for r in run_experiment(plan):
        seen.setdefault((r.n_node, r.trial), set()).add((r.layers, r.ratio if plan.ratio_random else None))
    assert all(len(v) == 1 for v in seen.values())
    assert len({v.pop()[0] for v in seen.values()}) > 1  # the trees themselves differ from pair to pair


@pytest.mark.parametrize("jobs", [1, 2])
def test_rows_do_not_depend_on_the_grouping(jobs, monkeypatch):
    plan = ExperimentPlan(**{**FULL, "trials": 3})
    whole = run_experiment(plan)
    monkeypatch.setattr(engine, "GROUP_STAS", 100)  # one (n, trial) pair or two per group
    assert len(engine._groups(plan)) > 4
    assert run_experiment(plan, jobs=jobs) == whole


@pytest.mark.parametrize("jobs", [1, 2])
def test_the_first_failing_cell_in_row_order_is_named(jobs, monkeypatch):
    # groups run size by size and cells are ordered protocol first, so the first failure met is not always the first cell
    plan_kw = dict(protocols=(Protocol.PMAC, Protocol.EPMAC), n_values=(3, 40), ratio_grid=(0.5,), trials=2, seed=2)
    plan = ExperimentPlan(**plan_kw)
    rows = run_experiment(plan)
    monkeypatch.setattr(engine, "GROUP_STAS", 1)  # one (n, trial) pair per group
    met = {plan.cell_index(pi, ni, 0, t): (ni, t, pi) for pi in range(2) for ni in range(2) for t in range(2)}
    out_of_order = 0
    for budget in sorted({r.nc_count for r in rows})[:-1]:
        failing = [i for i, r in enumerate(rows) if r.nc_count > budget]
        plan = ExperimentPlan(**plan_kw, max_nc=budget)
        with pytest.raises(NonTermination, match=f"run exceeded max_nc={budget} ") as raised:
            run_experiment(plan, jobs=jobs)
        assert raised.value.cell == plan.cell_name(failing[0])
        out_of_order += min(failing, key=met.get) != failing[0]
    assert out_of_order  # some budget fails a later cell of an earlier group first


# ---- draw quality; sample sizes and bounds fixed before the first run


def _cycle_keys(count, seed=11):
    return engine._child_keys(np.full(count, seed, dtype=np.uint64), np.arange(count))


@pytest.mark.parametrize("window", [64, 1000])
def test_keyed_slots_are_uniform(window):
    sessions, per = 2**12, 64  # 2**18 draws
    slots, _ = engine.keyed_draws(_cycle_keys(sessions), np.full(sessions, per), np.full(sessions, window))
    observed = np.bincount(slots, minlength=window)
    expected = sessions * per / window
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    df = window - 1
    assert len(observed) == window and chi2 < df + 6 * math.sqrt(2 * df), chi2


def _recount(keys, counts, windows, csma_p, coins_from):
    """Joins and transmitters (of sessions coins_from on) per session, counted draw by draw from one keyed draw of
    every session at once: its transmitters, and their slots that no other transmitter took."""
    slots, u = engine.keyed_draws(keys, counts, windows, coins=coins_from < len(counts))
    want_joins, want_sent, at = [], [], 0
    for i, c in enumerate(counts.tolist()):
        coin_sends = u is None or i < coins_from
        send = [s for j, s in enumerate(slots[at:at + c].tolist()) if coin_sends or u[at + j] < csma_p]
        want_joins.append(sum(hits == 1 for hits in collections.Counter(send).values()))
        want_sent.append(len(send))
        at += c
    return want_joins, want_sent[coins_from:]


@pytest.mark.parametrize("csma_p", [None, 0.4])
@pytest.mark.parametrize(
    "chunk, bins, lead",
    [(64, 256, 0), (engine.DRAW_CHUNK, engine.BIN_SLOTS, 0), (engine.DRAW_CHUNK, engine.BIN_SLOTS, 3),
     (0, engine.BIN_SLOTS, 0), (-1, engine.BIN_SLOTS, 0)],
    ids=["short-runs", "default-runs", "first-run-empty", "one-run-of-chunk-draws", "two-runs-of-chunk-plus-one"],
)
def test_draw_joins_equal_a_recount_of_the_keyed_draws(chunk, bins, lead, csma_p, monkeypatch):
    # runs whose windows add up to at most BIN_SLOTS, to more, and past 2**63 - 1 (two windows of 2**62 and more);
    # sessions that draw nothing, and coins from a session in the middle of a run (with no csma_p, from none); with
    # lead, that many sessions draw nothing and the next draws more than a run holds, so the first run draws nothing.
    # A chunk of 0 or -1 is the step's own draw count plus that: a step of DRAW_CHUNK draws, one run, and of one more
    monkeypatch.setattr(engine, "BIN_SLOTS", bins)
    rng = np.random.default_rng(19)
    counts = rng.integers(0, 7, 90)
    counts[rng.random(90) < 0.2] = 0
    if lead:
        counts[:lead], counts[lead] = 0, chunk + 1
    windows = np.where(counts > 0, counts + rng.integers(0, 4, 90), rng.integers(0, 2, 90))
    windows[40:60] = rng.integers(300, 3000, 20)
    windows[70:72] = (2**62, 2**63 - 1)
    counts[70:72] = (5, 6)
    keys, middle = _cycle_keys(90, seed=20), 31
    boundary = chunk <= 0
    if boundary:
        chunk += int(counts.sum())
    monkeypatch.setattr(engine, "DRAW_CHUNK", chunk)
    coins_from = len(counts) if csma_p is None else middle
    want_joins, want_sent = _recount(keys, counts, windows, csma_p, coins_from)
    runs = []
    original = engine.keyed_draws

    def watching(keys, counts, windows, coins=False):
        runs.append((len(counts), sum(windows.tolist()), int(counts.sum())))
        return original(keys, counts, windows, coins)

    monkeypatch.setattr(engine, "keyed_draws", watching)
    joins, sent = engine._draw_joins(keys, counts, windows, 1.0 if csma_p is None else csma_p, coins_from)
    assert joins.tolist() == want_joins
    assert sent.tolist() == want_sent and (len(sent) == 0) == (csma_p is None)
    totals = [total for _, total, _ in runs]
    assert max(totals) > 2**63 - 1
    assert (runs[0][2] == 0) == bool(lead)
    if boundary:
        assert len(runs) == 1 + (int(counts.sum()) > chunk)
    if chunk == 64:  # runs of every kind, and one that starts before the middle session and ends after it
        assert min(totals) <= bins and any(bins < total <= 2**63 - 1 for total in totals)
        ends = np.cumsum([size for size, _, _ in runs]).tolist()
        assert any(end - size < middle < end for (size, _, _), end in zip(runs, ends))


@pytest.mark.parametrize("coins_from", [0, 1, None], ids=["coins", "coins-from-the-second", "no-coins"])
@pytest.mark.parametrize(
    "counts, windows",
    [
        ([0, 1, 0, 3, 2, 0], [0, 1, 0, 5, 4, 0]),
        ([0, 1, 0, 3, 2, 0], [2, 1, 1, 5, 4, 3]),
        ([0, 1, 0, 3, 2, 0], [0, 1, 0, 2**40, 4, 0]),
        ([0, 1, 0, 3, 2, 0], [7, 1, 1, 2**40, 4, 1]),
        ([0, 0, 0], [0, 4, 0]),
        ([0, 0, 0], [0, 2**40, 1]),
        ([], []),
    ],
    ids=["binned-empty-windows", "binned-no-draws", "sorted-empty-windows", "sorted-no-draws", "binned-none-draws",
         "sorted-none-draws", "no-sessions"],
)
def test_draw_joins_of_sessions_that_draw_nothing_at_a_runs_ends_equal_the_recount(counts, windows, coins_from,
                                                                                   monkeypatch):
    # a session's counts are segment sums from its start, and an empty segment's sum must read 0, also where the
    # first or the last session of a run draws nothing (with a window of 0 slots or of some) and where none draws;
    # the second session's one draw is alone in the slot where an empty first window would start; a step of no
    # sessions draws nothing
    counts, windows = np.array(counts, dtype=np.int64), np.array(windows, dtype=np.int64)
    keys = _cycle_keys(len(counts), seed=23)
    coins_from = len(counts) if coins_from is None else coins_from
    want = _recount(keys, counts, windows, 0.6, coins_from)
    runs = []
    original = engine.keyed_draws

    def watching(keys, counts, windows, coins=False):
        runs.append(sum(windows.tolist()))
        return original(keys, counts, windows, coins)

    monkeypatch.setattr(engine, "keyed_draws", watching)
    joins, sent = engine._draw_joins(keys, counts, windows, 0.6, coins_from)
    assert (joins.tolist(), sent.tolist()) == want
    assert len(runs) == (len(counts) > 0)
    assert all((total <= engine.BIN_SLOTS) == (max(windows) < 2**40) for total in runs)


def test_a_binned_run_with_one_non_transmitter_equals_the_recount():
    counts, windows = np.array([4, 1, 6], dtype=np.int64), np.array([5, 1, 9], dtype=np.int64)
    keys = _cycle_keys(3, seed=24)
    _, u = engine.keyed_draws(keys, counts, windows, coins=True)
    csma_p = float(u.max())  # every coin but the largest lies below it
    joins, sent = engine._draw_joins(keys, counts, windows, csma_p, 0)
    assert (joins.tolist(), sent.tolist()) == _recount(keys, counts, windows, csma_p, 0)
    assert int((u >= csma_p).sum()) == 1 and sum(sent.tolist()) == int(counts.sum()) - 1


def test_keyed_coins_transmit_at_csma_p():
    draws, p = 2**20, 0.75
    _, u = engine.keyed_draws(_cycle_keys(draws // 16), np.full(draws // 16, 16), np.full(draws // 16, 5), coins=True)
    rate = float((u < p).mean())
    assert abs(rate - p) < 6 * math.sqrt(p * (1 - p) / draws), rate


def test_formation_keys_follow_values_not_positions():
    key = engine.formation_key
    assert key(7, 100, 0, Protocol.EPMAC, 1.0) == key(7, 100, 0, Protocol.EPMAC, 1.00)
    variants = {key(7, 100, 0, Protocol.EPMAC, 1.0), key(8, 100, 0, Protocol.EPMAC, 1.0),
                key(7, 101, 0, Protocol.EPMAC, 1.0), key(7, 100, 1, Protocol.EPMAC, 1.0),
                key(7, 100, 0, Protocol.PMAC, 1.0), key(7, 100, 0, Protocol.EPMAC, 1.1),
                key(2**64 + 7, 100, 0, Protocol.EPMAC, 1.0), key(2**200, 100, 0, Protocol.EPMAC, 1.0)}
    assert len(variants) == 8 and all(0 <= k < 2**64 for k in variants)


def test_a_negative_key_word_is_rejected_by_name():
    # a negative word's limbs never run out (-1 >> 64 == -1), so the fold must refuse it, not loop
    with pytest.raises(ValueError, match="non-negative, got -1$"):
        engine.formation_key(-1, 5, 0, Protocol.EPMAC, 1.0)
    h = np.zeros(3, dtype=np.uint64)
    for column, named in (([1, -2, 3], -2), ([2**64, -(2**70), 1], -(2**70))):
        with pytest.raises(ValueError, match=f"non-negative, got {named}$"):
            engine._fold(h, 7, column)


@pytest.mark.parametrize("key", [-1, 2**64, 2**70])
def test_a_formation_key_outside_64_bits_is_rejected_by_name(key):
    with pytest.raises(ValueError, match=rf"^key must be in \[0, 2\*\*64\), got {key}$"):
        engine.run_formation(Protocol.EPMAC, single_layer(3), RunConfig(), 1.0, key)


@pytest.mark.parametrize("value", [1.7, 1.5, 2.0**70, np.float64(3.0)], ids=["1.7", "1.5", "2.0**70", "np.float64(3.0)"])
def test_a_non_integer_key_or_key_word_is_rejected_by_name(value):
    # numpy's uint64 cast would truncate 1.7 to 1, and 2.0**70 would reach the fold's Python-int limbs as a float
    with pytest.raises(ValueError, match=rf"^key must be an integer, got {re.escape(repr(value))}$"):
        engine.run_formation(Protocol.EPMAC, single_layer(3), RunConfig(), 1.0, value)
    for words in ((value, 5, 0), (7, value, 0), (7, 5, value)):
        with pytest.raises(ValueError, match=rf"^a key word must be an integer, got {re.escape(repr(value))}$"):
            engine.formation_key(*words, Protocol.EPMAC, 1.0)
    assert engine.formation_key(np.int64(7), 5, np.uint64(0), Protocol.EPMAC, 1.0) == engine.formation_key(
        7, 5, 0, Protocol.EPMAC, 1.0)


def test_ratio_windows_are_exact_in_every_tier():
    # 17-digit numerators overflow int64 products, so a block holding one takes the float tier while every
    # ratio * x is below 2**50 and every denominator at most 2**62; a wider block takes Python ints
    rng = np.random.default_rng(4)
    ratios = [1.25, 0.5, 2.0, 1.2345678901234567, 0.1, *rng.uniform(0.2, 3.0, 40).tolist(), 9.87654321e-7]
    x = [0, 1, 2, 3, 4, 5, 8, 10, 20, 40, 80, 100, 1000, 4096, 99991, 2**20]
    top = 911978932750335  # the largest x with 1.2345678901234567 * x below 2**50; 1023545369856930 for 1.1
    blocks = [
        (ratios, x),
        ([*ratios, 1e30], x),
        # products exactly on an integer: a 17-digit ratio over 156250000000000, and 1.1 * 100, whose float
        # product 110.00000000000001 has a ceiling one too high
        ([1.2623133404418496, 1.1, 0.7], [10, 100, *(156250000000000 * j for j in (1, 2, 5))]),
        # just under the float tier's limit, where float ceilings come out one too low (1.2345678901234567)
        # and one too high (1.1), and just over it
        ([1.2345678901234567], range(top - 2**15, top + 1)),
        ([1.1, 1.0000000000000002], range(1023545369856930 - 2**15, 1023545369856930 + 1)),
        ([1.2345678901234567], range(top + 1, top + 2**10)),
        # a denominator of 4 * 10**18, just under 2**62, so residues reach 8 * 10**18; and one of 10**20, past it
        ([0.00039388171737486725], range(2858472117839062783 - 2**12, 2858472117839062783 + 1)),
        ([0.00010189550964360691], range(2**63 - 2**10, 2**63)),
    ]
    for block, x in blocks:
        x = np.array(x, dtype=np.int64)
        f = np.repeat(np.arange(len(block)), len(x))
        got = engine._Ratios(block).windows(f, np.tile(x, len(block)))
        assert got.tolist() == [-(-num * int(p) // den) for num, den in map(engine._as_fraction, block) for p in x]


@pytest.mark.parametrize(
    "chunk, bins, floor",
    [(64, 128, 0), (2**14, 16, 10**9), (300, 2**15, 64)],
    ids=["short-runs-always-shrink", "sorted-runs-never-shrink", "runs-cut-mid-step"],
)
def test_draw_runs_and_shrinks_do_not_change_a_mixed_block(chunk, bins, floor, monkeypatch):
    # how a step's draws are cut into runs, binned or sorted, and when the block shrinks are the engine's own business
    monkeypatch.setattr(engine, "DRAW_CHUNK", chunk)
    monkeypatch.setattr(engine, "BIN_SLOTS", bins)
    monkeypatch.setattr(engine, "SHRINK_FLOOR", floor)
    picks = [(protocol, i) for protocol in P for i in range(len(CASES))]
    assert _mixed(CONFIGS["default"], picks, CASES) == [_expected(protocol, "default")[i] for protocol, i in picks]


def test_central_beacons_of_sessions_settled_at_shrinks_keep_their_price(per_kind_timing, monkeypatch):
    # a central and a proxy beacon cost the same by default, so a CSMA CCO session settled at a shrink could pay
    # its cycles as the wrong beacon unseen; here every slot kind's count is a digit group of its own
    monkeypatch.setattr(engine, "SHRINK_FLOOR", 0)
    cfg = RunConfig(timing=per_kind_timing)
    cases = CASES[:16]
    picks = [(protocol, i) for protocol in P for i in range(len(cases))]
    got = _mixed(cfg, picks, cases)
    assert got == [_reference(protocol, cases[i][0], cfg, cases[i][1], cases[i][2]) for protocol, i in picks]
    central = [r.total_us // 10**6 % 1000 for (protocol, i), r in zip(picks, got) if protocol is Protocol.IEEE1901]
    assert all(central[i] > 0 for i in range(len(cases)) if cases[i][0].n_sta)


def _watched(cfg, picks, cases, monkeypatch):
    """A block of picks, each keyed by its place, and its reference; and per step, the drawing sessions per protocol.

    A session is told by its cycle key: the step's _child_keys of its coordinator's session key.
    """
    table = engine._sessions(Forest.of([tree for tree, _, _ in cases]))
    keys = [7 * j + 1 for j in range(len(picks))]
    code = {protocol: c for c, protocol in enumerate(P)}
    session_keys, protocols = [], []
    for (protocol, i), key in zip(picks, keys):
        nodes = table.nodes[table.start[i]:table.start[i + 1]]
        session_keys.append(engine._child_keys(np.full(len(nodes), key, dtype=np.uint64), nodes))
        protocols += [code[protocol]] * len(nodes)
    session_keys = np.concatenate(session_keys)
    steps = []
    original = engine._draw_joins

    def watching(ckeys, counts, windows, csma_p, coins_from=0):
        now = dict(zip(engine._child_keys(session_keys, np.full(len(session_keys), len(steps))).tolist(), protocols))
        drawing = [now[k] for k in ckeys.tolist()]
        assert drawing == sorted(drawing)  # E-PMAC, then P-MAC, then CSMA
        steps.append(tuple(np.bincount(drawing, minlength=3).tolist()))
        return original(ckeys, counts, windows, csma_p, coins_from)

    protocol, tree = zip(*picks)
    with monkeypatch.context() as m:
        m.setattr(engine, "_draw_joins", watching)
        block = engine._run_block(cfg, table, list(map(engine._protocol_code, protocol)), tree,
                                  engine._Ratios([cases[i][1] for i in tree]), range(len(tree)), keys)
    got = [_outcome(block.result(f)) for f in range(len(picks))]
    want = [_reference(p, cases[i][0], cfg, cases[i][1], key) for (p, i), key in zip(picks, keys)]
    return got, want, list(zip(steps, steps[1:]))


@pytest.mark.parametrize("emptied", range(3), ids=["epmac", "pmac", "all-but-csma"])
def test_shrinks_that_empty_a_protocol_slice_do_not_change_a_mixed_block(emptied, monkeypatch):
    # six formations on small stars drain in the first steps and the other six run on, so the block, which shrinks
    # whenever half its sessions have drained, drops the small ones' slice: E-PMAC's, P-MAC's, or both
    monkeypatch.setattr(engine, "SHRINK_FLOOR", 0)
    cases = [(single_layer(2), 8.0, 0), (single_layer(200), 1.0, 0)]
    small = [P[emptied]] * 6 if emptied < 2 else [P[0], P[1]] * 3
    big = [p for p in P if p not in small] * (6 // (3 - len(set(small))))
    got, want, moves = _watched(RunConfig(), [(p, 0) for p in small] + [(p, 1) for p in big], cases, monkeypatch)
    assert got == want
    gone = {P.index(p) for p in small}
    assert any(all(before[c] > 0 and after[c] == 0 if c in gone else after[c] > 0 for c in range(3))
               for before, after in moves)


def test_failed_formations_dropped_between_e_and_p_do_not_change_a_mixed_block(monkeypatch):
    # budgets, found with this seed, that fail formations of every protocol in one step (26), and only P-MAC's
    # formations, between E-PMAC's and CSMA's, in another (35); every protocol keeps formations that run on
    monkeypatch.setattr(engine, "SHRINK_FLOOR", 10**9)  # only failures drop sessions
    rng = np.random.default_rng(7)
    cases = [(generate_tree(n, 4, rng), ratio, 0) for n, ratio in [(10, 1.0), (60, 0.5), (25, 2.0), (80, 1.0), (40, 0.75)]]
    picks = [(protocol, i) for protocol in P for i in range(len(cases))]
    drops = []
    for budget in (26, 35):
        got, want, moves = _watched(RunConfig(max_nc=budget), picks, cases, monkeypatch)
        assert got == want
        assert all(any(isinstance(r, engine.FormationResult) for r in got[k:k + len(cases)])
                   for k in range(0, len(picks), len(cases)))
        drops += [tuple(b > a for b, a in zip(before, after)) for before, after in moves if before != after
                  and 0 not in after]
    assert (True, True, True) in drops and (False, True, False) in drops


@pytest.mark.parametrize("ratio", [0.5123456789012346, 0.7654321098765432, 1.2345678901234567, 1.9876543210987654])
def test_blocks_at_the_int64_window_tier_edge_equal_the_reference(ratio, monkeypatch):
    # a step's windows are int64 products while its largest numerator times its largest pending count fits
    # 2**63 - 1: stars just under that at the first step, and one STA over it, which drain into the int64 tier
    num, _ = engine._as_fraction(ratio)
    fits = engine._INT64_MAX // num
    assert num * fits <= engine._INT64_MAX < num * (fits + 1)
    rng = np.random.default_rng(8)
    small = generate_tree(40, 4, rng)
    for n in (fits, fits + 1):
        cases = [(single_layer(n), ratio, 0), (small, ratio, 0), (single_layer(5), 0.5, 0)]
        picks = [(protocol, i) for protocol in P for i in range(len(cases))]
        got, want, _ = _watched(RunConfig(), picks, cases, monkeypatch)
        assert got == want and all(isinstance(r, engine.FormationResult) for r in got)


@pytest.mark.parametrize("coins", [False, True])
@pytest.mark.parametrize("per", [3, 2 * engine.DRAW_CHUNK + 5], ids=["one-run", "past-the-rank-table"])
def test_keyed_draws_and_draw_joins_leave_their_inputs_unchanged(per, coins):
    counts = np.array([per, 0, 1, per + 2, 2], dtype=np.int64)
    windows = np.array([per + 1, 3, 1, 2 * per, 2**62], dtype=np.int64)
    keys = _cycle_keys(len(counts), seed=22)
    before = [a.copy() for a in (keys, counts, windows, engine._rank_strides())]
    engine.keyed_draws(keys, counts, windows, coins)
    engine._draw_joins(keys, counts, windows, 0.5, 2 if coins else len(counts))
    after = (keys, counts, windows, engine._rank_strides())
    assert all(a.dtype == b.dtype and a.tolist() == b.tolist() for a, b in zip(before, after))


# ---- the array fold, pricing in columns and the draws' edges; sizes fixed before the first run


LIMBS = [0, 1, 2**63, 2**64 - 1, 2**64, 2**64 + 1, 2**127 + 5, 2**128, 2**191 + 2**64, 2**192 - 1]  # 0 to 3 limbs


def test_the_array_fold_equals_the_scalar_fold_key_by_key():
    rng = np.random.default_rng(15)
    keys = [0, 1, 2**64 - 1, *(2 * int(k) + 1 for k in rng.integers(0, 2**63, len(LIMBS) - 3))]
    h = np.array(keys, dtype=np.uint64)
    small = [int(w) for w in rng.integers(0, 2**62, len(keys))]
    for column in (LIMBS, LIMBS[::-1], small, [*small[:5], *LIMBS[5:]]):
        assert engine._fold(h, column).tolist() == [ref._fold(k, w) for k, w in zip(keys, column)]
    # a scalar word of any size is every key's; words fold one after another
    for seed in (0, 2**64 - 1, 2**64, 2**70, 2**200 + 3):
        got = engine._fold(h, seed, LIMBS, 3).tolist()
        assert got == [ref._fold(k, seed, w, 3) for k, w in zip(keys, LIMBS)]


@pytest.mark.parametrize("ratio", [1.0, 0.5, 1e30, 1.2345678901234567, 0.30000000000000004, 9.87654321e-7])
@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1, 2**64, 2**70, 2**130 + 1])
def test_formation_keys_equal_the_scalar_fold(seed, ratio):
    for protocol in P:
        assert engine.formation_key(seed, 650, 3, protocol, ratio) == ref.formation_key(seed, 650, 3, protocol, ratio)


@pytest.mark.parametrize(
    "mode",
    [dict(ratio_grid=(0.5, 1.2345678901234567, 2.0)), dict(ratio_random=(0.5, 2.0))],
    ids=["grid", "random"],
)
def test_a_sweep_seeded_past_2_64_equals_the_reference_row_for_row(mode):
    plan = ExperimentPlan(protocols=P, n_values=(3, 30), trials=3, seed=2**70, multi_layer=True, max_layers=3, **mode)
    assert run_experiment(plan) == ref.run_experiment(plan)


@pytest.mark.parametrize(
    "grid",
    [(2**53 + 1,), (Decimal("0.50000000000000000001"), Decimal("1.99999999999999999999")), (np.float32(1.1),),
     (Fraction(4, 3),)],
    ids=["int-above-2**53", "long-decimals", "float32", "fraction"],
)
def test_a_sweep_of_ratios_that_are_not_floats_equals_the_reference_row_for_row(grid):
    # the reference takes each window's ceiling of the ratio as given; so do the block's keys and windows
    plan = ExperimentPlan(protocols=P, n_values=(2, 3, 7, 20), ratio_grid=grid, trials=3, seed=5, multi_layer=True)
    assert run_experiment(plan) == ref.run_experiment(plan)


@pytest.mark.parametrize(
    "bounds",
    [(Decimal("0.5"), Decimal("2.0")), (Fraction(1, 2), Fraction(2)), (np.float32(0.5), np.float32(2.0))],
    ids=["decimal", "fraction", "float32"],
)
def test_random_bounds_that_are_not_floats_draw_the_rows_of_their_float_values(bounds):
    plan = dict(protocols=P, n_values=(2, 3, 7, 20), trials=3, seed=5, multi_layer=True)
    rows = run_experiment(ExperimentPlan(**plan, ratio_random=bounds))
    assert rows == ref.run_experiment(ExperimentPlan(**plan, ratio_random=bounds))
    assert rows == run_experiment(ExperimentPlan(**plan, ratio_random=(0.5, 2.0)))


def test_a_decimal_ratio_past_the_digits_str_prints_equals_the_reference_row_for_row():
    # 1 + 10**-5001 was read through str() into a Fraction, which Python's int-to-str limit rejected as not finite
    ratio = Decimal("1." + "0" * 5000 + "1")
    plan = ExperimentPlan(protocols=P, n_values=(3, 12), ratio_grid=(ratio,), trials=2, seed=5, multi_layer=True)
    assert run_experiment(plan) == ref.run_experiment(plan)


@pytest.mark.parametrize("protocol", P)
def test_a_growth_factor_past_the_floats_equals_the_reference(protocol):
    # its float estimate failed every formation. Two E-PMAC STAs in one slot collide, and k2 grows their window past
    # any draw; the other E-PMAC formation grows by k1 only, but still in Python ints
    cfg = RunConfig(k2=Decimal("1e400"))
    cases = [(single_layer(2), 0.5, 3), (single_layer(30), 1.0, 3)]
    got = _block(protocol, cfg, cases)
    assert got == [_reference(protocol, tree, cfg, ratio, key) for tree, ratio, key in cases]
    assert (got[0] is ValueError) == (protocol is Protocol.EPMAC)


def test_columns_priced_at_once_equal_cost_formation_by_formation(per_kind_timing):
    # a block makes all its counts and prices in int64 or all in Python ints; each case lands on one side
    rng = np.random.default_rng(16)
    trees = [generate_tree(n, 4, rng) for n in (5, 30, 80)]
    default = RunConfig().timing
    huge = engine.TimingTable(**{name: length << 60 for name, length in per_kind_timing.to_dict().items()})
    cases = [
        # random counts under default and per-kind timing: int64
        *((timing, tree, ratio, 0) for timing in (default, per_kind_timing) for tree in trees for ratio in (0.5, 1.3)),
        # slot lengths of 2**60 and more on every kind: prices past 2**63
        *((huge, tree, 1.0, 2**63) for tree in trees),
        # 1024 lone contenders pay 1024 * 2**53 window slots: a count column of 2**63 or more
        (default, tree_from_parents({k: k - 1 for k in range(1, 1025)}), float(2**53), 400 * 2**63),
        # a 2**63 slot length on proxy beacons, which no protocol pays on a star: Python ints, though no count needs them
        (engine.TimingTable(proxy_beacon_slot_us=2**63), single_layer(20), 1.0, 0),
    ]
    for protocol in P:
        for timing, tree, ratio, least in cases:
            cfg = RunConfig(timing=timing)
            got = engine.run_formation(protocol, tree, cfg, ratio, 3)
            assert got == ref.run_formation(protocol, tree, cfg, ratio, 3)
            assert got.total_us >= least


@pytest.mark.parametrize("protocol", P, ids=[p.value for p in P])
def test_counts_past_2_63_made_after_the_block_equal_the_reference(protocol):
    # 1024 lone contenders pay 1024 * (2**53 - 1) = 2**63 - 1024 window slots, which int64 holds; the preambles,
    # those slots plus one per STA and cycle, pass 2**63 only when the counts by kind are made
    tree = tree_from_parents({k: k - 1 for k in range(1, 1025)})
    cfg, ratio = RunConfig(), float(2**53 - 1)
    assert engine.run_formation(protocol, tree, cfg, ratio, 5) == ref.run_formation(protocol, tree, cfg, ratio, 5)


@pytest.mark.parametrize("protocol", P, ids=[p.value for p in P])
def test_slot_lengths_past_2_63_on_kinds_a_protocol_never_uses_equal_the_reference(protocol):
    # E-PMAC and P-MAC use no proxy beacon or association slot; IEEE 1901.1 uses no preamble or data frame slot
    unused = dict(proxy_beacon_slot_us=2**63, assoc_req_slot_us=2**64 + 1, assoc_ind_slot_us=2**63)
    if protocol is Protocol.IEEE1901:
        unused = dict(preamble_slot_us=2**63, data_frame_slot_us=2**64 + 1)
    cfg, tree = RunConfig(timing=engine.TimingTable(**unused)), single_layer(20)
    assert engine.run_formation(protocol, tree, cfg, 1.0, 3) == ref.run_formation(protocol, tree, cfg, 1.0, 3)


def _unmix(z: int) -> int:
    """The inverse of SplitMix64's finalizer."""

    def unshift(z: int, s: int) -> int:  # the inverse of z ^= z >> s
        x = z
        for _ in range(64 // s + 1):
            x = z ^ (x >> s)
        return x

    z = unshift(z, 31) * pow(ref._M2, -1, 2**64) & ref._MASK
    z = unshift(z, 27) * pow(ref._M1, -1, 2**64) & ref._MASK
    return unshift(z, 30)


@pytest.mark.parametrize("window", [2**52 - 1, 2**52, 2**53 + 1, 2**63 - 1])
def test_the_largest_uniform_takes_a_slot_below_the_window(window):
    top = 2**64 - 1  # (h >> 11) is 2**53 - 1: the uniform 1 - 2**-53
    key = (_unmix(top) - ref._GAMMA) & ref._MASK  # rank 0 hashes key + gamma
    assert ref._mix64((key + ref._GAMMA) & ref._MASK) == top
    keys, counts, windows = np.array([key], dtype=np.uint64), np.array([1]), np.array([window])
    slots, _ = engine.keyed_draws(keys, counts, windows)
    assert 0 <= window - 1 - int(slots[0]) <= window >> 52  # below the window, and as near its top as floats get
    assert slots.tolist() == ref.keyed_draws(keys, counts, windows)[0].tolist()


@pytest.mark.parametrize("coins", [False, True])
def test_keyed_draws_equal_the_first_written_draws_bit_for_bit(coins):
    # runs past the cached rank table, windows on both sides of 2**52, sessions that draw nothing
    rng = np.random.default_rng(17)
    sessions = 400
    counts = rng.integers(0, 200, sessions)
    counts[[5, 50]] = (2**15 + 3, 0)
    windows = np.where(rng.random(sessions) < 0.5, rng.integers(1, 2**20, sessions), rng.integers(2**51, 2**63, sessions))
    keys = _cycle_keys(sessions, seed=18)
    # windows held below 2**52 take the path without the clip; cuts past session 5 draw more than the rank table holds
    cuts = [(slice(0, sessions), 2**51), (slice(0, 5), 2**51), (slice(6, 100), 2**63 - 1), (slice(6, sessions), 2**63 - 1),
            (slice(0, 0), 1)]
    for cut, widest in cuts:
        w = np.minimum(windows[cut], widest)
        got = engine.keyed_draws(keys[cut], counts[cut], w, coins)
        want = ref.keyed_draws(keys[cut], counts[cut], w, coins)
        assert got[0].tolist() == want[0].tolist()
        assert (got[1] is None) == (not coins) and (not coins or got[1].tolist() == want[1].tolist())
