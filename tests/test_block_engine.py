"""The block engine: equal to the scalar reference engine, keyed by identity, and failing as the scalar one did."""

import math

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
from test_golden import GOLDEN

P = tuple(Protocol)


def _outcome(result):
    return type(result) if isinstance(result, Exception) else result


def _reference(protocol, tree, cfg, ratio, key):
    try:
        return ref.run_formation(protocol, tree, cfg, ratio, key)
    except (NonTermination, ValueError) as exc:
        return type(exc)


def _block(protocol, cfg, cases):
    """Every case in one block, results in case order, an error as its type."""
    trees = [engine._sessions(tree) for tree, _, _ in cases]
    return [_outcome(r) for r in engine._run_block(protocol, cfg, trees, [(i, r, k) for i, (_, r, k) in enumerate(cases)])]


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
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_plans_equal_the_reference_engine(name):
    plan = ExperimentPlan(**GOLDEN[name][0])
    assert run_experiment(plan) == ref.run_experiment(plan)


@pytest.mark.parametrize("config", list(CONFIGS))
@pytest.mark.parametrize("protocol", P, ids=[p.value for p in P])
def test_one_block_equals_the_reference_formation_by_formation(protocol, config):
    cfg = CONFIGS[config]
    expected = [_reference(protocol, tree, cfg, ratio, key) for tree, ratio, key in CASES]
    assert _block(protocol, cfg, CASES) == expected
    # a formation's result does not depend on the block it runs in
    assert _block(protocol, cfg, CASES[::-3]) == expected[::-3]


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
    for longest in cycles[-3:]:
        for budget in (longest, longest - 1):
            cfg = RunConfig(max_nc=budget)
            got = _block(protocol, cfg, cases)
            assert got == [_reference(protocol, tree, cfg, ratio, key) for tree, ratio, key in cases]
            assert NonTermination in got or budget == longest


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
    trees = [engine._sessions(tree), engine._sessions(single_layer(1))]
    got = engine._run_block(Protocol.EPMAC, RunConfig(), trees, [(0, 2e18, 0), (1, 2e18, 0)])
    assert isinstance(got[0], ValueError)
    assert got[1] == ref.run_formation(Protocol.EPMAC, single_layer(1), RunConfig(), 2e18, 0)


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


def test_ratio_windows_are_exact_in_every_tier():
    # 17-digit numerators overflow int64 products, so the whole block takes the float tier; 1e30 forces Python ints
    rng = np.random.default_rng(4)
    ratios = [1.25, 0.5, 2.0, 1.2345678901234567, 0.1, *rng.uniform(0.2, 3.0, 40).tolist(), 9.87654321e-7]
    x = np.array([0, 1, 2, 3, 4, 5, 8, 10, 20, 40, 80, 100, 1000, 4096, 99991, 2**20])
    for block in (ratios, [*ratios, 1e30]):
        windows = engine._Ratios(block)
        f = np.repeat(np.arange(len(block)), len(x))
        got = windows.windows(f, np.tile(x, len(block)))
        assert got.tolist() == [-(-num * int(p) // den) for num, den in map(engine._as_fraction, block) for p in x]
