"""Single-layer runs of all three protocols against the exact means of tests/oracle.py."""

import math
from fractions import Fraction

import numpy as np
import pytest

from oracle import epmac_single_layer_exact, exact_singleton_pmf, expected_single_layer, expected_tree, singleton_pmfs
from plcmac import Protocol, RunConfig, TimingTable, engine, single_layer, tree_from_parents
from plcmac.engine import formation_key
from plcmac.topology import Forest

TRIALS = 2000
SEED = 7
Z_BOUND = 4.0


@pytest.mark.parametrize("m, n_slot", [(1, 1), (2, 1), (4, 4), (5, 2), (50, 100), (100, 50)])
def test_singleton_pmfs_sum_to_one_and_meet_the_alone_in_slot_law(m, n_slot):
    pmfs = singleton_pmfs(m, n_slot)
    assert np.allclose(pmfs.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    for t, row in enumerate(pmfs):
        law = t * (1 - 1 / n_slot) ** (t - 1) if t else 0.0
        assert math.isclose(row @ np.arange(m + 1), law, rel_tol=1e-12, abs_tol=1e-12)


@pytest.mark.parametrize("m, n_slot", [(1, 1), (2, 1), (4, 4), (5, 2), (8, 30)])
def test_exact_singleton_pmf_equals_the_float_one(m, n_slot):
    exact = exact_singleton_pmf(m, n_slot)
    assert sum(exact) == 1
    assert np.allclose([float(q) for q in exact], singleton_pmfs(m, n_slot)[m], rtol=0, atol=1e-12)


def test_epmac_oracle_hand_pins():
    # one STA joins without a draw: a slot-count frame, 1 TDF, 1 MAC frame, 1 SDF, the slot and the ACK
    assert epmac_single_layer_exact(1, 1.0) == (1, 80800)
    # n0 = 1: the first cycle always collides, and one loop in 64 ends in a forced restart
    assert epmac_single_layer_exact(2, 0.5) == (Fraction(8, 3), Fraction(6565600, 63))
    in_floats = expected_single_layer(Protocol.EPMAC, 2, 0.5)
    assert all(math.isclose(x, float(q), rel_tol=1e-12) for x, q in zip(in_floats, (Fraction(8, 3), Fraction(6565600, 63))))


@pytest.mark.parametrize(
    "protocol, n, ratio",
    [
        (Protocol.EPMAC, 2, 0.5),
        (Protocol.EPMAC, 5, 0.5),
        (Protocol.EPMAC, 8, 1.0),
        (Protocol.PMAC, 10, 1.0),
        (Protocol.PMAC, 40, 0.5),
        (Protocol.PMAC, 100, 2.0),
        (Protocol.IEEE1901, 10, 1.0),
        (Protocol.IEEE1901, 40, 1.5),
    ],
)
def test_single_layer_means_match_the_exact_oracle(protocol, n, ratio):
    cfg = RunConfig()
    # one block of TRIALS formations: the cells of a single-layer sweep at (SEED, protocol, n, ratio)
    keys = [formation_key(SEED, n, trial, protocol, ratio) for trial in range(TRIALS)]
    block = engine._run_block(cfg, engine._sessions(Forest.of([single_layer(n)])), (engine._protocol_code(protocol),) * TRIALS,
                              (0,) * TRIALS, engine._Ratios([ratio]), (0,) * TRIALS, keys)
    runs = [block.result(f) for f in range(TRIALS)]
    exact = expected_single_layer(protocol, n, ratio, cfg)
    observed = (np.array([r.nc_count for r in runs], float), np.array([r.total_us for r in runs], float))
    z = [(x.mean() - mean) / (x.std(ddof=1) / math.sqrt(TRIALS)) for x, mean in zip(observed, exact)]
    assert max(map(abs, z)) < Z_BOUND, f"z of nc_count {z[0]:.2f}, of elapsed_us {z[1]:.2f}"


def _uniform(m, k):
    """m children for every coordinator in layers 0..k-1; ids ascend layer by layer."""
    parents, layer = {}, [0]
    for _ in range(k):
        below = []
        for par in layer:
            for _ in range(m):
                below.append(len(parents) + 1)
                parents[below[-1]] = par
        layer = below
    return tree_from_parents(parents)


# sessions (coordinator: STAs at depth k) 0: 5 at 1; 1: 8, 2: 1 and 3: 3 at 2; 6: 2 and 14: 1 at 3; 20: 1 at 4; 21: 4 at 5
MIXED = {**dict.fromkeys(range(1, 6), 0), **dict.fromkeys(range(6, 14), 1), 14: 2, 15: 3, 16: 3, 17: 3, 18: 6, 19: 6,
         20: 14, 21: 20, **dict.fromkeys(range(22, 26), 21)}

# trees and ratios fixed in advance; every session holds at most 8 STAs, so E-PMAC runs on all of them
MULTI_LAYER = {
    "chain-6": (tree_from_parents({i: i - 1 for i in range(1, 7)}), 1.0),
    "2-ary-2": (_uniform(2, 2), 0.5),
    "2-ary-3": (_uniform(2, 3), 1.5),
    "3-ary-2": (_uniform(3, 2), 1.0),
    "3-ary-3": (_uniform(3, 3), 0.75),
    "4-ary-2": (_uniform(4, 2), 2.0),
    "4-ary-3": (_uniform(4, 3), 1.0),
    "mixed": (tree_from_parents(MIXED), 1.25),
}


# the default schedule prices central and proxy beacons alike, and requests and indications; here each kind differs
MULTI_CFG = RunConfig(timing=TimingTable(proxy_beacon_slot_us=9000, assoc_ind_slot_us=17000))


@pytest.fixture(scope="module")
def multi_layer_runs():
    """(nc_count, elapsed_us) of TRIALS formations of every protocol on every tree, all in one block.

    A (protocol, tree) pair takes the formation key of trial 0 at its
    tree's size and ratio, and its trials the keys one level below it.
    """
    pairs = [(protocol, name) for protocol in Protocol for name in MULTI_LAYER]
    trees = [tree for tree, _ in MULTI_LAYER.values()]
    tree_of = {name: t for t, name in enumerate(MULTI_LAYER)}
    base = [formation_key(SEED, MULTI_LAYER[name][0].n_sta, 0, protocol, MULTI_LAYER[name][1]) for protocol, name in pairs]
    keys = engine._child_keys(np.repeat(np.array(base, dtype=np.uint64), TRIALS), np.tile(np.arange(TRIALS), len(pairs)))
    codes = [engine._protocol_code(protocol) for protocol, _ in pairs]
    block = engine._run_block(MULTI_CFG, engine._sessions(Forest.of(trees)), np.repeat(codes, TRIALS),
                              np.repeat([tree_of[name] for _, name in pairs], TRIALS),
                              engine._Ratios([MULTI_LAYER[name][1] for _, name in pairs]),
                              np.repeat(np.arange(len(pairs)), TRIALS), keys)
    assert not block.errors
    columns = (np.array(column, float).reshape(len(pairs), TRIALS) for column in (block.nc_count, block.total_us))
    return dict(zip(pairs, zip(*columns)))


@pytest.mark.parametrize("protocol", list(Protocol), ids=lambda protocol: protocol.value)
@pytest.mark.parametrize("name", list(MULTI_LAYER))
def test_multi_layer_means_match_the_sum_over_sessions(multi_layer_runs, name, protocol):
    tree, ratio = MULTI_LAYER[name]
    exact = expected_tree(protocol, tree, ratio, MULTI_CFG)
    for label, x, mean in zip(("nc_count", "elapsed_us"), multi_layer_runs[protocol, name], exact):
        if x.std() == 0:  # every session lone and drawless: the run is the same every time
            assert math.isclose(x[0], mean, rel_tol=1e-12), f"{label} {x[0]} against {mean}"
        else:
            z = (x.mean() - mean) / (x.std(ddof=1) / math.sqrt(TRIALS))
            assert abs(z) < Z_BOUND, f"z of {label} {z:.2f}"
