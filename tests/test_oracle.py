"""Single-layer runs of all three protocols against the exact means of tests/oracle.py."""

import math
from fractions import Fraction

import numpy as np
import pytest

from oracle import epmac_single_layer_exact, exact_singleton_pmf, expected_single_layer, singleton_pmfs
from plcmac import Protocol, RunConfig, engine, single_layer
from plcmac.engine import formation_key

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
    runs = engine._run_block(protocol, cfg, [engine._sessions(single_layer(n))], [(0, ratio, k) for k in keys])
    exact = expected_single_layer(protocol, n, ratio, cfg)
    observed = (np.array([r.nc_count for r in runs], float), np.array([r.total_us for r in runs], float))
    z = [(x.mean() - mean) / (x.std(ddof=1) / math.sqrt(TRIALS)) for x, mean in zip(observed, exact)]
    assert max(map(abs, z)) < Z_BOUND, f"z of nc_count {z[0]:.2f}, of elapsed_us {z[1]:.2f}"
