"""Exact single-layer formation means for P-MAC and IEEE 1901.1 association.

In a single-layer star every STA contends in the CCO's one session, so
a run is a Markov chain on the pending count p. A cycle opens a window
of N(p) slots; the STAs that join are those alone in their slot, an
occupancy count (Feller, An Introduction to Probability Theory and Its
Applications, vol. 1, ch. II and IV), and the cycle's price is linear in
that count. First-step analysis over p then gives the exact expected
cycles and microseconds of a whole run.

Nothing here calls the simulator: windows, prices and probabilities are
written out from the protocol descriptions, so the engine can be checked
against them.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from plcmac import Protocol, RunConfig


def singleton_pmfs(m: int, n_slot: int) -> np.ndarray:
    """Row t, column s: P(exactly s of t uniform draws over n_slot slots are alone in their slot), t = 0..m.

    A DP over the draws with state (empty slots, singleton slots): a draw
    into an empty slot makes a singleton, one into a singleton's slot
    spoils it, and one into a crowded slot changes neither count.
    """
    # m draws leave at least n_slot - m slots empty, so rows start there
    empty = np.arange(max(0, n_slot - m), n_slot + 1)[:, None]
    single = np.arange(m + 1)[None, :]
    prob = np.zeros((len(empty), m + 1))  # rows follow empty, columns count singletons
    prob[-1, 0] = 1.0
    rows = [prob.sum(axis=0)]
    for _ in range(m):
        nxt = prob * np.clip(n_slot - empty - single, 0, None) / n_slot
        nxt[:-1, 1:] += (prob * empty / n_slot)[1:, :-1]
        nxt[:, :-1] += (prob * single / n_slot)[:, 1:]
        prob = nxt
        rows.append(prob.sum(axis=0))
    return np.array(rows)


def _binomial_pmf(m: int, p: float) -> np.ndarray:
    return np.array([math.comb(m, t) * p**t * (1 - p) ** (m - t) for t in range(m + 1)])


def _window(protocol: Protocol, ratio: float, pending: int) -> int:
    n_slot = math.ceil(Fraction(str(ratio)) * pending)
    if protocol is Protocol.PMAC and pending >= 2:
        n_slot = max(n_slot, 2)  # two STAs in one slot would collide forever
    return n_slot


def _joins_pmf(protocol: Protocol, pending: int, n_slot: int, cfg: RunConfig) -> np.ndarray:
    pmfs = singleton_pmfs(pending, n_slot)
    if protocol is Protocol.PMAC:
        return pmfs[pending]
    # association: each STA transmits with probability csma_p, and only transmitters contend
    return _binomial_pmf(pending, cfg.csma_p) @ pmfs


def _cycle_price(protocol: Protocol, n_slot: int, joins: np.ndarray, cfg: RunConfig) -> np.ndarray:
    t = cfg.timing
    if protocol is Protocol.PMAC:
        # NET preamble, the window, one ACK preamble and three one-hop data frames per join
        return t.preamble_slot_us * (1 + n_slot + joins) + t.data_frame_slot_us * 3 * joins
    # central beacon, every request slot, one indication per join
    return t.central_beacon_slot_us + t.assoc_req_slot_us * n_slot + t.assoc_ind_slot_us * joins


def expected_single_layer(protocol: Protocol, n: int, ratio: float, cfg: RunConfig = RunConfig()) -> tuple[float, float]:
    """(E[nc_count], E[elapsed_us]) of one formation over single_layer(n)."""
    if protocol not in (Protocol.PMAC, Protocol.IEEE1901):
        raise ValueError(f"no exact oracle for {protocol.value}")
    cycles = np.zeros(n + 1)  # by pending count; a drained session costs nothing more
    micros = np.zeros(n + 1)
    for pending in range(1, n + 1):
        n_slot = _window(protocol, ratio, pending)
        pmf = _joins_pmf(protocol, pending, n_slot, cfg)
        joins = np.arange(pending + 1)
        later = pending - joins[1:]  # a cycle with no join repeats from the same count
        leave = 1.0 - pmf[0]
        cycles[pending] = (1.0 + pmf[1:] @ cycles[later]) / leave
        micros[pending] = (pmf @ _cycle_price(protocol, n_slot, joins, cfg) + pmf[1:] @ micros[later]) / leave
    return float(cycles[n]), float(micros[n])
