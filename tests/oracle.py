"""Exact formation means for all three protocols: single-layer runs, and multi-layer runs session by session.

In a single-layer star every STA contends in the CCO's one session, so
a run is a Markov chain on the pending count p. A cycle opens a window
of N(p) slots; the STAs that join are those alone in their slot, an
occupancy count (Feller, An Introduction to Probability Theory and Its
Applications, vol. 1, ch. II and IV), and the cycle's price is linear in
that count. First-step analysis over p then gives the exact expected
cycles and microseconds of a whole run.

E-PMAC's window is chosen by the slot controller, so its chain also
carries the window, the idle-round count and whether the cycle is a
session's first; see epmac_single_layer_exact.

In a multi-layer tree every coordinator runs one session for its
children, m STAs at depth k. The same chain runs it, priced per hop
(expected_session), and each session's draws are keyed by its
coordinator, so sessions are independent and the expected cycles and
time of a whole formation are sums over its sessions (expected_tree).

Nothing here calls the simulator: windows, prices and probabilities are
written out from the protocol descriptions, so the engine can be checked
against them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from plcmac import NetworkTree, Protocol, RunConfig


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


def _scale_up(factor: float, n: int) -> int:
    """ceil(factor * n), reading factor as the decimal the user wrote."""
    return math.ceil(Fraction(str(factor)) * n)


def _window(protocol: Protocol, ratio: float, pending: int) -> int:
    n_slot = _scale_up(ratio, pending)
    if protocol is Protocol.PMAC and pending >= 2:
        n_slot = max(n_slot, 2)  # two STAs in one slot would collide forever
    return n_slot


def _joins_pmf(protocol: Protocol, pending: int, n_slot: int, cfg: RunConfig) -> np.ndarray:
    pmfs = singleton_pmfs(pending, n_slot)
    if protocol is Protocol.PMAC:
        return pmfs[pending]
    # association: each STA transmits with probability csma_p, and only transmitters contend
    return _binomial_pmf(pending, cfg.csma_p) @ pmfs


def _cycle_price(protocol: Protocol, n_slot: int, joins: np.ndarray, depth: int, cfg: RunConfig) -> np.ndarray:
    t = cfg.timing
    if protocol is Protocol.PMAC:
        # NET preamble, the window, one ACK preamble and three data frames per hop per join
        return t.preamble_slot_us * (1 + n_slot + joins) + t.data_frame_slot_us * 3 * depth * joins
    # the CCO's central beacon or a proxy's beacon, every request slot, one indication per join, and a request and
    # an indication per join for each hop past the first
    beacon = t.central_beacon_slot_us if depth == 1 else t.proxy_beacon_slot_us
    relayed = (depth - 1) * joins
    return beacon + t.assoc_req_slot_us * (n_slot + relayed) + t.assoc_ind_slot_us * (joins + relayed)


def expected_single_layer(protocol: Protocol, n: int, ratio: float, cfg: RunConfig = RunConfig()) -> tuple[float, float]:
    """(E[nc_count], E[elapsed_us]) of one formation over single_layer(n)."""
    return expected_session(protocol, n, 1, ratio, cfg)


def expected_session(
    protocol: Protocol, m: int, depth: int, ratio: float, cfg: RunConfig = RunConfig()
) -> tuple[float, float]:
    """(E[cycles], E[us]) of one coordinator session of m STAs at depth k = depth.

    E-PMAC's and P-MAC's sessions below the first layer also pay 2(k - 1)
    relay data frames, once: the beacon chain down and the report chain up.
    """
    if protocol is Protocol.EPMAC:
        cycles, micros = _epmac_single_layer(m, ratio, cfg, float)
    else:
        cycles, micros = _first_step(protocol, m, depth, ratio, cfg)
    if protocol is not Protocol.IEEE1901:
        micros += cfg.timing.data_frame_slot_us * 2 * (depth - 1)
    return cycles, micros


def _first_step(protocol: Protocol, m: int, depth: int, ratio: float, cfg: RunConfig) -> tuple[float, float]:
    cycles = np.zeros(m + 1)  # by pending count; a drained session costs nothing more
    micros = np.zeros(m + 1)
    for pending in range(1, m + 1):
        n_slot = _window(protocol, ratio, pending)
        pmf = _joins_pmf(protocol, pending, n_slot, cfg)
        joins = np.arange(pending + 1)
        later = pending - joins[1:]  # a cycle with no join repeats from the same count
        leave = 1.0 - pmf[0]
        cycles[pending] = (1.0 + pmf[1:] @ cycles[later]) / leave
        micros[pending] = (pmf @ _cycle_price(protocol, n_slot, joins, depth, cfg) + pmf[1:] @ micros[later]) / leave
    return float(cycles[m]), float(micros[m])


def expected_tree(
    protocol: Protocol, tree: NetworkTree, ratio: float, cfg: RunConfig = RunConfig()
) -> tuple[float, float]:
    """(E[nc_count], E[elapsed_us]) of one formation over tree: the sum over its coordinators' sessions."""
    sessions = [expected_session(protocol, len(kids), tree.depth[coord] + 1, ratio, cfg)
                for coord, kids in tree.children.items()]
    return sum(c for c, _ in sessions), sum(u for _, u in sessions)


@lru_cache(maxsize=None)
def exact_singleton_pmf(m: int, n_slot: int) -> tuple[Fraction, ...]:
    """Entry s: P(exactly s of m uniform draws over n_slot slots are alone), as exact fractions.

    The same DP as singleton_pmfs, over a dict of (empty, singleton) slot
    counts, counting the n_slot**m equally likely draw sequences in integers.
    """
    ways = {(n_slot, 0): 1}
    for _ in range(m):
        nxt: dict[tuple[int, int], int] = {}
        for (empty, single), w in ways.items():
            crowded = n_slot - empty - single
            for key, hits in (((empty - 1, single + 1), empty), ((empty, single - 1), single), ((empty, single), crowded)):
                if hits:
                    nxt[key] = nxt.get(key, 0) + w * hits
        ways = nxt
    counts = [0] * (m + 1)
    for (_, single), w in ways.items():
        counts[single] += w
    return tuple(Fraction(c, n_slot**m) for c in counts)


@lru_cache(maxsize=None)
def _epmac_joins_pmf(pending: int, n_slot: int, number: type) -> tuple:
    if pending == 1:
        return number(0), number(1)  # a lone STA joins without a draw
    return tuple(map(number, exact_singleton_pmf(pending, n_slot)))


def epmac_single_layer_exact(n: int, ratio: float, cfg: RunConfig = RunConfig()) -> tuple[Fraction, Fraction]:
    """Exact (E[nc_count], E[elapsed_us]) of one E-PMAC formation over single_layer(n)."""
    return _epmac_single_layer(n, ratio, cfg, Fraction)


def _epmac_single_layer(n: int, ratio: float, cfg: RunConfig, number: type) -> tuple:
    """(E[nc_count], E[elapsed_us]) of one E-PMAC formation over single_layer(n), in number arithmetic.

    A state is (pending, window, idle rounds, first cycle). A cycle draws
    the joins; a lone pending STA joins without a draw. After a join the
    idle count resets and a thin success ratio (joins / window <= eta_min)
    stretches the window by k1; after an idle cycle the window doubles by
    k2 until more than t_f_max idle cycles have run, and then the session
    restarts at (pending, n0, 0, first cycle). Within one pending level every
    chain of idle cycles ends in that restart, so each state's value is
    affine in the restart state's value: V = const + coef * V(restart),
    solved level by level from the lowest pending count up.
    """
    t = cfg.timing
    n0 = _scale_up(ratio, n)  # the session's first window, fixed for the whole session
    eta_min = Fraction(str(cfg.eta_min))

    def price(n_slot: int, joins: int, first: bool) -> int:
        # a slot-count data frame opens a first cycle, a NET preamble any later one
        data, preambles = (1, n_slot) if first else (0, 1 + n_slot)
        if joins:
            data += -(-joins // cfg.tdf_capacity) + joins + -(-joins // cfg.sdf_capacity)
            preambles += joins  # one ACK each
        return t.data_frame_slot_us * data + t.preamble_slot_us * preambles

    @lru_cache(maxsize=None)
    def affine(pending: int, n_slot: int, idle: int, first: bool) -> tuple:
        """(cycles, us, coef): this state's value is (cycles, us) + coef * the restart state's."""
        pmf = _epmac_joins_pmf(pending, n_slot, number)
        cycles, micros = number(1), number(0)
        for joins in range(1, pending + 1):
            if not pmf[joins]:
                continue
            micros += pmf[joins] * price(n_slot, joins, first)
            if joins < pending:
                thin = Fraction(joins, n_slot) <= eta_min
                later = value(pending - joins, _scale_up(cfg.k1, n_slot) if thin else n_slot, 0, False)
                cycles += pmf[joins] * later[0]
                micros += pmf[joins] * later[1]
        coef = number(0)
        if pmf[0]:
            micros += pmf[0] * price(n_slot, 0, first)
            if idle + 1 <= cfg.t_f_max:
                c, u, k = affine(pending, _scale_up(cfg.k2, n_slot), idle + 1, False)
            else:
                c, u, k = number(0), number(0), number(1)  # forced restart
            cycles += pmf[0] * c
            micros += pmf[0] * u
            coef = pmf[0] * k
        return cycles, micros, coef

    @lru_cache(maxsize=None)
    def restart(pending: int) -> tuple:
        cycles, micros, coef = affine(pending, n0, 0, True)
        return cycles / (1 - coef), micros / (1 - coef)

    @lru_cache(maxsize=None)
    def value(pending: int, n_slot: int, idle: int, first: bool) -> tuple:
        cycles, micros, coef = affine(pending, n_slot, idle, first)
        if not coef:
            return cycles, micros
        back = restart(pending)
        return cycles + coef * back[0], micros + coef * back[1]

    return value(n, n0, 0, True)
