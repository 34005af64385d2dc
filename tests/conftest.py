"""Shared test helpers."""

import numpy as np
import pytest

from plcmac import TimingTable, engine

VERDICTS: list[str] = []


def record_verdict(line: str) -> None:
    """Keep an acceptance verdict for the end-of-run summary."""
    VERDICTS.append(line)


def pytest_terminal_summary(terminalreporter):
    if VERDICTS:
        terminalreporter.section("acceptance verdicts")
        for line in VERDICTS:
            terminalreporter.write_line(line)


class CollisionFreeRng:
    """Stand-in generator: every contender lands in its own slot, every coin wins.

    integers() deals slots round-robin, so m <= n_slot draws are all
    distinct; random() returns zeros, so any transmit probability passes.
    Like numpy, a call without size returns a Python scalar.
    """

    def integers(self, low, high=None, size=None):
        if high is None:
            low, high = 0, low
        count = 1 if size is None else int(size)
        out = (low + np.arange(count)) % high
        return out if size is not None else int(out[0])

    def random(self, size=None):
        return 0.0 if size is None else np.zeros(size)


@pytest.fixture
def collision_free_rng():
    return CollisionFreeRng()


def _collision_free(keys, counts, windows, coins=False):
    ranks = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    slots = ranks % np.repeat(windows, counts)
    return slots, (np.zeros(len(slots)) if coins else None)


@pytest.fixture
def collision_free_draws(monkeypatch):
    """Swap the engine's keyed draws for a stub: rank r takes slot r mod window, and every coin transmits.

    So contenders collide only when they outnumber the window.
    """
    monkeypatch.setattr(engine, "keyed_draws", _collision_free)


@pytest.fixture
def per_kind_timing():
    """Six distinct slot lengths, one power of 1000 per kind, so each kind's count reads off as its own digit group."""
    return TimingTable(
        preamble_slot_us=1,
        data_frame_slot_us=10**3,
        central_beacon_slot_us=10**6,
        proxy_beacon_slot_us=10**9,
        assoc_req_slot_us=10**12,
        assoc_ind_slot_us=10**15,
    )
