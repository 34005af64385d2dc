"""Shared test helpers."""

import numpy as np
import pytest

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
