"""Outside-in trace of one sweep: wrappers around the functions the engine looks up.

plcmac.engine calls the topology builders, the per-cycle simulators and
the slot controller through its own module globals, and
slot_alloc.next_slot_count calls ceil_scale through slot_alloc's. The
tracer swaps those names for timing wrappers while a pass runs and puts
the originals back afterwards, so no file of the package changes.

Nested calls are charged to their parent as child time, which gives
run_formation's self time: the engine's own work between the wrapped
calls.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, Iterator

import plcmac.engine
import plcmac.slot_alloc

KERNELS = {"simulate_nc_epmac": "epmac", "simulate_nc_pmac": "pmac", "simulate_nc_csma": "ieee1901"}
TREES = ("generate_tree", "single_layer")
CONTROLLER = ("fresh_state", "next_slot_count", "record_pte")
ENGINE_NAMES = (*TREES, "run_formation", *KERNELS, "ceil_scale", *CONTROLLER)
SLOT_ALLOC_NAMES = ("ceil_scale",)


class Tracer:
    """Per wrapped name: calls, inclusive and self nanoseconds; plus outcome counters."""

    def __init__(self) -> None:
        self._acc = {name: [0, 0, 0] for name in ENGINE_NAMES}
        self.formation_ns: list[int] = []
        self.sessions = 0
        self.contenders = 0
        self.joined = 0
        self.slots = 0
        self.forced_restarts = 0
        self._child_ns: list[int] = []

    def calls(self, name: str) -> int:
        return self._acc[name][0]

    def ns(self, name: str) -> int:
        return self._acc[name][1]

    def self_ns(self, name: str) -> int:
        return self._acc[name][2]

    def _formation(self, args: tuple, out, dur: int) -> None:
        self.formation_ns.append(dur)
        self.sessions += len(args[1].children)

    def _kernel(self, args: tuple, out, dur: int) -> None:
        self.contenders += len(args[0].stas)
        self.joined += len(out.joined)
        self.slots += out.slots_used

    def _slot_count(self, args: tuple, out, dur: int) -> None:
        if out == 0:
            self.forced_restarts += 1

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stack = self._child_ns
        acc = self._acc[name]
        clock = perf_counter_ns
        if name == "run_formation":
            hook = self._formation
        elif name in KERNELS:
            hook = self._kernel
        elif name == "next_slot_count":
            hook = self._slot_count
        else:
            hook = None

        def traced(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                acc[0] += 1
                acc[1] += dur
                acc[2] += dur - child
            if hook is not None:
                hook(args, out, dur)
            return out

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Swap the wrappers in for the duration of the block."""
        saved = []
        try:
            for module, names in ((plcmac.engine, ENGINE_NAMES), (plcmac.slot_alloc, SLOT_ALLOC_NAMES)):
                for name in names:
                    original = getattr(module, name)
                    saved.append((module, name, original))
                    setattr(module, name, self._wrap(name, original))
            yield self
        finally:
            for module, name, original in reversed(saved):
                setattr(module, name, original)
