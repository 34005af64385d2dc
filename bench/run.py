#!/usr/bin/env python3
"""plcmac benchmark: seeded sweeps through the pipeline a user runs.

    python3 bench/run.py --workload multi-grid --seed 7 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 7 --seconds 20 --trace 1

Run it from the root of a plcmac checkout; it imports the package from
src/ and writes only a temporary directory there.

A run repeats passes until --seconds have elapsed. Pass i sweeps the
workload's plan (all three protocols) with a seed derived from
(--seed, i) through run_experiment at jobs=1, cli.write_csv and
`plcmac summarize`, then checks every row of the CSV (checks.py). Pass 0
is an untimed warm-up; its CSV sha256 is printed for information only,
because planned changes to the random streams will change it.

--trace 0 prints the end-to-end metrics. --trace 1 runs every pass twice,
untraced and traced in alternating order, and prints per-module metrics
taken by wrappers around the functions the engine looks up (tracer.py).
A traced CSV that differs by one byte from its untraced twin fails the
run. Counts (cycles, sessions, ceil_scale calls, forced restarts) cover
the first measured pass only, so they repeat exactly for a given seed.

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are for people.

Rates and per-module times are reference-normalised. On a shared 2-core
box the CPU's speed drifts by up to +-30% within seconds, which swamps
any change worth measuring. Each measured section is bracketed by a
fixed loop of small numpy calls and dict work (reference_seconds) and
its wall time is scaled by REFERENCE_SECONDS over the loop's mean time
around it, so drift cancels. Raw wall rates are printed for
information.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "plcmac" / "__init__.py").is_file():
    sys.exit(f"error: no plcmac package under {SRC}; run from the root of a plcmac checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from plcmac import ExperimentPlan, Protocol, cli, run_experiment  # noqa: E402

from checks import check_csv, check_summary, expected_cells  # noqa: E402
from tracer import CONTROLLER, KERNELS, TREES, Tracer  # noqa: E402

RATIOS = (0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)
MAX_LAYERS = 6
SETUP_PROBES = 9
# The reference loop's time on the development box (2-core x86-64, Python 3.11, numpy 2.4).
REFERENCE_SECONDS = 0.02


@dataclass(frozen=True)
class Workload:
    """A sweep plan over all three protocols; each pass runs it with its own seed."""

    name: str
    multi_layer: bool
    n_values: tuple[int, ...]
    trials: int
    ratio_grid: tuple[float, ...] | None = None
    ratio_random: tuple[float, float] | None = None

    def plan_kwargs(self, seed: int) -> dict:
        return {
            "protocols": [p.value for p in Protocol],
            "n_values": list(self.n_values),
            "ratio_grid": None if self.ratio_grid is None else list(self.ratio_grid),
            "ratio_random": None if self.ratio_random is None else list(self.ratio_random),
            "trials": self.trials,
            "seed": seed,
            "multi_layer": self.multi_layer,
            "max_layers": MAX_LAYERS,
        }


WORKLOADS = {
    w.name: w
    for w in (
        # One session per formation: the star rebuild and per-cycle engine work dominate.
        Workload("single-grid", False, tuple(range(50, 651, 100)), trials=2, ratio_grid=RATIOS),
        # ~170 sessions per formation: kernels, per-session overhead, tree generation, ceil_scale.
        Workload("multi-grid", True, tuple(range(200, 1201, 200)), trials=1, ratio_grid=RATIOS),
        # Every cell draws its own ratio, so nothing cached per ratio value is reused.
        Workload("multi-random", True, tuple(range(200, 1201, 200)), trials=7, ratio_random=(0.5, 2.0)),
    )
}

END_TO_END_UNITS = {"cells_per_s": "1/s", "nc_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "topology.tree_us": "us",
    "topology.busy_share": "frac",
    "mac_protocols.nc_us.epmac": "us",
    "mac_protocols.nc_us.pmac": "us",
    "mac_protocols.nc_us.ieee1901": "us",
    "mac_protocols.cycles": "count",
    "mac_protocols.success_ratio": "frac",
    "mac_protocols.slot_yield": "frac",
    "slot_alloc.ceil_scale_us": "us",
    "slot_alloc.ceil_scale_calls": "count",
    "slot_alloc.controller_us": "us",
    "slot_alloc.forced_restarts": "count",
    "engine.sessions": "count",
    "engine.overhead_us_per_session": "us",
    "engine.formation_ms_p50": "ms",
    "engine.formation_ms_p99": "ms",
    "engine.pool_speedup_jobs2": "x",
    "cli.write_csv_rows_per_s": "1/s",
    "cli.summarize_rows_per_s": "1/s",
    "trace.overhead_frac": "frac",
}

# Runs in a fresh interpreter: import the package and sweep the workload's first cell.
_SETUP_PROBE = """
import json, sys, time
start = time.perf_counter()
import plcmac
kw = json.loads(sys.argv[1])
kw["protocols"] = [plcmac.Protocol(p) for p in kw["protocols"]]
kw = {k: tuple(v) if isinstance(v, list) else v for k, v in kw.items()}
plcmac.run_experiment(plcmac.ExperimentPlan(**kw))
print(time.perf_counter() - start)
"""


def reference_seconds() -> float:
    """Time a fixed loop shaped like the simulator's inner loop: tiny numpy calls and dicts."""
    rng = np.random.default_rng(12345)
    acc = 0
    start = perf_counter()
    for i in range(2000):
        slots = rng.integers(0, 8, size=6)
        acc += int((np.bincount(slots, minlength=8)[slots] == 1).sum())
        table = {j: i * j for j in range(12)}
        acc += sum(table.values()) & 1
    return perf_counter() - start


class RefClock:
    """Rescales wall time by the reference loop measured before and after each section."""

    def __init__(self) -> None:
        reference_seconds()  # warm-up
        self.last = reference_seconds()

    def scale(self) -> float:
        """Factor for the section since the previous call: wall seconds -> reference seconds."""
        now = reference_seconds()
        factor = 2 * REFERENCE_SECONDS / (self.last + now)
        self.last = now
        return factor


def pass_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


def make_plan(workload: Workload, seed: int, index: int) -> ExperimentPlan:
    kw = workload.plan_kwargs(pass_seed(seed, index))
    kw["protocols"] = [Protocol(p) for p in kw["protocols"]]
    return ExperimentPlan(**{k: tuple(v) if isinstance(v, list) else v for k, v in kw.items()})


@dataclass
class PassResult:
    cells: int
    failed: int
    problems: list[str]
    csv_text: str = ""
    nc: int = 0
    run_s: float = 0.0
    write_s: float = 0.0
    summarize_s: float = 0.0

    @property
    def total_s(self) -> float:
        return self.run_s + self.write_s + self.summarize_s


def run_pass(plan: ExperimentPlan, workdir: Path, jobs: int = 1) -> PassResult:
    """One pass of the user pipeline, timed per stage, then checked."""
    cells = expected_cells(plan)
    csv_path = workdir / "sweep.csv"
    summary_path = workdir / "summary.csv"
    argv = ["summarize", str(csv_path), "--out", str(summary_path)]
    if plan.ratio_random is not None:
        argv.append("--pool-ratios")
    t0 = perf_counter()
    try:
        rows = run_experiment(plan, jobs=jobs)
    except Exception as exc:  # a raising sweep fails all its cells; the run goes on
        return PassResult(cells, cells, [f"run_experiment raised {exc!r}"])
    t1 = perf_counter()
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        cli.write_csv(rows, fh)
    t2 = perf_counter()
    status = cli.main(argv)
    t3 = perf_counter()
    text = csv_path.read_text(encoding="utf-8")
    failed, problems = check_csv(plan, text)
    if status != 0:
        summary_problems = [f"summarize exited with {status}"]
    else:
        summary_problems = check_summary(plan, len(rows), summary_path.read_text(encoding="utf-8"))
    if summary_problems:
        failed = cells  # a wrong summary spoils the whole pass
        problems += summary_problems
    nc = sum(r.nc_count for r in rows)
    return PassResult(cells, failed, problems, text, nc, t1 - t0, t2 - t1, t3 - t2)


@dataclass
class Run:
    """What one run found: pass outcomes, metric values and lines for people."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    info: list[str] = field(default_factory=list)

    def count(self, result: PassResult) -> None:
        self.attempted += result.cells
        self.failed += result.failed
        self.problems += result.problems


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def setup_probe_kwargs(workload: Workload, seed: int) -> dict:
    """The plan of the workload's first cell, for a setup probe."""
    kw = workload.plan_kwargs(pass_seed(seed, 0))
    kw.update(
        n_values=kw["n_values"][:1],
        ratio_grid=None if kw["ratio_grid"] is None else kw["ratio_grid"][:1],
        protocols=kw["protocols"][:1],
        trials=1,
    )
    return kw


def setup_probe(kw: dict) -> float:
    """Wall seconds a fresh interpreter takes to import plcmac and sweep one cell."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, json.dumps(kw)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.split()[-1])


def measure(workload: Workload, seed: int, seconds: float, workdir: Path, probes: int = SETUP_PROBES) -> Run:
    """End-to-end metrics with tracing off.

    Rates are total cells (or cycles) over total reference seconds, which
    averages out how much work each pass's random trees happen to need.
    The setup probes are spread over the measured window, between passes
    and outside their timing. Import time tracks the reference loop only
    loosely, so a single probe's factor is rough; spreading the probes
    and taking their median averages that out, while the rescaling still
    cancels the slow regimes in which the whole box runs at half speed.
    """
    run = Run()
    clock = RefClock()
    warm = run_pass(make_plan(workload, seed, 0), workdir)
    run.count(warm)
    run.info.append(f"csv_sha256 {hashlib.sha256(warm.csv_text.encode()).hexdigest()} (pass 0, information only)")
    probe_kw = setup_probe_kwargs(workload, seed)
    setup: list[float] = []
    cells = nc = 0
    ref_s = wall_s = 0.0
    clock.scale()
    start = perf_counter()
    index = 1
    while (elapsed := perf_counter() - start) < seconds:
        if len(setup) < probes * elapsed / seconds:
            setup.append(setup_probe(probe_kw) * clock.scale())
        result = run_pass(make_plan(workload, seed, index), workdir)
        factor = clock.scale()
        run.count(result)
        cells += result.cells - result.failed
        nc += result.nc
        ref_s += result.total_s * factor
        wall_s += result.total_s
        index += 1
    while len(setup) < probes:
        setup.append(setup_probe(probe_kw) * clock.scale())
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    run.metrics = {
        "cells_per_s": _per(cells, ref_s),
        "nc_per_s": _per(nc, ref_s),
        "peak_rss_mb": (self_kb + child_kb) / 1024,
        "setup_s": statistics.median(setup),
    }
    run.info.append(f"passes {index - 1}, raw wall cells/s {_per(cells, wall_s):.1f}")
    return run


def measure_traced(workload: Workload, seed: int, seconds: float, workdir: Path) -> Run:
    """Per-module metrics: every pass untraced and traced, in alternating order."""
    run = Run()
    clock = RefClock()
    warm = run_pass(make_plan(workload, seed, 0), workdir)
    run.count(warm)
    run.info.append(f"csv_sha256 {hashlib.sha256(warm.csv_text.encode()).hexdigest()} (pass 0, information only)")

    clock.scale()
    serial = run_pass(make_plan(workload, seed, 0), workdir)
    serial_f = clock.scale()
    pooled = run_pass(make_plan(workload, seed, 0), workdir, jobs=2)
    pooled_f = clock.scale()
    for result in (serial, pooled):
        run.count(result)
        if result.csv_text != warm.csv_text:
            run.failed += result.cells
            run.problems.append("a repeated pass 0 gave a different CSV")
    speedup = _per(serial.total_s * serial_f, pooled.total_s * pooled_f)

    untraced: list[tuple[PassResult, float]] = []
    traced: list[tuple[PassResult, float, Tracer]] = []
    deadline = perf_counter() + seconds
    index = 1
    while perf_counter() < deadline:
        plan = make_plan(workload, seed, index)
        tracer = Tracer()
        for traced_turn in ((False, True) if index % 2 else (True, False)):
            if traced_turn:
                with tracer.installed():
                    result = run_pass(plan, workdir)
            else:
                result = run_pass(plan, workdir)
            factor = clock.scale()
            run.count(result)
            if traced_turn:
                traced.append((result, factor, tracer))
            else:
                untraced.append((result, factor))
        if traced[-1][0].csv_text != untraced[-1][0].csv_text:
            run.failed += traced[-1][0].cells
            run.problems.append(f"pass {index}: the traced CSV differs from the untraced one")
        index += 1

    def scaled_ns(names, kind=Tracer.ns) -> float:
        return sum(kind(t, name) * f for _, f, t in traced for name in names)

    def calls(names) -> int:
        return sum(t.calls(name) for _, _, t in traced for name in names)

    first = traced[0][2]
    formation_ms = [ns * f / 1e6 for _, f, t in traced for ns in t.formation_ns]
    passes = [*untraced, *((r, f) for r, f, _ in traced)]
    rows = sum(r.cells for r, _ in passes)
    traced_s = sum(r.total_s * f for r, f, _ in traced)
    untraced_s = sum(r.total_s * f for r, f in untraced)
    metrics = {
        "topology.tree_us": _per(scaled_ns(TREES), calls(TREES)) / 1e3,
        "topology.busy_share": _per(scaled_ns(TREES) / 1e9, traced_s),
    }
    for name, protocol in KERNELS.items():
        metrics[f"mac_protocols.nc_us.{protocol}"] = _per(scaled_ns([name]), calls([name])) / 1e3
    metrics.update({
        "mac_protocols.cycles": sum(first.calls(name) for name in KERNELS),
        "mac_protocols.success_ratio": _per(sum(t.joined for *_, t in traced), sum(t.contenders for *_, t in traced)),
        "mac_protocols.slot_yield": _per(sum(t.joined for *_, t in traced), sum(t.slots for *_, t in traced)),
        "slot_alloc.ceil_scale_us": _per(scaled_ns(["ceil_scale"]), calls(["ceil_scale"])) / 1e3,
        "slot_alloc.ceil_scale_calls": first.calls("ceil_scale"),
        "slot_alloc.controller_us": _per(scaled_ns(CONTROLLER), calls(CONTROLLER)) / 1e3,
        "slot_alloc.forced_restarts": first.forced_restarts,
        "engine.sessions": first.sessions,
        "engine.overhead_us_per_session": _per(
            scaled_ns(["run_formation"], Tracer.self_ns), sum(t.sessions for *_, t in traced)
        ) / 1e3,
        "engine.formation_ms_p50": float(np.percentile(formation_ms, 50)) if formation_ms else 0.0,
        "engine.formation_ms_p99": float(np.percentile(formation_ms, 99)) if formation_ms else 0.0,
        "engine.pool_speedup_jobs2": speedup,
        "cli.write_csv_rows_per_s": _per(rows, sum(r.write_s * f for r, f in passes)),
        "cli.summarize_rows_per_s": _per(rows, sum(r.summarize_s * f for r, f in passes)),
        "trace.overhead_frac": _per(traced_s, untraced_s) - 1.0,
    })
    run.metrics = metrics
    run.info.append(f"traced passes {len(traced)}, formations traced {len(formation_ms)}")
    return run


def report(workload: Workload, seed: int, run: Run, units: dict[str, str]) -> dict:
    """Print the lines for people and return the result object."""
    print(f"workload {workload.name} seed {seed}: {workload}")
    for line in run.info:
        print(f"  {line}")
    print(f"  failed_frac {_per(run.failed, run.attempted)} ({run.failed} of {run.attempted} cells)")
    for problem in run.problems[:10]:
        print(f"  problem: {problem}")
    for name, value in run.metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    return {
        "correct": run.failed == 0 and not run.problems and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in run.metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmp:
        for name in names:
            workload = WORKLOADS[name]
            if args.trace:
                run = measure_traced(workload, args.seed, args.seconds, Path(tmp))
                result = report(workload, args.seed, run, PER_LAYER_UNITS)
            else:
                run = measure(workload, args.seed, args.seconds, Path(tmp))
                result = report(workload, args.seed, run, END_TO_END_UNITS)
            print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
