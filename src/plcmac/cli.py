"""Command-line front end: sweeps to CSV, closed-form tables, timing checks, summaries."""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import itertools
import math
import operator
import os
import sys
from typing import IO, ContextManager, Sequence

from .complexity import (
    TreeShape,
    delta_sta_approx,
    delta_sta_exact,
    epmac_total_frames,
    epmac_total_frames_closed,
    pmac_total_frames,
    pmac_total_frames_closed,
)
from .core import Protocol, RunConfig, TimingTable
from .engine import (
    CSV_HEADER,
    GROUP_STAS,
    ExperimentPlan,
    ResultRow,
    run_experiment,
    summarize_groups,
)
from .phy_timing import (
    FdplcPhyParams,
    Ieee1901PhyParams,
    NOMINAL_IEEE1901_BEACON_US,
    NOMINAL_IEEE1901_MME_US,
    fdplc_data_frame_time,
    fdplc_preamble_time,
    ieee1901_frame_time,
)


class UsageError(ValueError):
    """Bad flag combination or config content; maps to exit code 2."""


_PROTOCOL_CHOICES = [p.value for p in Protocol]
_DEFAULT_RATIOS = [0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]


_row_values = operator.attrgetter(*CSV_HEADER)


def write_csv(rows: Sequence[ResultRow], fh: IO[str]) -> None:
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(CSV_HEADER)
    w.writerows(map(_row_values, rows))


def _load_config(path: str) -> dict:
    """Flat key=value file; keys are sweep flag names with - or _ separators, values parse as the flag's do."""
    # the multi-layer flag set, so a single-layer config may carry max_layers too (validated, unused)
    parser = argparse.ArgumentParser(add_help=False, allow_abbrev=False, exit_on_error=False)
    _add_sweep_args(parser, multi=True)
    values: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, raw = (part.strip() for part in line.partition("="))
                tokens = ["--" + key.replace("_", "-"), *raw.replace(",", " ").split()]
                try:
                    parsed, extra = parser.parse_known_args(tokens)
                except argparse.ArgumentError as exc:
                    raise UsageError(f"{path}:{lineno}: {exc}") from exc
                given = {dest: value for dest, value in vars(parsed).items() if value is not None}
                if not given:
                    raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
                if extra or len(given) > 1:
                    raise UsageError(f"{path}:{lineno}: bad value for {key!r}: {raw!r}")
                values.update(given)
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    return values


def _add_sweep_args(p: argparse.ArgumentParser, multi: bool) -> argparse.ArgumentParser:
    p.add_argument("--protocols", nargs="+", choices=_PROTOCOL_CHOICES, default=None,
                   help="protocols to sweep (default: all three)")
    ng = p.add_mutually_exclusive_group()
    ng.add_argument("--n", nargs="+", type=int, default=None, help="explicit network sizes")
    ng.add_argument("--n-range", nargs=3, type=int, metavar=("LO", "HI", "STEP"), default=None,
                    help="inclusive size range")
    rg = p.add_mutually_exclusive_group()
    rg.add_argument("--ratios", nargs="+", type=float, default=None,
                    help="slot-ratio grid (default: 0.5..2.0 step 0.25)")
    rg.add_argument("--ratio-random", nargs=2, type=float, metavar=("LO", "HI"), default=None,
                    help="draw the ratio uniformly per trial instead of a grid")
    p.add_argument("--trials", type=int, default=None, help=f"trials per cell (default: {ExperimentPlan.trials})")
    p.add_argument("--seed", type=int, default=None, help=f"master seed (default: {ExperimentPlan.seed})")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: 1); workers split the sweep by groups of (n, trial) pairs, "
                        f"so a sweep whose pairs hold at most {GROUP_STAS} STAs over its ratio cells is one "
                        "group and runs in one process")
    p.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    if multi:
        p.add_argument("--max-layers", type=int, default=None,
                       help=f"depth cap (default: {ExperimentPlan.max_layers})")
    p.add_argument("--eta-min", type=float, default=None,
                   help=f"controller thin-ratio threshold (default: {RunConfig.eta_min})")
    p.add_argument("--tfmax", type=int, default=None,
                   help=f"controller idle-round budget (default: {RunConfig.t_f_max})")
    p.add_argument("--k1", type=float, default=None, help=f"controller stretch factor (default: {RunConfig.k1})")
    p.add_argument("--k2", type=float, default=None, help=f"controller collision factor (default: {RunConfig.k2})")
    p.add_argument("--csma-p", type=float, default=None,
                   help=f"association transmit probability (default: {RunConfig.csma_p})")
    p.add_argument("--max-nc", type=int, default=None, help=f"cycle budget per run (default: {RunConfig.max_nc})")
    return p


def _apply_config(args: argparse.Namespace) -> None:
    """Give each dest that no flag set its config value; a flag of an exclusive pair overrides both of its keys."""
    values = _load_config(args.config)
    for first, second in (("n", "n_range"), ("ratios", "ratio_random")):
        if getattr(args, first) is not None or getattr(args, second) is not None:
            values.pop(first, None)
            values.pop(second, None)
        elif first in values:
            values.pop(second, None)
    for dest, value in values.items():
        if getattr(args, dest, None) is None:
            setattr(args, dest, value)


def _given(args: argparse.Namespace, **dests: str) -> dict:
    """Keyword -> value for each dest set by a flag or the config file; the rest keep the callee's default."""
    values = {name: getattr(args, dest, None) for name, dest in dests.items()}
    return {name: value for name, value in values.items() if value is not None}


def _resolve_sizes(args: argparse.Namespace, default_range: tuple[int, int, int]) -> tuple[int, ...]:
    if args.n is not None:
        return tuple(args.n)
    lo, hi, step = args.n_range or default_range
    if step < 1 or hi < lo:
        raise UsageError("--n-range needs LO <= HI and STEP >= 1")
    return tuple(range(lo, hi + 1, step))


def _resolve_ratios(args: argparse.Namespace) -> tuple[tuple[float, ...] | None, tuple[float, float] | None]:
    if args.ratio_random is not None:
        return None, tuple(args.ratio_random)
    return tuple(args.ratios or _DEFAULT_RATIOS), None


_STDOUT = (None, "-")  # --out values that mean stdout


def _open_out(path: str | None) -> ContextManager[IO[str]]:
    """The output file, or stdout for None or "-"; an unwritable path is a usage error."""
    if path in _STDOUT:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _cmd_sweep(args: argparse.Namespace, multi: bool) -> int:
    if args.config:
        _apply_config(args)
    default_range = (200, 1200, 200) if multi else (50, 650, 100)
    n_values = _resolve_sizes(args, default_range)
    grid, rand = _resolve_ratios(args)
    plan = ExperimentPlan(
        protocols=tuple(dict.fromkeys(map(Protocol, args.protocols or _PROTOCOL_CHOICES))),
        n_values=n_values,
        ratio_grid=grid,
        ratio_random=rand,
        multi_layer=multi,
        **_given(args, trials="trials", seed="seed", max_layers="max_layers", t_f_max="tfmax", eta_min="eta_min",
                 k1="k1", k2="k2", csma_p="csma_p", max_nc="max_nc"),
    )
    if args.jobs is not None and args.jobs < 1:
        raise UsageError("jobs must be at least 1")
    out = args.out
    if out not in _STDOUT:  # fail before any cell runs; the file is opened, and so truncated, only once there are rows
        where = out if os.path.exists(out) else os.path.dirname(out) or "."
        if os.path.isdir(out) or not os.access(where, os.W_OK):
            raise UsageError(f"cannot write {out}: not a writable file in an existing directory")
    try:
        rows = run_experiment(plan, **_given(args, jobs="jobs"))
    except Exception as exc:  # validation is done: whatever the simulation raises is a simulation failure
        cell = f" [cell {exc.cell}]" if hasattr(exc, "cell") else ""
        print(f"simulation error: {type(exc).__name__}: {exc}{cell}", file=sys.stderr)
        return 3
    with _open_out(out) as fh:
        write_csv(rows, fh)
    return 0


def _cmd_complexity(args: argparse.Namespace) -> int:
    shapes = [TreeShape(m, k) for m in args.m for k in args.k]  # a bad shape fails before any output
    w = csv.writer(sys.stdout, lineterminator="\n")
    w.writerow(["m", "k", "pmac_frames", "epmac_frames", "delta_exact", "delta_approx"])
    for shape in shapes:
        pmac = pmac_total_frames(shape)
        epmac = epmac_total_frames(shape)
        if pmac_total_frames_closed(shape) != pmac or epmac_total_frames_closed(shape) != epmac:
            print(f"closed form disagrees with recurrence at m={shape.m} k={shape.k}", file=sys.stderr)
            return 3
        w.writerow([shape.m, shape.k, pmac, epmac, f"{float(delta_sta_exact(shape)):.6f}", delta_sta_approx(shape)])
    return 0


def _cmd_timing(_args: argparse.Namespace) -> int:
    base = Ieee1901PhyParams()
    double = Ieee1901PhyParams(n_b=2 * base.n_b)
    t1 = ieee1901_frame_time(base)
    t2 = ieee1901_frame_time(double)
    fd = FdplcPhyParams()
    print(f"broadband frame air time ({base.n_b} bits, {base.n_c}/symbol): {t1:.2f} us "
          f"(nominal plan value {NOMINAL_IEEE1901_BEACON_US} us)")
    print(f"broadband frame air time ({double.n_b} bits, {double.n_c}/symbol): {t2:.2f} us "
          f"(nominal plan value {NOMINAL_IEEE1901_MME_US} us)")
    print("note: symbol arithmetic exceeds the nominal plan values above; "
          "the slot schedule below is what the simulator charges")
    print(f"fdplc data frame, fractional symbols: {fdplc_data_frame_time(fd):.2f} us")
    print(f"fdplc data frame, whole symbols: {fdplc_data_frame_time(fd, integer_symbols=True):.2f} us")
    print(f"fdplc preamble: {fdplc_preamble_time(fd):.2f} us")
    print("slot schedule (us): " + " ".join(f"{k}={v}" for k, v in TimingTable().to_dict().items()))
    return 0


# every integer column must parse, though only n_node and elapsed_us are kept
_INT_FIELDS = operator.itemgetter(*map(CSV_HEADER.index, (
    "n_node", "elapsed_us", "trial", "nc_count", "data_frames", "preambles", "layers")))
_PROTOCOL, _RATIO = CSV_HEADER.index("protocol"), CSV_HEADER.index("ratio")


def _read_rows(path: str) -> list[tuple[str, int, float, int]]:
    """(protocol, n_node, ratio, elapsed_us) of every data row of a sweep CSV; blank lines are skipped."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            if tuple(next(reader, ())) != CSV_HEADER:
                raise UsageError(f"{path}: header does not match {','.join(CSV_HEADER)}")
            rows = []
            for raw in reader:
                if not raw:
                    continue
                if len(raw) != len(CSV_HEADER):
                    raise UsageError(f"{path}: line {reader.line_num} does not have {len(CSV_HEADER)} fields")
                try:
                    n_node, elapsed_us, *_ = map(int, _INT_FIELDS(raw))
                    ratio = float(raw[_RATIO])
                except ValueError as exc:
                    raise UsageError(f"{path}: line {reader.line_num}: {exc}") from exc
                if not math.isfinite(ratio):
                    raise UsageError(f"{path}: line {reader.line_num}: ratio {raw[_RATIO]!r} is not finite")
                rows.append((raw[_PROTOCOL], n_node, ratio, elapsed_us))
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise UsageError(f"{path}: no data rows")
    return rows


def _cmd_summarize(args: argparse.Namespace) -> int:
    if args.best_ratio and args.pool_ratios:
        raise UsageError("--best-ratio and --pool-ratios are mutually exclusive")
    groups: dict[tuple, list[int]] = {}
    for protocol, n_node, ratio, elapsed_us in _read_rows(args.results):
        groups.setdefault((protocol, n_node, None if args.pool_ratios else ratio), []).append(elapsed_us)

    # keys are unique, and no two pooled keys share (protocol, n), so their None ratios are never compared
    chosen = sorted(zip(groups, summarize_groups(list(groups.values()))), key=operator.itemgetter(0))
    if args.best_ratio:
        chosen = [min(cell, key=lambda item: (item[1].mean, item[0][2]))
                  for _, cell in itertools.groupby(chosen, key=lambda item: item[0][:2])]

    with _open_out(args.out) as out_fh:
        w = csv.writer(out_fh, lineterminator="\n")
        w.writerow(["protocol", "n_node", "ratio", "samples", "mean_us", "min_us", "q1_us", "median_us", "q3_us", "max_us"])
        for (protocol, n_node, ratio), s in chosen:
            w.writerow(
                [
                    protocol,
                    n_node,
                    "all" if ratio is None else ratio,
                    s.n,
                    f"{s.mean:.2f}",
                    f"{s.min:.0f}",
                    f"{s.q1:.2f}",
                    f"{s.median:.2f}",
                    f"{s.q3:.2f}",
                    f"{s.max:.0f}",
                ]
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plcmac",
        description="Network-formation time simulator for preamble-based PLC MAC mechanisms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for layers, multi in (("single", False), ("multi", True)):
        p_sweep = _add_sweep_args(sub.add_parser(f"sweep-{layers}", help=f"{layers}-layer formation sweep to CSV"), multi)
        p_sweep.add_argument("--config", default=None, help="key=value file supplying flag defaults; flags win")
        p_sweep.set_defaults(func=functools.partial(_cmd_sweep, multi=multi))

    p_cx = sub.add_parser("complexity", help="closed-form frame counts over an (m, k) grid")
    p_cx.add_argument("--m", nargs="+", type=int, default=list(range(2, 11)))
    p_cx.add_argument("--k", nargs="+", type=int, default=list(range(1, 7)))
    p_cx.set_defaults(func=_cmd_complexity)

    p_t = sub.add_parser("timing", help="frame air times versus the slot schedule")
    p_t.set_defaults(func=_cmd_timing)

    p_s = sub.add_parser("summarize", help="summary statistics over a sweep CSV")
    p_s.add_argument("results", help="CSV produced by sweep-single or sweep-multi")
    p_s.add_argument("--best-ratio", action="store_true",
                     help="per protocol and size, report only the ratio with the lowest mean")
    p_s.add_argument("--pool-ratios", action="store_true",
                     help="pool all ratios per protocol and size")
    p_s.add_argument("--out", default=None, help="write the summary CSV here instead of stdout")
    p_s.set_defaults(func=_cmd_summarize)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """One parser per process: each build leaves objects in reference cycles."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
