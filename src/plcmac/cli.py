"""Command-line front end: sweeps to CSV, closed-form tables, timing checks, summaries."""

from __future__ import annotations

import argparse
import csv
import functools
import math
import operator
import sys
from typing import IO, Sequence

from .complexity import (
    TreeShape,
    delta_sta_approx,
    delta_sta_exact,
    epmac_total_frames,
    epmac_total_frames_closed,
    pmac_total_frames,
    pmac_total_frames_closed,
)
from .core import Protocol, TimingTable
from .engine import (
    CSV_HEADER,
    ExperimentPlan,
    NonTermination,
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
from .slot_alloc import AllocParams


class UsageError(ValueError):
    """Bad flag combination or config content; maps to exit code 2."""


_PROTOCOL_CHOICES = [p.value for p in Protocol]
_DEFAULT_RATIOS = [0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]


_row_values = operator.attrgetter(*CSV_HEADER)


def write_csv(rows: Sequence[ResultRow], fh: IO[str]) -> None:
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(CSV_HEADER)
    w.writerows(map(_row_values, rows))


def _split_tokens(raw: str) -> list[str]:
    return raw.replace(",", " ").split()


_CONFIG_CASTS = {
    "protocols": _split_tokens,
    "n": lambda v: [int(x) for x in _split_tokens(v)],
    "n_range": lambda v: [int(x) for x in _split_tokens(v)],
    "ratios": lambda v: [float(x) for x in _split_tokens(v)],
    "ratio_random": lambda v: [float(x) for x in _split_tokens(v)],
    "trials": int,
    "seed": int,
    "jobs": int,
    "max_layers": int,
    "tfmax": int,
    "max_nc": int,
    "eta_min": float,
    "k1": float,
    "k2": float,
    "csma_p": float,
    "out": str,
}


def _load_config(path: str) -> dict:
    """Flat key=value file; keys are flag names with - or _ separators."""
    values: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, raw = line.partition("=")
                dest = key.strip().replace("-", "_")
                if dest not in _CONFIG_CASTS:
                    raise UsageError(f"{path}:{lineno}: unknown key {key.strip()!r}")
                try:
                    values[dest] = _CONFIG_CASTS[dest](raw.strip())
                except ValueError as exc:
                    raise UsageError(f"{path}:{lineno}: bad value for {key.strip()!r}: {exc}") from exc
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    return values


def _add_sweep_args(p: argparse.ArgumentParser, multi: bool) -> None:
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
    p.add_argument("--trials", type=int, default=None, help="trials per cell (default: 100)")
    p.add_argument("--seed", type=int, default=None, help="master seed (default: 1)")
    p.add_argument("--jobs", type=int, default=None, help="worker processes (default: 1)")
    p.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    if multi:
        p.add_argument("--max-layers", type=int, default=None, help="depth cap (default: 6)")
    p.add_argument("--eta-min", type=float, default=None, help="controller thin-ratio threshold (default: 0.35)")
    p.add_argument("--tfmax", type=int, default=None, help="controller idle-round budget (default: 3)")
    p.add_argument("--k1", type=float, default=None, help="controller stretch factor (default: 1.3)")
    p.add_argument("--k2", type=float, default=None, help="controller collision factor (default: 2.0)")
    p.add_argument("--csma-p", type=float, default=None, help="association transmit probability (default: 0.75)")
    p.add_argument("--max-nc", type=int, default=None, help="cycle budget per run (default: 100000)")
    p.add_argument("--config", default=None, help="key=value file supplying flag defaults; flags win")


def _eff(args: argparse.Namespace, cfgmap: dict, dest: str, builtin):
    value = getattr(args, dest, None)
    if value is not None:
        return value
    if dest in cfgmap:
        return cfgmap[dest]
    return builtin


def _given(args: argparse.Namespace, cfgmap: dict, **dests: str) -> dict:
    """Keyword -> value for each dest set by a flag or the config file; the rest keep the callee's default."""
    values = {name: _eff(args, cfgmap, dest, None) for name, dest in dests.items()}
    return {name: value for name, value in values.items() if value is not None}


def _resolve_sizes(args, cfgmap, default_range: tuple[int, int, int]) -> tuple[int, ...]:
    explicit = getattr(args, "n", None)
    ranged = getattr(args, "n_range", None)
    if explicit is None and ranged is None:
        explicit = cfgmap.get("n")
        ranged = cfgmap.get("n_range") if explicit is None else None
    if explicit is not None:
        return tuple(explicit)
    if ranged is not None:
        lo, hi, step = ranged
        if step < 1 or hi < lo:
            raise UsageError("--n-range needs LO <= HI and STEP >= 1")
        return tuple(range(lo, hi + 1, step))
    lo, hi, step = default_range
    return tuple(range(lo, hi + 1, step))


def _resolve_ratios(args, cfgmap) -> tuple[tuple[float, ...] | None, tuple[float, float] | None]:
    grid = args.ratios
    rand = args.ratio_random
    if grid is None and rand is None:
        grid = cfgmap.get("ratios")
        rand = cfgmap.get("ratio_random") if grid is None else None
    if rand is not None:
        return None, (float(rand[0]), float(rand[1]))
    if grid is not None:
        return tuple(float(x) for x in grid), None
    return tuple(_DEFAULT_RATIOS), None


def _cmd_sweep(args: argparse.Namespace, multi: bool) -> int:
    cfgmap = _load_config(args.config) if args.config else {}
    names = _eff(args, cfgmap, "protocols", _PROTOCOL_CHOICES)
    default_range = (200, 1200, 200) if multi else (50, 650, 100)
    n_values = _resolve_sizes(args, cfgmap, default_range)
    grid, rand = _resolve_ratios(args, cfgmap)
    alloc = AllocParams(**_given(args, cfgmap, t_f_max="tfmax", eta_min="eta_min", k1="k1", k2="k2"))
    plan = ExperimentPlan(
        protocols=tuple(dict.fromkeys(map(Protocol, names))),
        n_values=n_values,
        ratio_grid=grid,
        ratio_random=rand,
        multi_layer=multi,
        alloc=alloc,
        **_given(args, cfgmap, trials="trials", seed="seed", max_layers="max_layers", csma_p="csma_p", max_nc="max_nc"),
    )
    rows = run_experiment(plan, **_given(args, cfgmap, jobs="jobs"))
    out = _eff(args, cfgmap, "out", "-")
    if out == "-":
        write_csv(rows, sys.stdout)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            write_csv(rows, fh)
    return 0


def _cmd_complexity(args: argparse.Namespace) -> int:
    w = csv.writer(sys.stdout, lineterminator="\n")
    w.writerow(["m", "k", "pmac_frames", "epmac_frames", "delta_exact", "delta_approx"])
    for m in args.m:
        for k in args.k:
            shape = TreeShape(m, k)
            pmac = pmac_total_frames(shape)
            epmac = epmac_total_frames(shape)
            if pmac_total_frames_closed(shape) != pmac or epmac_total_frames_closed(shape) != epmac:
                print(f"closed form disagrees with recurrence at m={m} k={k}", file=sys.stderr)
                return 3
            w.writerow([m, k, pmac, epmac, f"{float(delta_sta_exact(shape)):.6f}", delta_sta_approx(shape)])
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


_INT_FIELDS = operator.itemgetter("n_node", "elapsed_us", "trial", "nc_count", "data_frames", "preambles", "layers")


def _read_rows(path: str) -> list[dict]:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or tuple(reader.fieldnames) != CSV_HEADER:
                raise UsageError(f"{path}: header does not match {','.join(CSV_HEADER)}")
            rows = []
            for raw in reader:
                # DictReader fills a short row with None and files a long row's extras under None
                if len(raw) != len(CSV_HEADER) or None in raw.values():
                    raise UsageError(f"{path}: line {reader.line_num} does not have {len(CSV_HEADER)} fields")
                try:
                    # every integer column must parse, though only n_node and elapsed_us are kept
                    n_node, elapsed_us, *_ = map(int, _INT_FIELDS(raw))
                    ratio = float(raw["ratio"])
                except ValueError as exc:
                    raise UsageError(f"{path}: line {reader.line_num}: {exc}") from exc
                if not math.isfinite(ratio):
                    raise UsageError(f"{path}: line {reader.line_num}: ratio {raw['ratio']!r} is not finite")
                rows.append({"protocol": raw["protocol"], "n_node": n_node, "ratio": ratio, "elapsed_us": elapsed_us})
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise UsageError(f"{path}: no data rows")
    return rows


def _cmd_summarize(args: argparse.Namespace) -> int:
    if args.best_ratio and args.pool_ratios:
        raise UsageError("--best-ratio and --pool-ratios are mutually exclusive")
    rows = _read_rows(args.results)
    groups: dict[tuple, list[int]] = {}
    for row in rows:
        if args.pool_ratios:
            key = (row["protocol"], row["n_node"], None)
        else:
            key = (row["protocol"], row["n_node"], row["ratio"])
        groups.setdefault(key, []).append(row["elapsed_us"])

    all_stats = summarize_groups(list(groups.values()))
    if args.best_ratio:
        per_cell: dict[tuple, tuple] = {}
        for key, stats in zip(groups, all_stats):
            cell = key[:2]
            if cell not in per_cell or stats.mean < per_cell[cell][1].mean:
                per_cell[cell] = (key, stats)
            elif stats.mean == per_cell[cell][1].mean and key[2] < per_cell[cell][0][2]:
                per_cell[cell] = (key, stats)
        chosen = [per_cell[cell] for cell in sorted(per_cell)]
    else:
        chosen = list(zip(groups, all_stats))
        chosen.sort(key=lambda item: (item[0][0], item[0][1], item[0][2] if item[0][2] is not None else -1.0))

    out_fh = sys.stdout if args.out is None else open(args.out, "w", encoding="utf-8", newline="")
    try:
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
    finally:
        if out_fh is not sys.stdout:
            out_fh.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plcmac",
        description="Network-formation time simulator for preamble-based PLC MAC mechanisms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_single = sub.add_parser("sweep-single", help="single-layer formation sweep to CSV")
    _add_sweep_args(p_single, multi=False)
    p_single.set_defaults(func=lambda a: _cmd_sweep(a, multi=False))

    p_multi = sub.add_parser("sweep-multi", help="multi-layer formation sweep to CSV")
    _add_sweep_args(p_multi, multi=True)
    p_multi.set_defaults(func=lambda a: _cmd_sweep(a, multi=True))

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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonTermination as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
