"""Output checks for one sweep pass that hold under any random stream.

They rest on the slot schedule and the plan, never on frozen numbers, so
a change that consumes randomness differently still passes them.
"""

from __future__ import annotations

import csv
import io

from plcmac import CSV_HEADER, ExperimentPlan


def expected_cells(plan: ExperimentPlan) -> int:
    ratio_cells = len(plan.ratio_grid) if plan.ratio_grid is not None else 1
    return len(plan.protocols) * len(plan.n_values) * ratio_cells * plan.trials


def _row_problem(plan: ExperimentPlan, row: dict[str, str]) -> str | None:
    """Why this row is wrong, or None when it passes every check."""
    t = plan.timing
    protocol = row["protocol"]
    n = int(row["n_node"])
    elapsed = int(row["elapsed_us"])
    nc = int(row["nc_count"])
    data = int(row["data_frames"])
    preambles = int(row["preambles"])
    layers = int(row["layers"])
    if nc < 1 or elapsed < 1:
        return "a formation takes at least one cycle and some time"
    if plan.multi_layer:
        if not 1 <= layers <= plan.max_layers:
            return f"layers {layers} outside 1..{plan.max_layers}"
    elif layers != 1:
        return f"single-layer row has layers {layers}"
    if protocol in ("epmac", "pmac"):
        if elapsed != t.preamble_slot_us * preambles + t.data_frame_slot_us * data:
            return "elapsed_us is not preambles and data frames times their slot lengths"
        if protocol == "pmac" and not plan.multi_layer and data != 3 * n:
            return f"single-layer pmac sent {data} data frames, not 3*n = {3 * n}"
    elif protocol == "ieee1901":
        rest = elapsed - t.central_beacon_slot_us * nc
        if rest < 0 or rest % t.assoc_req_slot_us:
            return "elapsed_us minus the beacons is not a whole number of association slots"
    else:
        return f"unknown protocol {protocol!r}"
    return None


def check_csv(plan: ExperimentPlan, text: str) -> tuple[int, list[str]]:
    """Count failed cells: plan cells without one correct row, plus stray rows.

    Returns (failed cells, problem descriptions). A row that fails a
    check leaves its cell uncovered; a row for a cell outside the plan,
    or for a cell already covered, counts as one more failure.
    """
    t = plan.timing
    if t.central_beacon_slot_us != t.proxy_beacon_slot_us or t.assoc_req_slot_us != t.assoc_ind_slot_us:
        raise ValueError("the ieee1901 check needs equal beacon slots and equal request/indication slots")
    cells = expected_cells(plan)
    reader = csv.DictReader(io.StringIO(text))
    if tuple(reader.fieldnames or ()) != CSV_HEADER:
        return cells, [f"header {reader.fieldnames} is not {CSV_HEADER}"]
    protocols = {p.value for p in plan.protocols}
    n_values = set(plan.n_values)
    grid = set(plan.ratio_grid) if plan.ratio_grid is not None else None
    covered: set[tuple] = set()
    stray = 0
    problems: list[str] = []
    for lineno, row in enumerate(reader, start=2):
        try:
            ratio = float(row["ratio"])
            trial = int(row["trial"])
            key = (row["protocol"], int(row["n_node"]), ratio if grid is not None else None, trial)
            problem = _row_problem(plan, row)
        except (TypeError, ValueError) as exc:
            stray += 1
            problems.append(f"line {lineno}: unparsable row ({exc})")
            continue
        if key[0] not in protocols or key[1] not in n_values or not 0 <= trial < plan.trials:
            stray_problem = "cell is not in the plan"
        elif grid is not None and ratio not in grid:
            stray_problem = f"ratio {ratio} is not on the grid"
        elif grid is None and not plan.ratio_random[0] <= ratio <= plan.ratio_random[1]:
            stray_problem = f"ratio {ratio} is outside {plan.ratio_random}"
        elif key in covered:
            stray_problem = "cell appears twice"
        else:
            stray_problem = None
        if stray_problem is not None:
            stray += 1
            problems.append(f"line {lineno}: {stray_problem}")
        elif problem is not None:
            problems.append(f"line {lineno}: {problem}")
        else:
            covered.add(key)
    return min(cells, cells - len(covered) + stray), problems


def check_summary(plan: ExperimentPlan, rows: int, text: str) -> list[str]:
    """`plcmac summarize` output: one line per group, samples adding up to the rows."""
    lines = list(csv.DictReader(io.StringIO(text)))
    groups = len(plan.protocols) * len(plan.n_values)
    if plan.ratio_grid is not None:
        groups *= len(plan.ratio_grid)
    problems = []
    if len(lines) != groups:
        problems.append(f"summary has {len(lines)} groups, expected {groups}")
    if sum(int(line["samples"]) for line in lines) != rows:
        problems.append(f"summary samples do not add up to {rows} rows")
    return problems
