"""Tests of the benchmark itself, on tiny plans.

    python3 -m pytest -q -p no:cacheprovider bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import run
from checks import check_csv, expected_cells
from plcmac import cli, engine, slot_alloc

TINY = {
    "single": run.Workload("tiny-single", False, (4, 9), trials=2, ratio_grid=(0.75, 1.5)),
    "grid": run.Workload("tiny-grid", True, (6, 11), trials=2, ratio_grid=(0.5, 2.0)),
    "random": run.Workload("tiny-random", True, (6, 11), trials=3, ratio_random=(0.5, 2.0)),
}


@pytest.fixture
def workdir():
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=run.ROOT) as tmp:
        yield Path(tmp)


def _declared(kind: str) -> dict[str, str]:
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[kind]}


@pytest.mark.parametrize("workload", TINY.values(), ids=list(TINY))
def test_printed_metrics_are_the_declared_ones(workload, workdir):
    plain = run.measure(workload, 3, 0.2, workdir, probes=1)
    traced = run.measure_traced(workload, 3, 0.2, workdir)
    assert engine.ceil_scale is slot_alloc.ceil_scale, "the tracer left a wrapper installed"
    for measured, kind, units in ((plain, "end_to_end", run.END_TO_END_UNITS), (traced, "per_layer", run.PER_LAYER_UNITS)):
        result = run.report(workload, 3, measured, units)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert {name: m["unit"] for name, m in result["metrics"].items()} == _declared(kind)


def test_workloads_are_the_declared_ones():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)


def test_command_prints_a_result_object_last():
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "single-grid", "--seed", "5", "--seconds", "1", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    result = json.loads(out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(_declared("end_to_end"))


def test_corrupted_row_is_counted_as_failed(workdir, monkeypatch):
    write_csv = cli.write_csv

    def corrupting(rows, fh):
        first = rows[0]
        write_csv([dataclasses.replace(first, elapsed_us=first.elapsed_us + 1), *rows[1:]], fh)

    monkeypatch.setattr(cli, "write_csv", corrupting)
    workload = TINY["grid"]
    measured = run.measure(workload, 3, 0.2, workdir, probes=1)
    passes = measured.attempted // expected_cells(run.make_plan(workload, 3, 0))
    assert passes >= 2 and measured.failed == passes
    assert not run.report(workload, 3, measured, run.END_TO_END_UNITS)["correct"]


def _edit_nothing(lines):
    return lines


def _bump_elapsed(lines):
    fields = lines[1].split(",")
    fields[4] = str(int(fields[4]) + 1)
    return [lines[0], ",".join(fields), *lines[2:]]


def _drop_row(lines):
    return lines[:-1]


def _duplicate_row(lines):
    return [*lines, lines[-1]]


def _stray_cell(lines):
    fields = lines[1].split(",")
    fields[1] = "7"
    return [*lines, ",".join(fields)]


def _single_layer_in_deep_tree(lines):
    fields = lines[1].split(",")
    fields[8] = "7"
    return [lines[0], ",".join(fields), *lines[2:]]


@pytest.mark.parametrize(
    "edit, failed",
    [(_edit_nothing, 0), (_bump_elapsed, 1), (_drop_row, 1), (_duplicate_row, 1), (_stray_cell, 1),
     (_single_layer_in_deep_tree, 1)],
)
def test_check_csv_counts_each_bad_cell_once(edit, failed, workdir):
    plan = run.make_plan(TINY["grid"], 3, 0)
    text = run.run_pass(plan, workdir).csv_text
    lines = edit(text.splitlines())
    assert check_csv(plan, "\n".join(lines) + "\n")[0] == failed
