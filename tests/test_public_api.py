"""The public API: every name `plcmac` exports, so a change to it shows up as a diff here."""

import dataclasses
import types

import pytest

import plcmac
from plcmac import mac_protocols, slot_alloc, topology

PUBLIC_NAMES = [
    "CSV_HEADER",
    "CalibrationMeasurement",
    "CalibrationResult",
    "DelayProfile",
    "EmptySample",
    "ExperimentPlan",
    "FdplcPhyParams",
    "FormationResult",
    "Ieee1901PhyParams",
    "InconsistentMeasurement",
    "NegativeResult",
    "NetworkTree",
    "NonTermination",
    "Protocol",
    "ResultRow",
    "RunConfig",
    "SummaryStats",
    "TimingTable",
    "TooFewSymbols",
    "TreeShape",
    "calibrate_time_difference",
    "delta_sta_approx",
    "delta_sta_exact",
    "epmac_session_frames",
    "epmac_single_layer_frames",
    "epmac_total_frames",
    "epmac_total_frames_closed",
    "fdplc_data_frame_time",
    "fdplc_preamble_time",
    "generate_tree",
    "ieee1901_frame_time",
    "measurement_residuals",
    "min_first_layer",
    "pmac_session_frames",
    "pmac_total_frames",
    "pmac_total_frames_closed",
    "run_experiment",
    "run_formation",
    "simulate_pte_measurement",
    "single_layer",
    "solve_calibration",
    "summarize",
    "synthesize_measurements",
    "tree_from_parents",
]


def test_public_names_are_pinned():
    # submodules become package attributes once imported, so they are left out
    exported = sorted(
        name
        for name, value in vars(plcmac).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert exported == PUBLIC_NAMES


# the per-cycle layer the reference engine runs and bench/tracer.py wraps, and the tree builders with their one tree
# type: the names each module defines
LAYER_NAMES = {
    mac_protocols: ["BINCOUNT_MAX_SLOTS", "NcOutcome", "contend", "simulate_nc_csma", "simulate_nc_epmac",
                    "simulate_nc_pmac"],
    slot_alloc: ["MAX_WINDOW", "SlotAllocState", "ZeroSlots", "ceil_scale", "check_first_window", "fresh_state",
                 "next_slot_count", "record_pte"],
    topology: ["CCO_ID", "NetworkTree", "generate_tree", "grow_tree", "min_first_layer", "single_layer",
               "tree_from_parents"],
}


def test_per_cycle_layer_names_are_pinned():
    for module, names in LAYER_NAMES.items():
        defined = sorted(
            name
            for name, value in vars(module).items()
            if not name.startswith("_")
            and not isinstance(value, types.ModuleType)
            and getattr(value, "__module__", module.__name__) == module.__name__  # not an import
        )
        assert defined == names, module.__name__


def test_formation_result_fields_are_pinned():
    fields = [f.name for f in dataclasses.fields(plcmac.FormationResult)]
    assert fields == ["total_us", "nc_count", "data_frames", "preambles"]


def test_result_record_fields_are_pinned():
    assert tuple(f.name for f in dataclasses.fields(plcmac.ResultRow)) == plcmac.CSV_HEADER == (
        "protocol", "n_node", "ratio", "trial", "elapsed_us", "nc_count", "data_frames", "preambles", "layers")
    assert [f.name for f in dataclasses.fields(plcmac.SummaryStats)] == ["n", "mean", "min", "q1", "median", "q3", "max"]


def test_sweep_rows_are_the_frozen_records_their_constructor_builds():
    plan = plcmac.ExperimentPlan(protocols=tuple(plcmac.Protocol), n_values=(3,), ratio_grid=(0.75,), trials=1, seed=5)
    for row in plcmac.run_experiment(plan):
        built = plcmac.ResultRow(*(getattr(row, name) for name in plcmac.CSV_HEADER))
        assert list(vars(row).items()) == list(vars(built).items())
        assert (row, hash(row), repr(row)) == (built, hash(built), repr(built))
        assert dataclasses.replace(row, trial=1) == dataclasses.replace(built, trial=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            row.trial = 1
