"""The public API: every name `plcmac` exports, so a change to it shows up as a diff here."""

import dataclasses
import types

import plcmac

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



def test_formation_result_fields_are_pinned():
    fields = [f.name for f in dataclasses.fields(plcmac.FormationResult)]
    assert fields == ["total_us", "nc_count", "data_frames", "preambles"]
