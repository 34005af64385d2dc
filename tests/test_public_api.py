"""The public API: every name `plcmac` exports, so a change to it shows up as a diff here."""

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
    "NcOutcome",
    "NegativeResult",
    "NetworkTree",
    "NonTermination",
    "PendingSet",
    "Protocol",
    "ResultRow",
    "RunConfig",
    "SlotAllocState",
    "SummaryStats",
    "TimingTable",
    "TooFewSymbols",
    "TreeShape",
    "ZeroSlots",
    "calibrate_time_difference",
    "ceil_scale",
    "contend",
    "delta_sta_approx",
    "delta_sta_exact",
    "epmac_session_frames",
    "epmac_single_layer_frames",
    "epmac_total_frames",
    "epmac_total_frames_closed",
    "fdplc_data_frame_time",
    "fdplc_preamble_time",
    "fresh_state",
    "generate_tree",
    "ieee1901_frame_time",
    "measurement_residuals",
    "min_first_layer",
    "next_slot_count",
    "pmac_session_frames",
    "pmac_total_frames",
    "pmac_total_frames_closed",
    "record_pte",
    "run_experiment",
    "run_formation",
    "simulate_nc_csma",
    "simulate_nc_epmac",
    "simulate_nc_pmac",
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

