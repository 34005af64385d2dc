"""Deterministic simulator and analysis toolkit for PLC MAC network-formation time."""

from .calibration import (
    CalibrationMeasurement,
    CalibrationResult,
    DelayProfile,
    InconsistentMeasurement,
    NegativeResult,
    calibrate_time_difference,
    measurement_residuals,
    simulate_pte_measurement,
    solve_calibration,
    synthesize_measurements,
)
from .complexity import (
    TreeShape,
    delta_sta_approx,
    delta_sta_exact,
    epmac_session_frames,
    epmac_single_layer_frames,
    epmac_total_frames,
    epmac_total_frames_closed,
    pmac_session_frames,
    pmac_total_frames,
    pmac_total_frames_closed,
)
from .core import Protocol, RunConfig, TimingTable
from .engine import (
    CSV_HEADER,
    EmptySample,
    ExperimentPlan,
    FormationResult,
    NonTermination,
    ResultRow,
    SummaryStats,
    run_experiment,
    run_formation,
    summarize,
)
from .mac_protocols import (
    NcOutcome,
    PendingSet,
    contend,
    simulate_nc_csma,
    simulate_nc_epmac,
    simulate_nc_pmac,
)
from .phy_timing import (
    FdplcPhyParams,
    Ieee1901PhyParams,
    TooFewSymbols,
    fdplc_data_frame_time,
    fdplc_preamble_time,
    ieee1901_frame_time,
)
from .slot_alloc import (
    SlotAllocState,
    ZeroSlots,
    ceil_scale,
    fresh_state,
    next_slot_count,
    record_pte,
)
from .topology import (
    NetworkTree,
    generate_tree,
    min_first_layer,
    single_layer,
    tree_from_parents,
)

__version__ = "0.1.0"
