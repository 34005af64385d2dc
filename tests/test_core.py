"""Shared vocabulary: slot schedule, model constants."""

import pytest

from plcmac import (
    AllocParams,
    Protocol,
    Role,
    RunConfig,
    TimingTable,
    default_timing_table,
)


def test_default_slot_schedule_values():
    t = default_timing_table()
    assert t.preamble_slot_us == 400
    assert t.data_frame_slot_us == 20000
    assert t.central_beacon_slot_us == 12000
    assert t.proxy_beacon_slot_us == 12000
    assert t.assoc_req_slot_us == 20000
    assert t.assoc_ind_slot_us == 20000


@pytest.mark.parametrize("bad", [0, -1, 20.5, True])
def test_timing_table_rejects_non_positive_or_non_integer_slots(bad):
    with pytest.raises(ValueError):
        TimingTable(data_frame_slot_us=bad)


def test_timing_table_dict_round_trip():
    t = TimingTable(preamble_slot_us=500)
    assert TimingTable.from_dict(t.to_dict()) == t


def test_run_config_defaults_are_usable():
    cfg = RunConfig()
    assert cfg.csma_p == 0.75
    assert cfg.tdf_capacity == 20
    assert cfg.sdf_capacity == 10
    assert isinstance(cfg.alloc, AllocParams)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"csma_p": 0.0},
        {"csma_p": -0.25},
        {"csma_p": float("nan")},
        {"csma_p": 1.5},
        {"tdf_capacity": 0},
        {"sdf_capacity": 0},
        {"sdf_capacity": -1},
        {"max_nc": 0},
        {"max_nc": -1},
    ],
)
def test_run_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        RunConfig(**kwargs)


def test_protocol_and_role_values():
    assert {p.value for p in Protocol} == {"epmac", "pmac", "ieee1901"}
    assert {r.value for r in Role} == {"cco", "pco", "sta"}
