"""Shared vocabulary: slot schedule, model constants."""

import numpy as np
import pytest

from plcmac import Protocol, RunConfig, TimingTable, run_formation, single_layer


def test_default_slot_schedule_values():
    t = TimingTable()
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


def test_cost_prices_each_count_at_its_own_slot_length(per_kind_timing):
    assert per_kind_timing.cost((6, 5, 4, 3, 2, 1)) == 1_002_003_004_005_006
    assert TimingTable().cost((3, 2, 0, 0, 0, 0)) == 3 * 400 + 2 * 20000
    with pytest.raises(ValueError):
        per_kind_timing.cost((1, 2, 3))  # one count per slot kind, no fewer


def test_run_config_defaults_are_usable():
    cfg = RunConfig()
    assert cfg.csma_p == 0.75
    assert cfg.tdf_capacity == 20
    assert cfg.sdf_capacity == 10
    assert (cfg.t_f_max, cfg.eta_min, cfg.k1, cfg.k2) == (3, 0.35, 1.3, 2.0)


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


@pytest.mark.parametrize("name", ["t_f_max", "tdf_capacity", "sdf_capacity", "max_nc"])
def test_run_config_integer_constants_must_be_integers(name):
    # a float capacity made the engine die inside numpy and the closed-form frame count return a float; a float
    # t_f_max or max_nc ran silently
    for value in (2.5, 7.0, np.float64(3.0)):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got "):
            RunConfig(**{name: value})
    # numpy's ints pass, as the Python ints of their values
    default = RunConfig()
    for kind in (np.int64, np.uint64, np.int32):
        cfg = RunConfig(**{name: kind(getattr(default, name))})
        assert cfg == default and type(getattr(cfg, name)) is int
        assert run_formation(Protocol.EPMAC, single_layer(30), cfg, 1.0, 5) == run_formation(
            Protocol.EPMAC, single_layer(30), default, 1.0, 5)


def test_a_timing_table_of_numpy_ints_stores_python_ints_and_prices_them_exactly():
    # np.int64 lengths were rejected; stored as they came, their products would wrap past 2**63
    table = TimingTable(**{name: np.int64(2**62) for name in TimingTable().to_dict()})
    assert all(type(length) is int for length in table.to_dict().values())
    assert table == TimingTable(**dict.fromkeys(TimingTable().to_dict(), 2**62))
    assert table.cost((1, 2, 3, 4, 5, 6)) == 21 * 2**62


def test_protocol_values():
    assert {p.value for p in Protocol} == {"epmac", "pmac", "ieee1901"}
