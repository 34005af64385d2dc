"""Command-line interface: sweeps, summaries, tables, config files, exit codes."""

import csv
import gc
from pathlib import Path
from types import SimpleNamespace

import pytest

from plcmac import ExperimentPlan, Protocol, cli, engine
from plcmac.cli import build_parser, main
from plcmac.engine import CSV_HEADER
from plcmac.topology import CCO_ID


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_sweep_single_writes_a_csv(tmp_path):
    out = tmp_path / "rows.csv"
    rc = main(["sweep-single", "--n", "10", "--ratios", "1.0", "--trials", "2",
               "--seed", "3", "--out", str(out)])
    assert rc == 0
    rows = _read_csv(out)
    assert tuple(rows[0]) == CSV_HEADER
    assert len(rows) == 1 + 3 * 1 * 1 * 2  # all three protocols by default
    protocols = {r[0] for r in rows[1:]}
    assert protocols == {"epmac", "pmac", "ieee1901"}


def test_sweep_output_is_byte_identical_across_runs_and_jobs(tmp_path):
    args = ["sweep-single", "--n", "12", "--ratios", "0.5", "1.0", "--trials", "3", "--seed", "11"]
    paths = [tmp_path / f"{tag}.csv" for tag in ("a", "b", "c")]
    assert main(args + ["--out", str(paths[0])]) == 0
    assert main(args + ["--out", str(paths[1])]) == 0
    assert main(args + ["--jobs", "2", "--out", str(paths[2])]) == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


def test_sweep_multi_accepts_a_depth_cap(tmp_path):
    out = tmp_path / "multi.csv"
    rc = main(["sweep-multi", "--protocols", "epmac", "--n", "20", "--ratios", "1.0",
               "--trials", "2", "--seed", "1", "--max-layers", "3", "--out", str(out)])
    assert rc == 0
    rows = _read_csv(out)
    assert len(rows) == 3
    assert all(1 <= int(r[8]) <= 3 for r in rows[1:])


def test_sweep_random_ratio_mode(tmp_path):
    out = tmp_path / "rand.csv"
    rc = main(["sweep-single", "--protocols", "pmac", "--n", "10", "--ratio-random",
               "0.5", "2.0", "--trials", "5", "--seed", "2", "--out", str(out)])
    assert rc == 0
    ratios = [float(r[2]) for r in _read_csv(out)[1:]]
    assert len(ratios) == 5
    assert all(0.5 <= x <= 2.0 for x in ratios)


def test_grid_and_random_ratio_flags_conflict(tmp_path):
    with pytest.raises(SystemExit):
        main(["sweep-single", "--ratios", "1.0", "--ratio-random", "0.5", "2.0",
              "--out", str(tmp_path / "x.csv")])


def test_bad_flag_value_prints_the_subcommand_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep-single", "--trials", "abc"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: plcmac sweep-single ")
    assert err.endswith("plcmac sweep-single: error: argument --trials: invalid int value: 'abc'\n")


def test_bad_size_range_exits_2(tmp_path):
    rc = main(["sweep-single", "--n-range", "100", "50", "10", "--out", str(tmp_path / "x.csv")])
    assert rc == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep-single", "--n", "10", "--csma-p", "1.5"],
        ["sweep-single", "--n", "0"],
        ["sweep-single", "--n", "10", "--ratios", "0"],
        ["sweep-multi", "--n", "10", "--max-layers", "0"],
        ["sweep-single", "--n", "10", "--jobs", "0"],
        ["sweep-single", "--n", "5", "--k2", "inf", "--protocols", "epmac"],
    ],
)
def test_bad_sweep_values_exit_2(argv, tmp_path, capsys):
    rc = main(argv + ["--trials", "1", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv", [["sweep-single", "--ratios", "inf"], ["sweep-multi", "--ratio-random", "0.5", "inf"]]
)
def test_infinite_sweep_ratios_exit_2(argv, tmp_path, capsys):
    rc = main(argv + ["--n-range", "5", "5", "1", "--trials", "1", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert capsys.readouterr().err == "error: slot ratios must be finite, got inf\n"


@pytest.mark.parametrize("ratio,named", [("1e19", "1e+19"), ("1e30", "1e+30")])
def test_slot_ratio_too_large_for_one_draw_exits_2(ratio, named, tmp_path, capsys):
    rc = main(["sweep-single", "--n", "5", "--ratios", ratio, "--trials", "1", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: slot ratio {named} gives 5 STA(s) a first window above 2**63")
    assert not (tmp_path / "x.csv").exists()

def test_exhausted_cycle_budget_exits_3(tmp_path, capsys):
    rc = main(["sweep-single", "--max-nc", "1", "--n", "20", "--trials", "1",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 3
    assert "simulation error" in capsys.readouterr().err


def _simulation_error(tmp_path, capsys, *argv):
    out = tmp_path / "x.csv"
    assert main(["sweep-single", "--protocols", "pmac", "--trials", "1", *argv, "--out", str(out)]) == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    return err


def test_a_window_too_wide_to_bin_still_runs(tmp_path):
    # a 2e18-slot window: the draws are counted by sorting, not in a window-sized array
    out = tmp_path / "x.csv"
    assert main(["sweep-single", "--protocols", "pmac", "--n", "2", "--ratios", "1e18", "--out", str(out)]) == 0
    rows = _read_csv(out)[1:]
    assert len(rows) == 100
    for row in rows:
        elapsed_us, data_frames, preambles = int(row[4]), int(row[6]), int(row[7])
        assert preambles >= 2 * 10**18
        assert elapsed_us == 400 * preambles + 20000 * data_frames


def test_an_error_before_the_formation_names_its_cell(tmp_path, capsys, monkeypatch):
    def bad_tree(n, max_layers, rng):
        raise KeyError("no tree")

    monkeypatch.setattr(engine, "generate_tree", bad_tree)
    argv = ["sweep-multi", "--protocols", "epmac", "--n", "4", "--ratios", "1.0", "--trials", "1"]
    assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 3
    assert capsys.readouterr().err == (
        "simulation error: KeyError: 'no tree' [cell protocol=epmac n=4 ratio_index=0 trial=0]\n"
    )


def test_an_error_in_a_worker_process_names_its_cell(tmp_path, capsys, monkeypatch):
    # one group per size, so two groups go to the pool; the failure comes back with its cell index
    monkeypatch.setattr(engine, "GROUP_STAS", 1)
    err = _simulation_error(tmp_path, capsys, "--n", "1", "20", "--ratios", "0.5", "--max-nc", "1", "--jobs", "2")
    assert err.startswith("simulation error: NonTermination: pmac run exceeded max_nc=1")
    assert err.endswith(" [cell protocol=pmac n=20 ratio_index=0 trial=0]\n")


def test_memory_error_in_a_kernel_exits_3(tmp_path, capsys, monkeypatch):
    def out_of_memory(*args):
        raise MemoryError("cannot allocate the window")

    monkeypatch.setattr(engine, "keyed_draws", out_of_memory)
    err = _simulation_error(tmp_path, capsys, "--n", "3")
    assert err == "simulation error: MemoryError: cannot allocate the window [cell protocol=pmac n=3 ratio_index=0 trial=0]\n"


def test_unjoined_stas_invariant_exits_3(tmp_path, capsys, monkeypatch):
    # a star that claims a third STA no session holds
    monkeypatch.setattr(engine, "single_layer", lambda n: SimpleNamespace(
        parent=(CCO_ID, CCO_ID, CCO_ID), depth=(0, 1, 1), n_sta=3, max_depth=1))
    err = _simulation_error(tmp_path, capsys, "--n", "3")
    assert err == (
        "simulation error: RuntimeError: formation ended with unjoined STAs despite empty sessions"
        " [cell protocol=pmac n=3 ratio_index=0 trial=0]\n"
    )


@pytest.mark.parametrize("command", ["sweep-single", "summarize"])
def test_unwritable_output_path_exits_2(command, tmp_path, capsys):
    rows = tmp_path / "rows.csv"
    sweep = ["sweep-single", "--protocols", "pmac", "--n", "3", "--trials", "1"]
    assert main([*sweep, "--out", str(rows)]) == 0
    bad = tmp_path / "missing" / "x.csv"
    argv = sweep if command == "sweep-single" else ["summarize", str(rows)]
    assert main([*argv, "--out", str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {bad}: ")


def test_unwritable_sweep_output_is_rejected_before_any_cell_runs(tmp_path, capsys, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "run_experiment", must_not_run)
    for bad in (tmp_path / "missing" / "x.csv", tmp_path):
        assert main(["sweep-single", "--n", "3", "--trials", "1", "--out", str(bad)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {bad}: ")
    assert not (tmp_path / "missing").exists()


def test_failed_sweep_keeps_an_existing_output_file(tmp_path, capsys):
    out = tmp_path / "x.csv"
    out.write_bytes(b"earlier results\n")
    assert main(["sweep-single", "--max-nc", "1", "--n", "20", "--trials", "1", "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("simulation error: NonTermination: ")
    assert out.read_bytes() == b"earlier results\n"


def test_config_file_supplies_defaults_and_flags_win(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "# tiny sweep\n"
        "protocols = epmac pmac\n"
        "n = 10\n"
        "ratios = 1.0\n"
        "trials = 4\n"
        "seed = 3\n"
    )
    out_a = tmp_path / "a.csv"
    assert main(["sweep-single", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert len(_read_csv(out_a)) == 1 + 2 * 4

    out_b = tmp_path / "b.csv"
    assert main(["sweep-single", "--config", str(cfg), "--trials", "1", "--out", str(out_b)]) == 0
    assert len(_read_csv(out_b)) == 1 + 2 * 1


def test_unset_sweep_flags_keep_the_model_defaults(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "run_experiment", lambda plan, **kw: seen.append((plan, kw)) or [])
    out = str(tmp_path / "x.csv")
    assert main(["sweep-multi", "--n", "7", "--ratios", "1.0", "--out", out]) == 0
    assert main(["sweep-single", "--protocols", "pmac", "epmac", "pmac", "--n", "7", "--k2", "3", "--jobs", "2",
                 "--out", out]) == 0
    grid = (0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)
    assert seen == [
        (ExperimentPlan(protocols=tuple(Protocol), n_values=(7,), ratio_grid=(1.0,), multi_layer=True), {}),
        (ExperimentPlan(protocols=(Protocol.PMAC, Protocol.EPMAC), n_values=(7,), ratio_grid=grid,
                        k2=3.0), {"jobs": 2}),
    ]


def test_unknown_config_key_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("velocity = 9\n")
    assert main(["sweep-single", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2


def test_malformed_config_line_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just words\n")
    assert main(["sweep-single", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2


def _sweep_bytes(tmp_path, tag, argv, cfg_text=None):
    if cfg_text is not None:
        cfg = tmp_path / f"{tag}.cfg"
        cfg.write_text(cfg_text)
        argv = [*argv, "--config", str(cfg)]
    out = tmp_path / f"{tag}.csv"
    assert main(["sweep-single", "--protocols", "pmac", "--trials", "2", "--seed", "5", *argv, "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize(
    "cfg_text, flags, same_as",
    [
        ("n = 7\nratios = 1.0\n", ["--n-range", "5", "15", "10"], ["--n-range", "5", "15", "10", "--ratios", "1.0"]),
        ("n = 7\nn_range = 5 15 10\nratios = 1.0\n", ["--n-range", "3", "13", "10"],
         ["--n-range", "3", "13", "10", "--ratios", "1.0"]),
        ("n = 7\nratio_random = 0.5 2.0\n", ["--ratios", "1.0"], ["--n", "7", "--ratios", "1.0"]),
        ("n = 7\nn_range = 5 15 10\nratios = 1.0\nratio_random = 0.5 2.0\n", [], ["--n", "7", "--ratios", "1.0"]),
    ],
    ids=["flag-n-range-beats-config-n", "flag-n-range-beats-both-config-sizes", "flag-ratios-beat-config-ratio-random",
         "config-n-and-ratios-beat-their-pair"],
)
def test_config_precedence_matches_the_flag_only_run(cfg_text, flags, same_as, tmp_path):
    assert _sweep_bytes(tmp_path, "cfg", flags, cfg_text) == _sweep_bytes(tmp_path, "flags", same_as)


@pytest.mark.parametrize("value, code", [("3", 0), ("0", 2)])
def test_sweep_single_config_validates_max_layers(value, code, tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"max_layers = {value}\nn = 5\nratios = 1.0\n")
    assert main(["sweep-single", "--protocols", "pmac", "--trials", "1", "--config", str(cfg),
                 "--out", str(tmp_path / "x.csv")]) == code
    capsys.readouterr()


BAD_CONFIG_LINES = {
    "tri = 4": "unknown key 'tri'",
    "config = x.cfg": "unknown key 'config'",
    "trials = abc": "argument --trials: invalid int value: 'abc'",
    "trials = 4 5": "bad value for 'trials': '4 5'",
    "trials =": "argument --trials: expected one argument",
    "protocols = foo": "argument --protocols: invalid choice: 'foo'",
}


@pytest.mark.parametrize("line", list(BAD_CONFIG_LINES))
def test_bad_config_line_exits_2(line, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"n = 5\n{line}\n")
    assert main(["sweep-single", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {cfg}:2: {BAD_CONFIG_LINES[line]}")
    assert not (tmp_path / "x.csv").exists()


def test_readme_config_example_runs(tmp_path, capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(readme.split("cat > sweep.cfg <<'EOF'\n", 1)[1].split("\nEOF\n", 1)[0] + "\n")
    assert main(["sweep-single", "--config", str(cfg), "--trials", "1", "--jobs", "1", "--n", "5",
                 "--out", str(tmp_path / "x.csv")]) == 0
    assert capsys.readouterr().err == ""


def test_summarize_groups_by_protocol_size_and_ratio(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    main(["sweep-single", "--protocols", "epmac", "--n", "10", "20", "--ratios", "1.0",
          "--trials", "3", "--seed", "4", "--out", str(out)])
    assert main(["summarize", str(out)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "protocol,n_node,ratio,samples,mean_us,min_us,q1_us,median_us,q3_us,max_us"
    body = [line.split(",") for line in lines[1:]]
    assert [(r[0], r[1], r[2]) for r in body] == [("epmac", "10", "1.0"), ("epmac", "20", "1.0")]
    assert all(r[3] == "3" for r in body)


def test_out_dash_prints_to_stdout_for_sweep_and_summarize(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["sweep-single", "--protocols", "pmac", "--n", "10", "--trials", "2", "--out", "-"]) == 0
    (tmp_path / "rows.csv").write_text(capsys.readouterr().out, encoding="utf-8")
    assert main(["summarize", "rows.csv"]) == 0
    expected = capsys.readouterr().out
    assert main(["summarize", "rows.csv", "--out", "-"]) == 0
    assert capsys.readouterr().out == expected
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.csv"]


def test_summarize_best_ratio_keeps_one_row_per_size(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    main(["sweep-single", "--protocols", "pmac", "--n", "10", "--ratios", "0.5", "1.0", "2.0",
          "--trials", "3", "--seed", "4", "--out", str(out)])
    assert main(["summarize", str(out), "--best-ratio"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    best = lines[1].split(",")
    assert best[0] == "pmac" and best[1] == "10"
    assert float(best[2]) in (0.5, 1.0, 2.0)


def test_summarize_pool_ratios_merges_cells(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    main(["sweep-single", "--protocols", "pmac", "--n", "10", "--ratios", "0.5", "1.0",
          "--trials", "2", "--seed", "4", "--out", str(out)])
    assert main(["summarize", str(out), "--pool-ratios"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    row = lines[1].split(",")
    assert row[2] == "all"
    assert row[3] == "4"


def test_summarize_flag_conflict_and_missing_file(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    main(["sweep-single", "--protocols", "pmac", "--n", "10", "--ratios", "1.0",
          "--trials", "1", "--seed", "4", "--out", str(out)])
    assert main(["summarize", str(out), "--best-ratio", "--pool-ratios"]) == 2
    assert main(["summarize", str(tmp_path / "nope.csv")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "results, extra, code",
    [
        ("rows.csv", [], 0),
        ("rows.csv", ["--pool-ratios"], 0),
        ("rows.csv", ["--best-ratio"], 0),
        ("rows.csv", ["--best-ratio", "--pool-ratios"], 2),
        ("nope.csv", [], 2),
    ],
    ids=["default", "pool-ratios", "best-ratio", "flag-conflict", "missing-file"],
)
def test_summarize_leaves_no_reference_cycles(results, extra, code, tmp_path, capsys):
    main(["sweep-single", "--protocols", "pmac", "--n", "10", "--ratios", "0.5", "1.0",
          "--trials", "2", "--seed", "4", "--out", str(tmp_path / "rows.csv")])
    argv = ["summarize", str(tmp_path / results), *extra]
    main(argv)  # warm-up
    gc.disable()  # an automatic collection during the call would hide its garbage
    try:
        gc.collect()
        assert main(argv) == code
        assert gc.collect() == 0
    finally:
        gc.enable()
    capsys.readouterr()


def test_summarize_rejects_foreign_headers(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    assert main(["summarize", str(bad)]) == 2


def test_summarize_of_a_header_only_csv_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text(",".join(CSV_HEADER) + "\n")
    assert main(["summarize", str(empty)]) == 2
    assert capsys.readouterr().err == f"error: {empty}: no data rows\n"

@pytest.mark.parametrize("row", ["epmac,10,1.0", "epmac,10,1.0,0,5,1,1,1,1,extra"])
def test_summarize_rejects_rows_of_the_wrong_width(row, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(",".join(CSV_HEADER) + "\nepmac,10,1.0,0,5,1,1,1,1\n" + row + "\n")
    assert main(["summarize", str(bad)]) == 2
    assert "line 3 does not have 9 fields" in capsys.readouterr().err


@pytest.mark.parametrize("ratio", ["nan", "inf", "-inf"])
def test_summarize_rejects_non_finite_ratios(ratio, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(",".join(CSV_HEADER) + f"\nepmac,10,1.0,0,5,1,1,1,1\nepmac,10,{ratio},0,5,1,1,1,1\n")
    assert main(["summarize", str(bad)]) == 2
    assert f"{bad}: line 3: ratio '{ratio}' is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("row", ["epmac,ten,1.0,0,5,1,1,1,1", "epmac,10,x,0,5,1,1,1,1", "epmac,10,1.0,0,5,1,1,1,one"])
def test_summarize_names_file_and_line_of_a_non_numeric_field(row, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(",".join(CSV_HEADER) + "\nepmac,10,1.0,0,5,1,1,1,1\n" + row + "\n")
    assert main(["summarize", str(bad)]) == 2
    assert f"error: {bad}: line 3: " in capsys.readouterr().err


def test_complexity_table(capsys):
    assert main(["complexity"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "m,k,pmac_frames,epmac_frames,delta_exact,delta_approx"
    assert len(lines) == 1 + 9 * 6
    assert lines[1] == "2,1,6,4,1.000000,2"


def test_complexity_custom_grid(capsys):
    assert main(["complexity", "--m", "2", "--k", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1] == "2,2,34,16,3.000000,5"


def test_complexity_bad_shape_exits_2_before_any_output(capsys):
    assert main(["complexity", "--m", "2", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: m must be at least 2")


def test_timing_report(capsys):
    assert main(["timing"]) == 0
    text = capsys.readouterr().out
    assert "12555.84" in text
    assert "24512.40" in text
    assert "9102" in text and "17488" in text
    assert "10232.04" in text and "10905.60" in text
    assert "preamble_slot_us=400" in text
    assert "data_frame_slot_us=20000" in text


def test_parser_builds_and_requires_a_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])
