"""Acceptance suite: ten end-to-end criteria, one verdict line each.

Every test prints '[PASS] ...' or '[FAIL] ...' before asserting, so the
captured output always carries the measured numbers. Sweeps share
module-scoped fixtures and a fixed master seed; nothing here is tuned
per machine.
"""

import time
from fractions import Fraction
from statistics import fmean

import numpy as np
import pytest

from conftest import record_verdict
from plcmac import (
    DelayProfile,
    ExperimentPlan,
    Ieee1901PhyParams,
    Protocol,
    RunConfig,
    TreeShape,
    calibrate_time_difference,
    epmac_single_layer_frames,
    epmac_total_frames,
    epmac_total_frames_closed,
    ieee1901_frame_time,
    pmac_total_frames,
    pmac_total_frames_closed,
    run_experiment,
    run_formation,
    simulate_pte_measurement,
    single_layer,
    solve_calibration,
    summarize,
    synthesize_measurements,
)
from plcmac import engine
from plcmac.cli import main as cli_main
from plcmac.mac_protocols import contend
from plcmac.phy_timing import NOMINAL_IEEE1901_BEACON_US, NOMINAL_IEEE1901_MME_US

SEED = 7
PROTOCOLS = (Protocol.EPMAC, Protocol.PMAC, Protocol.IEEE1901)
JOBS = 4


def _verdict(label: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    record_verdict(line)
    assert ok, line


def _mean_table(rows):
    cells = {}
    for r in rows:
        cells.setdefault((r.protocol, r.n_node, r.ratio), []).append(r.elapsed_us)
    return {key: fmean(vals) for key, vals in cells.items()}


def _best_ratio_means(rows):
    best = {}
    for (proto, n, _ratio), mean in _mean_table(rows).items():
        key = (proto, n)
        if key not in best or mean < best[key]:
            best[key] = mean
    return best


@pytest.fixture(scope="module")
def single_sweep():
    plan = ExperimentPlan(
        protocols=PROTOCOLS,
        n_values=tuple(range(50, 651, 100)),
        ratio_grid=(0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0),
        trials=100,
        seed=SEED,
    )
    start = time.perf_counter()
    rows = run_experiment(plan, jobs=JOBS)
    return rows, time.perf_counter() - start


@pytest.fixture(scope="module")
def multi_sweep():
    plan = ExperimentPlan(
        protocols=PROTOCOLS,
        n_values=tuple(range(200, 1201, 200)),
        ratio_grid=(0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0),
        trials=30,
        seed=SEED,
        multi_layer=True,
        max_layers=6,
    )
    start = time.perf_counter()
    rows = run_experiment(plan, jobs=JOBS)
    return rows, time.perf_counter() - start


@pytest.fixture(scope="module")
def spread_sweep():
    plan = ExperimentPlan(
        protocols=PROTOCOLS,
        n_values=tuple(range(200, 1201, 200)),
        ratio_random=(0.5, 2.0),
        trials=60,
        seed=SEED,
        multi_layer=True,
        max_layers=6,
    )
    return run_experiment(plan, jobs=JOBS)


def test_a01_closed_forms_match_recurrences():
    start = time.perf_counter()
    mismatches = []
    for m in range(2, 11):
        for k in range(1, 7):
            shape = TreeShape(m, k)
            if pmac_total_frames_closed(shape) != pmac_total_frames(shape):
                mismatches.append(("unbatched", m, k))
            if epmac_total_frames_closed(shape) != epmac_total_frames(shape):
                mismatches.append(("batched", m, k))
    elapsed = time.perf_counter() - start
    _verdict(
        "a01 closed-form totals equal the recurrences on the full grid",
        not mismatches and elapsed < 1.0,
        f"m 2..10, k 1..6, {elapsed:.3f}s" + (f", mismatches {mismatches}" if mismatches else ""),
    )


def test_a02_calibration_round_trips_random_profiles():
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    bad = 0
    for _ in range(10_000):
        t_p, r_p, r_m, backoff = (int(x) for x in rng.integers(0, 10_001, size=4))
        profile = DelayProfile(t_p=t_p, r_p=r_p, r_m=r_m)
        result = solve_calibration(synthesize_measurements(profile))
        delta_sta, delta_cco = simulate_pte_measurement(profile, backoff)
        recovered = calibrate_time_difference(delta_cco, result.tau)
        if (
            result.t_p != t_p
            or result.r_m != r_m
            or result.r_p != r_p
            or result.tau != Fraction(profile.tau)
            or recovered != delta_sta
        ):
            bad += 1
    elapsed = time.perf_counter() - start
    _verdict(
        "a02 calibration solves and corrects 10000 random profiles exactly",
        bad == 0 and elapsed < 1.0,
        f"{bad} mismatches, {elapsed:.3f}s",
    )


def test_a03_collision_free_frame_counts_hit_the_closed_forms(collision_free_draws):
    failures = []
    for n in (1, 10, 25, 100, 650):
        pm = run_formation(Protocol.PMAC, single_layer(n), RunConfig(), 1.0, 0)
        if pm.data_frames != 3 * n or pm.nc_count != 1:
            failures.append(f"unbatched n={n}: {pm.data_frames} frames")
        ep = run_formation(Protocol.EPMAC, single_layer(n), RunConfig(), 1.0, 0)
        expected = epmac_single_layer_frames(n)
        if ep.data_frames - 1 != expected or ep.nc_count != 1:
            failures.append(f"batched n={n}: {ep.data_frames - 1} vs {expected}")
    _verdict(
        "a03 collision-free runs hit 3n and ceil(n/10)+ceil(n/20)+n exactly",
        not failures,
        "; ".join(failures) if failures else "n in {1,10,25,100,650}",
    )


def test_a04_single_layer_best_ratio_means(single_sweep):
    rows, elapsed = single_sweep
    best = _best_ratio_means(rows)
    worst_p = max(
        best[("epmac", n)] / best[("pmac", n)] for n in range(50, 651, 100)
    )
    worst_i = max(
        best[("epmac", n)] / best[("ieee1901", n)] for n in range(50, 651, 100)
    )
    ok = worst_p <= 0.8 and worst_i <= 0.8 and elapsed < 30.0
    _verdict(
        "a04 single-layer best-ratio means: batched leads both baselines by 20%",
        ok,
        f"max ratio vs unbatched {worst_p:.3f}, vs association {worst_i:.3f}, sweep {elapsed:.1f}s",
    )


def test_a05_multi_layer_best_ratio_means(multi_sweep):
    rows, elapsed = multi_sweep
    best = _best_ratio_means(rows)
    sizes = range(200, 1201, 200)
    worst_p = max(best[("epmac", n)] / best[("pmac", n)] for n in sizes)
    worst_i = max(best[("epmac", n)] / best[("ieee1901", n)] for n in sizes)
    min_pi = min(best[("pmac", n)] / best[("ieee1901", n)] for n in sizes)
    ok = worst_p <= 0.8 and worst_i <= 0.8 and min_pi >= 0.9 and elapsed < 60.0
    _verdict(
        "a05 multi-layer best-ratio means: batched leads; unbatched near or above association",
        ok,
        f"max vs unbatched {worst_p:.3f}, max vs association {worst_i:.3f}, "
        f"min unbatched/association {min_pi:.3f}, sweep {elapsed:.1f}s",
    )


def test_a06_ratio_sensitivity_at_350(single_sweep):
    rows, _ = single_sweep
    means = _mean_table(rows)

    def spread(proto):
        vals = [mean for (p, n, _r), mean in means.items() if p == proto and n == 350]
        return (max(vals) - min(vals)) / min(vals)

    batched, association = spread("epmac"), spread("ieee1901")
    _verdict(
        "a06 association mean time is more ratio-sensitive than batched at n=350",
        association > batched,
        f"relative spread batched {batched:.3f} vs association {association:.3f}",
    )


def test_a07_random_ratio_spread(spread_sweep):
    rows = spread_sweep
    lines = []
    ok = True
    for n in range(200, 1201, 200):
        iqr = {}
        for proto in ("epmac", "pmac", "ieee1901"):
            samples = [r.elapsed_us for r in rows if r.protocol == proto and r.n_node == n]
            iqr[proto] = summarize(samples).iqr
        smallest = iqr["epmac"] < iqr["pmac"] and iqr["epmac"] < iqr["ieee1901"]
        ok = ok and smallest
        lines.append(
            f"n={n}: batched {iqr['epmac'] / 1e6:.2f}M, unbatched {iqr['pmac'] / 1e6:.2f}M, "
            f"association {iqr['ieee1901'] / 1e6:.2f}M{'' if smallest else ' <- not smallest'}"
        )
    _verdict(
        "a07 batched interquartile range is smallest at every size under random ratios",
        ok,
        "; ".join(lines),
    )


def test_a08_broadband_air_time_arithmetic():
    t1 = ieee1901_frame_time(Ieee1901PhyParams())
    t2 = ieee1901_frame_time(Ieee1901PhyParams(n_b=43520))
    ok = abs(t1 - 12555.84) <= 0.01 and abs(t2 - 24512.40) <= 0.01
    gap_documented = t1 > NOMINAL_IEEE1901_BEACON_US and t2 > NOMINAL_IEEE1901_MME_US
    _verdict(
        "a08 air-time arithmetic hits 12555.84/24512.40 and exceeds the nominal plan values",
        ok and gap_documented,
        f"computed {t1:.2f}/{t2:.2f} vs nominal {NOMINAL_IEEE1901_BEACON_US}/{NOMINAL_IEEE1901_MME_US}",
    )


def test_a09_sweeps_are_reproducible(tmp_path):
    args = [
        "sweep-single",
        "--n", "50", "150",
        "--ratios", "0.5", "1.0",
        "--trials", "5",
        "--seed", str(SEED),
    ]
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    rc1 = cli_main(args + ["--out", str(paths[0])])
    rc2 = cli_main(args + ["--out", str(paths[1])])
    rc3 = cli_main(args + ["--jobs", "2", "--out", str(paths[2])])
    blobs = [p.read_bytes() for p in paths]
    _verdict(
        "a09 sweep CSVs are byte-identical across runs and job counts",
        rc1 == rc2 == rc3 == 0 and blobs[0] == blobs[1] == blobs[2],
        f"{len(blobs[0])} bytes",
    )


def test_a10_contention_mean_matches_the_alone_in_slot_law():
    trials = 100_000
    results = []
    ok = True
    for m, n in ((4, 4), (50, 100), (100, 50)):
        rng = np.random.default_rng(SEED)
        total = 0
        for _ in range(trials):
            total += contend(m, n, rng)
        # the engine's keyed draws: one session of m contenders per trial, cycle keys 0..trials-1, one call
        keys = engine._child_keys(np.full(trials, SEED, dtype=np.uint64), np.arange(trials))
        keyed = int(engine._draw_joins(keys, np.full(trials, m), np.full(trials, n), None)[0].sum())
        oracle = m * (1 - 1 / n) ** (m - 1)
        for label, empirical in (("contend", total / trials), ("keyed", keyed / trials)):
            rel = abs(empirical / oracle - 1)
            ok = ok and rel < 0.01
            results.append(f"{label} ({m},{n}) {empirical:.4f} vs {oracle:.4f} ({rel * 100:.2f}%)")
    _verdict(
        "a10 contention means match m(1-1/n)^(m-1) within 1% over 100000 trials",
        ok,
        "; ".join(results),
    )
