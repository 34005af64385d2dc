"""Golden output: frozen sha256 digests of sweep CSVs, their summaries, random trees and the demos' stdout.

A digest changes only when the random stream or the model changes on
purpose; such a change re-freezes the value and says why. The sweep,
summary, single_layer_race and ratio_sweep_snapshot digests were last
re-frozen when every contention draw became keyed by its identity and
all protocols of an (n, trial) came to share one tree and ratio.
"""

import hashlib
import io
import runpy
from pathlib import Path

import numpy as np
import pytest

from plcmac import ExperimentPlan, Protocol, cli, generate_tree, run_experiment

P = tuple(Protocol)

GOLDEN = {
    "single-grid": (
        dict(protocols=P, n_values=(5, 40, 120), ratio_grid=(0.5, 1.3), trials=3, seed=11),
        "e5fd8d994de76cfccd7831fd4c62ffc432ab611d6471f51b81d56c39055f3e68",
    ),
    "multi-grid": (
        dict(protocols=P, n_values=(30, 200, 600), ratio_grid=(0.75, 2.0), trials=3, seed=11,
             multi_layer=True, max_layers=6),
        "c37a9b73f75de696726c396ca01c26dacd5b868b3278ca558578947944c2a08d",
    ),
    "multi-random": (
        dict(protocols=P, n_values=(50, 400), ratio_random=(0.5, 2.0), trials=4, seed=11,
             multi_layer=True, max_layers=4),
        "ec6a853766337a049b46f0870d0cded06832aa576056ca77fcac4967e96dd544",
    ),
}


# `plcmac summarize` over each plan's CSV: default, --pool-ratios, --best-ratio
SUMMARY_GOLDEN = {
    "single-grid": (
        "9e2820251409d031af60401d66acbdeb7d298a03f50c37c93fb6f6db59eef33d",
        "69f15b13a138e5e4fccaa91013aee42bf22c3f0f6d39ca011043db7b041d3c41",
        "6f01f0e3104f0443169bb3f9b0d2b0a50d6d80756554e834691b90d7634afb58",
    ),
    "multi-grid": (
        "7c0409fb36d8ed771104d68d73836597301eb47b304c2bbfb3821b1fd02a05d0",
        "a4106f50b7ff05d364f53f2f9526c0a5e35307891d8e7b9123c97c3baddb2c01",
        "20a787b68de0fcdb780989e9ea5c610e3e301c819f5a7b950c77c3b36c3f5885",
    ),
    "multi-random": (
        "ee22f354eb558f25454b6c88b3d9161228c224447e87a3b5a27aaf1601ef3d12",
        "17c205e0a9bdaab18187e37be1d599eceb5ccb2be51259d9338f60b21d1405b5",
        "091101ff64a4b4e9bf54767d2524c89fd6410d747cc9427b65f7641bed75867e",
    ),
}
SUMMARY_MODES = ([], ["--pool-ratios"], ["--best-ratio"])


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _sweep_csv(name: str) -> str:
    kw, _ = GOLDEN[name]
    buf = io.StringIO()
    cli.write_csv(run_experiment(ExperimentPlan(**kw)), buf)
    return buf.getvalue()


@pytest.mark.parametrize("name", list(GOLDEN))
def test_sweep_csv_digest_is_frozen(name):
    assert _sha256(_sweep_csv(name)) == GOLDEN[name][1]


@pytest.mark.parametrize("name", list(SUMMARY_GOLDEN))
def test_summary_digests_are_frozen(name, tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    path.write_text(_sweep_csv(name), encoding="utf-8")
    digests = []
    for extra in SUMMARY_MODES:
        capsys.readouterr()
        assert cli.main(["summarize", str(path), *extra]) == 0
        digests.append(_sha256(capsys.readouterr().out))
    assert tuple(digests) == SUMMARY_GOLDEN[name]


# generate_tree(n, L, default_rng(s)).to_edge_list() over L in (1, 4, 6) and s in 0..9, per n
TREE_GOLDEN = {
    1: "104804ce22abaa8a36536b18b13d9d57799c6f38e88462e6864a0fdb5b729eef",
    30: "5da0f6ce62ad2a7177460c1b4584f19b01a6c9f87885fbbc39d282230b247d74",
    200: "0e8a3c64d86e91ae21ebe70b541b67d4ee6aeb8dc5a659ee54f407fd80e819a9",
    1200: "c20c9cc116a9b35777466e80ea050e83e52017ce9e3447b7989edecec72bd4b7",
}


@pytest.mark.parametrize("n", list(TREE_GOLDEN))
def test_tree_edge_list_digest_is_frozen(n):
    digest = hashlib.sha256()
    for max_layers in (1, 4, 6):
        for seed in range(10):
            tree = generate_tree(n, max_layers, np.random.default_rng(seed))
            digest.update(tree.to_edge_list().encode("utf-8") + b"\n\n")
    assert digest.hexdigest() == TREE_GOLDEN[n]


DEMOS = Path(__file__).resolve().parent.parent / "demos"
DEMO_GOLDEN = {
    "calibration_walkthrough": "db90ad3e368a384a861f9517a98ec14e36e24edf9691f2b9a8b7fb31807832bc",
    "frame_airtimes": "148b38177ff50ac2e7f4d9c33f57345ffed6a71894728c057f5b4a7adaa18f8c",
    "ratio_sweep_snapshot": "50d131cf9bd76f37efdfe51e68215c6f83fdaa98d5fa648ddf1d8c7e65d0b07a",
    "single_layer_race": "4c4d4b9d4a4e9239b855a7454d279223f1fd643437fbf0952d20f216de953cff",
    "slot_adaptation_trace": "ea7a241508c985ad5a85fce91fadc879e10c0eb277afdc8cc039aad22719c72a",
    "topology_sampler": "f7200fbd850c8d3356b049f8cd608a01641656170e483b87f00153670d293a94",
}


def test_every_demo_is_frozen():
    assert sorted(path.stem for path in DEMOS.glob("*.py")) == sorted(DEMO_GOLDEN)


@pytest.mark.parametrize("name", list(DEMO_GOLDEN))
def test_demo_stdout_digest_is_frozen(name, capsys):
    capsys.readouterr()
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert _sha256(capsys.readouterr().out) == DEMO_GOLDEN[name]
