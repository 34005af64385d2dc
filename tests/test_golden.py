"""Golden output: frozen sha256 digests of sweep CSVs, their summaries, random trees and the demos' stdout.

A digest changes only when the random stream or the model changes on
purpose; such a change re-freezes the value and says why.
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
        "a0d12f1d30c558ecdf2e66e170d0f3d16c127508ce4dbbe6165078a334dc6a32",
    ),
    "multi-grid": (
        dict(protocols=P, n_values=(30, 200, 600), ratio_grid=(0.75, 2.0), trials=3, seed=11,
             multi_layer=True, max_layers=6),
        "11d961f3dde4c58e8cedb78a663a38e82ac9f0e7fff1f952d9dd6018f2c34cdf",
    ),
    "multi-random": (
        dict(protocols=P, n_values=(50, 400), ratio_random=(0.5, 2.0), trials=4, seed=11,
             multi_layer=True, max_layers=4),
        "372c7cadc4d381f3a122d141cf4288db2ba995918c1e7136ebded970f6941f57",
    ),
}


# `plcmac summarize` over each plan's CSV: default, --pool-ratios, --best-ratio
SUMMARY_GOLDEN = {
    "single-grid": (
        "3e48ab4e5a116b399e4da6ba7da0fb1a7db76a75ebf316573c8584b6ceba47ee",
        "ee9cbff44efd112f42975bbec6d96b69dfd0a3f2e253bdd9845f4e21c312a6c9",
        "63b318e3b281ad58eec54653220348c546a35d797ef01a1c01bc9a18c859ad42",
    ),
    "multi-grid": (
        "723741af07e57b4ed8b25578766283ed1f78c5d0eee594787ce2f3083a842b8a",
        "ada79a25c6769d9a6173e99c7cf41bcaf0a038080677565176ac92fd7a2eaf6c",
        "0b56626b52ce4d865fbbd41cacae41247b02a612d824d171fa64b1225a54c4a9",
    ),
    "multi-random": (
        "23ebdbb2ab201868bd0d978d902926c207a1d2f69a926c34069a8f98910cc82e",
        "b9669bf3f95628ba354ba1b1195ffb0c8c11c17854720777af8327ab45ee98f1",
        "d8d9816ba523b37e51ffff8adf06ad7b9b7abb403ca6ac55ae54719031011d24",
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
    "ratio_sweep_snapshot": "7fb2b3c9df6cad8d8492b937e0ed816509144d1657e743310410d3ad347bf5da",
    "single_layer_race": "d91ba97e122955748119b040b5e649a6fa6570abce0be4a23f6f7b00105bf1d1",
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
