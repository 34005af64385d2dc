"""Golden output: frozen sha256 digests of sweep CSVs and of their summaries.

A digest changes only when the random stream or the model changes on
purpose; such a change re-freezes the value and says why.
"""

import hashlib
import io

import pytest

from plcmac import ExperimentPlan, Protocol, cli, run_experiment

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
