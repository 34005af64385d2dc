"""Golden output: frozen sha256 digests of sweep CSVs.

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


@pytest.mark.parametrize("name", list(GOLDEN))
def test_sweep_csv_digest_is_frozen(name):
    kw, digest = GOLDEN[name]
    buf = io.StringIO()
    cli.write_csv(run_experiment(ExperimentPlan(**kw)), buf)
    assert hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest() == digest
