"""The package declares requires-python >= 3.10: every source file must parse under 3.10's grammar.

This checks grammar only (syntax such as except* or PEP 695 type
parameters). It cannot see standard-library APIs newer than 3.10, such
as BaseException.add_note, which parse fine and fail only when called.
The numpy floor, 2.0, is pinned beside it, with the behaviour it is there for,
and so is the start of the generator stream that the multi-layer goldens rest on.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for folder in ("src", "tests", "demos") for path in (ROOT / folder).rglob("*.py"))


def test_the_floor_is_the_declared_one():
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text(encoding="utf-8")


def test_the_numpy_floor_is_the_one_the_key_fold_needs():
    # engine._fold finds a negative key word by the OverflowError of its uint64 cast; numpy 1.24-1.26 warn and wrap
    assert 'dependencies = ["numpy>=2.0"]' in (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    with pytest.raises(OverflowError):
        np.asarray(-1, dtype=np.uint64)


def test_the_generator_stream_is_the_one_the_goldens_were_made_with():
    # a pair's draws in a multi-layer sweep with random ratios: its ratio, target depth, first layer, later STAs' picks
    rng = np.random.default_rng(np.random.SeedSequence((11, 400, 0)))
    drawn = [rng.random(), int(rng.integers(1, 7)), int(rng.integers(3, 401)), rng.random(5).tolist()]
    assert drawn == [0.2425392216801192, 6, 264, [0.914819092190222, 0.5404169318387465, 0.11650956872372287,
                                                  0.4475901393103008, 0.1793749626549317]], (
        f"numpy {np.__version__} draws another stream from default_rng: every multi-layer golden (trees and random"
        " ratios) depends on this stream, so those goldens will fail too")


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_source_parses_under_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
