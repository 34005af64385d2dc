"""The package declares requires-python >= 3.10: every source file must parse under 3.10's grammar.

This checks grammar only (syntax such as except* or PEP 695 type
parameters). It cannot see standard-library APIs newer than 3.10, such
as BaseException.add_note, which parse fine and fail only when called.
The numpy floor, 2.0, is pinned beside it, with the behaviour it is there for.
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


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_source_parses_under_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
