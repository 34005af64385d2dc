"""Every name a module of the package, a demo or a test imports is used in it; no linter is needed to find a dead import."""

import ast
from pathlib import Path

import pytest

from test_engine import _tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "plcmac"


def _unused_imports(source: str) -> set[str]:
    """The names source imports and never reads, by its syntax tree; __future__ imports bind no name."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_the_check_finds_a_dead_import():
    source = "from __future__ import annotations\nimport os.path\nimport numpy as np\nfrom math import inf, pi\nnp.zeros(pi)\n"
    assert _unused_imports(source) == {"os", "inf"}


# __init__.py imports to re-export; engine.py imports the names bench/tracer.py wraps on it, which the engine never calls
@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    exempt = set(_tracer().ENGINE_NAMES) if path.name == "engine.py" else set()
    assert _unused_imports(path.read_text()) - exempt == set()


@pytest.mark.parametrize("path", sorted([*ROOT.glob("demos/*.py"), *ROOT.glob("tests/*.py")]),
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_demo_and_test_uses_its_imports(path):
    assert _unused_imports(path.read_text()) == set()
