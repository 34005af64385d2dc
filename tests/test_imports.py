"""Every name a module of the package, a demo or a test imports is used in it, and every private name the package
defines is read in it; no linter is needed to find a dead import or a leftover helper."""

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


def _unread_private_names(sources: list[str]) -> set[str]:
    """The private names the sources define at module level (functions, classes, assignment targets) and none reads.

    A name is read where it is loaded, or where an attribute of that name is taken; dunders are not private.
    """
    trees = [ast.parse(source) for source in sources]
    defined = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)}
    read = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return {name for name in defined - read if name.startswith("_") and not name.endswith("__")}


def test_the_check_finds_an_unread_private_name():
    module = ("import operator\n_row_values = operator.attrgetter('a')\n_STDOUT, _spare = None, 1\n__version__ = '1'\n"
              "def _used(): return _STDOUT\ndef _dead(): pass\nclass _Unused: pass\nPUBLIC = 1\n")
    reader = "from m import _used\nimport m\nprint(_used(), m._spare)\n"
    assert _unread_private_names([module, reader]) == {"_row_values", "_dead", "_Unused"}


def test_every_private_name_of_the_package_is_read_in_it():
    assert _unread_private_names([path.read_text() for path in sorted(SRC.glob("*.py"))]) == set()
