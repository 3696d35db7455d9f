"""Every name a module of the package, its tests or its scripts imports is read somewhere in it."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    str(p.relative_to(ROOT))
    for d in (ROOT / "src" / "cohdiff", ROOT / "tests", ROOT / "scripts")
    for p in d.glob("*.py")
)


def unused_imports(source: str) -> list:
    """(line, name) for each imported name that no expression of ``source`` reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_finder_sees_an_unused_import():
    assert unused_imports("import os\nfrom re import A, B\nprint(B)\n") == [(1, "os"), (2, "A")]
    assert unused_imports("from __future__ import annotations\nimport os.path\nos.sep\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_every_import(module):
    assert unused_imports((ROOT / module).read_text()) == []
