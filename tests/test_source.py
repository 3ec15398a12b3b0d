"""Checks on the package source and the test modules themselves."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "dictatest").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(path):
    """Names bound by module-level imports that the module never reads.

    ``from __future__`` imports are exempt, as is any import statement whose
    last line carries ``# noqa: F401`` (a name bound for other modules).
    """
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    bound = []
    for stmt in tree.body:
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if "# noqa: F401" in lines[stmt.end_lineno - 1]:
            continue
        for alias in stmt.names:
            bound.append(alias.asname or alias.name.split(".")[0])
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_module_level_import_is_read(path):
    assert unused_imports(path) == []
