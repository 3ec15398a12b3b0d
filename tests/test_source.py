"""Checks on the package source and the test modules themselves."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
PACKAGE = sorted((ROOT / "src" / "dictatest").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
SOURCES = PACKAGE + TESTS


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


def read_names(paths):
    """The names that the modules at ``paths`` read, as a Name or an Attribute."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def traced_names(spans_path):
    """The "module.name" strings in bench/spans.py's TRACED."""
    for stmt in ast.parse(spans_path.read_text()).body:
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in stmt.targets):
            return {node.value for node in ast.walk(stmt.value)
                    if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    raise AssertionError(f"no TRACED assignment in {spans_path}")


def unread_definitions(package, bench):
    """"module.name" of each module-level function or class in ``package``
    that no module of ``package`` or ``bench`` reads and TRACED does not name.
    An import alone is no read."""
    read = read_names(package + bench)
    traced = traced_names(ROOT / "bench" / "spans.py")
    return [f"{path.stem}.{stmt.name}" for path in package
            for stmt in ast.parse(path.read_text()).body
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            and stmt.name not in read and f"{path.stem}.{stmt.name}" not in traced]


def test_every_module_level_definition_is_read():
    assert unread_definitions(PACKAGE, BENCH) == []


def test_every_reference_definition_is_read_by_the_tests():
    """The query-level references in tests/reference.py have no program
    caller, so the test modules are what keep each of them alive."""
    reference = ROOT / "tests" / "reference.py"
    others = [path for path in TESTS if path != reference]
    assert unread_definitions([reference], others) == []


def copy_package(directory):
    """Copies of the package modules in ``directory``, in PACKAGE order."""
    package = []
    for path in PACKAGE:
        package.append(directory / path.name)
        package[-1].write_text(path.read_text())
    return package


def test_the_dead_name_check_flags_an_unused_helper(tmp_path):
    package = copy_package(tmp_path)
    fourier = tmp_path / "fourier.py"
    fourier.write_text(fourier.read_text() + "\n\ndef _unused_helper():\n    return 0\n")
    assert unread_definitions(package, BENCH) == ["fourier._unused_helper"]


def unread_members(package, bench):
    """"module.Class.name" of each non-dunder method or property of a class in
    ``package``, and of each ``self.<name> =`` attribute its methods set, that
    no module of ``package`` or ``bench`` reads as ``.<name>``.

    Members match by name alone, whatever object the read is on: a
    ``self.guard_bits`` attribute would pass because ``cfg.guard_bits`` is
    read."""
    read = {node.attr for path in package + bench
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = []
    for path in package:
        for cls in ast.parse(path.read_text()).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            names = [stmt.name for stmt in cls.body if isinstance(stmt, ast.FunctionDef)]
            names += [target.attr for node in ast.walk(cls) if isinstance(node, ast.Assign)
                      for target in node.targets
                      if isinstance(target, ast.Attribute)
                      and isinstance(target.value, ast.Name) and target.value.id == "self"]
            unread += [f"{path.stem}.{cls.name}.{name}" for name in dict.fromkeys(names)
                       if not (name.startswith("__") and name.endswith("__"))
                       and name not in read]
    return unread


def test_every_class_member_is_read():
    assert unread_members(PACKAGE, BENCH) == []


def test_the_dead_member_check_flags_an_unused_method_and_attribute(tmp_path):
    package = copy_package(tmp_path)
    errors = tmp_path / "errors.py"
    errors.write_text(errors.read_text() + (
        "\n\nclass _Probe:\n"
        "    def __init__(self):\n        self.unread_attribute = 0\n\n"
        "    def unread_method(self):\n        return 0\n"))
    assert unread_members(package, BENCH) == [
        "errors._Probe.unread_method", "errors._Probe.unread_attribute"]
