"""The runtime dependencies in pyproject.toml are exactly what src/ imports,
and every name a module imports is read."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _third_party_imports() -> set[str]:
    names = set()
    for path in (ROOT / "src" / "kcontract").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return {n for n in names if n not in sys.stdlib_module_names}


def test_runtime_dependencies_are_the_third_party_imports():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower() for req in project["dependencies"]}
    assert _third_party_imports() == declared


def _unread_imports(path: Path) -> list[str]:
    """Names ``path`` imports (``import x as y``, ``from m import x``) and
    never names again, alone or as the base of an attribute."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "annotations":  # from __future__
                    imported.add((alias.asname or alias.name).split(".")[0])
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_every_imported_name_is_read():
    unread = {
        path.name: names
        for path in sorted((ROOT / "src" / "kcontract").glob("*.py"))
        if path.name != "__init__.py" and (names := _unread_imports(path))
    }
    assert unread == {}
