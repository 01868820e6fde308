"""Every module-level name that src/kcontract defines is there for a reader.

A private helper or constant that nothing reads is left over from a deleted
code path.  Reads count anywhere in src/ or perfbench/ (the benchmark reads
some private names), except inside the name's own definition.  A name the
package re-exports must also be read there, or be named in README.md or
perfbench/README.md: a name that only the tests read belongs in the tests.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kcontract"


def _definitions(tree: ast.Module):
    """(name, node) for each name a module binds at top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            yield name, node


def _reads(tree: ast.Module):
    """(name, node) for each plain name loaded and each attribute accessed."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node


def _parsed():
    """The syntax trees of src/ and perfbench/, and every read in them by name."""
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for folder in ("src", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    }
    reads = defaultdict(list)
    for path, tree in trees.items():
        for name, node in _reads(tree):
            reads[name].append((path, id(node)))
    return trees, reads


def _read_outside(name, path, definition, reads) -> bool:
    inside = {id(node) for node in ast.walk(definition)}
    return any(where != path or node not in inside for where, node in reads[name])


def test_every_private_name_is_read_outside_its_definition():
    trees, reads = _parsed()
    orphans = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, definition in _definitions(trees[path]):
            private = name.startswith("_") and not name.startswith("__")
            if private and not _read_outside(name, path, definition, reads):
                orphans.append(f"{path.name}: {name}")
    assert orphans == []


def test_every_public_name_is_read_or_documented():
    trees, reads = _parsed()
    defined = {
        name: (path, definition)
        for path in sorted(PACKAGE.glob("*.py"))
        for name, definition in _definitions(trees[path])
    }
    exported = [
        alias.asname or alias.name
        for node in trees[PACKAGE / "__init__.py"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    docs = (ROOT / "README.md").read_text() + (ROOT / "perfbench" / "README.md").read_text()
    unused = [
        name
        for name in exported
        if not _read_outside(name, *defined[name], reads)
        and not re.search(rf"\b{re.escape(name)}\b", docs)
    ]
    assert exported
    assert unused == []
