"""Every module-level private name defined in src/kcontract is read somewhere.

A private helper or constant that nothing reads is left over from a deleted
code path.  Reads count anywhere in src/ or perfbench/ (the benchmark reads
some private names), except inside the name's own definition.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _private_definitions(tree: ast.Module):
    """(name, node) for each private name a module binds at top level."""
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
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _reads(tree: ast.Module):
    """(name, node) for each plain name loaded and each attribute accessed."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node


def test_every_private_name_is_read_outside_its_definition():
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for folder in ("src", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    }
    reads = defaultdict(list)
    for path, tree in trees.items():
        for name, node in _reads(tree):
            reads[name].append((path, id(node)))
    orphans = []
    for path in sorted((ROOT / "src" / "kcontract").glob("*.py")):
        for name, definition in _private_definitions(trees[path]):
            inside = {id(node) for node in ast.walk(definition)}
            if all(where == path and node in inside for where, node in reads[name]):
                orphans.append(f"{path.name}: {name}")
    assert orphans == []
