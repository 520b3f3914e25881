"""The library keeps only names that the program, the demos or the benchmark read.

A public function, class, method or property of ``src/latticemc`` needs
a reader in ``src/``, ``demos/`` or ``perfbench/`` outside its own
definition.  A name that only the tests read is a test helper: it
belongs in ``tests/oracles.py`` or nowhere.  Readers are found by name
(an identifier, an attribute, an import, or a part of a dotted string
such as the benchmark's span names), so two names that share a spelling
count as read together.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
READER_DIRS = ("src", "demos", "perfbench")


def _public_definitions(tree):
    """(qualified name, node) of public top-level functions and classes and their public methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield f"{node.name}.{member.name}", member


def _names_read(tree):
    """(name, line) of every identifier, attribute, import and dotted-string part."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"\w+(\.\w+)+", node.value):
                for part in node.value.split("."):
                    yield part, node.lineno


def unread_public_names(root=ROOT):
    """``module.name`` of every public ``src/latticemc`` definition with no reader."""
    trees = {
        path: ast.parse(path.read_text())
        for folder in READER_DIRS
        for path in sorted((root / folder).rglob("*.py"))
    }
    reads = {path: list(_names_read(tree)) for path, tree in trees.items()}
    unread = []
    for path in sorted((root / "src" / "latticemc").glob("*.py")):
        for qualname, node in _public_definitions(trees[path]):
            if not any(
                name == node.name and not (where == path and node.lineno <= line <= node.end_lineno)
                for where, names in reads.items()
                for name, line in names
            ):
                unread.append(f"{path.stem}.{qualname}")
    return unread


def test_every_public_name_has_a_reader_outside_tests():
    assert unread_public_names() == []
