"""The library keeps only names that the program, the demos or the benchmark read.

A public function, class, method or property of ``src/latticemc`` needs
a reader in ``src/``, ``demos/`` or ``perfbench/`` outside its own
definition, and a public top-level function needs one outside its own
module: a function that only its module reads is private.  A name that
only the tests read is a test helper: it belongs in ``tests/oracles.py``
or nowhere.  Readers are found by name
(an identifier, an attribute, an import, or a part of a dotted string
such as the benchmark's span names), so two names that share a spelling
count as read together.  The count of public top-level functions and
classes may only fall: ``PUBLIC_TOP_LEVEL_NAMES`` is its ceiling, and
raising it takes a reason in CHANGES.md.  ``src_size`` gives the size
figures that ROADMAP and CHANGES quote: lines, code lines and public
top-level names.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
READER_DIRS = ("src", "demos", "perfbench")
PUBLIC_TOP_LEVEL_NAMES = 55


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


def _unread(root, definitions, module_reads):
    """``module.name`` of each ``definitions(tree)`` entry of ``src/latticemc`` with no reader.

    A read in the definition's own module counts only if ``module_reads``,
    and never from inside the definition itself.
    """
    trees = {
        path: ast.parse(path.read_text())
        for folder in READER_DIRS
        for path in sorted((root / folder).rglob("*.py"))
    }
    reads = {path: list(_names_read(tree)) for path, tree in trees.items()}
    unread = []
    for path in sorted((root / "src" / "latticemc").glob("*.py")):
        for qualname, node in definitions(trees[path]):
            if not any(
                name == node.name
                and (where != path or module_reads and not node.lineno <= line <= node.end_lineno)
                for where, names in reads.items()
                for name, line in names
            ):
                unread.append(f"{path.stem}.{qualname}")
    return unread


def unread_public_names(root=ROOT):
    """Public definitions read nowhere outside their own body."""
    return _unread(root, _public_definitions, module_reads=True)


def home_only_public_functions(root=ROOT):
    """Public top-level functions that only their own module reads: they belong private.

    Classes are left out, since public functions return their instances.
    """
    def functions(tree):
        return [(q, n) for q, n in _public_definitions(tree)
                if "." not in q and isinstance(n, ast.FunctionDef)]

    return _unread(root, functions, module_reads=False)


def _public_top_level_names(root):
    """``module.name`` of every public top-level function and class of ``src/latticemc``."""
    return [
        f"{path.stem}.{qualname}"
        for path in sorted((root / "src" / "latticemc").glob("*.py"))
        for qualname, _ in _public_definitions(ast.parse(path.read_text()))
        if "." not in qualname
    ]


_LAYOUT_TOKENS = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                  tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Lines of ``source`` that carry code: every line a token of a statement spans.

    Comments, blank lines (inside brackets too) and statements made only
    of strings (docstrings) carry none.
    """
    lines, statement = set(), []
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            if not all(t.type == tokenize.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
        elif token.type not in _LAYOUT_TOKENS:
            statement.append(token)
    return len(lines)


def src_size(root=ROOT):
    """(lines, code lines, public top-level names) of ``src/latticemc``.

    Lines are what ``cat src/latticemc/*.py | wc -l`` counts, and code
    lines are ``code_lines`` summed over the modules.
    """
    sources = [path.read_text() for path in sorted((root / "src" / "latticemc").glob("*.py"))]
    return (
        sum(text.count("\n") for text in sources),
        sum(code_lines(text) for text in sources),
        len(_public_top_level_names(root)),
    )


def test_code_lines_leave_out_docstrings_comments_and_blank_lines():
    source = (
        '"""A module docstring\nover two lines."""\n'
        "\n"
        "# a comment\n"
        "def f(a,\n"
        "      b):  # a trailing comment\n"
        '    """A docstring."""\n'
        "    return (a +\n"
        "\n"
        "            b)\n"
        "x = 'a string in a statement'\n"
    )
    # the def's two lines, the return's two (not the blank line inside its
    # brackets) and the assignment
    assert code_lines(source) == 5


def test_every_public_name_has_a_reader_outside_tests():
    assert unread_public_names() == []


def test_every_public_function_has_a_reader_outside_its_module():
    assert home_only_public_functions() == []


def test_public_top_level_names_do_not_grow():
    _, _, count = src_size()
    assert count <= PUBLIC_TOP_LEVEL_NAMES, _public_top_level_names(ROOT)
