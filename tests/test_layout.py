"""Every module-level function and class of the package, and every method
and property of its classes, has a caller.

A module-level name counts as used when some top-level statement under
``src/`` or ``scripts/`` other than its own definition refers to it (as a
name, an attribute or an imported name), or when the package exports it in
``__all__``.  A method or property counts as used when such a statement
other than its class refers to it, or a statement of its class other than
itself does; special methods are called by the language.  Docstrings and
comments do not count.
"""

import ast
from pathlib import Path

import braidinv

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "braidinv"
# definitions the library keeps without a caller under src/ or scripts/,
# as module.name or module.Class.name, each with its reason
UNCALLED = {}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _referenced(node):
    """The identifiers a statement refers to."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def test_every_package_definition_is_used():
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    statements = [
        (path, node)
        for path in files
        for node in ast.parse(path.read_text()).body
    ]
    references = {id(node): _referenced(node) for _, node in statements}
    exported = set(braidinv.__all__)
    unused = []
    for path, node in statements:
        if path.parent != PACKAGE or not isinstance(node, FUNCTIONS + (ast.ClassDef,)):
            continue
        elsewhere = [references[id(other)] for _, other in statements if other is not node]
        if not any(node.name in refs for refs in elsewhere) and node.name not in exported:
            unused.append("%s.%s" % (path.stem, node.name))
        if not isinstance(node, ast.ClassDef):
            continue
        for method in node.body:
            if not isinstance(method, FUNCTIONS) or method.name.startswith("__"):
                continue
            siblings = [_referenced(other) for other in node.body if other is not method]
            if not any(method.name in refs for refs in elsewhere + siblings):
                unused.append("%s.%s.%s" % (path.stem, node.name, method.name))
    assert sorted(unused) == sorted(UNCALLED)
