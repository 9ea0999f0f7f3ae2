"""Every module-level function and class of the package has a caller.

A name counts as used when some top-level statement under ``src/`` or
``scripts/`` other than its own definition refers to it (as a name, an
attribute or an imported name), or when the package exports it in
``__all__``.  Docstrings and comments do not count.
"""

import ast
from pathlib import Path

import braidinv

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "braidinv"
# definitions the library keeps without a caller under src/ or scripts/
UNCALLED = set()


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
    exported = set(braidinv.__all__)
    unused = []
    for path, node in statements:
        if path.parent != PACKAGE or not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        used = any(
            node.name in _referenced(other)
            for other_path, other in statements
            if other is not node
        )
        if not used and node.name not in exported:
            unused.append("%s.%s" % (path.stem, node.name))
    assert sorted(unused) == sorted(
        "character_oracle.%s" % name for name in UNCALLED
    )
