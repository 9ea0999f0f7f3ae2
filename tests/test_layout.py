"""Every module-level function and class of the package, and every method
and property of its classes, has a caller; so does every definition of
the tests' reference module.

A module-level name counts as used when some top-level statement under
``src/`` or ``scripts/`` other than its own definition refers to it (as a
name, an attribute or an imported name), or when the package exports it in
``__all__``.  A method or property counts as used when such a statement
other than its class reads it as an attribute, or a statement of its class
other than itself does; a bare name of the same spelling, such as a local
variable, does not count.  Special methods are called by the language.
A top-level definition of ``tests/oracle_listing.py`` counts as used when a
``tests/test_*.py`` module refers to it, or a used definition there does.
Docstrings and comments do not count.
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


def _attributes(node):
    """The attribute names a statement reads or writes."""
    return {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}


def test_every_package_definition_is_used():
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    statements = [
        (path, node)
        for path in files
        for node in ast.parse(path.read_text()).body
    ]
    references = {id(node): _referenced(node) for _, node in statements}
    attributes = {id(node): _attributes(node) for _, node in statements}
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
        read = [attributes[id(other)] for _, other in statements if other is not node]
        for method in node.body:
            if not isinstance(method, FUNCTIONS) or method.name.startswith("__"):
                continue
            siblings = [_attributes(other) for other in node.body if other is not method]
            if not any(method.name in refs for refs in read + siblings):
                unused.append("%s.%s.%s" % (path.stem, node.name, method.name))
    assert sorted(unused) == sorted(UNCALLED)


def test_every_reference_definition_serves_a_test():
    tests = ROOT / "tests"
    definitions = {
        node.name: node
        for node in ast.parse((tests / "oracle_listing.py").read_text()).body
        if isinstance(node, FUNCTIONS + (ast.ClassDef,))
    }
    frontier = [
        name
        for path in sorted(tests.glob("test_*.py"))
        for node in ast.parse(path.read_text()).body
        for name in _referenced(node) & definitions.keys()
    ]
    used = set()
    while frontier:
        name = frontier.pop()
        if name not in used:
            used.add(name)
            frontier.extend(_referenced(definitions[name]) & definitions.keys())
    assert sorted(definitions.keys() - used) == []


def _package_imports(path):
    """The modules of the package that a module imports, by their names in
    it, "braidinv" for the package itself; relative, absolute and
    function-level imports alike."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = ("braidinv." + module).rstrip(".")
            # from the package itself, each imported name is a module
            dotted = [
                module + "." + alias.name if module == "braidinv" else module
                for alias in node.names
            ]
        else:
            continue
        out.update(
            name.split(".")[1] if "." in name else name
            for name in dotted
            if name == "braidinv" or name.startswith("braidinv.")
        )
    return out


def test_the_oracle_imports_only_the_shared_combinatorics_and_errors():
    # the oracle is the independent route: of the package it reads only the
    # partitions, the necklace walk and the error types, so no counting rule
    # of the formula or the catalog can reach it
    assert _package_imports(PACKAGE / "character_oracle.py") == {
        "core_combinatorics", "errors",
    }
    # the scan sees the imports of a module that does read the catalogs
    assert {"character_oracle", "product_catalog", "extension_catalog"} <= (
        _package_imports(PACKAGE / "cli.py")
    )
