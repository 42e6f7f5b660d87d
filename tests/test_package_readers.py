"""Every definition in the package has a reader outside the tests.

A function, class or method that only tests read belongs in
``tests/reference.py``, not in ``src/``.  The check matches by name, so it
can miss a dead definition that shares its name with a live one, but it
never flags a live one.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "veronese_gb"


def _definitions(module, tree):
    """(qualified name, name) of each top-level function and class of the
    module, and of each of its classes' methods but dunders."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not (
                        sub.name.startswith("__") and sub.name.endswith("__")):
                    yield f"{module}.{node.name}.{sub.name}", sub.name


def _reads(tree):
    """Every name the module reads: names, attributes, import aliases and
    string constants, the last for getattr and lookup tables."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_package_definition_has_a_reader():
    trees = {path: ast.parse(path.read_text())
             for path in [*sorted(PACKAGE.glob("*.py")),
                          *sorted((ROOT / "perfbench").glob("*.py"))]}
    read = {name for path, tree in trees.items()
            if path.name != "__init__.py" for name in _reads(tree)}
    unread = [qualified for path, tree in trees.items()
              if path.parent == PACKAGE
              for qualified, name in _definitions(path.stem, tree)
              if name not in read]
    assert not unread, f"read only by tests, if at all: {unread}"
