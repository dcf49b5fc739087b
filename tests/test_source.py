"""Checks on the library source itself, made with the standard library's
ast module, so they need no linter."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "simal"


def unused_imports(path):
    """Names bound by a module-level import of path and never read."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}"
            for name, line in bound.items() if name not in read]


def test_no_unused_module_level_imports():
    # __init__.py imports in order to re-export
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) > 10
    assert [u for p in modules for u in unused_imports(p)] == []
