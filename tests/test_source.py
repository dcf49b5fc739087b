"""Checks on the library source itself, made with the standard library's
ast module, so they need no linter."""

import ast
import importlib
import pathlib

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "simal"


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


def library_modules():
    # __init__.py imports in order to re-export
    return sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def test_no_unused_module_level_imports():
    # the library's modules and the test files, oracles included
    modules = library_modules() + sorted(TESTS.glob("*.py"))
    assert len(modules) > 25
    assert [u for p in modules for u in unused_imports(p)] == []


def names_read(path):
    """For every name that path reads, as a bare name or as an attribute,
    the indices of the top-level statements that read it."""
    tree = ast.parse(path.read_text(), filename=str(path))
    where = {}
    for index, stmt in enumerate(tree.body):
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                where.setdefault(name, set()).add((path, index))
    return where


def test_every_top_level_definition_is_read_elsewhere():
    """A top-level function or class of the library must be read by
    another statement of the library; what only tests read is not kept
    in src/simal."""
    readers = {}
    for path in SRC.glob("*.py"):
        for name, where in names_read(path).items():
            readers.setdefault(name, set()).update(where)
    unread = []
    for path in library_modules():
        tree = ast.parse(path.read_text(), filename=str(path))
        for index, stmt in enumerate(tree.body):
            # cli.run is exempt: the tests and perfbench drive the
            # command line through it
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and (path.name, stmt.name) != ("cli.py", "run")
                    and not readers.get(stmt.name, set()) - {(path, index)}):
                unread.append(f"{path.name}:{stmt.lineno} {stmt.name}")
    assert unread == []


def attribute_reads():
    """For every attribute name read in src/simal, the (path, line) of
    each read."""
    reads = {}
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute):
                reads.setdefault(node.attr, []).append((path, node.lineno))
    return reads


def test_every_public_method_is_read_elsewhere():
    """A public method of a library class must be read as an attribute
    in the library, outside its own body.  Dunders, private methods and
    overrides of a base-class method (called by the base) are exempt."""
    reads = attribute_reads()
    unread = []
    for path in library_modules():
        module = importlib.import_module(f"simal.{path.stem}")
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            if not isinstance(stmt, ast.ClassDef):
                continue
            bases = getattr(module, stmt.name).__mro__[1:]
            for item in stmt.body:
                if (not isinstance(item, ast.FunctionDef)
                        or item.name.startswith("_")
                        or any(hasattr(b, item.name) for b in bases)):
                    continue
                own = range(item.lineno, item.end_lineno + 1)
                if all(p == path and line in own
                       for p, line in reads.get(item.name, [])):
                    unread.append(f"{path.name}:{item.lineno} "
                                  f"{stmt.name}.{item.name}")
    assert unread == []


def test_only_slabs_reads_the_slab_size():
    """Every walk over a grid of argument tuples goes through
    algebra.slabs, so the slab policy is one function: no other
    top-level statement of the library reads or imports
    TABLE_CHUNK_CELLS."""
    readers = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            where = f"{path.name} {getattr(stmt, 'name', stmt.lineno)}"
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    read = isinstance(node.ctx, ast.Load) and node.id
                elif isinstance(node, ast.Attribute):
                    read = node.attr
                else:
                    read = isinstance(node, ast.alias) and node.name
                if read == "TABLE_CHUNK_CELLS":
                    readers.add(where)
    assert readers == {"algebra.py slabs"}


def test_only_limits_computes_carrier_codes():
    """Tuples become carrier indices only through limits (TupleCarrier
    and tuple_map): no other library module reads a carrier's weights
    or looks codes up by index_of_codes.  simplicial._face_codes codes
    the faces of horns that are never built by tuple_weights, which is
    no carrier's."""
    found = [f"{path.name}:{node.lineno} {node.attr}"
             for path in SRC.glob("*.py") if path.name != "limits.py"
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Attribute)
             and node.attr in ("weights", "index_of_codes")]
    assert found == []


def test_library_has_no_assert_statement():
    # python -O strips assert statements, so no check may rely on one
    found = [f"{path.name}:{node.lineno}"
             for path in SRC.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_unique_call_takes_the_hash_path():
    """Under numpy 2.4, np.unique without a return_* keyword counts by
    hashing, which is several times slower than a sort on the library's
    int64 codes; congruences.distinct sorts instead.  Every np.unique
    call in src/simal must ask for an index, inverse or counts."""
    hashing = []
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "unique"
                    and not any((k.arg or "").startswith("return_")
                                and not (isinstance(k.value, ast.Constant)
                                         and not k.value.value)
                                for k in node.keywords)):
                hashing.append(f"{path.name}:{node.lineno}")
    assert hashing == []
