"""The package holds only what a command or the benchmark runs.

Every module-level function and every method other than a dunder that
src/robustform defines must be named somewhere in src/ or bench/ outside
its own definition: as a name, an attribute, an import or an identifier
string (bench/tracer.py names what it wraps in strings).  A name that only
the tests use belongs in the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "robustform").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "bench").glob("*.py"))


def defined(tree):
    """(qualified name, name) of the module-level functions and the
    non-dunder methods of module-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.name


def named(tree):
    """Every name the tree refers to."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.asname or node.name
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            yield node.value


def test_every_package_function_is_used_outside_the_tests():
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in SOURCES}
    used = {name for tree in trees.values() for name in named(tree)}
    unused = sorted(qual for path in PACKAGE
                    for qual, name in defined(trees[path])
                    if name not in used)
    assert unused == []
