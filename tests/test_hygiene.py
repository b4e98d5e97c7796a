"""Static checks over the library sources, with the standard library's ast:
the package imports only the standard library and itself (no runtime
dependencies), every name a module imports is used, and every cache has a
finite size, so a long run cannot grow memory without limit."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "rdiv").glob("*.py"))


def _imports(tree):
    """(top-level module or None for a relative import, bound name) pairs."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], (alias.asname or alias.name).split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            top = None if node.level else node.module.split(".")[0]
            for alias in node.names:
                yield top, alias.asname or alias.name


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "polyhedra.py", "toric.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_rdiv(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    foreign = {
        top for top, _ in _imports(tree) if top not in (None, "rdiv") and top not in sys.stdlib_module_names
    }
    assert not foreign, f"{path.name} imports {sorted(foreign)}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    unused = sorted({name for _, name in _imports(tree)} - used)
    assert not unused, f"{path.name} imports {unused} without using them"


def _bounded_cache_call(node) -> bool:
    """lru_cache(maxsize=<positive int>) or lru_cache(<positive int>)."""
    args = [k.value for k in node.keywords if k.arg == "maxsize"] + node.args[:1]
    return (
        len(args) == 1
        and isinstance(args[0], ast.Constant)
        and type(args[0].value) is int
        and args[0].value > 0
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_lru_cache_has_a_finite_maxsize(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bounded = {
        id(node.func)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _bounded_cache_call(node)
    }
    uses = [
        node
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id in ("lru_cache", "cache"))
        or (isinstance(node, ast.Attribute) and node.attr in ("lru_cache", "cache"))
    ]
    unbounded = [node.lineno for node in uses if id(node) not in bounded]
    assert not unbounded, f"{path.name}: cache without a finite maxsize on lines {unbounded}"
