"""Static checks over the library sources, with the standard library's ast:
the package imports only the standard library and itself (no runtime
dependencies), every name a module imports is used, every cache has a
finite size, so a long run cannot grow memory without limit, value
equality has one rule per kind of value, no instance is made around the
makers in scalars, no assert statement is left for python -O to strip, and
every private function or class has a reader in the package."""

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


# scalars._Frozen writes __eq__ and __hash__ for every frozen class; Scalar
# compares numerically, so it keeps its own
OWN_EQUALITY = {"_Frozen", "Scalar"}


def _class_names(cls):
    """The names a class body binds by def or by plain assignment."""
    for item in cls.body:
        if isinstance(item, ast.FunctionDef):
            yield item.name
        elif isinstance(item, ast.Assign):
            yield from (t.id for t in item.targets if isinstance(t, ast.Name))


def test_only_the_value_rules_define_equality():
    owners = {
        node.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef) and {"__eq__", "__hash__"} & set(_class_names(node))
    }
    assert owners <= OWN_EQUALITY, sorted(owners - OWN_EQUALITY)


def _reads_of_object(tree, attr):
    """The lines that read object.<attr>."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == attr
        and isinstance(node.value, ast.Name)
        and node.value.id == "object"
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_field_is_set_around_the_value_rule(path):
    """_Frozen's _set stores every field; object.__setattr__ would bypass it."""
    calls = _reads_of_object(ast.parse(path.read_text(encoding="utf-8")), "__setattr__")
    assert not calls, f"{path.name}: object.__setattr__ on lines {calls}"


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "scalars.py"], ids=lambda p: p.name)
def test_no_instance_is_made_around_the_makers(path):
    """scalars holds the two makers of a value from checked fields, Scalar's
    _new and _Frozen's generated _make; object.__new__ elsewhere is a third."""
    calls = _reads_of_object(ast.parse(path.read_text(encoding="utf-8")), "__new__")
    assert not calls, f"{path.name}: object.__new__ on lines {calls}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statement(path):
    """python -O strips assert statements, so a check the library needs
    raises instead."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not asserts, f"{path.name}: assert on lines {asserts}"


def test_every_private_definition_has_a_library_reader():
    """A private module-level function or class that nothing in the package
    reads outside its own definition is code no output depends on; dunders
    are exempt.  A read is a name or an attribute, so an import alone, or a
    definition that only calls itself, does not count."""
    defined, readers = [], {}
    for path in SOURCES:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(top, "name", None)
            if (
                isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and owner.startswith("_")
                and not (owner.startswith("__") and owner.endswith("__"))
            ):
                defined.append((path.name, owner))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    readers.setdefault(node.id, set()).add((path.name, owner))
                elif isinstance(node, ast.Attribute):
                    readers.setdefault(node.attr, set()).add((path.name, owner))
    orphans = [
        f"{module}:{name}" for module, name in defined if not readers.get(name, set()) - {(module, name)}
    ]
    assert not orphans, f"private definitions that nothing reads: {orphans}"
