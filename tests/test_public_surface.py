"""The public surface of ``src/repro`` is what something outside ``tests`` uses.

A name is *used* where a module of ``src``, ``bench``, ``benchmarks``,
``examples`` or ``scripts`` uses it as code: a name, an attribute, an
imported name, a keyword argument, or a string constant equal to the name.
A string naming a target as ``module.path:Class.attr`` (``bench/trace.py``
wraps callables by ``setattr`` from a table of such strings) uses each of
its dotted parts.  A name that only appears in a comment, a docstring or
other prose is not a use.

Two scans hold the surface to that.  The ``repro.core`` scan lists every
public function, method and class of ``src/repro/core/*.py`` that no
*other* module uses.  The whole-tree scan lists every public definition of
``src/repro`` that nothing outside ``tests`` uses, counting its own module
but not a package ``__init__.py`` that only re-exports it.  Each list must
equal its survivors: each of them stays only because a named part of the
paper makes it part of the system.  A new name that only tests use fails
here until it is deleted or given such a reason.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "bench", "benchmarks", "examples", "scripts")

#: ``repro.core`` names no other module uses, and why each stays.
SURVIVORS = {
    "dashboard.py:latest_summary": "§2.2 dashboard view: latest run summary of a region",
    "endpoints.py:EndpointError": "§2.2 REST endpoint: what a request for an unknown server gets",
    "incidents.py:acknowledge": "§2.2 incident management: an operator acknowledges an alert",
    "incidents.py:add_handler": "§2.2 incident management: raised alerts reach their handlers",
    "incidents.py:has_critical": "§2.2 incident management: whether a critical alert is open",
}

#: ``src/repro`` names nothing outside ``tests`` uses, and why each stays.
TREE_SURVIVORS = {
    "core/dashboard.py:latest_summary": SURVIVORS["dashboard.py:latest_summary"],
    "core/incidents.py:acknowledge": SURVIVORS["incidents.py:acknowledge"],
    "core/incidents.py:add_handler": SURVIVORS["incidents.py:add_handler"],
    "core/incidents.py:has_critical": SURVIVORS["incidents.py:has_critical"],
    "features/patterns.py:has_daily_pattern": "Definition 5: a daily pattern over a whole series",
    "features/patterns.py:has_weekly_pattern": "Definition 6: a weekly pattern over a whole series",
    "features/stability.py:is_stable": "Definition 4: a stable server over a whole series",
    "metrics/predictable.py:is_predictable_server": "Definition 9: one server's predictability",
    "metrics/standard.py:prediction_error": "Equation 1: the pointwise prediction error",
    "scheduling/fabric.py:get_property": "§2.3 service fabric: the backup service reads the "
    "scheduled window start the scheduler stored",
}


def _public_definitions(tree: ast.Module):
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else []
        for item in (node, *members):
            kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            if isinstance(item, kinds) and not item.name.startswith("_"):
                yield item.name


#: A ``setattr`` target such as ``"repro.storage.datalake:DataLakeStore.query"``.
_TARGET = re.compile(r"^[\w.]+:[\w.]+$")


def _identifiers(tree: ast.Module, reexports: bool = True) -> set[str]:
    """Every name ``tree`` uses as code, and every string constant (a
    ``module:attr`` target also by its parts).  ``reexports=False`` leaves
    out imported names and the strings of ``__all__``."""
    skipped = set()
    if not reexports:
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                skipped.update(map(id, ast.walk(node.value)))
    names = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias) and reexports:
            names.update(node.name.split("."))
        elif isinstance(node, ast.keyword) and node.arg is not None:
            names.add(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
            if _TARGET.match(node.value):
                names.update(re.split(r"[:.]", node.value))
    return names


@pytest.fixture(scope="module")
def trees() -> dict[Path, ast.Module]:
    return {
        path: ast.parse(path.read_text())
        for d in CALLER_DIRS
        for path in (ROOT / d).rglob("*.py")
    }


def test_core_names_nothing_outside_uses_are_the_listed_survivors(trees):
    used = {path: _identifiers(tree) for path, tree in trees.items()}
    unused = set()
    for module in sorted((ROOT / "src" / "repro" / "core").glob("*.py")):
        for name in _public_definitions(trees[module]):
            if not any(name in names for path, names in used.items() if path != module):
                unused.add(f"{module.name}:{name}")
    assert unused == set(SURVIVORS)


def test_names_nothing_outside_tests_uses_are_the_listed_survivors(trees):
    package = ROOT / "src" / "repro"
    used = set()
    for path, tree in trees.items():
        reexports = not (path.name == "__init__.py" and package in path.parents)
        used |= _identifiers(tree, reexports=reexports)
    unused = {
        f"{module.relative_to(package).as_posix()}:{name}"
        for module in sorted(package.rglob("*.py"))
        for name in _public_definitions(trees[module])
        if name not in used
    }
    assert unused == set(TREE_SURVIVORS)


def test_a_setattr_target_string_uses_its_parts_and_prose_does_not():
    table = ast.parse('WRAP = ("repro.storage.datalake:DataLakeStore.query", "see Foo.bar: x")')
    names = _identifiers(table)
    assert {"DataLakeStore", "query", "datalake"} <= names
    assert not {"Foo", "bar"} & names


def test_a_package_reexport_is_not_a_use():
    init = ast.parse('from .m import helper, used\n__all__ = ["helper", "used"]\nused()\n')
    assert "helper" not in _identifiers(init, reexports=False)
    assert "used" in _identifiers(init, reexports=False)
    assert "helper" in _identifiers(init)
