"""The public surface of ``repro.core`` is what something outside it uses.

The scan lists every public function, method and class defined in
``src/repro/core/*.py`` whose name no other module of ``src``, ``bench``,
``benchmarks``, ``examples`` or ``scripts`` uses as code: a name, an
attribute, an imported name, a keyword argument, or a string constant
equal to the name (``bench/trace.py`` wraps callables by ``setattr`` from
a table of strings).  A name that only appears in a comment or a docstring
is not a use.  That list must equal :data:`SURVIVORS`: each of them stays
only because a named section of the paper makes it part of the system.  A
new name that only tests use fails here until it is deleted or given such
a reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "bench", "benchmarks", "examples", "scripts")

SURVIVORS = {
    "dashboard.py:latest_summary": "§2.2 dashboard view: latest run summary of a region",
    "endpoints.py:EndpointError": "§2.2 REST endpoint: what a request for an unknown server gets",
    "incidents.py:acknowledge": "§2.2 incident management: an operator acknowledges an alert",
    "incidents.py:add_handler": "§2.2 incident management: raised alerts reach their handlers",
    "incidents.py:has_critical": "§2.2 incident management: whether a critical alert is open",
}


def _public_definitions(tree: ast.Module):
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else []
        for item in (node, *members):
            kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            if isinstance(item, kinds) and not item.name.startswith("_"):
                yield item.name


def _identifiers(tree: ast.Module) -> set[str]:
    """Every name ``tree`` uses as code, and every string constant."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.keyword) and node.arg is not None:
            names.add(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_core_names_nothing_outside_uses_are_the_listed_survivors():
    trees = {
        path: ast.parse(path.read_text())
        for d in CALLER_DIRS
        for path in (ROOT / d).rglob("*.py")
    }
    used = {path: _identifiers(tree) for path, tree in trees.items()}
    unused = set()
    for module in sorted((ROOT / "src" / "repro" / "core").glob("*.py")):
        for name in _public_definitions(trees[module]):
            if not any(name in names for path, names in used.items() if path != module):
                unused.add(f"{module.name}:{name}")
    assert unused == set(SURVIVORS)
