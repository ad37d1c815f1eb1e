"""The public surface of ``repro.core`` is what something outside it uses.

The scan lists every public function, method and class defined in
``src/repro/core/*.py`` whose name appears in no other module of ``src``,
``bench``, ``benchmarks``, ``examples`` or ``scripts``.  That list must
equal :data:`SURVIVORS`: each of them stays only because a named section
of the paper makes it part of the system.  A new name that only tests use
fails here until it is deleted or given such a reason.
"""

import ast
import re
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


def test_core_names_nothing_outside_uses_are_the_listed_survivors():
    sources = {path: path.read_text() for d in CALLER_DIRS for path in (ROOT / d).rglob("*.py")}
    unused = set()
    for module in sorted((ROOT / "src" / "repro" / "core").glob("*.py")):
        for name in _public_definitions(ast.parse(sources[module])):
            pattern = re.compile(rf"\b{name}\b")
            if not any(pattern.search(text) for path, text in sources.items() if path != module):
                unused.add(f"{module.name}:{name}")
    assert unused == set(SURVIVORS)
