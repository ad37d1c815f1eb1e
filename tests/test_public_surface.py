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

A third scan does the same for *modes*: it lists every defaulted
parameter of a public function or method of ``src/repro`` that no call
outside ``tests`` passes -- by keyword, by position, or through a ``*`` /
``**`` spread; a constructor is called through its class name.  Calls are
matched to definitions by name, so any call of that name passes.  A call
that takes a function as an argument (``ctx.timed("op", runner.run_day,
day, horizon_points=h)``) passes it the arguments that follow it.  Its
survivors are a paper threshold, an injected collaborator a test replaces
with a fake, a CLI's ``argv``, or what a ROADMAP item removes or pins.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "bench", "benchmarks", "examples", "scripts")

#: ``repro.core`` names no other module uses, and why each stays.
SURVIVORS = {
    "incidents.py:acknowledge": "§2.2 incident management: an operator acknowledges an alert",
    "incidents.py:add_handler": "§2.2 incident management: raised alerts reach their handlers",
    "incidents.py:has_critical": "§2.2 incident management: whether a critical alert is open",
}

#: ``src/repro`` names nothing outside ``tests`` uses, and why each stays.
TREE_SURVIVORS = {
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


#: Defaulted parameters no call outside ``tests`` passes, and why each stays.
PARAM_SURVIVORS = {
    "autoscale/classification.py:classify_databases(evaluation_days=)": "Definition 10: "
    "the days a database's variation is judged over",
    "autoscale/classification.py:classify_databases(n_std=)": "Definition 10: the "
    "standard deviations a stable database stays within",
    "devtools/lint.py:main(argv=)": "the linter CLI's argv",
    "features/classification.py:classify_frame(bound=)": "Definition 1: the error bound",
    "features/classification.py:classify_frame(threshold=)": "Definition 2: the accuracy "
    "threshold",
    "features/classification.py:classify_frame(lifespan_threshold_days=)": "Definition 3: "
    "the days that make a server long-lived",
    "features/patterns.py:day_over_day_bucket_ratio(bound=)": "Definition 1: the error bound",
    "features/patterns.py:has_daily_pattern(bound=)": "Definition 1: the error bound",
    "features/patterns.py:has_daily_pattern(threshold=)": "Definition 2: the accuracy "
    "threshold",
    "features/patterns.py:has_daily_pattern(min_days=)": "Definition 5: the days a daily "
    "pattern must hold on",
    "features/patterns.py:has_weekly_pattern(bound=)": "Definition 1: the error bound",
    "features/patterns.py:has_weekly_pattern(threshold=)": "Definition 2: the accuracy "
    "threshold",
    "features/patterns.py:has_weekly_pattern(min_days=)": "Definition 6: the days a weekly "
    "pattern must hold on",
    "features/stability.py:is_stable(bound=)": "Definition 1: the error bound",
    "features/stability.py:is_stable(threshold=)": "Definition 4: the share of points the "
    "interval average must predict",
    "fleet_ops/cli.py:main(argv=)": "the fleet CLI's argv",
    "metrics/bucket_ratio.py:is_accurate_prediction(bound=)": "Definition 1: the error bound",
    "metrics/bucket_ratio.py:is_accurate_prediction(threshold=)": "Definition 2: the "
    "accuracy threshold",
    "metrics/ll_window.py:is_window_correctly_chosen(bound=)": "Definition 8: the error "
    "bound a chosen window's load is judged with",
    "metrics/predictable.py:is_predictable_server(bound=)": "Definition 9: the error bound",
    "metrics/predictable.py:is_predictable_server(accuracy_threshold=)": "Definition 9: the "
    "accuracy threshold",
    "metrics/predictable.py:is_predictable_server(required_days=)": "Definition 9: the "
    "backup days looked at",
    "scheduling/backup.py:BackupScheduler(fabric=)": "§2.3 service fabric: an injected "
    "collaborator, the property store the backup service reads, which a test replaces "
    "with its own to observe the writes",
    "storage/datalake.py:DataLakeStore.scan(stats=)": "ROADMAP item 4 pins stats that fill "
    "as the scan advances",
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


def _defaulted_parameters(tree: ast.Module):
    """``(label, callee, parameter, position)`` for each defaulted
    parameter of a public function or method (a constructor's callee is
    its class); ``position`` counts the call's positional arguments and is
    ``None`` for a keyword-only parameter."""
    for node in tree.body:
        is_class = isinstance(node, ast.ClassDef)
        if is_class and node.name.startswith("_"):
            continue
        for item in node.body if is_class else [node]:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name == "__init__" and is_class:
                label = callee = node.name
            elif item.name.startswith("_"):
                continue
            else:
                callee = item.name
                label = f"{node.name}.{item.name}" if is_class else item.name
            static = any(getattr(d, "id", "") == "staticmethod" for d in item.decorator_list)
            bound = int(is_class and not static)  # ``self`` / ``cls``
            args = item.args
            positional = [*args.posonlyargs, *args.args]
            first = len(positional) - len(args.defaults)
            for index, arg in enumerate(positional[first:], start=first):
                yield label, callee, arg.arg, index - bound
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield label, callee, arg.arg, None


def _unpassed_defaults(trees: dict[Path, ast.Module]) -> set[str]:
    """Defaulted parameters of ``src/repro`` that no call in
    :data:`CALLER_DIRS` passes."""
    keywords: dict[str, set[str]] = {}
    positions: dict[str, float] = {}
    spread: set[str] = set()
    for path, tree in trees.items():
        if path.relative_to(ROOT).parts[0] not in CALLER_DIRS:
            continue
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            # The callee, then each function reference the call forwards to.
            callees = [(call.func, call.args)] + [
                (arg, call.args[index + 1 :])
                for index, arg in enumerate(call.args)
                if isinstance(arg, (ast.Name, ast.Attribute))
            ]
            for func, args in callees:
                name = getattr(func, "id", getattr(func, "attr", None))
                starred = any(isinstance(arg, ast.Starred) for arg in args)
                positions[name] = max(
                    positions.get(name, 0), float("inf") if starred else len(args)
                )
                keywords.setdefault(name, set()).update(k.arg for k in call.keywords)
                if None in keywords[name]:
                    spread.add(name)
    package = ROOT / "src" / "repro"
    return {
        f"{path.relative_to(package).as_posix()}:{label}({arg}=)"
        for path, tree in trees.items()
        if package in path.parents
        for label, callee, arg, position in _defaulted_parameters(tree)
        if callee not in spread
        and arg not in keywords.get(callee, ())
        and (position is None or positions.get(callee, 0) <= position)
    }


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


def test_defaults_nothing_outside_tests_passes_are_the_listed_survivors(trees):
    assert _unpassed_defaults(trees) == set(PARAM_SURVIVORS)


def _scanned(*modules: tuple[str, str]) -> set[str]:
    return _unpassed_defaults({ROOT / path: ast.parse(code) for path, code in modules})


DEFINED = (
    "src/repro/m.py",
    "def f(a, by_position=1, by_keyword=2, *, unpassed=3): ...\n"
    "def g(a, *, spread=4): ...\n"
    "class C:\n"
    "    def __init__(self, size=1): ...\n"
    "    def m(self, mode=None): ...\n",
)
UNPASSED = {
    "m.py:f(by_position=)",
    "m.py:f(by_keyword=)",
    "m.py:f(unpassed=)",
    "m.py:g(spread=)",
    "m.py:C(size=)",
    "m.py:C.m(mode=)",
}
CALLS = "f(0, 7)\nf(0, by_keyword=5)\ng(0, **options)\nC(8).m()\n"


def test_a_default_passed_by_keyword_position_or_spread_is_not_listed():
    assert _scanned(DEFINED, ("examples/e.py", CALLS)) == {"m.py:f(unpassed=)", "m.py:C.m(mode=)"}


def test_a_call_passes_what_follows_a_function_it_takes_to_that_function():
    forwarded = "timed('op', f, 0, 7, unpassed=1)\ntimed('op', C(8).m, mode=2)\n"
    assert _scanned(DEFINED, ("bench/b.py", forwarded)) == {
        "m.py:f(by_keyword=)",
        "m.py:g(spread=)",
    }


def test_a_default_nobody_passes_is_listed():
    assert _scanned(DEFINED, ("scripts/s.py", "f(0)\nC().m()\n")) == UNPASSED


def test_a_call_from_tests_does_not_count():
    assert _scanned(DEFINED, ("tests/test_m.py", CALLS)) == UNPASSED
