"""AST-based invariant linter for this repository.

Conventions the codebase grew by review are machine-checked rules over
``ast``-parsed sources, reporting ``path:line: RULE-ID message`` and
exiting nonzero on any finding.  Run it by path::

    python src/repro/devtools/lint.py src

The module is stdlib-only and imports nothing from :mod:`repro`, so run
this way it needs no installed dependency and still judges a tree whose
runtime packages do not import -- a file that does not parse is a
``parse-error`` finding.

Rules
-----
``api-boundary``, ``manifest-boundary``, ``live-boundary``, ``format-invariants``
    Ownership: each row of :data:`OWNERSHIP` names an action that only
    its owner packages may perform -- a call to one of the row's names
    (``open`` only in a write mode where the row says so) whose
    expression carries one of the row's marks (a string fragment such as
    ``.sgx`` or ``tail.wal``, or a call to a path helper such as
    ``extract_path``), or, for a row without calls, the literal itself.
    The internal symbols (the raw ``.sgx`` helpers, the CSV parser) and
    direct ``.sgx`` I/O stay in their packages (``api-boundary``); lake
    payload files are mutated only through a manifest transaction
    (``manifest-boundary``); the CRC-framed live tail WAL is touched only
    by :mod:`repro.storage.live` (``live-boundary``); the ``.sgx`` magic
    appears only in :mod:`repro.storage.columnar` (``format-invariants``).

``import-layering``
    Imports must follow the declared layer DAG (:data:`LAYERS`):
    ``timeseries`` < ``models``/``parallel``/``validation`` < ``metrics``
    < ``features``/``storage`` < ``core``/``telemetry``/``storage.live``
    < ``serving`` < ``scheduling``/``autoscale`` < ``fleet_ops``; imports
    within one top-level package are exempt.  ``core``/``telemetry`` may
    depend on the lake but not on its streaming subsystem.  The ``repro``
    facade ``__init__`` is exempt; ``repro.devtools`` stays stdlib-only
    and is imported by no runtime code.

``lock-discipline``
    In any class that owns a ``threading.Lock``/``RLock`` attribute,
    writes to ``self._*`` attributes outside a ``with self.<lock>:``
    block are flagged (``__init__``, ``__new__`` and ``__post_init__``
    are exempt) -- a heuristic race detector for the thread-shared LRU
    caches and serving statistics.

``frozen-dataclass``
    ``object.__setattr__`` is permitted only inside the
    ``__post_init__`` of a ``@dataclass(frozen=True)`` class.

``broad-except``
    In :mod:`repro.storage` and :mod:`repro.serving`, a bare ``except:``
    or ``except Exception:`` whose body only swallows (``pass``/``...``/
    ``continue``) is rejected -- degradation paths must re-raise or
    record what they dropped.

Suppression
-----------
A finding is suppressible only via an inline pragma carrying a reason::

    risky_line()  # repro: allow[RULE-ID] why this exception is sound

The pragma applies to its own line (or, when the comment stands alone,
to the next line).  A pragma without a reason or naming an unknown rule
is itself a finding (``bad-pragma``), and a pragma that suppresses
nothing is flagged ``unused-pragma`` -- every exception stays visible
and honest in the diff.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import re
import sys
import tokenize
from dataclasses import dataclass
from pathlib import Path

# --------------------------------------------------------------------- #
# Declared invariants (the machine-readable conventions)
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Owned:
    """One ownership row: outside ``owners``, ``rule`` flags a call to one
    of ``calls`` whose expression carries a mark -- a str constant holding
    one of ``fragments`` or a call to one of ``helpers`` (no marks: every
    such call) -- or, when ``calls`` is empty, a ``fragments`` literal."""

    rule: str
    owners: tuple[str, ...]
    calls: frozenset[str]
    hint: str
    fragments: tuple[str, ...] = ()
    helpers: frozenset[str] = frozenset()
    #: ``open`` counts only with a write/append/create mode.
    write_open: bool = False


_FILE_IO_CALLS = frozenset({"open", "read_bytes", "write_bytes", "read_text", "write_text"})
_FACADE_HINT = "internal; route through the public storage API"

#: Who may touch what.  Everybody else reads a lake and observes its live
#: tail through ``DataLakeStore.query()`` and mutates it through a
#: manifest transaction.
OWNERSHIP: tuple[Owned, ...] = (
    Owned("api-boundary", ("repro.storage",), frozenset({"frame_from_sgx_bytes"}), _FACADE_HINT),
    Owned("api-boundary", ("repro.storage",), frozenset({"scan_sgx_bytes"}), _FACADE_HINT),
    Owned("api-boundary", ("repro.storage",), frozenset({"aggregate_sgx_bytes"}), _FACADE_HINT),
    # CSV is the lake's import edge, not a stored format: one parser, one
    # caller (``convert``), so a CSV parse cannot grow back into a read.
    Owned("api-boundary", ("repro.storage.migrate", "repro.storage.csv_io"),
          frozenset({"frame_from_csv_text"}), "CSV is parsed only by the import edge"),
    Owned("api-boundary", ("repro.storage",), _FILE_IO_CALLS,
          "direct I/O on a .sgx file; go through DataLakeStore.query()/scan()",
          fragments=(".sgx",)),
    Owned("manifest-boundary", ("repro.storage.manifest",),
          frozenset({"write_bytes", "write_text", "unlink", "open"}),
          "lake payload file; mutate lakes through a manifest transaction "
          "(DataLakeStore.write_extract*)",
          fragments=(".sgx", ".csv"), helpers=frozenset({"filename", "extract_path"}),
          write_open=True),
    Owned("live-boundary", ("repro.storage.live",), _FILE_IO_CALLS | {"unlink", "replace"},
          "live tail WAL; the CRC-framed append/replay/seal-trim protocol has one "
          "home -- go through LiveIngestor or DataLakeStore.query()",
          fragments=("tail.wal",), helpers=frozenset({"wal_path", "live_dir"})),
    Owned("format-invariants", ("repro.storage.columnar",), frozenset(),
          ".sgx magic literal; the binary layout has exactly one home",
          # repro: allow[format-invariants] the linter must know the magic it polices
          fragments=("SGXF",)),
)

#: The declared layer of each runtime package under ``repro``: a module
#: may import only a *strictly lower* layer or its own top-level package.
#: Dotted keys place sub-packages for outside importers (longest prefix).
LAYERS: dict[str, int] = {
    "timeseries": 0,
    "models": 1,
    "parallel": 1,
    "validation": 1,
    "metrics": 2,
    "features": 3,
    "storage": 3,
    "storage.manifest": 3,
    "storage.live": 4,
    "core": 4,
    "telemetry": 4,
    "serving": 5,
    "autoscale": 6,
    "scheduling": 6,
    "fleet_ops": 7,
}

#: Packages under the typed-error discipline (rule ``broad-except``).
BROAD_EXCEPT_PACKAGES: tuple[str, ...] = ("repro.storage", "repro.serving")

RULES: tuple[str, ...] = (
    "api-boundary",
    "import-layering",
    "lock-discipline",
    "format-invariants",
    "frozen-dataclass",
    "broad-except",
    "manifest-boundary",
    "live-boundary",
)

#: Engine diagnostics (not suppressible, not selectable off).
META_RULES: tuple[str, ...] = ("bad-pragma", "unused-pragma", "parse-error")

RULE_DESCRIPTIONS: dict[str, str] = {
    "api-boundary": "internal symbol call or direct .sgx I/O outside its owner",
    "import-layering": "import that violates the declared package layer DAG",
    "lock-discipline": "unguarded self._* write in a lock-owning class",
    "format-invariants": ".sgx magic literal outside storage/columnar.py",
    "frozen-dataclass": "object.__setattr__ outside a frozen dataclass __post_init__",
    "broad-except": "bare/broad except swallowing in storage or serving",
    "manifest-boundary": "direct write/unlink of lake payload files outside repro.storage.manifest",
    "live-boundary": "direct I/O on a live tail WAL outside repro.storage.live",
    "bad-pragma": "malformed suppression pragma (unknown rule or missing reason)",
    "unused-pragma": "suppression pragma that suppresses nothing",
    "parse-error": "file does not parse",
}


@dataclass(frozen=True)
class Finding:
    """One rule violation at ``path:line``."""

    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


@dataclass
class _Pragma:
    line: int
    rules: frozenset[str]
    reason: str
    standalone: bool
    used: bool = False


@dataclass(frozen=True)
class _Context:
    display_path: str
    module: str | None
    tree: ast.Module

    def finding(self, node: ast.AST, rule: str, message: str) -> Finding:
        return Finding(self.display_path, node.lineno, rule, message)


# --------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------- #


def module_name(path: Path) -> str | None:
    """Dotted module name of ``path``, anchored at its ``repro`` root.

    ``.../src/repro/storage/columnar.py`` -> ``repro.storage.columnar``;
    paths with no ``repro`` component (scratch fixtures) return ``None``
    and are treated as foreign to every package.
    """
    parts = list(path.with_suffix("").parts)
    if "repro" not in parts:
        return None
    index = len(parts) - 1 - parts[::-1].index("repro")
    mods = parts[index:]
    if mods[-1] == "__init__":
        mods = mods[:-1]
    return ".".join(mods)


def _within(module: str | None, prefixes: tuple[str, ...]) -> bool:
    return module is not None and any(module == p or module.startswith(p + ".") for p in prefixes)


def _call_name(func: ast.AST) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_self_attr(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _self_underscore_target(node: ast.AST) -> str | None:
    """The ``_``-prefixed attribute a write targets, when rooted at ``self``.

    Peels subscript/attribute chains: ``self._entries[key]`` and
    ``self._stats.hits`` both resolve to the underlying ``self._x``.
    """
    current: ast.AST = node
    while isinstance(current, (ast.Subscript, ast.Attribute)):
        if _is_self_attr(current):
            return current.attr if current.attr.startswith("_") else None
        current = current.value
    return None


# --------------------------------------------------------------------- #
# Rules: ownership (api-boundary, format-invariants, manifest-boundary,
# live-boundary)
# --------------------------------------------------------------------- #


def _is_write_mode(node: ast.Call) -> bool:
    # The mode is the second positional of builtin open(path, mode) but
    # the first of the method form path.open(mode).
    index = 0 if isinstance(node.func, ast.Attribute) else 1
    candidates: list[ast.AST] = list(node.args[index : index + 1])
    candidates.extend(kw.value for kw in node.keywords if kw.arg == "mode")
    for expr in candidates:
        if (
            isinstance(expr, ast.Constant)
            and isinstance(expr.value, str)
            and any(flag in expr.value for flag in ("w", "a", "x", "+"))
        ):
            return True
    return False


def _carries_mark(node: ast.Call, row: Owned) -> bool:
    if not (row.fragments or row.helpers):
        return True
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if any(fragment in sub.value for fragment in row.fragments):
                return True
        elif isinstance(sub, ast.Call) and _call_name(sub.func) in row.helpers:
            return True
    return False


def _is_owned_literal(value: object, row: Owned) -> bool:
    """A bare literal of a constant row: the fragment itself, or bytes
    that start with it (a header built around the magic)."""
    if isinstance(value, bytes):
        return any(value.startswith(fragment.encode()) for fragment in row.fragments)
    return value in row.fragments


def _rule_ownership(ctx: _Context, selected: frozenset[str]):
    rows = [r for r in OWNERSHIP if r.rule in selected and not _within(ctx.module, r.owners)]
    if not rows:
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            name = _call_name(node.func)
            for row in rows:
                if (
                    name in row.calls
                    and not (name == "open" and row.write_open and not _is_write_mode(node))
                    and _carries_mark(node, row)
                ):
                    yield _owned_finding(ctx, node, row, f"{name}()")
        elif isinstance(node, ast.Constant):
            for row in rows:
                if not row.calls and _is_owned_literal(node.value, row):
                    yield _owned_finding(ctx, node, row, repr(node.value))


def _owned_finding(ctx: _Context, node: ast.AST, row: Owned, action: str) -> Finding:
    return ctx.finding(node, row.rule, f"{action} outside {', '.join(row.owners)}: {row.hint}")


# --------------------------------------------------------------------- #
# Rule: import-layering
# --------------------------------------------------------------------- #


def _layer_key(module: str) -> str | None:
    """The :data:`LAYERS` key governing ``module`` (longest dotted prefix).

    ``repro.storage.live.wal`` resolves to ``storage.live``;
    ``repro.storage.datalake`` falls back to ``storage``.
    """
    parts = module.split(".")[1:]
    for end in range(len(parts), 0, -1):
        candidate = ".".join(parts[:end])
        if candidate in LAYERS:
            return candidate
    return None


def _layering_violation(module: str, target: str) -> str | None:
    """Why ``module`` may not import ``target`` (``None``: it may)."""
    parts = target.split(".")
    if parts[0] != "repro":
        return None
    if len(parts) == 1:
        return (
            "import the specific subpackage, not the repro facade "
            "(facade imports create layering cycles)"
        )
    own_pkg, target_pkg = module.split(".")[1], parts[1]
    if target_pkg == own_pkg:
        return None
    if own_pkg == "devtools":
        return "repro.devtools must stay stdlib-only so it can lint a broken tree"
    if target_pkg == "devtools":
        return "runtime code must not import repro.devtools (it is a dev tool)"
    own_key, target_key = _layer_key(module), _layer_key(target)
    if target_key is None or own_key is None:
        unknown = target_pkg if target_key is None else own_pkg
        return (
            f"package {unknown!r} is not in the declared layer map "
            "(add it to repro.devtools.lint.LAYERS)"
        )
    if LAYERS[target_key] >= LAYERS[own_key]:
        return (
            f"{own_key!r} (layer {LAYERS[own_key]}) may not import "
            f"{target_key!r} (layer {LAYERS[target_key]}); the declared DAG is "
            "timeseries < models/parallel/validation < metrics < "
            "features/storage(.manifest) < core/telemetry/storage.live < "
            "serving < scheduling/autoscale < fleet_ops"
        )
    return None


def _rule_import_layering(ctx: _Context):
    module = ctx.module
    if module is None or module == "repro":
        # Foreign files have no layer; repro/__init__.py is the facade.
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module is not None:
            targets = [node.module]  # relative imports are same-package by construction
        else:
            continue
        for target in targets:
            reason = _layering_violation(module, target)
            if reason is not None:
                yield ctx.finding(node, "import-layering", reason)


# --------------------------------------------------------------------- #
# Rule: lock-discipline
# --------------------------------------------------------------------- #

_LOCK_FACTORIES = frozenset({"Lock", "RLock"})
_LOCK_EXEMPT_METHODS = frozenset({"__init__", "__new__", "__post_init__"})


def _lock_attrs(cls: ast.ClassDef) -> frozenset[str]:
    attrs = set()
    for node in ast.walk(cls):
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and _call_name(node.value.func) in _LOCK_FACTORIES
            and not node.value.args
            and not node.value.keywords
        ):
            attrs.update(t.attr for t in node.targets if _is_self_attr(t))
    return frozenset(attrs)


def _unguarded_writes(node: ast.AST, locks: frozenset[str], held: bool):
    """Yield ``(node, attr)`` for self._* writes reachable without the lock."""
    if isinstance(node, (ast.With, ast.AsyncWith)):
        held = held or any(
            _is_self_attr(item.context_expr) and item.context_expr.attr in locks
            for item in node.items
        )
    elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)) and not held:
        targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [node.target]
        for target in targets:
            attr = _self_underscore_target(target)
            if attr is not None:
                yield node, attr
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, ast.ClassDef):  # nested classes own their own state
            yield from _unguarded_writes(child, locks, held)


def _rule_lock_discipline(ctx: _Context):
    for cls in ast.walk(ctx.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        locks = _lock_attrs(cls)
        if not locks:
            continue
        lock_list = "/".join(f"self.{name}" for name in sorted(locks))
        for item in cls.body:
            if (
                not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                or item.name in _LOCK_EXEMPT_METHODS
            ):
                continue
            for stmt in item.body:
                for write, attr in _unguarded_writes(stmt, locks, held=False):
                    yield ctx.finding(
                        write,
                        "lock-discipline",
                        f"write to self.{attr} in {cls.name}.{item.name} outside "
                        f"`with {lock_list}:` -- {cls.name} shares state across "
                        "threads (heuristic)",
                    )


# --------------------------------------------------------------------- #
# Rule: frozen-dataclass
# --------------------------------------------------------------------- #


def _is_frozen_dataclass(cls: ast.ClassDef) -> bool:
    return any(
        isinstance(dec, ast.Call)
        and _call_name(dec.func) == "dataclass"
        and any(
            kw.arg == "frozen" and isinstance(kw.value, ast.Constant) and kw.value.value is True
            for kw in dec.keywords
        )
        for dec in cls.decorator_list
    )


def _rule_frozen_dataclass(ctx: _Context):
    def visit(node: ast.AST, cls: ast.ClassDef | None, allowed: bool):
        # ``cls`` is the innermost enclosing class; ``allowed`` says the
        # innermost enclosing function is a frozen dataclass __post_init__.
        for child in ast.iter_child_nodes(node):
            if (
                not allowed
                and isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "__setattr__"
                and isinstance(child.func.value, ast.Name)
                and child.func.value.id == "object"
            ):
                yield ctx.finding(
                    child,
                    "frozen-dataclass",
                    "object.__setattr__ is allowed only inside __post_init__ of a "
                    "frozen dataclass -- anywhere else it defeats immutability",
                )
            if isinstance(child, ast.ClassDef):
                yield from visit(child, child, allowed)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                in_post_init = child.name == "__post_init__" and cls is not None
                yield from visit(child, cls, in_post_init and _is_frozen_dataclass(cls))
            else:
                yield from visit(child, cls, allowed)

    yield from visit(ctx.tree, None, False)


# --------------------------------------------------------------------- #
# Rule: broad-except
# --------------------------------------------------------------------- #


def _is_broad_exception(expr: ast.AST | None) -> bool:
    if expr is None:
        return True  # bare except:
    if isinstance(expr, ast.Tuple):
        return any(_is_broad_exception(element) for element in expr.elts)
    return _call_name(expr) in ("Exception", "BaseException")


def _only_swallows(body: list[ast.stmt]) -> bool:
    return all(
        isinstance(stmt, (ast.Pass, ast.Continue))
        or (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis
        )
        for stmt in body
    )


def _rule_broad_except(ctx: _Context):
    if not _within(ctx.module, BROAD_EXCEPT_PACKAGES):
        return
    for node in ast.walk(ctx.tree):
        if (
            isinstance(node, ast.ExceptHandler)
            and _is_broad_exception(node.type)
            and _only_swallows(node.body)
        ):
            caught = "bare except" if node.type is None else "except Exception"
            yield ctx.finding(
                node,
                "broad-except",
                f"{caught} that only swallows -- degradation paths in storage/"
                "serving must re-raise or record what they dropped",
            )


#: The rules with their own visitor; the rest are :data:`OWNERSHIP` rows.
_RULE_FUNCTIONS = {
    "import-layering": _rule_import_layering,
    "lock-discipline": _rule_lock_discipline,
    "frozen-dataclass": _rule_frozen_dataclass,
    "broad-except": _rule_broad_except,
}


# --------------------------------------------------------------------- #
# Pragmas
# --------------------------------------------------------------------- #

_PRAGMA_RE = re.compile(r"#\s*repro:\s*allow\[([^\]]*)\]\s*(.*)$")


def _comment_tokens(source: str):
    """Yield ``(line, column, text)`` for every real comment in ``source``.

    Tokenizing (rather than regex over raw lines) keeps pragma-shaped text
    inside docstrings and string literals from being parsed as pragmas.
    """
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.start[1], token.string
    except (tokenize.TokenError, IndentationError):
        return


def _parse_pragmas(source: str, display_path: str):
    """Collect pragmas and the findings their malformations produce."""
    pragmas: list[_Pragma] = []
    bad: list[Finding] = []
    lines = source.splitlines()
    for number, column, comment in _comment_tokens(source):
        match = _PRAGMA_RE.search(comment)
        if match is None:
            continue
        names = [part.strip() for part in match.group(1).split(",") if part.strip()]
        reason = match.group(2).strip()
        unknown = [name for name in names if name not in RULES]
        if not names or unknown:
            message = (
                f"pragma names unknown rule(s) {unknown or '(none)'}; "
                f"known rules: {', '.join(RULES)}"
            )
        elif not reason:
            message = (
                "pragma has no reason -- write `# repro: allow[rule] why` so the "
                "exception is justified in the diff"
            )
        else:
            standalone = lines[number - 1][:column].strip() == ""
            pragmas.append(_Pragma(number, frozenset(names), reason, standalone))
            continue
        bad.append(Finding(display_path, number, "bad-pragma", message))
    return pragmas, bad


def _apply_pragmas(
    findings: list[Finding],
    pragmas: list[_Pragma],
    check_unused: bool,
    display_path: str,
) -> list[Finding]:
    by_line: dict[int, list[_Pragma]] = {}
    for pragma in pragmas:
        by_line.setdefault(pragma.line, []).append(pragma)
        if pragma.standalone:
            by_line.setdefault(pragma.line + 1, []).append(pragma)
    kept: list[Finding] = []
    for finding in findings:
        covering = [p for p in by_line.get(finding.line, ()) if finding.rule in p.rules]
        for pragma in covering:
            pragma.used = True
        if not covering:
            kept.append(finding)
    if check_unused:
        kept.extend(
            Finding(
                display_path,
                pragma.line,
                "unused-pragma",
                f"pragma allow[{', '.join(sorted(pragma.rules))}] suppresses nothing; remove it",
            )
            for pragma in pragmas
            if not pragma.used
        )
    return kept


# --------------------------------------------------------------------- #
# Engine
# --------------------------------------------------------------------- #


def check_file(path: Path, select: frozenset[str] | None = None) -> list[Finding]:
    """Lint one file; returns its findings (suppressions applied)."""
    display = _display_path(path)
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError, ValueError) as exc:
        line = getattr(exc, "lineno", None) or 1
        return [Finding(display, line, "parse-error", str(exc))]
    ctx = _Context(display, module_name(path), tree)
    selected = frozenset(RULES) if select is None else select
    findings = list(_rule_ownership(ctx, selected))
    for rule, check in _RULE_FUNCTIONS.items():
        if rule in selected:
            findings.extend(check(ctx))
    pragmas, bad = _parse_pragmas(source, display)
    # Unused-pragma detection only makes sense when every rule ran.
    findings = _apply_pragmas(findings, pragmas, selected == frozenset(RULES), display)
    findings.extend(bad)
    findings.sort(key=lambda f: (f.line, f.rule))
    return findings


def _display_path(path: Path) -> str:
    try:
        return os.path.relpath(path)
    except ValueError:
        return str(path)


def iter_python_files(paths: list[Path]):
    """Expand files/directories into the ``.py`` files to lint."""
    for path in paths:
        if path.is_dir():
            for file in sorted(path.rglob("*.py")):
                if "__pycache__" not in file.parts:
                    yield file
        else:
            yield path


def run_lint(paths: list[Path], select: frozenset[str] | None = None) -> list[Finding]:
    """Lint ``paths`` (files or trees); returns all findings, sorted."""
    findings: list[Finding] = []
    for file in iter_python_files(paths):
        findings.extend(check_file(file, select))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python src/repro/devtools/lint.py",
        description="Repo-specific AST invariant linter (see repro/devtools/lint.py).",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"], help="files or directories to lint (default: src)"
    )
    parser.add_argument("--select", help="comma-separated rule ids to run (default: all)")
    parser.add_argument("--list-rules", action="store_true", help="list rule ids and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES + META_RULES:
            print(f"{rule:20} {RULE_DESCRIPTIONS[rule]}")
        return 0

    select: frozenset[str] | None = None
    if args.select:
        names = frozenset(part.strip() for part in args.select.split(",") if part.strip())
        unknown = names - frozenset(RULES)
        if unknown:
            print(
                f"error: unknown rule(s) {', '.join(sorted(unknown))}; "
                f"known: {', '.join(RULES)}",
                file=sys.stderr,
            )
            return 2
        select = names

    paths = [Path(p) for p in args.paths]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2

    findings = run_lint(paths, select)
    for finding in findings:
        print(finding.render())
    if findings:
        count = len(findings)
        print(
            f"{count} invariant violation{'s' if count != 1 else ''} "
            "(suppress only with `# repro: allow[rule] reason`)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
