"""AST-based invariant linter for this repository.

Six PRs of growth left the codebase with conventions that were enforced
only by review.  This module turns them into machine-checked rules over
``ast``-parsed sources, reporting ``path:line: RULE-ID message`` and
exiting nonzero on any finding::

    python -m repro.devtools.lint src

Rules
-----
``api-boundary``
    Declared-internal symbols (:data:`INTERNAL_SYMBOLS`) may only be
    called or constructed inside their owning package -- e.g.
    ``ScoringEndpoint`` is an internal transport of :mod:`repro.serving`,
    and the raw ``.sgx`` helpers (``frame_from_sgx_bytes``,
    ``scan_sgx_bytes``, ``aggregate_sgx_bytes``) plus direct ``open()`` of
    ``*.sgx`` files belong to :mod:`repro.storage`; everything else must
    go through ``DataLakeStore.query()``.  ``frame_from_csv_text`` belongs
    to the import edge (:mod:`repro.storage.migrate`) alone.

``import-layering``
    Imports must follow the declared layer DAG (:data:`LAYERS`):
    ``timeseries`` < ``models``/``parallel``/``validation`` < ``metrics``
    < ``features``/``storage`` < ``core``/``telemetry`` < ``serving`` <
    ``scheduling``/``autoscale`` < ``fleet_ops``.  In particular
    ``storage`` may never import ``serving`` or ``fleet_ops``.  Dotted
    keys place sub-packages for *outside* importers (longest-prefix
    resolution): ``storage.live`` sits with ``core``/``telemetry``, so
    those may depend on the lake but not on the streaming subsystem;
    imports within one top-level package stay exempt.  The ``repro``
    top-level ``__init__`` is the public facade and is exempt;
    ``repro.devtools`` must stay stdlib-only and un-imported by runtime
    code.

``lock-discipline``
    In any class that owns a ``threading.Lock``/``RLock`` attribute,
    writes to ``self._*`` attributes outside a ``with self.<lock>:``
    block are flagged (``__init__`` is exempt) -- a heuristic race
    detector for the thread-shared LRU caches and endpoint statistics.

``format-invariants``
    Every ``struct.Struct`` in ``storage/columnar.py`` must sit beside a
    named ``*_SIZE``/``*_ENTRY_SIZE``/``*_BYTES`` constant equal to its
    ``struct.calcsize``, raw ``struct.pack``/``unpack`` calls with inline
    format strings are rejected there, and the ``.sgx`` magic literal may
    appear in no other module -- writer and reader must agree on the
    layout through those shared names.

``frozen-dataclass``
    ``object.__setattr__`` is permitted only inside the
    ``__post_init__`` of a ``@dataclass(frozen=True)`` class.

``broad-except``
    In :mod:`repro.storage` and :mod:`repro.serving`, a bare ``except:``
    or ``except Exception:`` whose body only swallows (``pass``/``...``/
    ``continue``) is rejected -- degradation paths must re-raise or
    record what they dropped.

``manifest-boundary``
    Lake payload files (the ``.sgx``/CSV extract segments) are owned by
    the transactional manifest (:mod:`repro.storage.manifest`): a direct
    ``write_bytes``/``write_text``/``unlink`` -- or ``open`` for writing
    -- whose expression resolves an extract path (an ``.sgx``/``.csv``
    filename literal, ``ExtractKey.filename(...)``,
    ``DataLakeStore.extract_path(...)``) outside that package is a
    finding; mutations must go through a manifest transaction so they
    stay crash-safe and atomic.

``live-boundary``
    The streaming-ingestion tail WAL (``_manifest/live/**/*.tail.wal``)
    is owned by :mod:`repro.storage.live`: any ``open``/``read_bytes``/
    ``write_bytes``/``unlink``/``replace`` whose expression resolves a
    tail-WAL path (a ``tail.wal`` literal, ``wal_path(...)``,
    ``live_dir(...)``) outside that package is a finding -- the
    CRC-framed append/replay/seal-trim protocol has exactly one home.

Suppression
-----------
A finding is suppressible only via an inline pragma carrying a reason::

    risky_line()  # repro: allow[RULE-ID] why this exception is sound

The pragma applies to its own line (or, when the comment stands alone,
to the next line).  A pragma without a reason or naming an unknown rule
is itself a finding (``bad-pragma``), and a pragma that suppresses
nothing is flagged ``unused-pragma`` -- every exception stays visible
and honest in the diff.

The module is deliberately stdlib-only so it can judge a tree whose
runtime packages do not import.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import re
import struct as struct_module
import sys
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

# --------------------------------------------------------------------- #
# Declared invariants (the machine-readable conventions)
# --------------------------------------------------------------------- #

#: Internal symbols and the package (or module) prefixes allowed to call
#: or construct them.  Everybody else goes through the public facades
#: (``PredictionService``, ``DataLakeStore.query``).
INTERNAL_SYMBOLS: dict[str, tuple[str, ...]] = {
    "ScoringEndpoint": ("repro.serving", "repro.core.endpoints"),
    "frame_from_sgx_bytes": ("repro.storage",),
    "scan_sgx_bytes": ("repro.storage",),
    "aggregate_sgx_bytes": ("repro.storage",),
    # CSV is the lake's import edge, not a stored format: one parser, one
    # caller (``convert``), so a CSV parse cannot grow back into a read.
    "frame_from_csv_text": ("repro.storage.migrate", "repro.storage.csv_io"),
}

#: Calls that perform raw file I/O; combined with a ``.sgx`` literal in
#: their argument/receiver expression they bypass the lake's read path
#: and belong to :mod:`repro.storage` alone.
_SGX_IO_CALLS = frozenset({"open", "read_bytes", "write_bytes", "read_text", "write_text"})

#: The declared layer of each runtime package under ``repro``.  A module
#: may only import packages at a *strictly lower* layer (or its own
#: top-level package -- internal structure is the package's business).
#: ``repro/__init__.py`` (the public facade) is exempt; ``devtools`` is
#: outside the runtime DAG entirely (stdlib-only, imported by nobody).
#:
#: Dotted keys place *sub*-packages for outside importers (resolved by
#: longest prefix): ``storage.manifest`` sits with ``storage``, but
#: ``storage.live`` sits a layer above it -- ``core``/``telemetry`` may
#: depend on the lake, never on the streaming subsystem riding on top.
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

#: The module that owns the ``.sgx`` binary layout.
COLUMNAR_MODULE = "repro.storage.columnar"

#: Accepted suffixes for a struct's named size constant.
_SIZE_SUFFIXES = ("_SIZE", "_ENTRY_SIZE", "_HEADER_SIZE", "_BYTES")

_SGX_MAGIC = b"SGXF"  # repro: allow[format-invariants] the linter must know the magic it polices

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
    "api-boundary": "internal symbols called/constructed outside their owning package",
    "import-layering": "import that violates the declared package layer DAG",
    "lock-discipline": "unguarded self._* write in a lock-owning class",
    "format-invariants": ".sgx struct/size-constant drift or magic literal outside columnar.py",
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


@dataclass
class _Context:
    path: Path
    display_path: str
    module: str | None
    tree: ast.Module
    _parents: dict[ast.AST, ast.AST] | None = field(default=None, repr=False)

    @property
    def parents(self) -> dict[ast.AST, ast.AST]:
        if self._parents is None:
            parents: dict[ast.AST, ast.AST] = {}
            for node in ast.walk(self.tree):
                for child in ast.iter_child_nodes(node):
                    parents[child] = node
            self._parents = parents
        return self._parents

    def ancestors(self, node: ast.AST):
        current = self.parents.get(node)
        while current is not None:
            yield current
            current = self.parents.get(current)


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
    if module is None:
        return False
    return any(module == p or module.startswith(p + ".") for p in prefixes)


def _call_name(func: ast.AST) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _self_underscore_target(node: ast.AST) -> str | None:
    """The ``_``-prefixed attribute a write targets, when rooted at ``self``.

    Peels subscript/attribute chains: ``self._entries[key]`` and
    ``self._stats.hits`` both resolve to the underlying ``self._x``.
    """
    current: ast.AST = node
    while isinstance(current, (ast.Subscript, ast.Attribute)):
        if (
            isinstance(current, ast.Attribute)
            and isinstance(current.value, ast.Name)
            and current.value.id == "self"
        ):
            return current.attr if current.attr.startswith("_") else None
        current = current.value
    return None


# --------------------------------------------------------------------- #
# Rule: api-boundary
# --------------------------------------------------------------------- #


def _mentions_sgx_literal(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str) and ".sgx" in sub.value:
            return True
    return False


def _rule_api_boundary(ctx: _Context):
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node.func)
        if name in INTERNAL_SYMBOLS and not _within(ctx.module, INTERNAL_SYMBOLS[name]):
            owners = ", ".join(INTERNAL_SYMBOLS[name])
            yield Finding(
                ctx.display_path,
                node.lineno,
                "api-boundary",
                f"{name!r} is internal to {owners}; route through the public "
                "serving/storage API instead",
            )
        elif (
            name in _SGX_IO_CALLS
            and not _within(ctx.module, ("repro.storage",))
            and _mentions_sgx_literal(node)
        ):
            yield Finding(
                ctx.display_path,
                node.lineno,
                "api-boundary",
                "direct I/O on a .sgx file outside repro.storage; go through "
                "DataLakeStore.query()/scan()",
            )


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


def _rule_import_layering(ctx: _Context):
    module = ctx.module
    if module is None or module == "repro":
        # Foreign files have no layer; repro/__init__.py is the facade.
        return
    own_pkg = module.split(".")[1]
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue  # relative import: same package by construction
            targets = [node.module]
        else:
            continue
        for target in targets:
            parts = target.split(".")
            if parts[0] != "repro":
                continue
            if len(parts) == 1:
                yield Finding(
                    ctx.display_path,
                    node.lineno,
                    "import-layering",
                    "import the specific subpackage, not the repro facade "
                    "(facade imports create layering cycles)",
                )
                continue
            target_pkg = parts[1]
            if target_pkg == own_pkg:
                continue
            if own_pkg == "devtools":
                yield Finding(
                    ctx.display_path,
                    node.lineno,
                    "import-layering",
                    "repro.devtools must stay stdlib-only so it can lint a broken tree",
                )
                continue
            if target_pkg == "devtools":
                yield Finding(
                    ctx.display_path,
                    node.lineno,
                    "import-layering",
                    "runtime code must not import repro.devtools (it is a dev tool)",
                )
                continue
            own_key = _layer_key(module)
            target_key = _layer_key(target)
            if target_key is None or own_key is None:
                unknown = target_pkg if target_key is None else own_pkg
                yield Finding(
                    ctx.display_path,
                    node.lineno,
                    "import-layering",
                    f"package {unknown!r} is not in the declared layer map "
                    "(add it to repro.devtools.lint.LAYERS)",
                )
            elif LAYERS[target_key] >= LAYERS[own_key]:
                yield Finding(
                    ctx.display_path,
                    node.lineno,
                    "import-layering",
                    f"{own_key!r} (layer {LAYERS[own_key]}) may not import "
                    f"{target_key!r} (layer {LAYERS[target_key]}); the declared DAG is "
                    "timeseries < models/parallel/validation < metrics < "
                    "features/storage(.manifest) < core/telemetry/storage.live < "
                    "serving < scheduling/autoscale < fleet_ops",
                )


# --------------------------------------------------------------------- #
# Rule: lock-discipline
# --------------------------------------------------------------------- #

_LOCK_FACTORIES = frozenset({"Lock", "RLock"})


def _is_lock_ctor(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and _call_name(node.func) in _LOCK_FACTORIES
        and not node.args
        and not node.keywords
    )


def _lock_attrs(cls: ast.ClassDef) -> frozenset[str]:
    attrs = set()
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign) and _is_lock_ctor(node.value):
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    attrs.add(target.attr)
    return frozenset(attrs)


def _holds_lock(item: ast.withitem, locks: frozenset[str]) -> bool:
    expr = item.context_expr
    return (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
        and expr.attr in locks
    )


def _unguarded_writes(node: ast.AST, locks: frozenset[str], held: bool):
    """Yield ``(node, attr)`` for self._* writes reachable without the lock."""
    if isinstance(node, (ast.With, ast.AsyncWith)):
        held = held or any(_holds_lock(item, locks) for item in node.items)
    elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and not held:
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            attr = _self_underscore_target(target)
            if attr is not None:
                yield node, attr
    elif isinstance(node, ast.Delete) and not held:
        for target in node.targets:
            attr = _self_underscore_target(target)
            if attr is not None:
                yield node, attr
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            continue  # nested classes own their own state
        yield from _unguarded_writes(child, locks, held)


_LOCK_EXEMPT_METHODS = frozenset({"__init__", "__new__", "__post_init__"})


def _rule_lock_discipline(ctx: _Context):
    for cls in ast.walk(ctx.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        locks = _lock_attrs(cls)
        if not locks:
            continue
        lock_list = "/".join(f"self.{name}" for name in sorted(locks))
        for item in cls.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name in _LOCK_EXEMPT_METHODS:
                continue
            for stmt in item.body:
                for write, attr in _unguarded_writes(stmt, locks, held=False):
                    yield Finding(
                        ctx.display_path,
                        write.lineno,
                        "lock-discipline",
                        f"write to self.{attr} in {cls.name}.{item.name} outside "
                        f"`with {lock_list}:` -- {cls.name} shares state across "
                        "threads (heuristic)",
                    )


# --------------------------------------------------------------------- #
# Rule: format-invariants
# --------------------------------------------------------------------- #

_STRUCT_CALLS = frozenset(
    {"pack", "pack_into", "unpack", "unpack_from", "iter_unpack", "calcsize"}
)


def _const_eval(node: ast.AST, env: dict[str, int], structs: dict[str, int]) -> int | None:
    """Evaluate a size-constant expression: int literals, known names,
    ``<struct>.size`` and ``+``/``-``/``*`` over them."""
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    if isinstance(node, ast.Name):
        return env.get(node.id)
    if (
        isinstance(node, ast.Attribute)
        and node.attr == "size"
        and isinstance(node.value, ast.Name)
        and node.value.id in structs
    ):
        return structs[node.value.id]
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub, ast.Mult)):
        left = _const_eval(node.left, env, structs)
        right = _const_eval(node.right, env, structs)
        if left is None or right is None:
            return None
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        return left * right
    return None


def _is_struct_struct(node: ast.AST) -> str | None:
    """The literal format string of a ``struct.Struct("...")`` call."""
    if (
        isinstance(node, ast.Call)
        and _call_name(node.func) == "Struct"
        and len(node.args) == 1
        and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
    ):
        return node.args[0].value
    return None


def _magic_literal(node: ast.AST) -> bool:
    if not isinstance(node, ast.Constant):
        return False
    if isinstance(node.value, bytes):
        return node.value[:4] == _SGX_MAGIC
    if isinstance(node.value, str):
        return node.value == _SGX_MAGIC.decode("ascii")
    return False


def _rule_format_invariants(ctx: _Context):
    if ctx.module != COLUMNAR_MODULE:
        for node in ast.walk(ctx.tree):
            if _magic_literal(node):
                yield Finding(
                    ctx.display_path,
                    node.lineno,
                    "format-invariants",
                    ".sgx magic literal outside storage/columnar.py -- the binary "
                    "layout has exactly one home",
                )
        return

    # Inside columnar.py: every struct gets a named, matching size constant.
    structs: dict[str, tuple[str, int]] = {}
    struct_sizes: dict[str, int] = {}
    env: dict[str, int] = {}
    for stmt in ctx.tree.body:
        if not (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
        ):
            continue
        name = stmt.targets[0].id
        fmt = _is_struct_struct(stmt.value)
        if fmt is not None:
            try:
                struct_sizes[name] = struct_module.calcsize(fmt)
            except struct_module.error:
                yield Finding(
                    ctx.display_path,
                    stmt.lineno,
                    "format-invariants",
                    f"struct {name} has an invalid format string {fmt!r}",
                )
                continue
            structs[name] = (fmt, stmt.lineno)
        else:
            value = _const_eval(stmt.value, env, struct_sizes)
            if value is not None:
                env[name] = value

    for name, (_fmt, lineno) in structs.items():
        size = struct_sizes[name]
        base = name.lstrip("_")
        candidates = [base + suffix for suffix in _SIZE_SUFFIXES]
        declared = [c for c in candidates if c in env]
        if not declared:
            yield Finding(
                ctx.display_path,
                lineno,
                "format-invariants",
                f"struct {name} ({size} bytes) has no named size constant; declare "
                f"one of {', '.join(candidates)} = {size} beside it",
            )
        elif all(env[c] != size for c in declared):
            got = ", ".join(f"{c}={env[c]}" for c in declared)
            yield Finding(
                ctx.display_path,
                lineno,
                "format-invariants",
                f"struct {name} is {size} bytes but its size constant says {got} -- "
                "writer/reader/upgrader would disagree on the layout",
            )

    for node in ast.walk(ctx.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "struct"
            and node.func.attr in _STRUCT_CALLS
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            yield Finding(
                ctx.display_path,
                node.lineno,
                "format-invariants",
                f"inline struct.{node.func.attr} format string; use a named "
                "module-level struct.Struct with a size constant",
            )


# --------------------------------------------------------------------- #
# Rule: frozen-dataclass
# --------------------------------------------------------------------- #


def _is_frozen_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        if (
            isinstance(dec, ast.Call)
            and _call_name(dec.func) == "dataclass"
            and any(
                kw.arg == "frozen"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in dec.keywords
            )
        ):
            return True
    return False


def _rule_frozen_dataclass(ctx: _Context):
    for node in ast.walk(ctx.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__setattr__"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "object"
        ):
            continue
        enclosing_fn = None
        enclosing_cls = None
        for ancestor in ctx.ancestors(node):
            if enclosing_fn is None and isinstance(
                ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                enclosing_fn = ancestor
            elif enclosing_fn is not None and isinstance(ancestor, ast.ClassDef):
                enclosing_cls = ancestor
                break
        allowed = (
            enclosing_fn is not None
            and enclosing_fn.name == "__post_init__"
            and enclosing_cls is not None
            and _is_frozen_dataclass(enclosing_cls)
        )
        if not allowed:
            yield Finding(
                ctx.display_path,
                node.lineno,
                "frozen-dataclass",
                "object.__setattr__ is allowed only inside __post_init__ of a "
                "frozen dataclass -- anywhere else it defeats immutability",
            )


# --------------------------------------------------------------------- #
# Rules: manifest-boundary, live-boundary (storage ownership boundaries)
# --------------------------------------------------------------------- #

#: The one package allowed to create, replace or unlink lake payload
#: files -- everybody else mutates a lake through a manifest transaction
#: (``DataLakeStore.write_extract*`` / ``delete_extract``), never by
#: touching the files.
MANIFEST_OWNER = "repro.storage.manifest"

#: Path methods that mutate a file in place.
_PAYLOAD_WRITE_CALLS = frozenset({"write_bytes", "write_text", "unlink"})

#: Calls that resolve a lake payload path; their presence in a mutation's
#: expression marks the target as lake-owned.
_PAYLOAD_PATH_CALLS = frozenset({"filename", "extract_path"})


def _mentions_payload_path(node: ast.AST) -> bool:
    """Whether ``node``'s expression tree involves a lake payload path:
    an extract filename literal (``.sgx``/``.csv``) or a call to the
    path-resolving helpers (``ExtractKey.filename``,
    ``DataLakeStore.extract_path``)."""
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Constant)
            and isinstance(sub.value, str)
            and (".sgx" in sub.value or ".csv" in sub.value)
        ):
            return True
        if isinstance(sub, ast.Call) and _call_name(sub.func) in _PAYLOAD_PATH_CALLS:
            return True
    return False


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


#: The one package allowed to read or write the live ingestion WAL.
#: Everybody else observes the tail through ``DataLakeStore.query()``
#: (which folds it in via :class:`repro.storage.live.LiveTailIndex`).
LIVE_OWNER = "repro.storage.live"

#: File-I/O calls that, combined with a tail-WAL path expression,
#: bypass the CRC-framed append/replay protocol.
_TAIL_IO_CALLS = frozenset(
    {"open", "read_bytes", "write_bytes", "read_text", "write_text", "unlink", "replace"}
)

#: Calls that resolve a tail-WAL path; their presence in an I/O call's
#: expression marks the target as live-owned.
_TAIL_PATH_CALLS = frozenset({"wal_path", "live_dir"})


def _mentions_tail_wal(node: ast.AST) -> bool:
    """Whether ``node``'s expression tree involves the live tail WAL:
    a ``tail.wal`` filename literal or a call to the path-resolving
    helpers (``wal_path``, ``live_dir``)."""
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Constant)
            and isinstance(sub.value, str)
            and "tail.wal" in sub.value
        ):
            return True
        if isinstance(sub, ast.Call) and _call_name(sub.func) in _TAIL_PATH_CALLS:
            return True
    return False


def _rule_live_boundary(ctx: _Context):
    if _within(ctx.module, (LIVE_OWNER,)):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node.func)
        if name in _TAIL_IO_CALLS and _mentions_tail_wal(node):
            yield Finding(
                ctx.display_path,
                node.lineno,
                "live-boundary",
                f"direct {name}() on a live tail WAL outside {LIVE_OWNER}; the "
                "CRC-framed WAL protocol (append/replay/seal-trim) has exactly "
                "one home -- go through LiveIngestor or DataLakeStore.query()",
            )


def _rule_manifest_boundary(ctx: _Context):
    if _within(ctx.module, (MANIFEST_OWNER,)):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node.func)
        if name in _PAYLOAD_WRITE_CALLS and _mentions_payload_path(node):
            yield Finding(
                ctx.display_path,
                node.lineno,
                "manifest-boundary",
                f"direct {name}() of a lake payload file outside "
                f"{MANIFEST_OWNER}; mutate lakes through a manifest "
                "transaction (DataLakeStore.write_extract*/delete_extract)",
            )
        elif name == "open" and _is_write_mode(node) and _mentions_payload_path(node):
            yield Finding(
                ctx.display_path,
                node.lineno,
                "manifest-boundary",
                f"open() of a lake payload file for writing outside "
                f"{MANIFEST_OWNER}; mutate lakes through a manifest "
                "transaction (DataLakeStore.write_extract*/delete_extract)",
            )


# --------------------------------------------------------------------- #
# Rule: broad-except
# --------------------------------------------------------------------- #


def _is_broad_exception(expr: ast.AST | None) -> bool:
    if expr is None:
        return True  # bare except:
    if isinstance(expr, ast.Tuple):
        return any(_is_broad_exception(element) for element in expr.elts)
    return _call_name(expr) in ("Exception", "BaseException") or (
        isinstance(expr, ast.Name) and expr.id in ("Exception", "BaseException")
    )


def _only_swallows(body: list[ast.stmt]) -> bool:
    for stmt in body:
        if isinstance(stmt, (ast.Pass, ast.Continue)):
            continue
        if (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis
        ):
            continue
        return False
    return True


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
            yield Finding(
                ctx.display_path,
                node.lineno,
                "broad-except",
                f"{caught} that only swallows -- degradation paths in storage/"
                "serving must re-raise or record what they dropped",
            )


_RULE_FUNCTIONS = {
    "api-boundary": _rule_api_boundary,
    "import-layering": _rule_import_layering,
    "lock-discipline": _rule_lock_discipline,
    "format-invariants": _rule_format_invariants,
    "frozen-dataclass": _rule_frozen_dataclass,
    "broad-except": _rule_broad_except,
    "manifest-boundary": _rule_manifest_boundary,
    "live-boundary": _rule_live_boundary,
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
            bad.append(
                Finding(
                    display_path,
                    number,
                    "bad-pragma",
                    f"pragma names unknown rule(s) {unknown or '(none)'}; "
                    f"known rules: {', '.join(RULES)}",
                )
            )
            continue
        if not reason:
            bad.append(
                Finding(
                    display_path,
                    number,
                    "bad-pragma",
                    "pragma has no reason -- write `# repro: allow[rule] why` so the "
                    "exception is justified in the diff",
                )
            )
            continue
        standalone = lines[number - 1][:column].strip() == ""
        pragmas.append(_Pragma(number, frozenset(names), reason, standalone))
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
        suppressed = False
        for pragma in by_line.get(finding.line, ()):
            if finding.rule in pragma.rules:
                pragma.used = True
                suppressed = True
        if not suppressed:
            kept.append(finding)
    if check_unused:
        for pragma in pragmas:
            if not pragma.used:
                kept.append(
                    Finding(
                        display_path,
                        pragma.line,
                        "unused-pragma",
                        f"pragma allow[{', '.join(sorted(pragma.rules))}] suppresses "
                        "nothing; remove it",
                    )
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
    ctx = _Context(path=path, display_path=display, module=module_name(path), tree=tree)
    selected = frozenset(RULES) if select is None else select
    findings: list[Finding] = []
    for rule in RULES:
        if rule in selected:
            findings.extend(_RULE_FUNCTIONS[rule](ctx))
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
        prog="python -m repro.devtools.lint",
        description="Repo-specific AST invariant linter (see repro/devtools/lint.py).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--select",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list rule ids and exit"
    )
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
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(
            f"error: no such path(s): {', '.join(str(p) for p in missing)}",
            file=sys.stderr,
        )
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
