"""Tests for the repo-specific invariant linter (``repro.devtools.lint``).

Each rule gets at least one flagging (bad) and one passing (good) fixture;
fixtures are written under a ``repro/<package>/`` directory inside
``tmp_path`` so module-name derivation sees the same package layout as the
real tree.  The suite also covers pragma suppression semantics, the CLI
exit codes, and a self-lint asserting the live ``src`` tree is clean.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.devtools.lint import (
    LAYERS,
    RULES,
    Finding,
    check_file,
    module_name,
    run_lint,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def write_fixture(tmp_path: Path, relpath: str, source: str) -> Path:
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def lint_snippet(tmp_path: Path, relpath: str, source: str) -> list[Finding]:
    return check_file(write_fixture(tmp_path, relpath, source))


def rules_of(findings: list[Finding]) -> set[str]:
    return {finding.rule for finding in findings}


# --------------------------------------------------------------------- #
# Rule: api-boundary
# --------------------------------------------------------------------- #


class TestApiBoundary:
    def test_scoring_endpoint_outside_serving_flags(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/scheduling/bad.py",
            """
            from repro.serving.endpoints import ScoringEndpoint

            endpoint = ScoringEndpoint("region-0")
            """,
        )
        assert "api-boundary" in rules_of(findings)

    def test_scoring_endpoint_inside_serving_passes(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/serving/good.py",
            """
            endpoint = ScoringEndpoint("region-0")
            """,
        )
        assert "api-boundary" not in rules_of(findings)

    def test_import_alone_is_not_flagged(self, tmp_path):
        # Only calls/constructions cross the boundary; re-exports and
        # type annotations are fine.
        findings = lint_snippet(
            tmp_path,
            "repro/core/reexport.py",
            """
            from repro.storage.columnar import frame_from_sgx_bytes

            __all__ = ["frame_from_sgx_bytes"]
            """,
        )
        assert "api-boundary" not in rules_of(findings)

    def test_raw_sgx_helper_call_outside_storage_flags(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/fleet_ops/bad.py",
            """
            def read(blob):
                return frame_from_sgx_bytes(blob)
            """,
        )
        assert "api-boundary" in rules_of(findings)

    @pytest.mark.parametrize(
        "module, flagged",
        [
            ("repro/storage/datalake.py", True),  # not even the lake's own read path
            ("repro/fleet_ops/bad.py", True),
            ("repro/storage/migrate.py", False),  # the import edge
        ],
    )
    def test_csv_parse_belongs_to_the_import_edge_alone(self, tmp_path, module, flagged):
        findings = lint_snippet(
            tmp_path,
            module,
            """
            from repro.storage import csv_io

            def parse(raw):
                return csv_io.frame_from_csv_text(raw.decode("utf-8"), 5)
            """,
        )
        assert ("api-boundary" in rules_of(findings)) == flagged

    def test_direct_sgx_open_outside_storage_flags(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/serving/bad_open.py",
            """
            def peek(root):
                with open(f"{root}/extract.sgx", "rb") as fh:
                    return fh.read()
            """,
        )
        assert "api-boundary" in rules_of(findings)

    def test_direct_sgx_open_inside_storage_passes(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/storage/good_open.py",
            """
            def read(path):
                with open(f"{path}.sgx", "rb") as fh:
                    return fh.read()
            """,
        )
        assert "api-boundary" not in rules_of(findings)


# --------------------------------------------------------------------- #
# Rule: import-layering
# --------------------------------------------------------------------- #


class TestImportLayering:
    def test_storage_importing_serving_flags(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/storage/bad.py",
            """
            from repro.serving.service import PredictionService
            """,
        )
        assert "import-layering" in rules_of(findings)

    def test_storage_importing_fleet_ops_flags(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/storage/bad2.py",
            """
            import repro.fleet_ops.orchestrator
            """,
        )
        assert "import-layering" in rules_of(findings)

    def test_fleet_ops_importing_storage_passes(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/fleet_ops/good.py",
            """
            from repro.storage.datalake import DataLakeStore
            from repro.timeseries.series import LoadSeries
            """,
        )
        assert "import-layering" not in rules_of(findings)

    def test_same_package_and_relative_imports_pass(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/storage/good.py",
            """
            from repro.storage.columnar import scan_sgx_bytes
            from . import datalake
            """,
        )
        assert "import-layering" not in rules_of(findings)

    def test_facade_import_flags(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/metrics/bad.py",
            """
            import repro
            """,
        )
        assert "import-layering" in rules_of(findings)

    def test_runtime_import_of_devtools_flags(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/storage/bad3.py",
            """
            from repro.devtools.lint import run_lint
            """,
        )
        assert "import-layering" in rules_of(findings)

    def test_core_importing_storage_live_flags(self, tmp_path):
        # storage.live sits a layer above plain storage: core may depend
        # on the lake, never on the streaming subsystem riding on it.
        findings = lint_snippet(
            tmp_path,
            "repro/core/bad_live.py",
            """
            from repro.storage.live import LiveIngestor
            """,
        )
        assert "import-layering" in rules_of(findings)

    def test_core_importing_plain_storage_passes(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/core/good_lake.py",
            """
            from repro.storage.datalake import DataLakeStore
            from repro.storage.manifest import ManifestTransaction
            """,
        )
        assert "import-layering" not in rules_of(findings)

    def test_serving_importing_storage_live_passes(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/serving/good_live.py",
            """
            from repro.storage.live import SealReport
            """,
        )
        assert "import-layering" not in rules_of(findings)

    def test_storage_internal_live_imports_are_exempt(self, tmp_path):
        # Within one top-level package the DAG does not apply: the lake
        # folds the tail in via a lazy import of its own subpackage.
        findings = lint_snippet(
            tmp_path,
            "repro/storage/datalake_like.py",
            """
            from repro.storage.live import LiveTailIndex
            """,
        )
        assert "import-layering" not in rules_of(findings)

    def test_layer_map_matches_real_packages(self):
        packages = {
            p.name
            for p in (REPO_ROOT / "src" / "repro").iterdir()
            if p.is_dir() and (p / "__init__.py").exists() and p.name != "devtools"
        }
        top_level = {key for key in LAYERS if "." not in key}
        assert packages == top_level
        # Dotted keys must name real subpackages of a declared package.
        for key in set(LAYERS) - top_level:
            assert key.split(".")[0] in top_level
            subdir = (REPO_ROOT / "src" / "repro").joinpath(*key.split("."))
            assert (subdir / "__init__.py").exists(), key


# --------------------------------------------------------------------- #
# Rule: lock-discipline
# --------------------------------------------------------------------- #


class TestLockDiscipline:
    def test_unguarded_write_flags(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/serving/bad.py",
            """
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._entries = {}

                def put(self, key, value):
                    self._entries[key] = value
            """,
        )
        assert "lock-discipline" in rules_of(findings)

    def test_guarded_write_passes(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/serving/good.py",
            """
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._entries = {}

                def put(self, key, value):
                    with self._lock:
                        self._entries[key] = value
            """,
        )
        assert "lock-discipline" not in rules_of(findings)

    def test_init_is_exempt_and_lockless_classes_ignored(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/serving/good2.py",
            """
            class Plain:
                def __init__(self):
                    self._entries = {}

                def put(self, key, value):
                    self._entries[key] = value
            """,
        )
        assert "lock-discipline" not in rules_of(findings)

    def test_rlock_and_augmented_writes_detected(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/serving/bad2.py",
            """
            import threading

            class Stats:
                def __init__(self):
                    self._stats_lock = threading.RLock()
                    self._count = 0

                def bump(self):
                    self._count += 1
            """,
        )
        assert "lock-discipline" in rules_of(findings)

    def test_wrong_lock_does_not_count_as_guarded(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/serving/bad3.py",
            """
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._entries = {}

                def put(self, key, value, other):
                    with other:
                        self._entries[key] = value
            """,
        )
        assert "lock-discipline" in rules_of(findings)


# --------------------------------------------------------------------- #
# Rule: format-invariants
# --------------------------------------------------------------------- #

COLUMNAR_FIXTURE = "repro/storage/columnar.py"


class TestFormatInvariants:
    def test_struct_without_size_constant_flags(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            COLUMNAR_FIXTURE,
            """
            import struct

            _RECORD = struct.Struct("<QqqI")
            """,
        )
        assert "format-invariants" in rules_of(findings)

    def test_struct_with_wrong_size_constant_flags(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            COLUMNAR_FIXTURE,
            """
            import struct

            _RECORD = struct.Struct("<QqqI")
            RECORD_ENTRY_SIZE = 27
            """,
        )
        assert "format-invariants" in rules_of(findings)

    def test_struct_with_matching_size_constant_passes(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            COLUMNAR_FIXTURE,
            """
            import struct

            _RECORD = struct.Struct("<QqqI")
            RECORD_ENTRY_SIZE = 28
            """,
        )
        assert "format-invariants" not in rules_of(findings)

    def test_inline_struct_pack_format_flags(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            COLUMNAR_FIXTURE,
            """
            import struct

            def pack(n):
                return struct.pack("<I", n)
            """,
        )
        assert "format-invariants" in rules_of(findings)

    def test_magic_literal_outside_columnar_flags(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/telemetry/bad.py",
            """
            MAGIC = b"SGXF"
            """,
        )
        assert "format-invariants" in rules_of(findings)

    def test_magic_literal_inside_columnar_passes(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            COLUMNAR_FIXTURE,
            """
            MAGIC = b"SGXF"
            """,
        )
        assert "format-invariants" not in rules_of(findings)


# --------------------------------------------------------------------- #
# Rule: frozen-dataclass
# --------------------------------------------------------------------- #


class TestFrozenDataclass:
    def test_setattr_outside_post_init_flags(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/storage/bad.py",
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Query:
                limit: int

                def widen(self):
                    object.__setattr__(self, "limit", self.limit + 1)
            """,
        )
        assert "frozen-dataclass" in rules_of(findings)

    def test_setattr_in_post_init_of_frozen_dataclass_passes(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/storage/good.py",
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Query:
                limit: int

                def __post_init__(self):
                    object.__setattr__(self, "limit", max(0, self.limit))
            """,
        )
        assert "frozen-dataclass" not in rules_of(findings)

    def test_setattr_in_post_init_of_unfrozen_class_flags(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/storage/bad2.py",
            """
            from dataclasses import dataclass

            @dataclass
            class Query:
                limit: int

                def __post_init__(self):
                    object.__setattr__(self, "limit", max(0, self.limit))
            """,
        )
        assert "frozen-dataclass" in rules_of(findings)

    def test_module_level_setattr_flags(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/metrics/bad.py",
            """
            class Thing:
                pass

            object.__setattr__(Thing(), "x", 1)
            """,
        )
        assert "frozen-dataclass" in rules_of(findings)


# --------------------------------------------------------------------- #
# Rule: broad-except
# --------------------------------------------------------------------- #


class TestBroadExcept:
    def test_swallowing_broad_except_in_storage_flags(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/storage/bad.py",
            """
            def load(path):
                try:
                    return path.read_text()
                except Exception:
                    pass
            """,
        )
        assert "broad-except" in rules_of(findings)

    def test_bare_except_in_serving_flags(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/serving/bad.py",
            """
            def load(fetch):
                try:
                    return fetch()
                except:
                    pass
            """,
        )
        assert "broad-except" in rules_of(findings)

    def test_recording_handler_passes(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/storage/good.py",
            """
            def load(path, stats):
                try:
                    return path.read_text()
                except Exception:
                    stats.failures += 1
                    return None
            """,
        )
        assert "broad-except" not in rules_of(findings)

    def test_narrow_except_passes(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/storage/good2.py",
            """
            def load(path):
                try:
                    return path.read_text()
                except OSError:
                    pass
            """,
        )
        assert "broad-except" not in rules_of(findings)

    def test_outside_scoped_packages_not_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/metrics/tolerated.py",
            """
            def load(fetch):
                try:
                    return fetch()
                except Exception:
                    pass
            """,
        )
        assert "broad-except" not in rules_of(findings)


# --------------------------------------------------------------------- #
# Rule: manifest-boundary
# --------------------------------------------------------------------- #


class TestManifestBoundary:
    def test_write_bytes_to_segment_path_flags(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/storage/bad_write.py",
            """
            def damage(root):
                (root / "r0" / "extract_r0_week0001.sgx").write_bytes(b"x")
            """,
        )
        assert "manifest-boundary" in rules_of(findings)

    def test_unlink_of_filename_helper_flags(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/fleet_ops/bad_unlink.py",
            """
            def drop(root, key):
                (root / key.region / key.filename("csv")).unlink()
            """,
        )
        assert "manifest-boundary" in rules_of(findings)

    def test_write_mode_open_of_extract_path_flags(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/serving/bad_open.py",
            """
            def scribble(lake, key):
                with open(lake.extract_path(key), "wb") as fh:
                    fh.write(b"x")
            """,
        )
        assert "manifest-boundary" in rules_of(findings)

    def test_write_mode_path_open_method_flags(self, tmp_path):
        # The method form puts the mode first: path.open("wb").
        findings = lint_snippet(
            tmp_path,
            "repro/serving/bad_method_open.py",
            """
            def scribble(lake, key):
                with lake.extract_path(key).open("wb") as fh:
                    fh.write(b"x")
            """,
        )
        assert "manifest-boundary" in rules_of(findings)

    def test_read_mode_path_open_method_passes(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/serving/good_method_open.py",
            """
            def peek(lake, key):
                with lake.extract_path(key).open("rb") as fh:
                    return fh.read()
            """,
        )
        assert "manifest-boundary" not in rules_of(findings)

    def test_read_mode_open_of_extract_path_passes(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/serving/good_open.py",
            """
            def peek(lake, key):
                with open(lake.extract_path(key), "rb") as fh:
                    return fh.read()
            """,
        )
        assert "manifest-boundary" not in rules_of(findings)

    def test_unrelated_write_passes(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/fleet_ops/good_write.py",
            """
            def report(root, text):
                (root / "report.txt").write_text(text)
            """,
        )
        assert "manifest-boundary" not in rules_of(findings)

    def test_manifest_subsystem_is_exempt(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/storage/manifest/writer.py",
            """
            def publish(root, name, payload):
                (root / "r0" / f"extract_r0_week0001-{name}.sgx").write_bytes(payload)
            """,
        )
        assert "manifest-boundary" not in rules_of(findings)

    def test_pragma_with_reason_suppresses(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/storage/suppressed_write.py",
            """
            def damage(root):
                # repro: allow[manifest-boundary] simulating out-of-band disk damage
                (root / "r0" / "extract_r0_week0001.sgx").write_bytes(b"x")
            """,
        )
        assert "manifest-boundary" not in rules_of(findings)


# --------------------------------------------------------------------- #
# Rule: live-boundary
# --------------------------------------------------------------------- #


class TestLiveBoundary:
    def test_open_of_tail_wal_literal_flags(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/fleet_ops/bad_tail.py",
            """
            def tamper(root):
                with open(f"{root}/_manifest/live/r0/week0000.tail.wal", "ab") as fh:
                    fh.write(b"x")
            """,
        )
        assert "live-boundary" in rules_of(findings)

    def test_write_bytes_via_wal_path_helper_flags(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/storage/bad_tail.py",
            """
            from repro.storage.live import wal_path

            def zap(root, region, week):
                wal_path(root, region, week).write_bytes(b"")
            """,
        )
        assert "live-boundary" in rules_of(findings)

    def test_unlink_under_live_dir_flags(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/serving/bad_tail.py",
            """
            from repro.storage.live import live_dir

            def drop(root, region, week):
                (live_dir(root, region) / f"week{week:04d}.tail.wal").unlink()
            """,
        )
        assert "live-boundary" in rules_of(findings)

    def test_live_subsystem_is_exempt(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/storage/live/wal_like.py",
            """
            def heal(path):
                path.with_suffix(".tail.wal.tmp").replace(path)
            """,
        )
        assert "live-boundary" not in rules_of(findings)

    def test_unrelated_io_passes(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/fleet_ops/good_tail.py",
            """
            def report(root, text):
                (root / "live-report.txt").write_text(text)
            """,
        )
        assert "live-boundary" not in rules_of(findings)

    def test_pragma_with_reason_suppresses(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/storage/suppressed_tail.py",
            """
            def torn(path):
                # repro: allow[live-boundary] crash test forges a torn WAL tail
                with open(f"{path}/week0000.tail.wal", "ab") as fh:
                    fh.write(b"partial")
            """,
        )
        assert "live-boundary" not in rules_of(findings)


# --------------------------------------------------------------------- #
# Pragma semantics
# --------------------------------------------------------------------- #


class TestPragmas:
    def test_reasoned_pragma_suppresses(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/storage/suppressed.py",
            """
            from repro.serving.service import PredictionService  # repro: allow[import-layering] fixture exercises suppression
            """,
        )
        assert rules_of(findings) == set()

    def test_pragma_without_reason_is_a_finding_and_does_not_suppress(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/storage/unreasoned.py",
            """
            from repro.serving.service import PredictionService  # repro: allow[import-layering]
            """,
        )
        assert rules_of(findings) == {"import-layering", "bad-pragma"}

    def test_pragma_with_unknown_rule_is_a_finding(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/storage/unknown.py",
            """
            x = 1  # repro: allow[no-such-rule] because reasons
            """,
        )
        assert rules_of(findings) == {"bad-pragma"}

    def test_pragma_for_wrong_rule_does_not_suppress(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/storage/wrong_rule.py",
            """
            from repro.serving.service import PredictionService  # repro: allow[broad-except] not the firing rule
            """,
        )
        assert "import-layering" in rules_of(findings)

    def test_standalone_pragma_covers_next_line(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/storage/standalone.py",
            """
            # repro: allow[import-layering] fixture exercises standalone pragmas
            from repro.serving.service import PredictionService
            """,
        )
        assert rules_of(findings) == set()

    def test_multi_rule_pragma(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/storage/multi.py",
            """
            from repro.serving.endpoints import ScoringEndpoint

            endpoint = ScoringEndpoint("r0")  # repro: allow[api-boundary, import-layering] fixture
            """,
        )
        # The call is suppressed; the import of serving on line 1 is not.
        assert rules_of(findings) == {"import-layering"}

    def test_unused_pragma_is_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/storage/unused.py",
            """
            x = 1  # repro: allow[broad-except] nothing to suppress here
            """,
        )
        assert rules_of(findings) == {"unused-pragma"}

    def test_pragma_like_text_in_strings_is_ignored(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/storage/stringly.py",
            '''
            DOC = """use # repro: allow[not-a-rule] to suppress"""
            ''',
        )
        assert rules_of(findings) == set()


# --------------------------------------------------------------------- #
# Engine, CLI and self-lint
# --------------------------------------------------------------------- #


class TestEngine:
    def test_module_name_derivation(self):
        assert module_name(Path("src/repro/storage/columnar.py")) == "repro.storage.columnar"
        assert module_name(Path("/x/y/repro/serving/__init__.py")) == "repro.serving"
        assert module_name(Path("scripts/standalone.py")) is None

    def test_parse_error_is_reported(self, tmp_path):
        findings = lint_snippet(tmp_path, "repro/storage/broken.py", "def f(:\n")
        assert rules_of(findings) == {"parse-error"}

    def test_finding_rendering_format(self, tmp_path):
        path = write_fixture(
            tmp_path, "repro/storage/bad.py", "import repro.serving.service\n"
        )
        findings = run_lint([path])
        assert len(findings) == 1
        rendered = findings[0].render()
        assert rendered.startswith(f"{findings[0].path}:1: import-layering ")

    def test_run_lint_walks_directories(self, tmp_path):
        write_fixture(tmp_path, "repro/storage/one.py", "import repro.serving.service\n")
        write_fixture(tmp_path, "repro/storage/two.py", "import repro.fleet_ops.cli\n")
        findings = run_lint([tmp_path])
        assert len(findings) == 2

    def test_every_rule_has_an_id(self):
        assert len(RULES) >= 6
        assert len(set(RULES)) == len(RULES)


def run_cli(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro.devtools.lint", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )


class TestCli:
    def test_clean_file_exits_zero(self, tmp_path):
        path = write_fixture(tmp_path, "repro/storage/good.py", "x = 1\n")
        result = run_cli([str(path)], cwd=tmp_path)
        assert result.returncode == 0, result.stderr

    def test_bad_snippet_exits_nonzero_with_location(self, tmp_path):
        path = write_fixture(
            tmp_path,
            "repro/storage/bad.py",
            "from repro.serving.service import PredictionService\n",
        )
        result = run_cli([str(path)], cwd=tmp_path)
        assert result.returncode == 1
        assert "import-layering" in result.stdout
        assert ":1:" in result.stdout

    def test_each_rule_bad_fixture_exits_nonzero(self, tmp_path):
        bad_fixtures = {
            "api-boundary": ("repro/core/f1.py", "x = scan_sgx_bytes(b'')\n"),
            "import-layering": ("repro/storage/f2.py", "import repro.fleet_ops.cli\n"),
            "lock-discipline": (
                "repro/serving/f3.py",
                "import threading\n\n\nclass C:\n    def __init__(self):\n"
                "        self._lock = threading.Lock()\n\n    def poke(self):\n"
                "        self._n = 1\n",
            ),
            "format-invariants": ("repro/models/f4.py", 'M = b"SGXF"\n'),
            "frozen-dataclass": (
                "repro/metrics/f5.py",
                "object.__setattr__(object(), 'x', 1)\n",
            ),
            "broad-except": (
                "repro/serving/f6.py",
                "try:\n    pass\nexcept Exception:\n    pass\n",
            ),
        }
        for rule, (relpath, source) in bad_fixtures.items():
            path = write_fixture(tmp_path, relpath, source)
            result = run_cli([str(path)], cwd=tmp_path)
            assert result.returncode == 1, (rule, result.stdout, result.stderr)
            assert rule in result.stdout, (rule, result.stdout)

    def test_select_unknown_rule_exits_two(self, tmp_path):
        result = run_cli(["--select", "nonsense", str(tmp_path)], cwd=tmp_path)
        assert result.returncode == 2

    def test_missing_path_exits_two(self, tmp_path):
        result = run_cli(["does-not-exist"], cwd=tmp_path)
        assert result.returncode == 2

    def test_list_rules(self, tmp_path):
        result = run_cli(["--list-rules"], cwd=tmp_path)
        assert result.returncode == 0
        for rule in RULES:
            assert rule in result.stdout

    def test_select_runs_only_named_rules(self, tmp_path):
        path = write_fixture(
            tmp_path,
            "repro/storage/f7.py",
            "import repro.serving.service\ntry:\n    pass\nexcept Exception:\n    pass\n",
        )
        result = run_cli(["--select", "broad-except", str(path)], cwd=tmp_path)
        assert result.returncode == 1
        assert "broad-except" in result.stdout
        assert "import-layering" not in result.stdout


class TestSelfLint:
    def test_live_tree_is_clean(self):
        findings = run_lint([REPO_ROOT / "src"])
        assert findings == [], "\n".join(f.render() for f in findings)
