"""Tests for the repo-specific invariant linter (``repro.devtools.lint``).

Every rule fixture is one row, ``test_name = case(relpath, source,
expected)``: the source is written under ``repro/<package>/`` inside
``tmp_path`` (so module-name derivation sees the real package layout) and
``expected`` is the exact ``(line, rule)`` list the file yields.  The CLI
runs in process through ``main``; one subprocess test runs ``lint.py`` by
path with no site-packages, the way CI runs it.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.devtools.lint import LAYERS, RULES, check_file, main, module_name, run_lint

REPO_ROOT = Path(__file__).resolve().parent.parent


def write_fixture(tmp_path: Path, relpath: str, source: str) -> Path:
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def findings_of(tmp_path: Path, relpath: str, source: str) -> list[tuple[int, str]]:
    return [(f.line, f.rule) for f in check_file(write_fixture(tmp_path, relpath, source))]


def case(relpath: str, source: str, expected: list[tuple[int, str]]):
    """One fixture row: linting ``source`` at ``relpath`` yields exactly ``expected``."""

    def test(self, tmp_path):
        assert findings_of(tmp_path, relpath, source) == expected

    return test


class TestApiBoundary:
    test_raw_scan_outside_storage_flags = case("repro/scheduling/bad.py", """\
        from repro.storage.columnar import scan_sgx_bytes

        scan = scan_sgx_bytes(b"")
        """, [(3, "api-boundary")])
    test_raw_scan_inside_storage_passes = case(
        "repro/storage/good.py", 'scan = scan_sgx_bytes(b"")\n', []
    )
    # Only calls/constructions cross the boundary; re-exports and type
    # annotations are fine.
    test_import_alone_is_not_flagged = case("repro/core/reexport.py", """\
        from repro.storage.columnar import frame_from_sgx_bytes

        __all__ = ["frame_from_sgx_bytes"]
        """, [])
    test_raw_sgx_helper_call_outside_storage_flags = case("repro/fleet_ops/bad.py", """\
        def read(blob):
            return frame_from_sgx_bytes(blob)
        """, [(2, "api-boundary")])

    @pytest.mark.parametrize(
        "module, flagged",
        [
            ("repro/storage/datalake.py", True),  # not even the lake's own read path
            ("repro/fleet_ops/bad.py", True),
            ("repro/storage/migrate.py", False),  # the import edge
        ],
    )
    def test_csv_parse_belongs_to_the_import_edge_alone(self, tmp_path, module, flagged):
        source = """\
            from repro.storage import csv_io

            def parse(raw):
                return csv_io.frame_from_csv_text(raw.decode("utf-8"), 5)
            """
        expected = [(4, "api-boundary")] if flagged else []
        assert findings_of(tmp_path, module, source) == expected

    test_direct_sgx_open_outside_storage_flags = case("repro/serving/bad_open.py", """\
        def peek(root):
            with open(f"{root}/extract.sgx", "rb") as fh:
                return fh.read()
        """, [(2, "api-boundary")])
    test_direct_sgx_open_inside_storage_passes = case("repro/storage/good_open.py", """\
        def read(path):
            with open(f"{path}.sgx", "rb") as fh:
                return fh.read()
        """, [])


class TestImportLayering:
    test_storage_importing_serving_flags = case(
        "repro/storage/bad.py",
        "from repro.serving.service import PredictionService\n",
        [(1, "import-layering")],
    )
    test_storage_importing_fleet_ops_flags = case(
        "repro/storage/bad2.py", "import repro.fleet_ops.orchestrator\n", [(1, "import-layering")]
    )
    test_fleet_ops_importing_storage_passes = case("repro/fleet_ops/good.py", """\
        from repro.storage.datalake import DataLakeStore
        from repro.timeseries.series import LoadSeries
        """, [])
    test_same_package_and_relative_imports_pass = case("repro/storage/good.py", """\
        from repro.storage.columnar import scan_sgx_bytes
        from . import datalake
        """, [])
    test_facade_import_flags = case(
        "repro/metrics/bad.py", "import repro\n", [(1, "import-layering")]
    )
    test_runtime_import_of_devtools_flags = case(
        "repro/storage/bad3.py",
        "from repro.devtools.lint import run_lint\n",
        [(1, "import-layering")],
    )
    # storage.live sits a layer above plain storage: core may depend on
    # the lake, never on the streaming subsystem riding on it.
    test_core_importing_storage_live_flags = case(
        "repro/core/bad_live.py",
        "from repro.storage.live import LiveIngestor\n",
        [(1, "import-layering")],
    )
    test_core_importing_plain_storage_passes = case("repro/core/good_lake.py", """\
        from repro.storage.datalake import DataLakeStore
        from repro.storage.manifest import ManifestTransaction
        """, [])
    test_serving_importing_storage_live_passes = case(
        "repro/serving/good_live.py", "from repro.storage.live import SealReport\n", []
    )
    # Within one top-level package the DAG does not apply: the lake folds
    # the tail in via a lazy import of its own subpackage.
    test_storage_internal_live_imports_are_exempt = case(
        "repro/storage/datalake_like.py", "from repro.storage.live import LiveTailIndex\n", []
    )

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


class TestLockDiscipline:
    test_unguarded_write_flags = case("repro/serving/bad.py", """\
        import threading

        class Cache:
            def __init__(self):
                self._lock = threading.Lock()
                self._entries = {}

            def put(self, key, value):
                self._entries[key] = value
        """, [(9, "lock-discipline")])
    test_guarded_write_passes = case("repro/serving/good.py", """\
        import threading

        class Cache:
            def __init__(self):
                self._lock = threading.Lock()
                self._entries = {}

            def put(self, key, value):
                with self._lock:
                    self._entries[key] = value
        """, [])
    test_init_is_exempt_and_lockless_classes_ignored = case("repro/serving/good2.py", """\
        class Plain:
            def __init__(self):
                self._entries = {}

            def put(self, key, value):
                self._entries[key] = value
        """, [])
    test_rlock_and_augmented_writes_detected = case("repro/serving/bad2.py", """\
        import threading

        class Stats:
            def __init__(self):
                self._stats_lock = threading.RLock()
                self._count = 0

            def bump(self):
                self._count += 1
        """, [(9, "lock-discipline")])
    test_wrong_lock_does_not_count_as_guarded = case("repro/serving/bad3.py", """\
        import threading

        class Cache:
            def __init__(self):
                self._lock = threading.Lock()
                self._entries = {}

            def put(self, key, value, other):
                with other:
                    self._entries[key] = value
        """, [(10, "lock-discipline")])


COLUMNAR_FIXTURE = "repro/storage/columnar.py"


class TestFormatInvariants:
    test_magic_literal_outside_columnar_flags = case(
        "repro/telemetry/bad.py", 'MAGIC = b"SGXF"\n', [(1, "format-invariants")]
    )
    test_magic_literal_inside_columnar_passes = case(COLUMNAR_FIXTURE, 'MAGIC = b"SGXF"\n', [])


class TestFrozenDataclass:
    test_setattr_outside_post_init_flags = case("repro/storage/bad.py", """\
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class Query:
            limit: int

            def widen(self):
                object.__setattr__(self, "limit", self.limit + 1)
        """, [(8, "frozen-dataclass")])
    test_setattr_in_post_init_of_frozen_dataclass_passes = case("repro/storage/good.py", """\
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class Query:
            limit: int

            def __post_init__(self):
                object.__setattr__(self, "limit", max(0, self.limit))
        """, [])
    test_setattr_in_post_init_of_unfrozen_class_flags = case("repro/storage/bad2.py", """\
        from dataclasses import dataclass

        @dataclass
        class Query:
            limit: int

            def __post_init__(self):
                object.__setattr__(self, "limit", max(0, self.limit))
        """, [(8, "frozen-dataclass")])
    test_module_level_setattr_flags = case("repro/metrics/bad.py", """\
        class Thing:
            pass

        object.__setattr__(Thing(), "x", 1)
        """, [(4, "frozen-dataclass")])


class TestBroadExcept:
    test_swallowing_broad_except_in_storage_flags = case("repro/storage/bad.py", """\
        def load(path):
            try:
                return path.read_text()
            except Exception:
                pass
        """, [(4, "broad-except")])
    test_bare_except_in_serving_flags = case("repro/serving/bad.py", """\
        def load(fetch):
            try:
                return fetch()
            except:
                pass
        """, [(4, "broad-except")])
    test_recording_handler_passes = case("repro/storage/good.py", """\
        def load(path, stats):
            try:
                return path.read_text()
            except Exception:
                stats.failures += 1
                return None
        """, [])
    test_narrow_except_passes = case("repro/storage/good2.py", """\
        def load(path):
            try:
                return path.read_text()
            except OSError:
                pass
        """, [])
    test_outside_scoped_packages_not_flagged = case("repro/metrics/tolerated.py", """\
        def load(fetch):
            try:
                return fetch()
            except Exception:
                pass
        """, [])


class TestManifestBoundary:
    test_write_bytes_to_segment_path_flags = case("repro/storage/bad_write.py", """\
        def damage(root):
            (root / "r0" / "extract_r0_week0001.sgx").write_bytes(b"x")
        """, [(2, "manifest-boundary")])
    test_unlink_of_filename_helper_flags = case("repro/fleet_ops/bad_unlink.py", """\
        def drop(root, key):
            (root / key.region / key.filename("csv")).unlink()
        """, [(2, "manifest-boundary")])
    test_write_mode_open_of_extract_path_flags = case("repro/serving/bad_open.py", """\
        def scribble(lake, key):
            with open(lake.extract_path(key), "wb") as fh:
                fh.write(b"x")
        """, [(2, "manifest-boundary")])
    # The method form puts the mode first: path.open("wb").
    test_write_mode_path_open_method_flags = case("repro/serving/bad_method_open.py", """\
        def scribble(lake, key):
            with lake.extract_path(key).open("wb") as fh:
                fh.write(b"x")
        """, [(2, "manifest-boundary")])
    test_read_mode_path_open_method_passes = case("repro/serving/good_method_open.py", """\
        def peek(lake, key):
            with lake.extract_path(key).open("rb") as fh:
                return fh.read()
        """, [])
    test_read_mode_open_of_extract_path_passes = case("repro/serving/good_open.py", """\
        def peek(lake, key):
            with open(lake.extract_path(key), "rb") as fh:
                return fh.read()
        """, [])
    test_unrelated_write_passes = case("repro/fleet_ops/good_write.py", """\
        def report(root, text):
            (root / "report.txt").write_text(text)
        """, [])
    test_manifest_subsystem_is_exempt = case("repro/storage/manifest/writer.py", """\
        def publish(root, name, payload):
            (root / "r0" / f"extract_r0_week0001-{name}.sgx").write_bytes(payload)
        """, [])
    test_pragma_with_reason_suppresses = case("repro/storage/suppressed_write.py", """\
        def damage(root):
            # repro: allow[manifest-boundary] simulating out-of-band disk damage
            (root / "r0" / "extract_r0_week0001.sgx").write_bytes(b"x")
        """, [])


class TestLiveBoundary:
    test_open_of_tail_wal_literal_flags = case("repro/fleet_ops/bad_tail.py", """\
        def tamper(root):
            with open(f"{root}/_manifest/live/r0/week0000.tail.wal", "ab") as fh:
                fh.write(b"x")
        """, [(2, "live-boundary")])
    test_write_bytes_via_wal_path_helper_flags = case("repro/storage/bad_tail.py", """\
        from repro.storage.live import wal_path

        def zap(root, region, week):
            wal_path(root, region, week).write_bytes(b"")
        """, [(4, "live-boundary")])
    test_unlink_under_live_dir_flags = case("repro/serving/bad_tail.py", """\
        from repro.storage.live import live_dir

        def drop(root, region, week):
            (live_dir(root, region) / f"week{week:04d}.tail.wal").unlink()
        """, [(4, "live-boundary")])
    test_live_subsystem_is_exempt = case("repro/storage/live/wal_like.py", """\
        def heal(path):
            path.with_suffix(".tail.wal.tmp").replace(path)
        """, [])
    test_unrelated_io_passes = case("repro/fleet_ops/good_tail.py", """\
        def report(root, text):
            (root / "live-report.txt").write_text(text)
        """, [])
    test_pragma_with_reason_suppresses = case("repro/storage/suppressed_tail.py", """\
        def torn(path):
            # repro: allow[live-boundary] crash test forges a torn WAL tail
            with open(f"{path}/week0000.tail.wal", "ab") as fh:
                fh.write(b"partial")
        """, [])


SERVING_IMPORT = "from repro.serving.service import PredictionService"


class TestPragmas:
    test_reasoned_pragma_suppresses = case(
        "repro/storage/suppressed.py",
        f"{SERVING_IMPORT}  # repro: allow[import-layering] fixture exercises suppression\n",
        [],
    )
    test_pragma_without_reason_is_a_finding_and_does_not_suppress = case(
        "repro/storage/unreasoned.py",
        f"{SERVING_IMPORT}  # repro: allow[import-layering]\n",
        [(1, "bad-pragma"), (1, "import-layering")],
    )
    test_pragma_with_unknown_rule_is_a_finding = case(
        "repro/storage/unknown.py", "x = 1  # repro: allow[no-such-rule] because reasons\n",
        [(1, "bad-pragma")],
    )
    test_pragma_for_wrong_rule_does_not_suppress = case(
        "repro/storage/wrong_rule.py",
        f"{SERVING_IMPORT}  # repro: allow[broad-except] not the firing rule\n",
        [(1, "import-layering"), (1, "unused-pragma")],
    )
    test_standalone_pragma_covers_next_line = case(
        "repro/storage/standalone.py",
        f"# repro: allow[import-layering] fixture exercises standalone pragmas\n{SERVING_IMPORT}\n",
        [],
    )
    # The call is suppressed; the import of serving on line 1 is not.
    test_multi_rule_pragma = case("repro/models/multi.py", """\
        from repro.storage.columnar import scan_sgx_bytes

        scan = scan_sgx_bytes(b"")  # repro: allow[api-boundary, import-layering] fixture
        """, [(1, "import-layering")])
    test_unused_pragma_is_flagged = case(
        "repro/storage/unused.py", "x = 1  # repro: allow[broad-except] nothing to suppress here\n",
        [(1, "unused-pragma")],
    )
    test_pragma_like_text_in_strings_is_ignored = case(
        "repro/storage/stringly.py", 'DOC = """use # repro: allow[not-a-rule] to suppress"""\n', []
    )


class TestEngine:
    def test_module_name_derivation(self):
        assert module_name(Path("src/repro/storage/columnar.py")) == "repro.storage.columnar"
        assert module_name(Path("/x/y/repro/serving/__init__.py")) == "repro.serving"
        assert module_name(Path("scripts/standalone.py")) is None

    test_parse_error_is_reported = case(
        "repro/storage/broken.py", "def f(:\n", [(1, "parse-error")]
    )

    def test_finding_rendering_format(self, tmp_path):
        path = write_fixture(tmp_path, "repro/storage/bad.py", "import repro.serving.service\n")
        findings = run_lint([path])
        assert len(findings) == 1
        assert findings[0].render().startswith(f"{findings[0].path}:1: import-layering ")

    def test_run_lint_walks_directories(self, tmp_path):
        write_fixture(tmp_path, "repro/storage/one.py", "import repro.serving.service\n")
        write_fixture(tmp_path, "repro/storage/two.py", "import repro.fleet_ops.cli\n")
        assert len(run_lint([tmp_path])) == 2


class TestCli:
    @pytest.fixture
    def cli(self, tmp_path, capsys, monkeypatch):
        """``main(argv)`` run from ``tmp_path``; returns ``(exit code, stdout)``."""
        monkeypatch.chdir(tmp_path)

        def run(*argv: str) -> tuple[int, str]:
            code = main(list(argv))
            return code, capsys.readouterr().out

        return run

    def test_clean_file_exits_zero(self, tmp_path, cli):
        path = write_fixture(tmp_path, "repro/storage/good.py", "x = 1\n")
        assert cli(str(path)) == (0, "")

    def test_bad_snippet_exits_nonzero_with_location(self, tmp_path, cli):
        path = write_fixture(tmp_path, "repro/storage/bad.py", f"{SERVING_IMPORT}\n")
        code, out = cli(str(path))
        assert code == 1
        assert out.startswith("repro/storage/bad.py:1: import-layering ")

    def test_each_rule_bad_fixture_exits_nonzero(self, tmp_path, cli):
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
            "frozen-dataclass": ("repro/metrics/f5.py", "object.__setattr__(object(), 'x', 1)\n"),
            "broad-except": (
                "repro/serving/f6.py", "try:\n    pass\nexcept Exception:\n    pass\n"
            ),
        }
        for rule, (relpath, source) in bad_fixtures.items():
            code, out = cli(str(write_fixture(tmp_path, relpath, source)))
            assert code == 1, (rule, out)
            assert rule in out, (rule, out)

    def test_select_unknown_rule_exits_two(self, tmp_path, cli):
        assert cli("--select", "nonsense", str(tmp_path)) == (2, "")

    def test_missing_path_exits_two(self, cli):
        assert cli("does-not-exist") == (2, "")

    def test_list_rules(self, cli):
        code, out = cli("--list-rules")
        assert code == 0
        for rule in RULES:
            assert rule in out

    def test_select_runs_only_named_rules(self, tmp_path, cli):
        source = "import repro.serving.service\ntry:\n    pass\nexcept Exception:\n    pass\n"
        path = write_fixture(tmp_path, "repro/storage/f7.py", source)
        code, out = cli("--select", "broad-except", str(path))
        assert code == 1
        assert "broad-except" in out
        assert "import-layering" not in out

    def test_script_form_runs_without_site_packages(self, tmp_path):
        # CI installs nothing: run by path, the linter imports no part of
        # the runtime (whose facade needs numpy), so it still judges a
        # tree that does not parse.
        lint = [sys.executable, "-S", str(REPO_ROOT / "src/repro/devtools/lint.py"), str(tmp_path)]
        write_fixture(tmp_path, "repro/storage/good.py", "x = 1\n")
        clean = subprocess.run(lint, capture_output=True, text=True, cwd=tmp_path)
        assert clean.returncode == 0, clean.stderr
        write_fixture(tmp_path, "repro/storage/x.py", "def broken(:\n")
        broken = subprocess.run(lint, capture_output=True, text=True, cwd=tmp_path)
        assert broken.returncode == 1, broken.stderr
        assert broken.stdout.startswith("repro/storage/x.py:1: parse-error ")


class TestSelfLint:
    def test_live_tree_is_clean(self):
        findings = run_lint([REPO_ROOT / "src"])
        assert findings == [], "\n".join(f.render() for f in findings)
