"""Unit tests for the transactional lake manifest subsystem."""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.fleet_ops.cli import gc_main, main as fleet_main, manifest_main
from repro.storage.datalake import DataLakeStore, ExtractKey
from repro.storage.live import LiveIngestor
from repro.storage.manifest import (
    FAULT_POINTS,
    InjectedCrash,
    LakeManifest,
    LakeManifestError,
    LakeNotAdoptedError,
    LakeNotFoldedError,
    ManifestSnapshot,
    SegmentEntry,
    TransactionLog,
    fault_handler,
)
from repro.storage.migrate import adopt_legacy_files
from repro.timeseries.frame import ServerMetadata

from tests.helpers import CrashInjector, plant_csv, plant_legacy, read_frame, small_frame

KEY = ExtractKey("r0", 3)
CONVERT = "python -m repro.fleet_ops convert --lake-dir"


@pytest.fixture
def lake(tmp_path) -> DataLakeStore:
    """A lake whose generation 1 holds ``KEY``."""
    store = DataLakeStore(tmp_path)
    store.write_extract(KEY, small_frame())
    return store


def build_layout(root, layout: str) -> None:
    """A directory without a committed manifest, holding ``layout``."""
    if layout == "legacy-file":
        plant_legacy(DataLakeStore(root), {KEY: small_frame()}, adopt=False)
    elif layout == "fleet-spec":
        (root / "_fleet_spec.json").write_text("{}")
    elif layout == "foreign-files":  # a note, and an r0 legacy name filed under r9
        (root / "r9").mkdir()
        for name in ("notes.txt", KEY.filename("csv")):
            (root / "r9" / name).write_text("not an extract of r9")
    elif layout == "live-only":
        with LiveIngestor(DataLakeStore(root), interval_minutes=5) as ingestor:
            ingestor.ingest(KEY, ServerMetadata("s0", "r0"), np.arange(3), np.ones(3))
            ingestor.flush()
    elif layout == "crashed-first-transaction":
        with fault_handler(CrashInjector("segment.tmp")), pytest.raises(InjectedCrash):
            DataLakeStore(root).write_extract(KEY, small_frame())


class TestAdoption:
    """A directory whose extract files predate the manifest does not open
    until ``convert`` has adopted them in one transaction."""

    @pytest.mark.parametrize(
        "layout",
        ["legacy-file", "empty", "fleet-spec", "foreign-files", "live-only",
         "crashed-first-transaction"],
    )
    def test_only_legacy_files_keep_a_directory_from_opening(self, tmp_path, layout):
        build_layout(tmp_path, layout)
        if layout == "legacy-file":
            with pytest.raises(LakeNotAdoptedError, match=f"{CONVERT} {tmp_path}"):
                DataLakeStore(tmp_path)
            return
        store = DataLakeStore(tmp_path)
        assert store.current_generation() == 0 and store.list_extracts() == []
        # ... and convert has nothing to adopt or import.
        assert fleet_main(["convert", "--lake-dir", str(tmp_path)]) == 0
        assert not store.manifest.exists()

    def test_a_file_dropped_in_after_the_first_commit_is_not_part_of_the_lake(self, tmp_path):
        store = DataLakeStore(tmp_path)  # an empty directory: generation 0
        plant_legacy(store, {ExtractKey("r0", 0): small_frame()}, adopt=False)
        store.write_extract(ExtractKey("r1", 0), small_frame())
        assert store.manifest.legacy_files() == []
        assert DataLakeStore(tmp_path).list_extracts() == [ExtractKey("r1", 0)]
        assert (tmp_path / "r0" / ExtractKey("r0", 0).filename("csv")).exists()

    def test_convert_adopts_every_legacy_file_once(self, tmp_path, capsys):
        sgx_key = ExtractKey("r1", 5)
        frames = {KEY: small_frame(), sgx_key: small_frame(level=3.0)}
        lake = DataLakeStore(tmp_path)
        plant_legacy(lake, {KEY: frames[KEY]}, adopt=False)
        plant_legacy(lake, {sgx_key: frames[sgx_key]}, "sgx", adopt=False)
        originals = {p: p.read_bytes() for p in tmp_path.glob("r*/extract_*")}
        convert = ["convert", "--lake-dir", str(tmp_path), "--json"]
        assert fleet_main(convert) == 0
        adopted = json.loads(capsys.readouterr().out)["adopted"]
        assert {(tmp_path / a["relpath"], a["bytes"]) for a in adopted} == {
            (path, len(data)) for path, data in originals.items()
        }
        # One adopt transaction: the CSV file is imported inside it.
        snapshot = lake.manifest.current()
        assert snapshot.generation == 1 and snapshot.unimported == ()
        assert [(e.region, e.week) for e in snapshot.segments] == [("r0", 3), ("r1", 5)]
        for entry in snapshot.segments:
            data = (tmp_path / entry.relpath).read_bytes()
            assert entry.sha256 == hashlib.sha256(data).hexdigest()
            assert entry.relpath.endswith(f"-{entry.sha256[:12]}.sgx")
        for key, frame in frames.items():
            assert read_frame(DataLakeStore(tmp_path), key).content_hash() == frame.content_hash()
        assert {path: path.read_bytes() for path in originals} == originals
        assert fleet_main(convert) == 0 and lake.current_generation() == 1
        assert json.loads(capsys.readouterr().out)["adopted"] == []

    def test_an_older_generation_file_opens_and_reads_unchanged(self, tmp_path, lake):
        """Until a lake held ``.sgx`` entries alone, every entry of a
        generation file carried ``"fmt": "sgx"``."""
        before = read_frame(lake, KEY)
        gen_path = tmp_path / "_manifest" / "gen-00000001.json"
        gen = json.loads(gen_path.read_text())
        gen["segments"] = [{**entry, "fmt": "sgx"} for entry in gen["segments"]]
        gen_path.write_text(json.dumps(gen))
        for store in (DataLakeStore(tmp_path), DataLakeStore(tmp_path, pinned_generation=1)):
            assert store.manifest.current().segments == lake.manifest.current().segments
            assert read_frame(store, KEY).content_hash() == before.content_hash()
        DataLakeStore(tmp_path).write_extract(ExtractKey("r0", 4), small_frame())
        assert DataLakeStore(tmp_path).list_extracts() == [KEY, ExtractKey("r0", 4)]

    def test_crashed_adoption_rolls_back_and_convert_adopts_again(self, tmp_path):
        keys = [KEY, ExtractKey("r0", 4)]
        plant_legacy(DataLakeStore(tmp_path), {key: small_frame() for key in keys}, adopt=False)
        with fault_handler(CrashInjector("txlog.staged", 2)), pytest.raises(InjectedCrash):
            adopt_legacy_files(LakeManifest(tmp_path))
        with pytest.raises(LakeNotAdoptedError):
            DataLakeStore(tmp_path)
        assert fleet_main(["convert", "--lake-dir", str(tmp_path)]) == 0
        assert DataLakeStore(tmp_path).list_extracts() == keys

    @pytest.mark.parametrize("csv_entry", [False, True], ids=["sgx-only", "with-csv-entry"])
    def test_convert_folds_an_old_lakes_seal_watermarks(self, tmp_path, lake, csv_entry):
        """A store from before watermarks in generations kept them in the
        seal ops of its whole log.  Its lake opens once ``convert`` has
        folded the highest committed one into a generation -- in the adopt
        transaction, which also imports a CSV entry an older store left."""
        if csv_entry:
            plant_csv(lake, ExtractKey("r0", 4), small_frame(level=2.0))
        manifest_dir = tmp_path / "_manifest"
        head = LakeManifest(tmp_path).head().generation
        gen = json.loads((manifest_dir / f"gen-{head:08d}.json").read_text())
        del gen["sealed_through"]
        (manifest_dir / f"gen-{head:08d}.json").write_text(json.dumps(gen))
        seal = "live-seal r0 week0000 through {}".format
        old_log = [
            {"type": "intent", "txid": "a", "generation_from": 0, "op": seal(720)},
            {"type": "commit", "txid": "a", "generation": 1},
            {"type": "intent", "txid": "b", "generation_from": 1, "op": seal(2880)},
            {"type": "recovered", "txid": "b", "action": "abort"},
            # Committed: the pointer names it, only its commit record was lost.
            {"type": "intent", "txid": gen["txid"], "generation_from": 1, "op": seal(1440)},
        ]
        (manifest_dir / "txlog.jsonl").write_text("".join(f"{json.dumps(r)}\n" for r in old_log))
        refused = LakeNotAdoptedError if csv_entry else LakeNotFoldedError
        with pytest.raises(refused, match=f"{CONVERT} {tmp_path}"):
            DataLakeStore(tmp_path)
        assert fleet_main(["convert", "--lake-dir", str(tmp_path)]) == 0
        store = DataLakeStore(tmp_path)
        snapshot = store.manifest.current()
        assert snapshot.generation == head + 1 and snapshot.sealed_through == {("r0", 0): 1440}
        assert store.list_extracts() == [KEY, ExtractKey("r0", 4)][: 1 + csv_entry]
        assert [p.read_bytes() for p in manifest_dir.glob("txlog*")] == [b""]

    @pytest.mark.parametrize(
        "argv", [["manifest"], [], ["live", "--days", "1"]], ids=["manifest", "run", "live"]
    )
    def test_cli_refuses_an_unadopted_directory(self, tmp_path, capsys, argv):
        build_layout(tmp_path, "legacy-file")
        assert fleet_main([*argv, "--lake-dir", str(tmp_path)]) == 1
        assert f"{CONVERT} {tmp_path}" in capsys.readouterr().err


class TestContentAddressing:
    def test_segment_names_carry_payload_hash(self, lake):
        path = lake.extract_path(KEY)
        fingerprint = lake.extract_fingerprint(KEY)
        assert f"-{fingerprint[:12]}.sgx" in path.name

    def test_identical_payload_reuses_the_segment_file(self, lake):
        first_path = lake.extract_path(KEY)
        first_gen = lake.current_generation()
        lake.write_extract(KEY, small_frame())  # byte-identical re-write
        assert lake.extract_path(KEY) == first_path
        assert lake.current_generation() == first_gen + 1

    def test_fingerprint_served_from_manifest_entry(self, lake):
        snapshot = lake.manifest.current()
        entry = snapshot.entry(KEY.region, KEY.week)
        assert entry.sha256 == lake.extract_fingerprint(KEY)
        assert entry.size == lake.extract_size_bytes(KEY)


class TestLogicalRetirementAndGc:
    def test_overwrite_is_logical_until_gc(self, lake):
        path = lake.extract_path(KEY)
        lake.write_extract(KEY, small_frame(level=2.0))
        assert lake.extract_path(KEY) != path
        assert path.exists(), "an overwrite retires the entry, not the bytes"
        report = lake.collect_garbage()
        assert not path.exists()
        assert report.segments_removed == 1
        assert report.bytes_freed > 0

    def test_gc_keeps_only_the_current_generation(self, tmp_path, lake):
        for level in (2.0, 3.0):
            lake.write_extract(KEY, small_frame(level=level))
        manifest_dir = tmp_path / "_manifest"
        # Generations 1..3 plus the (empty) generation 0 materialised by
        # the first commit.
        assert len(list(manifest_dir.glob("gen-*.json"))) == 4
        report = lake.collect_garbage()
        assert report.generations_removed == 3
        assert report.segments_removed == 2  # two superseded payloads
        kept = list(manifest_dir.glob("gen-*.json"))
        assert [p.name for p in kept] == ["gen-00000003.json"]
        assert read_frame(lake, KEY).server_ids() == ["s0", "s1"]

    def test_gc_invalidates_pinned_readers_of_old_generations(self, tmp_path, lake):
        pinned_gen = lake.current_generation()
        reader = DataLakeStore(tmp_path, pinned_generation=pinned_gen)
        lake.write_extract(KEY, small_frame(level=9.0))
        lake.collect_garbage()
        with pytest.raises(LakeManifestError):
            DataLakeStore(tmp_path, pinned_generation=pinned_gen)
        # The already-open reader's payload file is gone too.
        with pytest.raises(FileNotFoundError):
            reader.extract_path(KEY).read_bytes()

    def test_empty_transaction_publishes_no_generation(self, lake):
        generation = lake.current_generation()
        with lake.manifest.transaction("noop"):
            pass  # stages nothing, moves no watermark
        assert lake.current_generation() == generation
        assert lake.manifest.log.pending() is None
        lake.write_extract(KEY, small_frame(level=2.0))  # a real write still commits
        assert lake.current_generation() == generation + 1

    def test_gc_spares_foreign_files(self, tmp_path, lake):
        foreign = tmp_path / KEY.region / "README.txt"
        foreign.write_text("hands off")
        lake.write_extract(KEY, small_frame(level=2.0))
        assert lake.collect_garbage().segments_removed == 1

        assert foreign.exists()


class TestPinnedStores:
    def test_pinned_store_is_read_only(self, tmp_path, lake):
        reader = DataLakeStore(tmp_path, pinned_generation=lake.current_generation())
        with pytest.raises(LakeManifestError):
            reader.write_extract(KEY, small_frame(level=2.0))
        with pytest.raises(LakeManifestError):
            reader.collect_garbage()

    def test_uncommitted_generation_cannot_be_pinned(self, tmp_path, lake):
        with pytest.raises(LakeManifestError):
            DataLakeStore(tmp_path, pinned_generation=lake.current_generation() + 1)


class TestManifestInternals:
    def test_fault_points_protocol_order(self):
        assert FAULT_POINTS.index("manifest.pointer") == len(FAULT_POINTS) - 2
        assert FAULT_POINTS[0] == "txlog.intent"

    def test_snapshot_indexes_one_segment_per_key(self):
        entry = SegmentEntry("r0", 1, "r0/extract_r0_week0001-0123456789ab.sgx", 3, "0" * 64)
        snapshot = ManifestSnapshot(generation=1, txid=None, segments=(entry,))
        assert snapshot.entry("r0", 1) == entry and snapshot.entry("r0", 2) is None
        assert snapshot.keys() == [("r0", 1)]

    def test_torn_txlog_tail_is_tolerated(self, tmp_path, lake):
        log_path = tmp_path / "_manifest" / "txlog.jsonl"
        with log_path.open("ab") as handle:
            handle.write(b'{"type": "intent", "txid": "tx-torn"')  # no newline
        reopened = DataLakeStore(tmp_path)
        assert read_frame(reopened, KEY).server_ids() == ["s0", "s1"]
        reopened.write_extract(KEY, small_frame(level=4.0))

    def test_torn_commit_record_survives_later_commits(self, tmp_path, lake):
        """A torn last line of a crashed transaction's log must neither
        lose that committed transaction nor resurrect it later: recovery
        resets the log, so the next transaction starts on an empty one
        instead of behind the torn fragment."""
        crashed, other = ExtractKey("r1", 4), ExtractKey("r1", 5)
        with fault_handler(CrashInjector("manifest.pointer")), pytest.raises(InjectedCrash):
            lake.write_extract(crashed, small_frame())
        log_path = tmp_path / "_manifest" / "txlog.jsonl"
        log_path.write_bytes(log_path.read_bytes()[:-10])  # tear the staged record
        # First reopen resolves the dangling intent, then commits anew.
        DataLakeStore(tmp_path).write_extract(other, small_frame(level=2.0))
        reopened = DataLakeStore(tmp_path)  # recovery runs again here
        assert sorted(reopened.list_extracts()) == [KEY, crashed, other]
        for key in (KEY, crashed, other):
            assert read_frame(reopened, key).server_ids() == ["s0", "s1"]
        assert reopened.manifest.log.pending() is None

    @pytest.mark.parametrize("line", [
        b'{"type": "intent", "txid": "x", "generation_from": null}',
        b'{"type": "commit", "txid": "x", "generation": 1}',  # no longer a log record
        b"[1, 2]",
    ])
    def test_malformed_txlog_record_is_a_typed_error(self, tmp_path, lake, line):
        with (tmp_path / "_manifest" / "txlog.jsonl").open("ab") as handle:
            handle.write(line + b"\n")
        with pytest.raises(LakeManifestError, match="txlog.jsonl"):
            DataLakeStore(tmp_path).list_extracts()

    def test_txlog_is_empty_at_rest_however_old_the_lake(self, tmp_path, monkeypatch):
        """500 commits: the log is no larger than after 5 (empty), and no
        transaction begin parses more than one transaction's records."""
        monkeypatch.setattr(os, "fsync", lambda fd: None)  # durability is not measured here
        parsed = []
        records = TransactionLog.records
        monkeypatch.setattr(
            TransactionLog, "records", lambda log: parsed.append(records(log)) or parsed[-1]
        )
        store = DataLakeStore(tmp_path)
        log_path = tmp_path / "_manifest" / "txlog.jsonl"
        for commit in range(500):
            store.write_extract(ExtractKey("r0", commit % 5), small_frame(level=float(commit)))
            if commit == 4:
                after_five = log_path.stat().st_size
        assert log_path.stat().st_size <= after_five == 0
        assert len(parsed) >= 500 and not any(parsed)

    def test_corrupt_pointer_is_a_typed_error(self, tmp_path, lake):
        (tmp_path / "_manifest" / "MANIFEST.json").write_text("not json")
        with pytest.raises(LakeManifestError):
            DataLakeStore(tmp_path).list_extracts()

    @pytest.mark.parametrize(
        "file, damage",
        [
            ("gen-00000001.json", lambda raw: raw["segments"][0].pop("week")),
            ("gen-00000001.json", lambda raw: raw["segments"][0].update(sha256=None)),
            ("gen-00000001.json", lambda raw: raw["segments"][0].update(size="big")),
            ("MANIFEST.json", lambda raw: raw.update(generation="one")),
        ],
        ids=["missing-key", "null-sha256", "non-integer-size", "non-integer-pointer"],
    )
    def test_malformed_entry_is_a_typed_error(self, tmp_path, lake, capsys, file, damage):
        path = tmp_path / "_manifest" / file
        raw = json.loads(path.read_text())
        damage(raw)
        path.write_text(json.dumps(raw))
        with pytest.raises(LakeManifestError, match=file) as excinfo:
            DataLakeStore(tmp_path).list_extracts()
        if "segments" in raw:  # the message names the entry too
            assert raw["segments"][0]["relpath"] in str(excinfo.value)
        assert manifest_main(["--lake-dir", str(tmp_path)]) == 1
        assert file in capsys.readouterr().err


class TestCli:
    def test_manifest_command_reports_state(self, capsys, tmp_path, lake):
        assert fleet_main(["manifest", "--lake-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Committed generation: 1" in out
        assert f"{KEY.region} week {KEY.week}: " in out and ".sgx\n" in out
        assert "no pending transaction" in out

    def test_manifest_command_json(self, capsys, tmp_path, lake):
        with lake.manifest.transaction("seal") as txn:
            txn.set_sealed_through(KEY.region, KEY.week, 1440)
        assert manifest_main(["--lake-dir", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["adopted"] is True
        assert payload["snapshot"]["generation"] == 2
        assert payload["snapshot"]["sealed_through"] == [
            {"region": KEY.region, "week": KEY.week, "through": 1440}
        ]
        assert payload["pending_txid"] is None

    def test_gc_command_reclaims_and_reports(self, capsys, tmp_path, lake):
        lake.write_extract(KEY, small_frame(level=2.0))
        assert fleet_main(["gc", "--lake-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Lake gc at generation 2" in out
        assert "1 segment file(s)" in out

    def test_gc_command_json(self, capsys, tmp_path, lake):
        assert gc_main(["--lake-dir", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["generation"] == 1
        assert payload["segments_removed"] == 0

    def test_missing_lake_dir_exits_2(self, capsys, tmp_path):
        missing = str(tmp_path / "nope")
        assert manifest_main(["--lake-dir", missing]) == 2
        assert gc_main(["--lake-dir", missing]) == 2
