"""Unit tests for the transactional lake manifest subsystem."""

import json

import pytest

from repro.fleet_ops.cli import gc_main, main as fleet_main, manifest_main
from repro.storage.datalake import DataLakeStore, ExtractKey, ExtractNotImportedError
from repro.storage.manifest import (
    FAULT_POINTS,
    LakeManifest,
    LakeManifestError,
    ManifestSnapshot,
    TransactionLog,
)
from repro.timeseries.frame import LoadFrame, ServerMetadata

from tests.helpers import make_series, plant_csv

KEY = ExtractKey("r0", 3)


def small_frame(n=2, level=1.0) -> LoadFrame:
    frame = LoadFrame(5)
    for index in range(n):
        frame.add_server(
            ServerMetadata(server_id=f"s{index}", region="r0"),
            make_series([level, level + 1.0]),
        )
    return frame


def plant_legacy_extract(root, key: ExtractKey) -> None:
    """Fabricate a pre-manifest lake file under its legacy name."""
    plant_csv(DataLakeStore(root), key, small_frame(), legacy_layout=True)


class TestAdoption:
    def test_legacy_lake_reads_as_generation_zero(self, tmp_path):
        plant_legacy_extract(tmp_path, KEY)
        lake = DataLakeStore(tmp_path)
        assert lake.current_generation() == 0
        assert lake.list_extracts() == [KEY]
        assert not (tmp_path / "_manifest" / "MANIFEST.json").exists()

    def test_first_mutation_adopts_and_materialises_gen_zero(self, tmp_path):
        plant_legacy_extract(tmp_path, KEY)
        lake = DataLakeStore(tmp_path)
        other = ExtractKey("r1", 5)
        lake.write_extract(other, small_frame())
        assert lake.current_generation() == 1
        manifest_dir = tmp_path / "_manifest"
        assert (manifest_dir / "MANIFEST.json").exists()
        # Adoption materialises the inferred legacy snapshot so pinned
        # readers of generation 0 resolve from a file afterwards.
        assert (manifest_dir / "gen-00000000.json").exists()
        assert (manifest_dir / "gen-00000001.json").exists()
        # The legacy file is carried into generation 1 as-is: a CSV entry
        # that is listed, and read once ``convert`` has imported it.
        assert sorted(lake.list_extracts()) == [KEY, other]
        with pytest.raises(ExtractNotImportedError):
            lake.read_extract(KEY)
        assert fleet_main(["convert", "--lake-dir", str(tmp_path)]) == 0
        assert lake.read_extract(KEY).server_ids() == ["s0", "s1"]

    def test_foreign_and_content_addressed_files_invisible_to_inference(self, tmp_path):
        plant_legacy_extract(tmp_path, KEY)
        (tmp_path / KEY.region / "notes.txt").write_text("not an extract")
        snapshot = LakeManifest(tmp_path).current()
        assert snapshot.generation == 0
        assert [(e.region, e.week, e.fmt) for e in snapshot.segments] == [
            (KEY.region, KEY.week, "csv")
        ]


class TestContentAddressing:
    def test_segment_names_carry_payload_hash(self, tmp_path):
        lake = DataLakeStore(tmp_path, write_format="sgx")
        lake.write_extract(KEY, small_frame())
        path = lake.extract_path(KEY)
        fingerprint = lake.extract_fingerprint(KEY)
        assert f"-{fingerprint[:12]}.sgx" in path.name

    def test_identical_payload_reuses_the_segment_file(self, tmp_path):
        lake = DataLakeStore(tmp_path, write_format="sgx")
        lake.write_extract(KEY, small_frame())
        first_path = lake.extract_path(KEY)
        first_gen = lake.current_generation()
        lake.write_extract(KEY, small_frame())  # byte-identical re-write
        assert lake.extract_path(KEY) == first_path
        assert lake.current_generation() == first_gen + 1

    def test_fingerprint_served_from_manifest_entry(self, tmp_path):
        lake = DataLakeStore(tmp_path, write_format="sgx")
        lake.write_extract(KEY, small_frame())
        snapshot = lake.manifest.current()
        entry = snapshot.entry(KEY.region, KEY.week, "sgx")
        assert entry.sha256 == lake.extract_fingerprint(KEY)
        assert entry.size == lake.extract_size_bytes(KEY)

    def test_fingerprint_verify_hashes_the_stored_bytes(self, tmp_path):
        """The default fingerprint is the digest recorded at stage time;
        ``verify=True`` reads the file and therefore sees out-of-band
        damage the fast path by design does not."""
        lake = DataLakeStore(tmp_path, write_format="sgx")
        lake.write_extract(KEY, small_frame())
        recorded = lake.extract_fingerprint(KEY)
        assert lake.extract_fingerprint(KEY, verify=True) == recorded
        # repro: allow[manifest-boundary] simulating out-of-band disk damage
        lake.extract_path(KEY).write_bytes(b"scribbled over")
        assert lake.extract_fingerprint(KEY) == recorded
        assert lake.extract_fingerprint(KEY, verify=True) != recorded


class TestLogicalDeleteAndGc:
    def test_delete_is_logical_until_gc(self, tmp_path):
        lake = DataLakeStore(tmp_path, write_format="sgx")
        lake.write_extract(KEY, small_frame())
        path = lake.extract_path(KEY)
        lake.delete_extract(KEY)
        assert not lake.has_extract(KEY)
        assert path.exists(), "delete retires the entry, not the bytes"
        report = lake.collect_garbage()
        assert not path.exists()
        assert report.segments_removed == 1
        assert report.bytes_freed > 0

    def test_gc_keeps_only_the_current_generation(self, tmp_path):
        lake = DataLakeStore(tmp_path, write_format="sgx")
        for level in (1.0, 2.0, 3.0):
            lake.write_extract(KEY, small_frame(level=level))
        manifest_dir = tmp_path / "_manifest"
        # Generations 1..3 plus the (empty) generation 0 materialised at
        # adoption by the first write.
        assert len(list(manifest_dir.glob("gen-*.json"))) == 4
        report = lake.collect_garbage()
        assert report.generations_removed == 3
        assert report.segments_removed == 2  # two superseded payloads
        kept = list(manifest_dir.glob("gen-*.json"))
        assert [p.name for p in kept] == ["gen-00000003.json"]
        assert lake.read_extract(KEY).server_ids() == ["s0", "s1"]

    def test_gc_invalidates_pinned_readers_of_old_generations(self, tmp_path):
        lake = DataLakeStore(tmp_path, write_format="sgx")
        lake.write_extract(KEY, small_frame(level=1.0))
        pinned_gen = lake.current_generation()
        reader = DataLakeStore(tmp_path, pinned_generation=pinned_gen)
        lake.write_extract(KEY, small_frame(level=9.0))
        lake.collect_garbage()
        with pytest.raises(LakeManifestError):
            DataLakeStore(tmp_path, pinned_generation=pinned_gen)
        # The already-open reader's payload file is gone too.
        with pytest.raises(FileNotFoundError):
            reader.read_extract_bytes(KEY)

    def test_delete_of_absent_extract_publishes_no_generation(self, tmp_path):
        lake = DataLakeStore(tmp_path, write_format="sgx")
        lake.write_extract(KEY, small_frame())
        generation = lake.current_generation()
        lake.delete_extract(ExtractKey("r9", 99))  # nothing to drop
        assert lake.current_generation() == generation
        assert lake.manifest.log.pending() is None
        lake.delete_extract(KEY)  # a real drop still commits
        assert lake.current_generation() == generation + 1

    def test_gc_spares_foreign_files(self, tmp_path):
        lake = DataLakeStore(tmp_path, write_format="sgx")
        lake.write_extract(KEY, small_frame())
        foreign = tmp_path / KEY.region / "README.txt"
        foreign.write_text("hands off")
        lake.delete_extract(KEY)
        lake.collect_garbage()
        assert foreign.exists()


class TestPinnedStores:
    def test_pinned_store_is_read_only(self, tmp_path):
        lake = DataLakeStore(tmp_path, write_format="sgx")
        lake.write_extract(KEY, small_frame())
        reader = DataLakeStore(tmp_path, pinned_generation=lake.current_generation())
        with pytest.raises(LakeManifestError):
            reader.write_extract(KEY, small_frame(level=2.0))
        with pytest.raises(LakeManifestError):
            reader.delete_extract(KEY)
        with pytest.raises(LakeManifestError):
            reader.collect_garbage()

    def test_uncommitted_generation_cannot_be_pinned(self, tmp_path):
        lake = DataLakeStore(tmp_path, write_format="sgx")
        lake.write_extract(KEY, small_frame())
        with pytest.raises(LakeManifestError):
            DataLakeStore(tmp_path, pinned_generation=lake.current_generation() + 1)

    def test_legacy_lake_pins_only_generation_zero(self, tmp_path):
        plant_legacy_extract(tmp_path, KEY)
        reader = DataLakeStore(tmp_path, pinned_generation=0)
        assert reader.list_extracts() == [KEY]
        with pytest.raises(LakeManifestError):
            DataLakeStore(tmp_path, pinned_generation=1)


class TestManifestInternals:
    def test_fault_points_protocol_order(self):
        assert FAULT_POINTS.index("manifest.pointer") == len(FAULT_POINTS) - 2
        assert FAULT_POINTS[0] == "txlog.intent"

    def test_snapshot_formats_in_preference_order(self):
        snapshot = ManifestSnapshot(generation=1, txid=None, segments=())
        assert snapshot.formats("r0", 1) == ()
        assert snapshot.entry("r0", 1, "sgx") is None

    def test_torn_txlog_tail_is_tolerated(self, tmp_path):
        lake = DataLakeStore(tmp_path, write_format="sgx")
        lake.write_extract(KEY, small_frame())
        log_path = tmp_path / "_manifest" / "txlog.jsonl"
        with log_path.open("ab") as handle:
            handle.write(b'{"type": "intent", "txid": "tx-torn"')  # no newline
        reopened = DataLakeStore(tmp_path)
        assert reopened.read_extract(KEY).server_ids() == ["s0", "s1"]
        reopened.write_extract(KEY, small_frame(level=4.0))

    def test_txlog_append_repairs_torn_tail(self, tmp_path):
        log = TransactionLog(tmp_path / "txlog.jsonl")
        log.append({"type": "intent", "txid": "a"})
        with log.path.open("ab") as handle:
            handle.write(b'{"type": "commit", "txid"')  # crash mid-append
        log.append({"type": "recovered", "txid": "a", "action": "commit"})
        assert [r["type"] for r in log.records()] == ["intent", "recovered"]
        assert log.pending() is None

    def test_torn_commit_record_survives_later_commits(self, tmp_path):
        """A torn final log line must not resurrect a resolved intent.

        Recovery's resolution record lands on its own fresh line; were it
        glued onto the torn fragment, every later open would re-see the
        stale intent and -- once another transaction commits -- roll it
        back as 'uncommitted', unlinking a committed generation's files.
        """
        lake = DataLakeStore(tmp_path, write_format="sgx")
        lake.write_extract(KEY, small_frame())
        log_path = tmp_path / "_manifest" / "txlog.jsonl"
        raw = log_path.read_bytes()
        assert raw.endswith(b"\n")
        log_path.write_bytes(raw[:-10])  # tear the commit record mid-line
        other = ExtractKey("r1", 5)
        # First reopen resolves the dangling intent, then commits anew.
        DataLakeStore(tmp_path).write_extract(other, small_frame(level=2.0))
        reopened = DataLakeStore(tmp_path)  # recovery runs again here
        assert sorted(reopened.list_extracts()) == [KEY, other]
        assert reopened.read_extract(KEY).server_ids() == ["s0", "s1"]
        assert reopened.read_extract(other).server_ids() == ["s0", "s1"]
        assert reopened.manifest.log.pending() is None

    def test_corrupt_pointer_is_a_typed_error(self, tmp_path):
        lake = DataLakeStore(tmp_path, write_format="sgx")
        lake.write_extract(KEY, small_frame())
        (tmp_path / "_manifest" / "MANIFEST.json").write_text("not json")
        with pytest.raises(LakeManifestError):
            DataLakeStore(tmp_path).list_extracts()


class TestCli:
    def test_manifest_command_reports_state(self, capsys, tmp_path):
        lake = DataLakeStore(tmp_path, write_format="sgx")
        lake.write_extract(KEY, small_frame())
        assert fleet_main(["manifest", "--lake-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Committed generation: 1" in out
        assert f"{KEY.region} week {KEY.week}: .sgx" in out
        assert "no pending transaction" in out

    def test_manifest_command_json(self, capsys, tmp_path):
        lake = DataLakeStore(tmp_path, write_format="sgx")
        lake.write_extract(KEY, small_frame())
        assert manifest_main(["--lake-dir", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["adopted"] is True
        assert payload["snapshot"]["generation"] == 1
        assert payload["pending_txid"] is None

    def test_gc_command_reclaims_and_reports(self, capsys, tmp_path):
        lake = DataLakeStore(tmp_path, write_format="sgx")
        lake.write_extract(KEY, small_frame(level=1.0))
        lake.write_extract(KEY, small_frame(level=2.0))
        assert fleet_main(["gc", "--lake-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Lake gc at generation 2" in out
        assert "1 segment file(s)" in out

    def test_gc_command_json(self, capsys, tmp_path):
        lake = DataLakeStore(tmp_path, write_format="sgx")
        lake.write_extract(KEY, small_frame())
        assert gc_main(["--lake-dir", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["generation"] == 1
        assert payload["segments_removed"] == 0

    def test_missing_lake_dir_exits_2(self, capsys, tmp_path):
        missing = str(tmp_path / "nope")
        assert manifest_main(["--lake-dir", missing]) == 2
        assert gc_main(["--lake-dir", missing]) == 2
