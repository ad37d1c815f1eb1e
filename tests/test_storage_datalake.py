"""Unit tests for the data-lake extract store."""

import pytest

from repro.storage.columnar import ColumnarFormatError, frame_to_sgx_bytes
from repro.storage.csv_io import frame_to_csv_text
from repro.storage.datalake import DataLakeStore, ExtractKey, ExtractNotFoundError
from repro.storage.manifest import LakeManifest, LakeNotAdoptedError
from repro.storage.migrate import ConversionVerificationError, adopt_legacy_files
from repro.storage.query import ExtractQuery
from repro.timeseries.frame import LoadFrame, ServerMetadata

from tests.helpers import (
    read_frame,
    bare_sgx_header,
    make_series,
    naive_rows,
    plant_csv,
    plant_legacy,
    small_frame,
    write_via,
)

CONVERT = "python -m repro.fleet_ops convert --lake-dir"


class TestStoreBasics:
    def test_root_is_required(self):
        # One lake shape: there is no in-memory mode to fall back to.
        with pytest.raises(TypeError):
            DataLakeStore()

    def test_write_then_read(self, tmp_path):
        store = DataLakeStore(tmp_path)
        key = ExtractKey("r0", 3)
        store.write_extract(key, small_frame())
        loaded = read_frame(store, key)
        assert len(loaded) == 2

    def test_missing_key_reads_empty_and_has_no_segment(self, tmp_path):
        store = DataLakeStore(tmp_path)
        result = store.query(ExtractQuery.for_key(ExtractKey("r0", 0)))
        assert len(result.frame) == 0 and result.stats.extracts_scanned == 0
        with pytest.raises(ExtractNotFoundError):
            store.extract_path(ExtractKey("r0", 0))

    def test_has_extract(self, tmp_path):
        store = DataLakeStore(tmp_path)
        key = ExtractKey("r0", 1)
        assert not store.has_extract(key)
        store.write_extract(key, small_frame())
        assert store.has_extract(key)

    def test_list_extracts_filters_by_region(self, tmp_path):
        store = DataLakeStore(tmp_path)
        store.write_extract(ExtractKey("r0", 0), small_frame())
        store.write_extract(ExtractKey("r1", 0), small_frame())
        assert store.list_extracts() == [ExtractKey("r0", 0), ExtractKey("r1", 0)]
        assert store.list_extracts("r1") == [ExtractKey("r1", 0)]

    def test_extract_size_bytes_positive(self, tmp_path):
        store = DataLakeStore(tmp_path)
        key = ExtractKey("r0", 0)
        store.write_extract(key, small_frame())
        assert store.extract_size_bytes(key) > 0

    def test_size_of_missing_raises(self, tmp_path):
        with pytest.raises(ExtractNotFoundError):
            DataLakeStore(tmp_path).extract_size_bytes(ExtractKey("r0", 9))

    @pytest.mark.parametrize("accessor", ["extract_path", "extract_fingerprint"])
    def test_segment_accessor_of_missing_key_raises(self, tmp_path, accessor):
        store = DataLakeStore(tmp_path)
        store.write_extract(ExtractKey("r0", 0), small_frame())
        with pytest.raises(ExtractNotFoundError, match="r0"):
            getattr(store, accessor)(ExtractKey("r0", 9))

class TestFileBackedStore:
    def test_roundtrip_on_disk(self, tmp_path):
        store = DataLakeStore(tmp_path)
        key = ExtractKey("westus", 12)
        store.write_extract(key, small_frame(3))
        assert read_frame(store, key).server_ids() == ["s0", "s1", "s2"]
        assert store.list_extracts() == [key]

    def test_size_matches_file(self, tmp_path):
        store = DataLakeStore(tmp_path)
        key = ExtractKey("westus", 1)
        store.write_extract(key, small_frame())
        assert store.extract_size_bytes(key) == store.extract_path(key).stat().st_size

class TestListExtractParsing:
    def test_region_name_containing_week_parses_from_directory(self, tmp_path):
        # rpartition("_week") on the stem used to split inside the region
        # name; the directory name is authoritative.
        store = DataLakeStore(tmp_path)
        key = ExtractKey("east_weekly_zone", 3)
        store.write_extract(key, small_frame())
        assert store.list_extracts() == [key]
        assert store.list_extracts("east_weekly_zone") == [key]

    def test_region_filter_scans_only_that_directory(self, tmp_path):
        store = DataLakeStore(tmp_path)
        store.write_extract(ExtractKey("r0", 0), small_frame())
        store.write_extract(ExtractKey("r1", 1), small_frame())
        assert store.list_extracts("r0") == [ExtractKey("r0", 0)]
        assert store.list_extracts("missing-region") == []

    def test_foreign_files_are_ignored(self, tmp_path):
        store = DataLakeStore(tmp_path)
        store.write_extract(ExtractKey("r0", 0), small_frame())
        (tmp_path / "r0" / "notes.txt").write_text("not an extract")
        (tmp_path / "r0" / "extract_other_week0001.csv").write_text("wrong region prefix")  # repro: allow[manifest-boundary] planting a foreign file the lake must ignore
        (tmp_path / "_manifest.json").write_text("{}")
        assert store.list_extracts() == [ExtractKey("r0", 0)]


class TestFormatNegotiation:
    """What is left of it: a lake reads and writes ``.sgx`` alone; CSV
    enters only when ``convert`` adopts it (:class:`TestCsvEntries`)."""

    def test_sgx_write_and_read(self, tmp_path):
        store = DataLakeStore(tmp_path)
        key = ExtractKey("r0", 2)
        rows = store.write_extract(key, small_frame())
        assert rows == 4  # 2 servers x 2 points
        assert store.extract_path(key).suffix == ".sgx"
        loaded = read_frame(store, key)
        assert loaded.content_hash() == small_frame().content_hash()

    def test_mixed_lake_lists_each_key_once(self, tmp_path):
        store = DataLakeStore(tmp_path)
        store.write_extract(ExtractKey("r0", 1), small_frame())
        store.write_extract(ExtractKey("r1", 0), small_frame())
        plant_csv(store, ExtractKey("r0", 0), small_frame())
        plant_csv(store, ExtractKey("r1", 0), small_frame())
        adopt_legacy_files(store.manifest)
        assert DataLakeStore(tmp_path).list_extracts() == [
            ExtractKey("r0", 0),
            ExtractKey("r0", 1),
            ExtractKey("r1", 0),
        ]

    def test_mixed_lake_reads_consistently(self, tmp_path):
        store = DataLakeStore(tmp_path)
        frame = small_frame()
        store.write_extract(ExtractKey("r0", 1), frame)
        plant_csv(store, ExtractKey("r0", 0), frame)
        adopt_legacy_files(store.manifest)
        imported = read_frame(store, ExtractKey("r0", 0))
        written = read_frame(store, ExtractKey("r0", 1))
        assert imported.content_hash() == written.content_hash() == frame.content_hash()

    def test_fingerprint_covers_stored_bytes(self, tmp_path):
        store = DataLakeStore(tmp_path)
        key = ExtractKey("r0", 0)
        store.write_extract(key, small_frame())
        per_day = store.extract_fingerprint(key)
        DataLakeStore(tmp_path, chunk_minutes=5).write_extract(key, small_frame())
        # Same content, different stored representation: new fingerprint.
        assert read_frame(store, key).content_hash() == small_frame().content_hash()
        assert store.extract_fingerprint(key) != per_day

    def test_csv_export_decodes_columnar(self, tmp_path):
        store = DataLakeStore(tmp_path)
        key = ExtractKey("r0", 0)
        store.write_extract(key, small_frame())
        text = frame_to_csv_text(store.query(ExtractQuery.for_key(key), include_tail=False).frame)
        assert text.startswith("server_id,")
        assert "s0" in text

    def test_unknown_format_rejected(self, tmp_path):
        # One accepted value, kept only for callers that still pass it.
        DataLakeStore(tmp_path, write_format="sgx")
        for fmt in ("csv", "arrow"):
            with pytest.raises(ValueError, match="stores .sgx only.*convert"):
                DataLakeStore(tmp_path, write_format=fmt)
        with pytest.raises(TypeError):
            DataLakeStore(tmp_path).write_extract(ExtractKey("r0", 0), small_frame(), fmt="csv")

    def test_a_csv_generation_takes_no_read_or_write_but_adoption(self, tmp_path):
        """A store opened before an older writer committed a CSV entry
        neither reads that generation nor commits over it (the entry
        would be lost)."""
        store = DataLakeStore(tmp_path)
        store.write_extract(ExtractKey("r0", 0), small_frame())
        segments = set(tmp_path.glob("r0/*.sgx"))
        plant_csv(store, ExtractKey("r0", 1), small_frame())
        generation = store.manifest.head().generation
        for call in (
            lambda: read_frame(store, ExtractKey("r0", 0)),
            lambda: store.write_extract(ExtractKey("r0", 2), small_frame()),
            lambda: store.write_extract_bytes(ExtractKey("r0", 0), frame_to_sgx_bytes(small_frame())),
        ):
            with pytest.raises(LakeNotAdoptedError, match=f"{CONVERT} {tmp_path}"):
                call()
            assert store.manifest.current().generation == generation
        assert set(tmp_path.glob("r0/*.sgx")) == segments


@pytest.mark.parametrize("legacy_layout", [False, True], ids=["manifest-entry", "legacy-file"])
class TestCsvEntries:
    """A CSV source -- a committed generation's CSV entry, or a legacy
    ``.csv`` file -- keeps the lake from opening, pinned or not, until
    ``convert``'s adoption imports it; beside an ``.sgx`` source for the
    same key it follows the three sibling rules."""

    KEY = ExtractKey("r0", 4)

    def plant(self, root, legacy_layout, frame, sgx: bytes | None = None) -> None:
        """Leave ``KEY`` with a CSV source of ``frame`` (and ``sgx`` bytes
        as its segment or legacy ``.sgx`` file)."""
        store = DataLakeStore(root)
        if legacy_layout:
            if sgx is not None:
                (root / "r0").mkdir()
                (root / "r0" / self.KEY.filename()).write_bytes(sgx)  # a pre-manifest file
            plant_legacy(store, {self.KEY: frame}, adopt=False)
        else:
            if sgx is not None:
                store.write_extract_bytes(self.KEY, sgx)
            plant_csv(store, self.KEY, frame)

    def test_refused_at_open_pinned_or_not(self, tmp_path, legacy_layout):
        self.plant(tmp_path, legacy_layout, small_frame())
        generation = LakeManifest(tmp_path).head().generation
        for pin in (None, generation):
            with pytest.raises(LakeNotAdoptedError, match=f"{CONVERT} {tmp_path}"):
                DataLakeStore(tmp_path, pinned_generation=pin)

    def test_convert_imports_once(self, tmp_path, legacy_layout):
        self.plant(tmp_path, legacy_layout, small_frame())
        assert len(adopt_legacy_files(LakeManifest(tmp_path))) == 1
        store = DataLakeStore(tmp_path)
        assert read_frame(store, self.KEY).content_hash() == small_frame().content_hash()
        assert store.manifest.current().unimported == ()
        generation = store.current_generation()
        assert adopt_legacy_files(LakeManifest(tmp_path)) == ()
        assert store.current_generation() == generation
        # gc reclaims a retired CSV entry; a legacy-named original stays.
        store.collect_garbage()
        assert not list(tmp_path.glob("r0/*-*.csv"))
        assert (tmp_path / "r0" / self.KEY.filename("csv")).exists() == legacy_layout

    def test_matching_segment_is_kept(self, tmp_path, legacy_layout):
        frame = LoadFrame(5)
        frame.add_server(ServerMetadata("s0", "r0"), make_series([1.0, 2.0], start=1435))
        sgx = frame_to_sgx_bytes(frame, chunk_minutes=0)  # adoption would write two chunks
        assert sgx != frame_to_sgx_bytes(frame)
        self.plant(tmp_path, legacy_layout, frame, sgx)
        adopt_legacy_files(LakeManifest(tmp_path))
        assert DataLakeStore(tmp_path).extract_path(self.KEY).read_bytes() == sgx

    def test_mismatched_segment_publishes_nothing(self, tmp_path, legacy_layout):
        self.plant(tmp_path, legacy_layout, small_frame(), frame_to_sgx_bytes(small_frame(3)))
        generation = LakeManifest(tmp_path).head().generation
        with pytest.raises(ConversionVerificationError, match="r0 week 4 disagrees"):
            adopt_legacy_files(LakeManifest(tmp_path))
        assert LakeManifest(tmp_path).current().generation == generation
        with pytest.raises(LakeNotAdoptedError):
            DataLakeStore(tmp_path)

    def test_rejected_segment_is_reimported(self, tmp_path, legacy_layout):
        self.plant(tmp_path, legacy_layout, small_frame(), bare_sgx_header(3))
        adopt_legacy_files(LakeManifest(tmp_path))
        store = DataLakeStore(tmp_path)
        assert read_frame(store, self.KEY).content_hash() == small_frame().content_hash()


class TestTimeRangeReads:
    def frame_two_days(self):
        frame = LoadFrame(5)
        frame.add_server(
            ServerMetadata(server_id="a", region="r0"),
            make_series([1.0] * 288, start=0),
        )
        frame.add_server(
            ServerMetadata(server_id="b", region="r0"),
            make_series([2.0] * 288, start=1440),
        )
        return frame

    @pytest.mark.parametrize("fmt", ["csv", "sgx"])
    def test_partial_read_prunes_servers(self, tmp_path, fmt):
        store = DataLakeStore(tmp_path)
        key = ExtractKey("r0", 0)
        write_via(fmt, store, key, self.frame_two_days())
        part = read_frame(store, key, start_minute=1440, end_minute=2880)
        assert part.server_ids() == ["b"]
        assert part.total_points() == 288

    def test_partial_read_identical_across_formats(self, tmp_path):
        # Imported from a CSV entry vs written: same partial read.
        frame = self.frame_two_days()
        store = DataLakeStore(tmp_path)
        write_via("csv", store, ExtractKey("r0", 0), frame)
        write_via("sgx", store, ExtractKey("r0", 1), frame)
        via_csv = read_frame(store, ExtractKey("r0", 0), start_minute=100, end_minute=700)
        via_sgx = read_frame(store, ExtractKey("r0", 1), start_minute=100, end_minute=700)
        assert via_csv.content_hash() == via_sgx.content_hash()
        want = naive_rows(frame, ExtractQuery(start_minute=100, end_minute=700))
        assert via_csv.content_hash() == want.content_hash()


class TestChunkPolicy:
    """The store's ``chunk_minutes`` knob reaches the columnar writer."""

    def week_frame(self) -> LoadFrame:
        frame = LoadFrame(5)
        frame.add_server(
            ServerMetadata(server_id="s0", region="r0"),
            make_series([1.0] * (7 * 288), start=0),
        )
        return frame

    def _chunks(self, store, key) -> int:
        from repro.storage.columnar import sgx_summary

        return sgx_summary(store.extract_path(key).read_bytes())["n_chunks"]

    def test_default_policy_is_one_chunk_per_day(self, tmp_path):
        store = DataLakeStore(tmp_path, write_format="sgx")
        key = ExtractKey("r0", 0)
        store.write_extract(key, self.week_frame())
        assert self._chunks(store, key) == 7

    def test_store_chunk_minutes_config(self, tmp_path):
        store = DataLakeStore(tmp_path, write_format="sgx", chunk_minutes=0)
        key = ExtractKey("r0", 0)
        store.write_extract(key, self.week_frame())
        assert self._chunks(store, key) == 1

    def test_store_chunk_minutes_splits_within_a_day(self, tmp_path):
        store = DataLakeStore(tmp_path, chunk_minutes=720)
        key = ExtractKey("r0", 0)
        store.write_extract(key, self.week_frame())
        assert self._chunks(store, key) == 14

    def test_negative_chunk_minutes_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="chunk_minutes"):
            DataLakeStore(tmp_path, chunk_minutes=-5)

    def test_write_extract_bytes_stores_exact_payload(self, tmp_path):
        store = DataLakeStore(tmp_path)
        key = ExtractKey("r0", 0)
        payload = frame_to_sgx_bytes(self.week_frame(), chunk_minutes=0)
        store.write_extract_bytes(key, payload)
        assert store.extract_path(key).read_bytes() == payload

    def test_partial_read_within_server_matches_slice(self, tmp_path):
        store = DataLakeStore(tmp_path, write_format="sgx")
        key = ExtractKey("r0", 0)
        frame = self.week_frame()
        store.write_extract(key, frame)
        part = read_frame(store, key, start_minute=1440, end_minute=2880)
        assert part.series("s0") == frame.series("s0").slice(1440, 2880)

    def test_unsorted_series_write_is_rejected_loudly(self, tmp_path):
        # The lake must surface the writer's zone-map guard, not persist
        # a corrupt extract.
        import numpy as np

        from repro.timeseries.series import LoadSeries

        frame = LoadFrame(5)
        series = LoadSeries(
            np.array([10, 0, 5], dtype=np.int64),
            np.zeros(3),
            5,
            validate=False,
        )
        frame.add_server(ServerMetadata(server_id="bad", region="r0"), series)
        store = DataLakeStore(tmp_path, write_format="sgx")
        key = ExtractKey("r0", 0)
        with pytest.raises(ColumnarFormatError, match="bad"):
            store.write_extract(key, frame)
        assert not store.has_extract(key)


class TestCorruptionFallback:
    """There is none: damage is a typed error (what it says, cold and
    warm, for every read shape: ``test_storage_structure_cache.py``)."""

    def _corrupt_sgx(self, store, key):
        damaged = bytearray(store.extract_path(key).read_bytes())
        damaged[-3] ^= 0xFF
        store.extract_path(key).write_bytes(bytes(damaged))  # repro: allow[manifest-boundary] simulating out-of-band disk damage

    def test_corrupt_sgx_without_csv_raises_typed_error(self, tmp_path):
        store = DataLakeStore(tmp_path)
        key = ExtractKey("r0", 0)
        store.write_extract(key, small_frame())
        self._corrupt_sgx(store, key)
        with pytest.raises(ColumnarFormatError):
            read_frame(store, key)

    def test_truncated_sgx_header_raises_typed_error(self, tmp_path):
        store = DataLakeStore(tmp_path)
        key = ExtractKey("r0", 0)
        store.write_extract(key, small_frame())
        truncated = store.extract_path(key).read_bytes()[:10]
        store.extract_path(key).write_bytes(truncated)  # repro: allow[manifest-boundary] simulating out-of-band disk damage
        with pytest.raises(ColumnarFormatError, match="truncated"):
            read_frame(store, key)


class TestExtractKey:
    def test_filename_format(self):
        assert ExtractKey("eastus", 7).filename() == "extract_eastus_week0007.sgx"

    def test_filename_with_format(self):
        # The name a legacy-layout file waiting to be imported carries.
        assert ExtractKey("eastus", 7).filename("csv") == "extract_eastus_week0007.csv"

    def test_ordering(self):
        assert ExtractKey("a", 1) < ExtractKey("b", 0)
