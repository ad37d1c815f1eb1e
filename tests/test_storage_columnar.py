"""Unit tests for the binary columnar ``.sgx`` extract format."""

import hashlib
import struct
import zlib

import numpy as np
import pytest

from repro.storage import columnar
from repro.storage.aggregate import AggregateAccumulator
from repro.storage.columnar import (
    HEADER_BYTES,
    MAGIC,
    ColumnarFormatError,
    SgxReadStats,
    frame_from_sgx_bytes,
    frame_to_sgx_bytes,
    sgx_summary,
)
from repro.storage.datalake import DataLakeStore, ExtractKey
from repro.storage.manifest import LakeNotAdoptedError
from repro.storage.migrate import ConversionVerificationError, adopt_legacy_files, convert_lake
from repro.storage.query import ExtractQuery
from repro.timeseries.frame import LoadFrame, ServerMetadata
from repro.timeseries.series import LoadSeries

from tests.helpers import bare_sgx_header, make_series, plant_csv

#: Bytes from a chunk's max_ts field to the end of its fixed header
#: (max_ts i64 + ts_crc u32 + vs_crc u32).
_CHUNK_FIXED_TAIL = 16


def build_frame(n_servers=3, points=12, interval=5) -> LoadFrame:
    frame = LoadFrame(interval)
    for index in range(n_servers):
        metadata = ServerMetadata(
            server_id=f"srv-{index}",
            region="westus2",
            engine=("postgresql", "mysql", "sql")[index % 3],
            default_backup_start=60 * index,
            default_backup_end=60 * index + 30,
            backup_duration_minutes=45,
            true_class=("stable", "daily", "")[index % 3],
        )
        values = np.linspace(0.0, 99.0, points) + index
        frame.add_server(metadata, make_series(values, start=index * 1440, interval=interval))
    return frame


def test_every_struct_sits_beside_its_size_constant():
    # Writer, reader and the chunk-table dtype agree on the layout only
    # through these named sizes.
    structs = {n: s for n, s in vars(columnar).items() if isinstance(s, struct.Struct)}
    assert structs
    for name, packer in structs.items():
        names = [name.lstrip("_") + s for s in ("_SIZE", "_ENTRY_SIZE", "_HEADER_SIZE", "_BYTES")]
        sizes = [getattr(columnar, n) for n in names if hasattr(columnar, n)]
        assert sizes and all(size == packer.size for size in sizes), (name, sizes)
    assert columnar._CHUNK_TABLE_DTYPE.itemsize == columnar.CHUNK_HEADER_V4_ENTRY_SIZE


class TestRoundTrip:
    def test_bytes_roundtrip_preserves_content_hash(self):
        frame = build_frame()
        restored = frame_from_sgx_bytes(frame_to_sgx_bytes(frame))
        assert restored.content_hash() == frame.content_hash()

    def test_roundtrip_preserves_metadata_exactly(self):
        frame = build_frame()
        restored = frame_from_sgx_bytes(frame_to_sgx_bytes(frame))
        for server_id in frame.server_ids():
            assert restored.metadata(server_id) == frame.metadata(server_id)

    def test_roundtrip_preserves_values_bit_exactly(self):
        frame = LoadFrame(5)
        values = [0.1, 1 / 3, 2.5000000001, 99.99999999]
        frame.add_server(ServerMetadata(server_id="s"), make_series(values))
        restored = frame_from_sgx_bytes(frame_to_sgx_bytes(frame))
        assert np.array_equal(restored.series("s").values, np.asarray(values))

    def test_roundtrip_on_disk(self, tmp_path):
        frame = build_frame()
        path = tmp_path / "extract.sgx"
        path.write_bytes(frame_to_sgx_bytes(frame))
        assert frame_from_sgx_bytes(path.read_bytes()).content_hash() == frame.content_hash()

    def test_empty_frame_roundtrip(self):
        frame = LoadFrame(5)
        restored = frame_from_sgx_bytes(frame_to_sgx_bytes(frame))
        assert len(restored) == 0
        assert restored.interval_minutes == 5

    def test_empty_series_roundtrip(self):
        frame = LoadFrame(5)
        frame.add_server(ServerMetadata(server_id="s"), LoadSeries.empty(5))
        restored = frame_from_sgx_bytes(frame_to_sgx_bytes(frame))
        assert restored.series("s").is_empty

    def test_interval_taken_from_header_by_default(self):
        frame = build_frame(interval=15)
        assert frame_from_sgx_bytes(frame_to_sgx_bytes(frame)).interval_minutes == 15

    def test_unicode_strings_roundtrip(self):
        frame = LoadFrame(5)
        metadata = ServerMetadata(server_id="sérvér-0", region="日本東部", engine="postgresql")
        frame.add_server(metadata, make_series([1.0, 2.0]))
        restored = frame_from_sgx_bytes(frame_to_sgx_bytes(frame))
        assert restored.metadata("sérvér-0").region == "日本東部"

    def test_dictionary_is_shared_across_servers(self):
        # 20 servers, one region/engine: the strings are stored once.
        many = build_frame(n_servers=20, points=1)
        lone = build_frame(n_servers=1, points=1)
        per_server = (len(frame_to_sgx_bytes(many)) - len(frame_to_sgx_bytes(lone))) / 19
        encoded_meta = len("westus2") + len("postgresql")
        # record header + v4 chunk header (64 bytes) + one point + slack:
        # loose enough for the fixed fields, tight enough that re-encoding
        # the region/engine strings per server would blow it.
        assert per_server < 88 + 16 + 10 + encoded_meta  # no repeated strings


class TestZoneMapPruning:
    def test_time_range_read_cuts_series(self):
        frame = build_frame(n_servers=1, points=288)  # one day from minute 0
        data = frame_to_sgx_bytes(frame)
        part = frame_from_sgx_bytes(data, start_minute=60, end_minute=120)
        series = part.series("srv-0")
        assert series.start >= 60 and series.end < 120

    def test_non_overlapping_servers_are_omitted(self):
        frame = build_frame(n_servers=3, points=12)  # server i starts at i*1440
        data = frame_to_sgx_bytes(frame)
        part = frame_from_sgx_bytes(data, start_minute=1440, end_minute=2880)
        assert part.server_ids() == ["srv-1"]

    def test_pruned_chunks_skip_checksum_verification(self):
        frame = build_frame(n_servers=3, points=12)
        data = bytearray(frame_to_sgx_bytes(frame))
        # Corrupt the *last* server's payload (starts at minute 2*1440).
        data[-4] ^= 0xFF
        with pytest.raises(ColumnarFormatError):
            frame_from_sgx_bytes(bytes(data))
        # A range read that prunes that chunk never touches the damage.
        part = frame_from_sgx_bytes(bytes(data), start_minute=0, end_minute=1440)
        assert part.server_ids() == ["srv-0"]

    def test_open_ended_ranges(self):
        frame = build_frame(n_servers=3, points=12)
        data = frame_to_sgx_bytes(frame)
        assert frame_from_sgx_bytes(data, start_minute=2880).server_ids() == ["srv-2"]
        assert frame_from_sgx_bytes(data, end_minute=1440).server_ids() == ["srv-0"]

    def test_partial_read_does_not_pin_file_buffer(self):
        frame = build_frame(n_servers=4, points=288)
        data = frame_to_sgx_bytes(frame)
        part = frame_from_sgx_bytes(data, start_minute=0, end_minute=60)
        for server_id in part.server_ids():
            for array in (part.series(server_id).timestamps, part.series(server_id).values):
                owner = array
                while getattr(owner, "base", None) is not None:
                    owner = owner.base
                # The kept slice must own its data, not reference the
                # whole .sgx byte buffer.
                assert not isinstance(owner, (bytes, bytearray, memoryview))

    def test_full_range_equals_full_read(self):
        frame = build_frame()
        data = frame_to_sgx_bytes(frame)
        part = frame_from_sgx_bytes(data, start_minute=0, end_minute=10 * 1440)
        assert part.content_hash() == frame.content_hash()


class TestCorruption:
    def test_empty_bytes(self):
        with pytest.raises(ColumnarFormatError, match="truncated"):
            frame_from_sgx_bytes(b"")

    def test_bad_magic(self):
        data = bytearray(frame_to_sgx_bytes(build_frame()))
        data[:4] = b"NOPE"
        with pytest.raises(ColumnarFormatError, match="magic"):
            frame_from_sgx_bytes(bytes(data))

    def test_csv_bytes_are_rejected(self):
        with pytest.raises(ColumnarFormatError):
            frame_from_sgx_bytes(b"server_id,timestamp_minutes,avg_cpu_percent\n" * 10)

    def test_truncated_header(self):
        data = frame_to_sgx_bytes(build_frame())
        with pytest.raises(ColumnarFormatError, match="truncated"):
            frame_from_sgx_bytes(data[: HEADER_BYTES - 4])

    def test_truncated_body(self):
        data = frame_to_sgx_bytes(build_frame())
        with pytest.raises(ColumnarFormatError, match="truncated"):
            frame_from_sgx_bytes(data[:-10])

    def test_header_field_tamper_detected_by_header_crc(self):
        data = bytearray(frame_to_sgx_bytes(build_frame()))
        # Inflate n_servers without fixing the header CRC.
        struct.pack_into("<I", data, 12, 9999)
        with pytest.raises(ColumnarFormatError, match="header checksum"):
            frame_from_sgx_bytes(bytes(data))

    def test_unsupported_version(self):
        data = bytearray(frame_to_sgx_bytes(build_frame()))
        crc_offset = HEADER_BYTES - 4  # header CRC is the last header field
        struct.pack_into("<H", data, 4, 99)
        struct.pack_into("<I", data, crc_offset, zlib.crc32(bytes(data[:crc_offset])))
        with pytest.raises(ColumnarFormatError, match="version"):
            frame_from_sgx_bytes(bytes(data))

    def test_payload_bit_flip_detected(self):
        data = bytearray(frame_to_sgx_bytes(build_frame()))
        data[-1] ^= 0x01
        with pytest.raises(ColumnarFormatError, match="checksum"):
            frame_from_sgx_bytes(bytes(data))

    def test_appended_garbage_detected(self):
        data = frame_to_sgx_bytes(build_frame())
        with pytest.raises(ColumnarFormatError):
            frame_from_sgx_bytes(data + b"extra")

    def test_zone_map_tamper_detected_even_on_pruned_reads(self):
        frame = build_frame(n_servers=1, points=12)
        data = bytearray(frame_to_sgx_bytes(frame))
        # max_ts sits in the 8 bytes just before the payload CRC at the
        # end of the single chunk's fixed header.
        idx = len(data) - 12 * 16 - _CHUNK_FIXED_TAIL
        data[idx] ^= 0xFF
        with pytest.raises(ColumnarFormatError, match="structure checksum"):
            frame_from_sgx_bytes(bytes(data))
        # A time-range read must not trust the tampered zone map either.
        with pytest.raises(ColumnarFormatError, match="structure checksum"):
            frame_from_sgx_bytes(bytes(data), start_minute=0, end_minute=1)

    def test_dictionary_tamper_detected(self):
        data = bytearray(frame_to_sgx_bytes(build_frame()))
        # Flip a bit inside the first dictionary string ("westus2" -> a
        # different, still-valid region name).
        data[HEADER_BYTES + 3] ^= 0x01
        with pytest.raises(ColumnarFormatError, match="structure checksum"):
            frame_from_sgx_bytes(bytes(data))
        with pytest.raises(ColumnarFormatError, match="structure checksum"):
            sgx_summary(bytes(data))

    def test_error_is_a_value_error(self):
        # Ingestion error handling catches ValueError; the typed error
        # must stay inside that hierarchy.
        assert issubclass(ColumnarFormatError, ValueError)


def multi_day_frame(n_servers=2, n_days=7, interval=5) -> LoadFrame:
    """Servers spanning ``n_days`` consecutive days from minute 0."""
    frame = LoadFrame(interval)
    points = n_days * (1440 // interval)
    for index in range(n_servers):
        metadata = ServerMetadata(server_id=f"srv-{index}", region="westus2")
        values = (np.arange(points, dtype=float) + index) % 100
        frame.add_server(metadata, make_series(values, start=0, interval=interval))
    return frame


def assemble_sgx(servers) -> bytes:
    """Hand-assemble a checksum-consistent v4 file from ``(server_id,
    [timestamp arrays])`` pairs (all-zero values), bypassing the writer's
    sanity checks so tests can build layouts it would refuse to emit."""

    def packed(text):
        encoded = text.encode()
        return struct.pack("<H", len(encoded)) + encoded

    dict_section = packed("r") + packed("e") + packed("")
    structure_crc = zlib.crc32(dict_section)
    body = dict_section
    for server_id, chunk_timestamps in servers:
        table = payloads = b""
        for ts in chunk_timestamps:
            vs = np.zeros(ts.shape[0], dtype="<f8")
            table += columnar._CHUNK_HEADER_V4.pack(
                ts.shape[0], int(ts[0]), int(ts[-1]),
                zlib.crc32(ts.tobytes()), zlib.crc32(vs.tobytes()),
                0.0, 0.0, 0.0, 0.0,
            )
            payloads += ts.tobytes() + vs.tobytes()
        record = (
            packed(server_id)
            + columnar._SERVER_FIXED.pack(0, 1, 2, 0, 0, 60, len(chunk_timestamps))
            + table
        )
        structure_crc = zlib.crc32(record, structure_crc)
        body += record + payloads
    header = columnar._FILE_HEADER.pack(
        MAGIC, columnar.VERSION, 0, 5, len(servers), 3, HEADER_BYTES + len(body), structure_crc
    )
    return header + struct.pack("<I", zlib.crc32(header)) + body


class TestUnsortedRejection:
    """The headline bugfix: unsorted series must be rejected, not
    round-tripped with a corrupt zone map."""

    def _frame_with_timestamps(self, timestamps):
        frame = LoadFrame(5)
        series = LoadSeries(
            np.asarray(timestamps, dtype=np.int64),
            np.arange(len(timestamps), dtype=float),
            5,
            validate=False,
        )
        frame.add_server(ServerMetadata(server_id="srv-bad"), series)
        return frame

    def test_unsorted_series_rejected_naming_server(self):
        frame = self._frame_with_timestamps([0, 10, 5, 15])
        with pytest.raises(ColumnarFormatError, match="srv-bad"):
            frame_to_sgx_bytes(frame)

    def test_reversed_series_rejected(self):
        frame = self._frame_with_timestamps([15, 10, 5, 0])
        with pytest.raises(ColumnarFormatError, match="strictly increasing"):
            frame_to_sgx_bytes(frame)

    def test_duplicate_timestamps_rejected(self):
        frame = self._frame_with_timestamps([0, 5, 5, 10])
        with pytest.raises(ColumnarFormatError, match="strictly increasing"):
            frame_to_sgx_bytes(frame)

    def test_unsorted_series_never_reaches_disk(self, tmp_path):
        frame = self._frame_with_timestamps([0, 10, 5])
        with pytest.raises(ColumnarFormatError):
            DataLakeStore(tmp_path).write_extract(ExtractKey("r0", 0), frame)
        assert not list(tmp_path.glob("*/*.sgx*"))

    def test_irregular_but_sorted_series_is_accepted(self):
        # Sortedness, not grid regularity, is what zone maps need.
        frame = self._frame_with_timestamps([0, 5, 7, 100])
        restored = frame_from_sgx_bytes(frame_to_sgx_bytes(frame))
        assert restored.series("srv-bad").start == 0
        assert restored.series("srv-bad").end == 100

    def test_single_point_and_empty_series_accepted(self):
        frame = LoadFrame(5)
        frame.add_server(ServerMetadata(server_id="one"), make_series([1.0]))
        frame.add_server(ServerMetadata(server_id="none"), LoadSeries.empty(5))
        restored = frame_from_sgx_bytes(frame_to_sgx_bytes(frame))
        assert len(restored.series("one")) == 1
        assert restored.series("none").is_empty


class TestChunking:
    """Format v2: per-day chunks let zone maps prune within a server."""

    def test_writer_splits_one_chunk_per_day(self):
        frame = multi_day_frame(n_servers=2, n_days=7)
        info = sgx_summary(frame_to_sgx_bytes(frame))
        assert info["version"] == columnar.VERSION
        assert info["n_servers"] == 2
        assert info["n_chunks"] == 14
        per_server = [c for c in info["chunks"] if c["server_id"] == "srv-0"]
        assert len(per_server) == 7
        for day, chunk in enumerate(per_server):
            assert chunk["min_ts"] == day * 1440
            assert chunk["max_ts"] == (day + 1) * 1440 - 5

    def test_chunk_minutes_zero_writes_single_chunk(self):
        frame = multi_day_frame(n_servers=1, n_days=7)
        info = sgx_summary(frame_to_sgx_bytes(frame, chunk_minutes=0))
        assert info["n_chunks"] == 1

    def test_chunk_minutes_knob_controls_granularity(self):
        frame = multi_day_frame(n_servers=1, n_days=2)
        assert sgx_summary(frame_to_sgx_bytes(frame, chunk_minutes=720))["n_chunks"] == 4
        assert sgx_summary(frame_to_sgx_bytes(frame, chunk_minutes=2880))["n_chunks"] == 1

    def test_negative_chunk_minutes_rejected(self):
        with pytest.raises(ValueError, match="chunk_minutes"):
            frame_to_sgx_bytes(multi_day_frame(1, 1), chunk_minutes=-1)

    def test_multi_chunk_roundtrip_preserves_content_hash(self):
        frame = multi_day_frame(n_servers=3, n_days=7)
        restored = frame_from_sgx_bytes(frame_to_sgx_bytes(frame))
        assert restored.content_hash() == frame.content_hash()

    def test_range_exactly_on_day_boundaries(self):
        frame = multi_day_frame(n_servers=1, n_days=7)
        data = frame_to_sgx_bytes(frame)
        part = frame_from_sgx_bytes(data, start_minute=1440, end_minute=2880)
        series = part.series("srv-0")
        expected = frame.series("srv-0").slice(1440, 2880)
        assert series == expected
        assert series.start == 1440
        assert series.end == 2880 - 5

    def test_range_spanning_two_chunks_merges_seamlessly(self):
        frame = multi_day_frame(n_servers=1, n_days=7)
        data = frame_to_sgx_bytes(frame)
        part = frame_from_sgx_bytes(data, start_minute=1000, end_minute=2000)
        assert part.series("srv-0") == frame.series("srv-0").slice(1000, 2000)

    def test_range_inside_one_chunk_prunes_the_rest(self):
        frame = multi_day_frame(n_servers=1, n_days=7)
        stats = SgxReadStats()
        part = frame_from_sgx_bytes(
            frame_to_sgx_bytes(frame), start_minute=3000, end_minute=3100, stats=stats
        )
        assert part.series("srv-0") == frame.series("srv-0").slice(3000, 3100)
        assert stats.chunks_pruned == 6

    def test_one_day_read_verifies_fraction_of_payload(self):
        frame = multi_day_frame(n_servers=4, n_days=7)
        data = frame_to_sgx_bytes(frame)
        full = SgxReadStats()
        frame_from_sgx_bytes(data, stats=full)
        day = SgxReadStats()
        frame_from_sgx_bytes(data, start_minute=0, end_minute=1440, stats=day)
        assert full.payload_bytes_verified == full.payload_bytes_total
        assert day.payload_bytes_verified * 2 <= full.payload_bytes_verified
        assert day.payload_bytes_verified == full.payload_bytes_total // 7
        assert day.chunks_pruned == 4 * 6

    def test_damage_in_pruned_day_is_skipped_within_server(self):
        # v2's point: damage in day 6 must not block a day-0 read of the
        # *same* server.
        frame = multi_day_frame(n_servers=1, n_days=7)
        data = bytearray(frame_to_sgx_bytes(frame))
        data[-4] ^= 0xFF  # last bytes belong to the final day's values
        with pytest.raises(ColumnarFormatError, match="checksum"):
            frame_from_sgx_bytes(bytes(data))
        part = frame_from_sgx_bytes(bytes(data), start_minute=0, end_minute=1440)
        assert part.series("srv-0") == frame.series("srv-0").slice(0, 1440)

    def test_gap_spanning_whole_days_writes_no_empty_chunks(self):
        frame = LoadFrame(5)
        ts = np.concatenate(
            [np.arange(0, 1440, 5, dtype=np.int64), np.arange(4320, 5760, 5, dtype=np.int64)]
        )
        series = LoadSeries(ts, np.zeros(ts.shape[0]), 5, validate=False)
        frame.add_server(ServerMetadata(server_id="gappy"), series)
        info = sgx_summary(frame_to_sgx_bytes(frame))
        assert info["n_chunks"] == 2  # days 1-2 are absent, not empty chunks
        restored = frame_from_sgx_bytes(frame_to_sgx_bytes(frame))
        assert restored.series("gappy") == series

    def test_empty_series_sentinel_chunk(self):
        frame = LoadFrame(5)
        frame.add_server(ServerMetadata(server_id="idle"), LoadSeries.empty(5))
        data = frame_to_sgx_bytes(frame)
        info = sgx_summary(data)
        assert info["n_chunks"] == 1
        assert info["chunks"][0]["n_points"] == 0
        assert info["chunks"][0]["min_ts"] > info["chunks"][0]["max_ts"]  # matches no range
        assert frame_from_sgx_bytes(data).series("idle").is_empty
        # Under pruning the sentinel matches nothing, so the server drops.
        assert len(frame_from_sgx_bytes(data, start_minute=0, end_minute=10)) == 0

    def test_out_of_order_chunks_rejected(self):
        # Hand-assemble a file whose two chunks are swapped in time but
        # whose CRCs are all internally consistent -- the reader must not
        # silently merge them into a corrupt (unsorted) series.
        day0_ts = np.arange(0, 1440, 5, dtype="<i8")
        day1_ts = np.arange(1440, 2880, 5, dtype="<i8")
        data = assemble_sgx([("srv-0", [day1_ts, day0_ts])])  # wrong order on purpose
        with pytest.raises(ColumnarFormatError, match="out-of-order"):
            frame_from_sgx_bytes(data)

    def test_truncated_chunk_table_detected(self):
        frame = multi_day_frame(n_servers=1, n_days=3)
        data = frame_to_sgx_bytes(frame)
        with pytest.raises(ColumnarFormatError, match="truncated"):
            frame_from_sgx_bytes(data[: len(data) // 2])


class TestVersionGate:
    """v4 is the one layout; every other version is rejected up front."""

    def test_version_four_is_current(self):
        assert columnar.VERSION == 4
        assert columnar.SUPPORTED_VERSIONS == (4,)
        assert sgx_summary(frame_to_sgx_bytes(build_frame()))["version"] == 4
        # The hand-packed header is a genuine (empty) extract at v4, so
        # the rejections below are about the version and nothing else.
        assert len(frame_from_sgx_bytes(bare_sgx_header(4))) == 0

    def test_v4_bytes_are_golden(self):
        # Integer-valued samples: chunk statistics are exact in any
        # summation order, so the digest is stable across platforms.
        frame = multi_day_frame()
        digests = {
            1440: "2febbcee949352fd7d6a6cefee39647ca4681ba9ff670312145efc8acfe84b61",
            0: "9cd1c29caeb59abdc6c894c7ea83c425766b86963c83f9db67f8e9f4d40927ac",
        }
        for chunk_minutes, digest in digests.items():
            data = frame_to_sgx_bytes(frame, chunk_minutes=chunk_minutes)
            assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize("version", [1, 2, 3, 5])
    def test_every_byte_level_reader_rejects_other_versions(self, version):
        data = bare_sgx_header(version)
        readers = [
            lambda: frame_from_sgx_bytes(data),
            lambda: list(columnar.scan_sgx_bytes(data)),
            lambda: columnar.aggregate_sgx_bytes(data, AggregateAccumulator(("count",), ())),
            lambda: sgx_summary(data),
        ]
        for read in readers:
            with pytest.raises(ColumnarFormatError, match=f"version {version}.*only v4"):
                read()

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_old_version_error_names_the_remedy(self, version):
        with pytest.raises(ColumnarFormatError, match="re-extract.*convert.*PR 11"):
            frame_from_sgx_bytes(bare_sgx_header(version))

    def test_newer_version_error_offers_no_downgrade_remedy(self):
        with pytest.raises(ColumnarFormatError) as excinfo:
            frame_from_sgx_bytes(bare_sgx_header(5))
        assert "re-extract" not in str(excinfo.value)

    @pytest.mark.parametrize("version", [1, 2, 3, 5])
    def test_lake_rejects_a_lone_other_version_extract(self, tmp_path, version):
        lake = DataLakeStore(tmp_path / "lake")
        key = ExtractKey("westus2", 0)
        lake.write_extract_bytes(key, bare_sgx_header(version))
        q = ExtractQuery.for_key(key, interval_minutes=None)
        with pytest.raises(ColumnarFormatError, match=f"version {version}"):
            lake.query(q)
        with pytest.raises(ColumnarFormatError, match=f"version {version}"):
            list(lake.scan(q))
        with pytest.raises(ColumnarFormatError, match=f"version {version}"):
            lake.query(ExtractQuery.for_key(key, aggregates=("count",)))
        generation = lake.current_generation()
        with pytest.raises(ConversionVerificationError, match=f"version {version}"):
            convert_lake(lake)
        assert lake.current_generation() == generation
        assert lake.extract_path(key).read_bytes() == bare_sgx_header(version)

    @pytest.mark.parametrize("version", [1, 2, 3, 5])
    def test_lake_answers_from_a_colocated_csv_copy(self, tmp_path, version):
        # ...once ``convert``'s adoption has re-imported it: until then
        # the lake does not read the generation holding the CSV entry.
        lake = DataLakeStore(tmp_path / "lake")
        key = ExtractKey("westus2", 0)
        frame = build_frame()
        lake.write_extract_bytes(key, bare_sgx_header(version))
        plant_csv(lake, key, frame)
        with pytest.raises(LakeNotAdoptedError, match="convert --lake-dir"):
            lake.query(ExtractQuery.for_key(key))
        assert len(adopt_legacy_files(lake.manifest)) == 1
        assert lake.extract_path(key).read_bytes() != bare_sgx_header(version)
        result = lake.query(ExtractQuery.for_key(key))
        assert result.frame.content_hash() == frame.content_hash()
        assert result.stats.chunks_seen > 0
        counted = lake.query(ExtractQuery.for_key(key, aggregates=("count",)))
        assert counted.aggregates[()]["count"] == frame.total_points()


class TestServerPushdown:
    """Server filtering skips excluded servers' chunks at the byte level."""

    def test_allow_list_filters_servers(self):
        data = frame_to_sgx_bytes(build_frame(n_servers=3))
        part = frame_from_sgx_bytes(data, servers=("srv-0", "srv-2"))
        assert part.server_ids() == ["srv-0", "srv-2"]

    def test_predicate_filters_on_metadata(self):
        data = frame_to_sgx_bytes(build_frame(n_servers=6))
        part = frame_from_sgx_bytes(data, predicate=lambda md: md.engine == "mysql")
        assert part.server_ids() == ["srv-1", "srv-4"]

    def test_excluded_servers_chunks_never_verified(self):
        frame = multi_day_frame(n_servers=4, n_days=3)
        stats = SgxReadStats()
        frame_from_sgx_bytes(frame_to_sgx_bytes(frame), servers=("srv-0",), stats=stats)
        assert stats.servers_seen == 4
        assert stats.servers_skipped == 3
        assert stats.chunks_pruned == 9  # 3 excluded servers x 3 day chunks
        assert stats.payload_bytes_verified == stats.payload_bytes_total // 4

    def test_corruption_in_excluded_server_is_never_touched(self):
        # The strongest possible "never read" proof: damage an excluded
        # server's payload and watch the filtered read not notice.
        frame = build_frame(n_servers=3, points=12)
        data = bytearray(frame_to_sgx_bytes(frame))
        data[-4] ^= 0xFF  # last server's values buffer
        with pytest.raises(ColumnarFormatError):
            frame_from_sgx_bytes(bytes(data))
        part = frame_from_sgx_bytes(bytes(data), servers=("srv-0", "srv-1"))
        assert part.server_ids() == ["srv-0", "srv-1"]

    def test_filter_composes_with_time_range(self):
        frame = multi_day_frame(n_servers=3, n_days=7)
        part = frame_from_sgx_bytes(
            frame_to_sgx_bytes(frame),
            start_minute=1440,
            end_minute=2880,
            servers=("srv-1",),
        )
        assert part.server_ids() == ["srv-1"]
        assert part.series("srv-1") == frame.series("srv-1").slice(1440, 2880)

    def test_unknown_server_filter_yields_empty_frame(self):
        data = frame_to_sgx_bytes(build_frame())
        assert len(frame_from_sgx_bytes(data, servers=("nope",))) == 0


class TestColumnProjection:
    """v3 per-column CRCs: unprojected buffers are neither decoded nor
    checksummed."""

    def test_timestamps_only_read_halves_verified_bytes(self):
        frame = multi_day_frame(n_servers=2, n_days=3)
        stats = SgxReadStats()
        frame_from_sgx_bytes(frame_to_sgx_bytes(frame), columns=("timestamps",), stats=stats)
        assert stats.payload_bytes_verified == stats.payload_bytes_total // 2
        assert stats.columns_skipped == 6  # 2 servers x 3 day chunks

    def test_unprojected_values_are_nan(self):
        frame = build_frame(n_servers=2)
        restored = frame_from_sgx_bytes(
            frame_to_sgx_bytes(frame), columns=("timestamps",)
        )
        for server_id in restored.server_ids():
            series = restored.series(server_id)
            assert np.array_equal(series.timestamps, frame.series(server_id).timestamps)
            assert np.isnan(series.values).all()

    def test_corrupt_values_buffer_invisible_to_timestamps_only_read(self):
        frame = build_frame(n_servers=1, points=12)
        data = bytearray(frame_to_sgx_bytes(frame))
        data[-4] ^= 0xFF  # inside the values buffer
        with pytest.raises(ColumnarFormatError):
            frame_from_sgx_bytes(bytes(data))
        part = frame_from_sgx_bytes(bytes(data), columns=("timestamps",))
        assert np.array_equal(part.series("srv-0").timestamps, frame.series("srv-0").timestamps)

    def test_corrupt_timestamps_detected_even_under_projection(self):
        frame = build_frame(n_servers=1, points=12)
        data = bytearray(frame_to_sgx_bytes(frame))
        # First payload byte of the single server's first chunk is a
        # timestamps byte; the projected read must still checksum it.
        data[len(data) - 12 * 16] ^= 0xFF
        with pytest.raises(ColumnarFormatError, match="checksum"):
            frame_from_sgx_bytes(bytes(data), columns=("timestamps",))

    def test_full_projection_equals_default(self):
        frame = build_frame()
        data = frame_to_sgx_bytes(frame)
        assert (
            frame_from_sgx_bytes(data, columns=("timestamps", "values")).content_hash()
            == frame_from_sgx_bytes(data).content_hash()
        )

    def test_values_only_projection_rejected(self):
        data = frame_to_sgx_bytes(build_frame())
        with pytest.raises(ValueError, match="timestamps"):
            frame_from_sgx_bytes(data, columns=("values",))

    def test_unknown_column_rejected(self):
        data = frame_to_sgx_bytes(build_frame())
        with pytest.raises(ValueError, match="unknown column"):
            frame_from_sgx_bytes(data, columns=("timestamps", "cpu"))


class TestStreamingScan:
    """scan_sgx_bytes: lazy per-server iteration over verified structure."""

    def test_scan_yields_all_servers_in_order(self):
        frame = build_frame(n_servers=3)
        scanned = list(columnar.scan_sgx_bytes(frame_to_sgx_bytes(frame)))
        assert [metadata.server_id for metadata, _series in scanned] == frame.server_ids()
        for metadata, series in scanned:
            assert series == frame.series(metadata.server_id)

    def test_scan_is_lazy_per_server(self):
        # Abandoning the scan after the first server must leave the later
        # servers' payloads untouched -- corrupt them to prove it.
        frame = build_frame(n_servers=3, points=12)
        data = bytearray(frame_to_sgx_bytes(frame))
        data[-4] ^= 0xFF  # damage the last server's payload
        scan = columnar.scan_sgx_bytes(bytes(data))
        metadata, series = next(scan)
        assert metadata.server_id == "srv-0"
        scan.close()

    def test_scan_verifies_structure_before_first_yield(self):
        frame = build_frame(n_servers=3)
        data = bytearray(frame_to_sgx_bytes(frame))
        data[HEADER_BYTES + 3] ^= 0x01  # dictionary tamper
        scan = columnar.scan_sgx_bytes(bytes(data))
        with pytest.raises(ColumnarFormatError, match="structure checksum"):
            next(scan)

    def test_duplicate_server_records_rejected(self):
        # Hand-assemble a file holding the same server twice with
        # internally consistent CRCs; the reader must refuse it.
        ts = np.arange(0, 60, 5, dtype="<i8")
        data = assemble_sgx([("srv-0", [ts]), ("srv-0", [ts])])
        with pytest.raises(ColumnarFormatError, match="duplicate"):
            frame_from_sgx_bytes(data)
        # Part of the structure, so found by the walk itself: before the
        # first yield, by the inspector, and when a filter skips the server.
        with pytest.raises(ColumnarFormatError, match="duplicate"):
            next(columnar.scan_sgx_bytes(data, servers=("someone-else",)), None)
        with pytest.raises(ColumnarFormatError, match="duplicate"):
            sgx_summary(data)


class TestSegment:
    """A verified structure plus a descriptor reads like the bytes do."""

    def test_descriptor_reads_match_buffer_reads(self, tmp_path):
        frame = multi_day_frame(n_servers=3, n_days=4)
        data = frame_to_sgx_bytes(frame)
        path = tmp_path / "x.sgx"
        path.write_bytes(data)
        structure = columnar.SgxSegment.from_bytes(data).structure
        assert structure.n_bytes == len(data) and structure.chunks.shape == (12,)
        shapes = [
            {},
            {"start_minute": 700, "end_minute": 3000},
            {"servers": ("srv-1",), "start_minute": 1440, "end_minute": 2880},
            {"columns": ("timestamps",), "end_minute": 2000},
        ]
        with open(path, "rb") as handle:
            segment = columnar.SgxSegment.from_descriptor(structure, handle.fileno())
            for shape in shapes:
                from_file, from_bytes = SgxReadStats(), SgxReadStats()
                got = frame_from_sgx_bytes(segment, stats=from_file, **shape)
                want = frame_from_sgx_bytes(data, stats=from_bytes, **shape)
                assert got.content_hash() == want.content_hash()
                assert from_file == from_bytes
            sums = []
            for source in (segment, data):
                accumulator = AggregateAccumulator(("count", "sum", "max"), ("day",))
                columnar.aggregate_sgx_bytes(source, accumulator, 700, 3000)
                sums.append(accumulator.results())
            assert sums[0] == sums[1]

    def test_structure_does_not_pin_or_alias_the_file_buffer(self):
        buffer = bytearray(frame_to_sgx_bytes(build_frame()))
        structure = columnar.SgxSegment.from_bytes(buffer).structure
        before = structure.chunks.copy()
        buffer[:] = bytes(len(buffer))
        assert np.array_equal(structure.chunks, before)
        assert not structure.chunks.flags.writeable


class TestBufferHandling:
    """Reads from bytearray/memoryview must not copy the whole file."""

    def test_bytearray_and_memoryview_inputs_roundtrip(self):
        frame = build_frame()
        data = frame_to_sgx_bytes(frame)
        for buffer in (bytearray(data), memoryview(data), memoryview(bytearray(data))):
            restored = frame_from_sgx_bytes(buffer)
            assert restored.content_hash() == frame.content_hash()

    def test_mutable_buffer_read_does_not_alias_caller_memory(self):
        frame = build_frame(n_servers=1, points=12)
        buffer = bytearray(frame_to_sgx_bytes(frame))
        restored = frame_from_sgx_bytes(buffer)
        before = restored.series("srv-0").values.copy()
        buffer[-5] ^= 0xFF  # caller mutates its buffer after the read
        assert np.array_equal(restored.series("srv-0").values, before)

    def test_pruned_read_never_materialises_full_copy(self):
        import tracemalloc

        frame = multi_day_frame(n_servers=24, n_days=7)
        buffer = bytearray(frame_to_sgx_bytes(frame))  # ~2.3 MB
        view = memoryview(buffer)
        tracemalloc.start()
        try:
            frame_from_sgx_bytes(view, start_minute=0, end_minute=1440)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The old implementation called bytes(data) up front: peak would
        # be at least the full file size.  A pruned read keeps ~1/7.
        assert peak < len(buffer) // 2

    def test_summary_accepts_mutable_buffers(self):
        frame = build_frame()
        info = sgx_summary(bytearray(frame_to_sgx_bytes(frame)))
        assert info["n_servers"] == len(frame)


class TestSummary:
    def test_summary_fields(self):
        frame = build_frame(n_servers=2, points=7)
        info = sgx_summary(frame_to_sgx_bytes(frame))
        assert info["version"] == columnar.VERSION
        assert info["n_servers"] == 2
        assert info["n_points"] == 14
        assert info["interval_minutes"] == 5
        assert len(info["chunks"]) == 2

    def test_summary_zone_maps(self):
        frame = build_frame(n_servers=2, points=12)
        chunk = sgx_summary(frame_to_sgx_bytes(frame))["chunks"][1]
        series = frame.series("srv-1")
        assert chunk["min_ts"] == series.start
        assert chunk["max_ts"] == series.end

    def test_magic_prefix(self):
        assert frame_to_sgx_bytes(build_frame()).startswith(MAGIC)
