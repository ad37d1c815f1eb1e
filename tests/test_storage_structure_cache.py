"""Pinned cases for the lake's verified-structure cache.

``DataLakeStore`` keeps the verified structure of each ``.sgx`` segment it
has read (keyed by segment sha256) and afterwards ``pread``s only the
column buffers an answer keeps.  Each case here is one way a naive
sha-keyed cache would go wrong -- parse too often, read too much, trust a
file that changed, cache something that never verified, leak a
descriptor -- held next to what a cold store does.  ``TestDamageIsLoud``
pins what a read says when the segment is damaged, for every read shape,
cold and warm.  Generated histories live in ``test_lake_histories.py``.
"""

import os

import numpy as np
import pytest

from repro.storage import columnar, datalake
from repro.storage.columnar import ColumnarFormatError, SgxSegment, frame_to_sgx_bytes
from repro.storage.datalake import DataLakeStore, ExtractKey
from repro.storage.migrate import adopt_legacy_files
from repro.storage.query import ExtractQuery, ScanStats
from repro.timeseries.frame import LoadFrame, ServerMetadata

from tests.helpers import make_series, plant_csv, read_frame

DAY = 1440
KEY = ExtractKey("r0", 0)
ROLLUP = ExtractQuery(aggregates=("count", "mean", "max"), group_by=("day",))


def week_frame(n_servers=12, n_days=3, level=0.0) -> LoadFrame:
    frame = LoadFrame(5)
    points = n_days * (DAY // 5)
    for index in range(n_servers):
        values = (np.arange(points) + index + level) % 50.0
        frame.add_server(
            ServerMetadata(server_id=f"s{index:02d}", region="r0"), make_series(values)
        )
    return frame


def point_query(servers=10, day=1) -> ExtractQuery:
    return ExtractQuery.for_key(
        KEY,
        servers=[f"s{i:02d}" for i in range(servers)],
        start_minute=day * DAY,
        end_minute=(day + 1) * DAY,
    )


@pytest.fixture
def lake(tmp_path):
    store = DataLakeStore(tmp_path / "lake", write_format="sgx")
    store.write_extract(KEY, week_frame())
    return store


@pytest.fixture
def parses(monkeypatch):
    """Calls of the structure walk, as a list that grows by one per walk."""
    calls = []
    walk = columnar._parse_structure

    def counting(view):
        calls.append(view.nbytes)
        return walk(view)

    monkeypatch.setattr(columnar, "_parse_structure", counting)
    return calls


@pytest.fixture
def preads(monkeypatch):
    """``(nbytes, offset)`` of every ``os.pread`` made while installed."""
    calls = []
    pread = os.pread

    def recording(fd, nbytes, offset):
        calls.append((nbytes, offset))
        return pread(fd, nbytes, offset)

    monkeypatch.setattr(os, "pread", recording)
    return calls


def rewrite_in_place(path, data: bytes, keep_mtime=False) -> None:
    """Out-of-band edit of a segment file (same inode); ``keep_mtime``
    restores the timestamps so only the size can give the edit away.
    Otherwise the mtime moves by a whole second: a coarse filesystem
    clock may stamp two writes a millisecond apart identically."""
    before = path.stat()
    path.write_bytes(data)
    shift = 0 if keep_mtime else 1_000_000_000
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns + shift))


def open_descriptors() -> int:
    return len(os.listdir("/proc/self/fd"))


class TestWhatIsParsedAndRead:
    def test_structure_is_walked_once_per_segment_not_per_query(self, lake, parses):
        for _ in range(5):
            lake.query(point_query())
            lake.query(ROLLUP)
            list(lake.scan(ExtractQuery.for_key(KEY)))
        assert len(parses) == 1

    def test_unrelated_commit_costs_nothing_and_an_overwrite_one_walk(self, lake, parses):
        lake.query(point_query())
        lake.write_extract(ExtractKey("elsewhere", 7), week_frame(2, 1))
        lake.query(point_query())
        assert len(parses) == 1  # growth of the lake invalidates nothing
        lake.write_extract(KEY, week_frame(level=3.0))
        for _ in range(3):
            lake.query(point_query())
        assert len(parses) == 2  # a new sha256: one fill

    def test_a_cold_read_is_one_whole_file_read_and_one_walk(self, lake, parses, preads):
        size = lake.extract_size_bytes(KEY)
        lake.query(point_query())
        assert parses == [size] and preads == []

    def test_warm_point_query_preads_only_the_surviving_chunks(self, lake, preads):
        lake.query(point_query())
        del preads[:]
        result = lake.query(point_query())
        # One contiguous run per surviving server, and no byte of a chunk
        # the zone maps pruned or the server filter skipped.
        assert len(preads) == 10
        assert sum(n for n, _ in preads) == result.stats.payload_bytes_verified
        assert result.stats.payload_bytes_verified == 10 * (DAY // 5) * 16
        assert result.stats.payload_bytes_verified < result.stats.payload_bytes_stored // 3

    def test_warm_full_scan_is_one_pread_per_server(self, lake, preads):
        lake.query(ExtractQuery.for_key(KEY))
        del preads[:]
        result = lake.query(ExtractQuery.for_key(KEY))
        assert len(preads) == 12  # adjacent chunks coalesced, not 36 reads
        assert sum(n for n, _ in preads) == result.stats.payload_bytes_stored

    def test_warm_timestamps_only_read_fetches_no_values_buffer(self, lake, preads):
        q = ExtractQuery.for_key(KEY, columns=("timestamps",))
        lake.query(q)
        del preads[:]
        result = lake.query(q)
        assert sum(n for n, _ in preads) == result.stats.payload_bytes_stored // 2
        assert result.stats.columns_skipped == 36

    def test_warm_rollup_answered_from_statistics_preads_nothing(self, lake, preads):
        cold = lake.query(ROLLUP)
        warm = lake.query(ROLLUP)
        assert preads == []
        assert warm.stats.chunks_answered_from_stats == 36
        assert warm.aggregates == cold.aggregates

    def test_warm_ranged_aggregate_preads_only_partial_overlap_chunks(self, lake, preads):
        q = ExtractQuery.for_key(
            KEY, aggregates=("sum",), start_minute=DAY // 2, end_minute=2 * DAY
        )
        cold = lake.query(q)
        warm = lake.query(q)
        assert len(preads) == 12  # day 0 straddles the range start; day 1 is inside it
        assert sum(n for n, _ in preads) == warm.stats.payload_bytes_verified
        assert warm.aggregates == cold.aggregates

    def test_hit_and_miss_report_identical_stats(self, lake):
        for q in (point_query(), ExtractQuery.for_key(KEY), ROLLUP):
            cold = DataLakeStore(lake.root).query(q)
            lake.query(q)
            warm = lake.query(q)
            assert warm.stats.as_dict() == cold.stats.as_dict()
            assert warm.frame.content_hash() == cold.frame.content_hash()

    def test_abandoned_warm_scan_counts_only_the_servers_it_reached(self, lake, preads):
        list(lake.scan(ExtractQuery.for_key(KEY)))
        del preads[:]
        abandoned = []
        for store in (lake, DataLakeStore(lake.root)):
            stats = ScanStats()
            scan = store.scan(ExtractQuery.for_key(KEY), stats=stats)
            next(scan), next(scan)
            scan.close()
            abandoned.append(stats.as_dict())
        assert abandoned[0] == abandoned[1]
        assert abandoned[0]["servers_seen"] == 2 and len(preads) == 2


class TestWhenAStructureMayBeReused:
    def test_payload_flipped_after_a_read_is_a_typed_error_naming_the_server(self, lake):
        lake.query(point_query())
        path = lake.extract_path(KEY)
        damaged = bytearray(path.read_bytes())
        damaged[-3] ^= 0xFF  # the last server's values buffer
        # Slipping past the signature (same inode, size, mtime) changes
        # nothing: the bytes are still checked against the verified table.
        for keep_mtime in (False, True):
            rewrite_in_place(path, bytes(damaged), keep_mtime)
            with pytest.raises(ColumnarFormatError, match="checksum mismatch for 's11'"):
                lake.query(ExtractQuery.for_key(KEY))
            assert lake.query(point_query()).rows == 10 * (DAY // 5)  # undamaged servers

    def test_truncated_after_a_read_is_a_typed_error_never_a_short_array(self, lake):
        lake.query(point_query())
        path = lake.extract_path(KEY)
        rewrite_in_place(path, path.read_bytes()[:-100], keep_mtime=True)
        with pytest.raises(ColumnarFormatError, match="truncated"):
            lake.query(ExtractQuery.for_key(KEY))

    def test_short_pread_is_a_typed_error_naming_the_server(self, tmp_path):
        # The file shrinks between the fstat and the read: no signature
        # can see that, the read itself has to.
        data = frame_to_sgx_bytes(week_frame(2, 1))
        structure = SgxSegment.from_bytes(data).structure
        path = tmp_path / "shrunk.sgx"
        path.write_bytes(data[:-8])
        with open(path, "rb") as handle:
            segment = SgxSegment.from_descriptor(structure, handle.fileno())
            scan = columnar.scan_sgx_bytes(segment)
            assert next(scan)[0].server_id == "s00"
            with pytest.raises(ColumnarFormatError, match="truncated.*'s01'"):
                next(scan)

    @pytest.mark.parametrize("gives_it_away", ["mtime", "size", "inode"])
    def test_file_replaced_by_another_valid_extract_reads_cold(
        self, lake, parses, gives_it_away
    ):
        # Each part of the signature on its own: the other parts are held
        # equal, and the store must still answer from the new bytes --
        # exactly what a store without a cache does.
        lake.query(point_query())
        path = lake.extract_path(KEY)
        other = week_frame(level=5.0)  # same shape: same encoded size
        if gives_it_away == "size":
            other.add_server(ServerMetadata(server_id="extra", region="r0"), make_series([1.0]))
        data = frame_to_sgx_bytes(other)
        assert (len(data) == path.stat().st_size) == (gives_it_away != "size")
        if gives_it_away == "inode":
            before = path.stat()
            scratch = path.with_name("replacement")
            scratch.write_bytes(data)
            os.utime(scratch, ns=(before.st_atime_ns, before.st_mtime_ns))
            os.replace(scratch, path)
            assert path.stat().st_ino != before.st_ino
        else:
            rewrite_in_place(path, data, keep_mtime=gives_it_away == "size")
        for _ in range(2):
            assert read_frame(lake, KEY).content_hash() == other.content_hash()
        assert len(parses) == 2  # dropped, read cold once, retained again

    def test_structure_damaged_before_the_first_read_caches_nothing(self, lake, parses):
        path = lake.extract_path(KEY)
        good = path.read_bytes()
        damaged = bytearray(good)
        damaged[columnar.HEADER_BYTES + 3] ^= 0x01  # a dictionary string: structure CRC
        rewrite_in_place(path, bytes(damaged), keep_mtime=True)
        for _ in range(2):
            with pytest.raises(ColumnarFormatError, match="structure checksum"):
                lake.query(point_query())
        assert len(parses) == 2  # a failed fill is not remembered either way
        rewrite_in_place(path, good, keep_mtime=True)
        assert lake.query(point_query()).rows == 10 * (DAY // 5)
        lake.query(point_query())
        assert len(parses) == 3

    def test_cache_is_bounded_by_retained_chunk_table_entries(self, lake, parses, monkeypatch):
        keys = [ExtractKey("r0", week) for week in (1, 2, 3)]
        for week, key in enumerate(keys):
            lake.write_extract(key, week_frame(4, 3, level=week))  # 12 chunks each
        monkeypatch.setattr(datalake, "MAX_CACHED_CHUNKS", 30)
        for key in keys:
            read_frame(lake, key)
        del parses[:]
        read_frame(lake, keys[2]), read_frame(lake, keys[1])
        assert parses == []  # the two most recent fit: 24 entries
        read_frame(lake, keys[0])
        assert len(parses) == 1  # evicted to make room for the third
        read_frame(lake, KEY)  # 36 entries: larger than the whole bound
        read_frame(lake, KEY)
        assert len(parses) == 3


#: One read per shape; each decodes the last server's last chunk, where
#: ``damage()`` flips its payload byte.
READS = {
    "query": lambda store: store.query(ExtractQuery.for_key(KEY)),
    "aggregate": lambda store: store.query(
        ExtractQuery.for_key(KEY, aggregates=("sum",), start_minute=DAY // 2, end_minute=3 * DAY - 5)
    ),
    "scan": lambda store: list(store.scan(ExtractQuery.for_key(KEY))),
}


def damage(path, where: str) -> None:
    """Out-of-band damage a warm store's signature cannot see when it is
    in the payload (size and mtime kept), and must see when it is in the
    structure (only a fill walks the structure, so the mtime moves)."""
    data = bytearray(path.read_bytes())
    data[-3 if where == "payload" else columnar.HEADER_BYTES + 3] ^= 0x01
    rewrite_in_place(path, bytes(data), keep_mtime=where == "payload")


class TestDamageIsLoud:
    """Nothing answers for a damaged segment: every read shape raises the
    reader's typed error, saying which extract and file and what to do."""

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("where", ["structure", "payload"])
    @pytest.mark.parametrize("shape", list(READS))
    def test_error_names_extract_segment_remedy(self, lake, shape, where, warm):
        if warm:
            READS[shape](lake)
        relpath = lake.extract_path(KEY).relative_to(lake.root).as_posix()
        damage(lake.extract_path(KEY), where)
        detail = "structure checksum" if where == "structure" else "checksum mismatch for 's11'"
        for _ in range(2):  # a failed read leaves nothing behind that answers the next one
            with pytest.raises(ColumnarFormatError, match=detail) as excinfo:
                READS[shape](lake)
            message = str(excinfo.value)
            assert "r0 week 0" in message and relpath in message
            assert lake.extract_fingerprint(KEY)[:12] in message
            assert "re-extract" in message and "convert" not in message

    def test_mid_stream_damage_raises_after_yields(self, lake):
        damage(lake.extract_path(KEY), "payload")
        scan = lake.scan(ExtractQuery.for_key(KEY))
        assert [next(scan)[1].server_id for _ in range(11)] == [f"s{i:02d}" for i in range(11)]
        with pytest.raises(ColumnarFormatError, match="damaged extract for r0 week 0"):
            next(scan)

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_adoption_heals_from_a_csv_sibling(self, lake, warm):
        frame = week_frame()
        if warm:
            lake.query(point_query())
        damage(lake.extract_path(KEY), "payload")
        plant_csv(lake, KEY, frame)
        assert len(adopt_legacy_files(lake.manifest)) == 1
        for store in (lake, DataLakeStore(lake.root)):
            assert read_frame(store, KEY).content_hash() == frame.content_hash()


class TestDescriptors:
    def test_abandoned_warm_scan_leaves_no_open_descriptor(self, lake):
        list(lake.scan(ExtractQuery.for_key(KEY)))
        before = open_descriptors()
        scan = lake.scan(ExtractQuery.for_key(KEY))
        next(scan)
        assert open_descriptors() == before + 1  # held only while the scan is live
        scan.close()
        assert open_descriptors() == before

    def test_failed_and_finished_reads_leave_no_open_descriptor(self, lake):
        lake.query(point_query())
        before = open_descriptors()
        lake.query(point_query())
        lake.query(ROLLUP)
        assert list(lake.scan(ExtractQuery.for_key(KEY, limit=10)))
        path = lake.extract_path(KEY)
        damaged = bytearray(path.read_bytes())
        damaged[-3] ^= 0xFF
        rewrite_in_place(path, bytes(damaged), keep_mtime=True)
        with pytest.raises(ColumnarFormatError):
            lake.query(ExtractQuery.for_key(KEY))
        assert open_descriptors() == before
