"""Tests for the typed extract-query surface (ExtractQuery / query / scan)."""

import pickle

import numpy as np
import pytest

from repro.storage.columnar import ColumnarFormatError
from repro.storage.datalake import DataLakeStore, ExtractKey
from repro.storage.query import ExtractQuery, QueryError, ScanStats
from repro.timeseries.calendar import MAX_MINUTE, MIN_MINUTE
from repro.timeseries.frame import LoadFrame, ServerMetadata
from repro.timeseries.series import LoadSeries

from tests.helpers import make_series, naive_rows, read_frame, write_via


def mixed_frame(n=4, points=288, interval=5) -> LoadFrame:
    """Servers with varying engines; server i starts at day i."""
    frame = LoadFrame(interval)
    for index in range(n):
        metadata = ServerMetadata(
            server_id=f"s{index}",
            region="r0",
            engine=("postgresql", "mysql")[index % 2],
            default_backup_start=60 * index,
            default_backup_end=60 * index + 30,
        )
        frame.add_server(
            metadata, make_series([float(index)] * points, start=index * 1440, interval=interval)
        )
    return frame


@pytest.fixture(params=["csv", "sgx"])
def lake_one_key(request, tmp_path):
    """One key, written natively or imported from a planted CSV entry."""
    lake = DataLakeStore(tmp_path / request.param)
    key = ExtractKey("r0", 0)
    write_via(request.param, lake, key, mixed_frame())
    return lake, key


class TestExtractQueryValueSemantics:
    def test_list_and_tuple_servers_are_equal_and_hash_equal(self):
        a = ExtractQuery(servers=["s1", "s0"])
        b = ExtractQuery(servers=("s0", "s1"))
        assert a == b
        assert hash(a) == hash(b)
        assert a.servers == ("s0", "s1")

    def test_lone_string_is_one_name_not_characters(self):
        q = ExtractQuery(regions="westus2", servers="s0")
        assert q.regions == ("westus2",)
        assert q.servers == ("s0",)

    def test_columns_normalise_to_canonical_order(self):
        assert ExtractQuery(columns=["values", "timestamps"]).columns == (
            "timestamps",
            "values",
        )

    def test_weeks_normalise_sorted_unique(self):
        assert ExtractQuery(weeks=[3, 1, 3]).weeks == (1, 3)
        assert ExtractQuery(weeks=2).weeks == (2,)

    def test_query_is_picklable(self):
        q = ExtractQuery(regions=("r0",), weeks=(1,), servers=("a",), limit=10)
        assert pickle.loads(pickle.dumps(q)) == q

    def test_invalid_queries_rejected(self):
        with pytest.raises(QueryError):
            ExtractQuery(columns=("values",))  # timestamps is the index
        with pytest.raises(QueryError):
            ExtractQuery(start_minute=100, end_minute=50)
        with pytest.raises(QueryError):
            ExtractQuery(limit=-1)
        with pytest.raises(QueryError):
            ExtractQuery(weeks=(-1,))
        with pytest.raises(QueryError):
            ExtractQuery(interval_minutes=0)
        with pytest.raises(TypeError):
            ExtractQuery(fmt="sgx")  # one stored format: nothing to select

    def test_time_range_uses_shared_sentinels(self):
        assert ExtractQuery().time_range() == (MIN_MINUTE, MAX_MINUTE)
        assert ExtractQuery(start_minute=10).time_range() == (10, MAX_MINUTE)


class TestQueryEquality:
    """Queries normalise on construction, so they compare and hash by meaning."""

    def test_equivalent_queries_are_equal(self):
        by_list = ExtractQuery(regions=["r0"], servers=["b", "a"], weeks=[1])
        by_tuple = ExtractQuery(regions=("r0",), servers=("a", "b"), weeks=(1,))
        assert by_list == by_tuple and hash(by_list) == hash(by_tuple)

    def test_different_projection_is_a_different_query(self):
        full = ExtractQuery(regions=("r0",))
        assert full != ExtractQuery(regions=("r0",), columns=("timestamps",))

    def test_different_range_and_servers_are_different_queries(self):
        base = ExtractQuery(regions=("r0",))
        assert base != ExtractQuery(regions=("r0",), end_minute=1440)
        assert base != ExtractQuery(regions=("r0",), servers=("s0",))

    def test_queries_usable_as_dict_keys(self):
        cache = {ExtractQuery(servers=["x"]): 1}
        assert cache[ExtractQuery(servers=("x",))] == 1


class TestLakeQuery:
    def test_query_for_key_answers_what_was_written(self, lake_one_key):
        lake, key = lake_one_key
        assert read_frame(lake, key).content_hash() == mixed_frame().content_hash()

    def test_query_no_match_returns_empty_result(self, tmp_path):
        lake = DataLakeStore(tmp_path)
        result = lake.query(ExtractQuery(regions=("nowhere",)))
        assert result.stats.extracts_scanned == 0
        assert len(result.frame) == 0

    def test_server_allow_list(self, lake_one_key):
        lake, key = lake_one_key
        result = lake.query(ExtractQuery.for_key(key, servers=("s0", "s3")))
        assert result.frame.server_ids() == ["s0", "s3"]

    def test_engine_predicate(self, lake_one_key):
        lake, key = lake_one_key
        result = lake.query(ExtractQuery.for_key(key, engines=("mysql",)))
        assert result.frame.server_ids() == ["s1", "s3"]
        assert result.stats.servers_skipped == 2

    def test_time_range(self, lake_one_key):
        lake, key = lake_one_key
        result = lake.query(ExtractQuery.for_key(key, start_minute=1440, end_minute=2880))
        frame = result.frame
        for server_id in frame.server_ids():
            series = frame.series(server_id)
            assert series.start >= 1440 and series.end < 2880

    def test_limit_caps_total_rows(self, lake_one_key):
        lake, key = lake_one_key
        result = lake.query(ExtractQuery.for_key(key, limit=300))
        assert result.frame.total_points() == 300
        assert result.stats.rows == 300

    def test_limit_zero(self, lake_one_key):
        lake, key = lake_one_key
        assert lake.query(ExtractQuery.for_key(key, limit=0)).frame.total_points() == 0

    def test_timestamps_projection_yields_nan_values(self, lake_one_key):
        lake, key = lake_one_key
        result = lake.query(ExtractQuery.for_key(key, columns=("timestamps",)))
        full = read_frame(lake, key)
        for server_id in full.server_ids():
            series = result.frame.series(server_id)
            assert np.array_equal(series.timestamps, full.series(server_id).timestamps)
            assert np.isnan(series.values).all()

    def test_multi_week_query_concatenates_disjoint_series(self, tmp_path):
        lake = DataLakeStore(tmp_path, write_format="sgx")
        week0 = LoadFrame(5)
        week0.add_server(ServerMetadata(server_id="s0", region="r0"), make_series([1.0] * 12, start=0))
        week1 = LoadFrame(5)
        week1.add_server(
            ServerMetadata(server_id="s0", region="r0"), make_series([2.0] * 12, start=10080)
        )
        lake.write_extract(ExtractKey("r0", 0), week0)
        lake.write_extract(ExtractKey("r0", 1), week1)
        result = lake.query(ExtractQuery(regions=("r0",)))
        assert result.stats.extracts_scanned == 2
        series = result.frame.series("s0")
        assert len(series) == 24
        assert series.start == 0 and series.end == 10080 + 11 * 5

    def test_overlapping_duplicate_server_raises_query_error(self, tmp_path):
        lake = DataLakeStore(tmp_path, write_format="sgx")
        frame = LoadFrame(5)
        frame.add_server(ServerMetadata(server_id="s0", region="r0"), make_series([1.0] * 12))
        lake.write_extract(ExtractKey("r0", 0), frame)
        lake.write_extract(ExtractKey("r0", 1), frame)  # same samples again
        with pytest.raises(QueryError, match="overlapping"):
            lake.query(ExtractQuery(regions=("r0",)))

    def test_interval_none_preserves_recorded_interval(self, tmp_path):
        lake = DataLakeStore(tmp_path, write_format="sgx")
        key = ExtractKey("r0", 0)
        frame = LoadFrame(10)
        frame.add_server(
            ServerMetadata(server_id="s0", region="r0"), make_series([1.0] * 4, interval=10)
        )
        lake.write_extract(key, frame)
        result = lake.query(ExtractQuery.for_key(key, interval_minutes=None))
        assert result.frame.interval_minutes == 10


class TestPushdownByteLevel:
    """Acceptance criterion: excluded servers' chunks and unprojected
    column buffers are never decoded or checksummed."""

    def _sgx_lake(self, tmp_path, n=8):
        lake = DataLakeStore(tmp_path, write_format="sgx")
        key = ExtractKey("r0", 0)
        lake.write_extract(key, mixed_frame(n=n))
        return lake, key

    def test_server_filter_reduces_verified_bytes(self, tmp_path):
        lake, key = self._sgx_lake(tmp_path, n=8)
        full = lake.query(ExtractQuery.for_key(key))
        two = lake.query(ExtractQuery.for_key(key, servers=("s0", "s1")))
        assert full.stats.payload_bytes_verified == full.stats.payload_bytes_stored
        assert two.stats.servers_skipped == 6
        assert two.stats.payload_bytes_verified == two.stats.payload_bytes_stored // 4

    def test_corrupt_excluded_server_invisible_to_filtered_query(self, tmp_path):
        lake, key = self._sgx_lake(tmp_path, n=4)
        path = lake.extract_path(key)
        damaged = bytearray(path.read_bytes())
        damaged[-4] ^= 0xFF  # inside the last server's values buffer
        path.write_bytes(bytes(damaged))
        with pytest.raises(ColumnarFormatError):
            lake.query(ExtractQuery.for_key(key))
        filtered = lake.query(ExtractQuery.for_key(key, servers=("s0", "s1")))
        assert filtered.frame.server_ids() == ["s0", "s1"]

    def test_projection_reduces_verified_bytes(self, tmp_path):
        lake, key = self._sgx_lake(tmp_path)
        projected = lake.query(ExtractQuery.for_key(key, columns=("timestamps",)))
        assert projected.stats.payload_bytes_verified == projected.stats.payload_bytes_stored // 2
        assert projected.stats.columns_skipped > 0

    def test_corrupt_values_invisible_to_projected_query(self, tmp_path):
        lake, key = self._sgx_lake(tmp_path, n=1)
        path = lake.extract_path(key)
        damaged = bytearray(path.read_bytes())
        damaged[-4] ^= 0xFF
        path.write_bytes(bytes(damaged))
        with pytest.raises(ColumnarFormatError):
            lake.query(ExtractQuery.for_key(key))
        projected = lake.query(ExtractQuery.for_key(key, columns=("timestamps",)))
        assert projected.frame.server_ids() == ["s0"]


class TestCrossFormatParity:
    """The pushdowns answer what a naive re-answer of the written frame
    does (``tests.helpers.naive_rows``), including empty-series handling
    after slicing.  The reference used to be a CSV lake, hence the name."""

    QUERIES = [
        ExtractQuery(regions=("r0",), weeks=(0,)),
        ExtractQuery(regions=("r0",), weeks=(0,), start_minute=100, end_minute=700),
        ExtractQuery(regions=("r0",), weeks=(0,), start_minute=1440, end_minute=2880),
        # A range that leaves *every* server empty.
        ExtractQuery(regions=("r0",), weeks=(0,), start_minute=900000, end_minute=900100),
        ExtractQuery(regions=("r0",), weeks=(0,), servers=("s0", "s2")),
        ExtractQuery(regions=("r0",), weeks=(0,), engines=("mysql",)),
        ExtractQuery(regions=("r0",), weeks=(0,), columns=("timestamps",)),
        ExtractQuery(
            regions=("r0",),
            weeks=(0,),
            start_minute=1500,
            end_minute=4000,
            engines=("postgresql",),
            columns=("timestamps",),
            limit=200,
        ),
    ]

    @pytest.fixture()
    def lake(self, tmp_path):
        lake = DataLakeStore(tmp_path)
        lake.write_extract(ExtractKey("r0", 0), mixed_frame())
        return lake

    @pytest.mark.parametrize("query", QUERIES, ids=range(len(QUERIES)))
    def test_same_query_identical_frames(self, lake, query):
        want = naive_rows(mixed_frame(), query)
        for got in (lake.query(query).frame, lake.query(query).frame):  # cold, then warm
            assert got.server_ids() == want.server_ids()
            assert got.content_hash() == want.content_hash()

    def test_ranged_query_drops_empty_series_in_both_formats(self, lake):
        # Only s3 (starting at minute 3*1440) overlaps this range.
        q = ExtractQuery(regions=("r0",), weeks=(0,), start_minute=3 * 1440, end_minute=4 * 1440)
        assert naive_rows(mixed_frame(), q).server_ids() == ["s3"]
        assert lake.query(q).frame.server_ids() == ["s3"]
        assert [m.server_id for _k, m, _s in lake.scan(q)] == ["s3"]

    def test_unranged_sgx_keeps_empty_series_servers(self, tmp_path):
        lake = DataLakeStore(tmp_path, write_format="sgx")
        key = ExtractKey("r0", 0)
        frame = LoadFrame(5)
        frame.add_server(ServerMetadata(server_id="idle", region="r0"), LoadSeries.empty(5))
        lake.write_extract(key, frame)
        for q in (
            ExtractQuery.for_key(key),
            ExtractQuery.for_key(key, start_minute=0, end_minute=10),
        ):
            assert lake.query(q).frame.server_ids() == naive_rows(frame, q).server_ids()
        assert lake.query(ExtractQuery.for_key(key)).frame.server_ids() == ["idle"]


class TestLakeScan:
    def test_scan_streams_all_servers(self, lake_one_key):
        lake, key = lake_one_key
        q = ExtractQuery.for_key(key)
        rows = list(lake.scan(q))
        assert [metadata.server_id for _key, metadata, _series in rows] == [
            "s0",
            "s1",
            "s2",
            "s3",
        ]
        assert all(scanned_key == key for scanned_key, _md, _s in rows)

    def test_scan_matches_query_frame(self, lake_one_key):
        lake, key = lake_one_key
        q = ExtractQuery.for_key(key, start_minute=100, end_minute=3000)
        frame = LoadFrame(5)
        for _key, metadata, series in lake.scan(q):
            frame.add_server(metadata, series)
        assert frame.content_hash() == lake.query(q).frame.content_hash()

    def test_scan_respects_limit(self, lake_one_key):
        lake, key = lake_one_key
        q = ExtractQuery.for_key(key, limit=300)
        rows = list(lake.scan(q))
        assert sum(len(series) for _k, _m, series in rows) == 300

    def test_scan_fills_stats(self, lake_one_key):
        lake, key = lake_one_key
        stats = ScanStats()
        for _ in lake.scan(ExtractQuery.for_key(key), stats=stats):
            pass
        assert stats.extracts_scanned == 1
        assert stats.servers_seen == 4
        assert stats.rows == 4 * 288

    def test_full_scan_verifies_every_stored_payload_byte(self, lake_one_key):
        assert ScanStats().verified_fraction == 1.0  # an empty scan avoided nothing
        lake, key = lake_one_key
        stats = ScanStats()
        for _ in lake.scan(ExtractQuery.for_key(key), stats=stats):
            pass
        assert stats.payload_bytes_stored > 0
        assert stats.verified_fraction == 1.0

    def test_scan_early_exit_skips_remaining_payloads(self, tmp_path):
        # Abandon the scan after the first server while a later server's
        # payload is corrupt: laziness means the damage is never read.
        lake = DataLakeStore(tmp_path, write_format="sgx")
        key = ExtractKey("r0", 0)
        lake.write_extract(key, mixed_frame(n=3))
        path = lake.extract_path(key)
        damaged = bytearray(path.read_bytes())
        damaged[-4] ^= 0xFF
        path.write_bytes(bytes(damaged))
        scan = lake.scan(ExtractQuery.for_key(key))
        _key, metadata, _series = next(scan)
        assert metadata.server_id == "s0"
        scan.close()

    def test_scan_limit_exhaustion_stops_before_next_server_decode(self, tmp_path):
        # Once the row limit is exhausted the scan must return without
        # decoding (or CRC-checking) the following server -- corrupt it
        # and consume the scan to completion to prove it.
        lake = DataLakeStore(tmp_path, write_format="sgx")
        key = ExtractKey("r0", 0)
        lake.write_extract(key, mixed_frame(n=2))
        path = lake.extract_path(key)
        damaged = bytearray(path.read_bytes())
        damaged[-4] ^= 0xFF  # s1's values buffer
        path.write_bytes(bytes(damaged))
        stats = ScanStats()
        q = ExtractQuery.for_key(key, limit=288)  # exactly s0's rows
        rows = list(lake.scan(q, stats=stats))
        assert [m.server_id for _k, m, _s in rows] == ["s0"]
        assert stats.rows == 288

    def test_scan_limit_zero_reads_nothing(self, tmp_path):
        lake = DataLakeStore(tmp_path, write_format="sgx")
        key = ExtractKey("r0", 0)
        lake.write_extract(key, mixed_frame(n=2))
        stats = ScanStats()
        assert list(lake.scan(ExtractQuery.for_key(key, limit=0), stats=stats)) == []
        assert stats.extracts_scanned == 0

    def test_scan_rejects_mixed_intervals_like_query(self, tmp_path):
        # query() refuses to merge extracts with different recorded
        # intervals; the streaming dual must not silently mix them.
        lake = DataLakeStore(tmp_path, write_format="sgx")
        five = LoadFrame(5)
        five.add_server(ServerMetadata(server_id="a", region="r0"), make_series([1.0] * 4))
        ten = LoadFrame(10)
        ten.add_server(
            ServerMetadata(server_id="b", region="r0"), make_series([1.0] * 4, interval=10)
        )
        lake.write_extract(ExtractKey("r0", 0), five)
        lake.write_extract(ExtractKey("r0", 1), ten)
        q = ExtractQuery(regions=("r0",), interval_minutes=None)
        with pytest.raises(QueryError, match="different sampling intervals"):
            lake.query(q)
        with pytest.raises(QueryError, match="different sampling intervals"):
            list(lake.scan(q))

    def test_scan_metadata_only_walk_never_decodes_values(self, tmp_path):
        lake = DataLakeStore(tmp_path, write_format="sgx")
        key = ExtractKey("r0", 0)
        lake.write_extract(key, mixed_frame(n=4))
        stats = ScanStats()
        q = ExtractQuery.for_key(key, columns=("timestamps",))
        metadata_by_server = {
            metadata.server_id: metadata for _k, metadata, _s in lake.scan(q, stats=stats)
        }
        assert len(metadata_by_server) == 4
        assert stats.columns_skipped == stats.chunks_seen - stats.chunks_pruned
        assert stats.payload_bytes_verified == stats.payload_bytes_stored // 2


class TestTraceBoundary:
    """``bench/trace.py`` measures the columnar layer by ``setattr``-wrapping
    ``repro.storage.columnar.scan_sgx_bytes`` / ``aggregate_sgx_bytes``.
    That only sees calls that look the name up on the module when they are
    made, so "every lake ``.sgx`` read passes through them, once per
    segment" is a contract of the read path, not an accident of it."""

    def test_each_sgx_segment_read_calls_the_module_level_reader_once(
        self, tmp_path, monkeypatch
    ):
        from repro.storage import columnar

        def frame_for(tag):
            frame = LoadFrame(5)
            for index in range(3):
                metadata = ServerMetadata(server_id=f"{tag}-s{index}", region="r0")
                frame.add_server(metadata, make_series([float(index)] * 864))
            return frame

        lake = DataLakeStore(tmp_path, write_format="sgx")
        for region, week in (("r0", 0), ("r0", 1), ("r1", 0)):
            lake.write_extract(ExtractKey(region, week), frame_for(f"{region}w{week}"))

        calls = []
        for name in ("scan_sgx_bytes", "aggregate_sgx_bytes"):
            def counting(*args, _name=name, _fn=getattr(columnar, name), **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(columnar, name, counting)

        rows = ExtractQuery(start_minute=1440, end_minute=2880)
        rollup = ExtractQuery(aggregates=("count", "max"), group_by=("day",))
        # A cold store, the same store warm, and the streaming dual.
        for store in (lake, lake, DataLakeStore(tmp_path)):
            del calls[:]
            assert store.query(rows).stats.extracts_scanned == 3
            assert calls == ["scan_sgx_bytes"] * 3
            del calls[:]
            assert store.query(rollup).stats.extracts_scanned == 3
            assert calls == ["aggregate_sgx_bytes"] * 3
            del calls[:]
            assert len(list(store.scan(rows))) == 9
            assert calls == ["scan_sgx_bytes"] * 3
