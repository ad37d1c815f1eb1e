"""Unit tests for LoadFrame."""

import pytest

from repro.timeseries.frame import LoadFrame, ServerMetadata

from tests.helpers import make_series


def build_frame(n_servers: int = 4, points: int = 10) -> LoadFrame:
    frame = LoadFrame(5)
    for index in range(n_servers):
        metadata = ServerMetadata(
            server_id=f"srv-{index}",
            region="region-0" if index % 2 == 0 else "region-1",
            backup_duration_minutes=30,
        )
        frame.add_server(metadata, make_series([float(index)] * points))
    return frame


class TestMutation:
    def test_add_and_len(self):
        frame = build_frame(3)
        assert len(frame) == 3
        assert "srv-1" in frame

    def test_add_duplicate_raises(self):
        frame = build_frame(1)
        with pytest.raises(KeyError):
            frame.add_server(ServerMetadata(server_id="srv-0"), make_series([1.0]))

    def test_add_duplicate_with_overwrite(self):
        frame = build_frame(1)
        frame.add_server(ServerMetadata(server_id="srv-0"), make_series([9.0]), overwrite=True)
        assert frame.series("srv-0").values.tolist() == [9.0]

    def test_interval_mismatch_rejected(self):
        frame = LoadFrame(5)
        with pytest.raises(ValueError):
            frame.add_server(ServerMetadata(server_id="x"), make_series([1.0], interval=15))


class TestAccess:
    def test_server_ids_preserve_order(self):
        frame = build_frame(3)
        assert frame.server_ids() == ["srv-0", "srv-1", "srv-2"]

    def test_iteration_yields_server_ids_in_insertion_order(self):
        frame = build_frame(3)
        assert list(frame) == ["srv-0", "srv-1", "srv-2"]
        assert "srv-1" in frame and "srv-9" not in frame

    def test_metadata_roundtrip(self):
        frame = build_frame(1)
        assert frame.metadata("srv-0").backup_duration_minutes == 30

    def test_items_yields_triples(self):
        frame = build_frame(2)
        triples = list(frame.items())
        assert triples[0][0] == "srv-0"
        assert triples[0][1].server_id == "srv-0"

    def test_total_points(self):
        frame = build_frame(3, points=7)
        assert frame.total_points() == 21

    def test_regions(self):
        frame = build_frame(4)
        assert frame.regions() == ["region-0", "region-1"]


class TestTransform:
    def test_filter(self):
        frame = build_frame(4)
        region0 = frame.filter(lambda metadata, series: metadata.region == "region-0")
        assert len(region0) == 2

    def test_select_preserves_order(self):
        frame = build_frame(4)
        selected = frame.select(["srv-3", "srv-0"])
        assert selected.server_ids() == ["srv-3", "srv-0"]

    def test_select_unknown_raises(self):
        with pytest.raises(KeyError):
            build_frame(1).select(["nope"])

    def test_partition_covers_all_servers(self):
        frame = build_frame(5)
        parts = frame.partition(2)
        assert sum(len(p) for p in parts) == 5
        all_ids = [sid for part in parts for sid in part.server_ids()]
        assert sorted(all_ids) == sorted(frame.server_ids())

    def test_partition_more_than_servers(self):
        parts = build_frame(2).partition(10)
        assert len(parts) == 2

    def test_partition_empty_frame(self):
        assert LoadFrame().partition(3) == []

    def test_partition_rejects_non_positive(self):
        with pytest.raises(ValueError):
            build_frame(1).partition(0)

    def test_merge(self):
        a = build_frame(2)
        b = LoadFrame(5)
        b.add_server(ServerMetadata(server_id="other"), make_series([1.0]))
        merged = a.merge(b)
        assert len(merged) == 3

    def test_merge_refuses_a_server_both_frames_hold(self):
        with pytest.raises(KeyError, match="srv-0"):
            build_frame(2).merge(build_frame(1))

    def test_merge_interval_mismatch(self):
        with pytest.raises(ValueError):
            build_frame(1).merge(LoadFrame(15))


class TestCsvRoundTrip:
    def test_rows_roundtrip(self):
        frame = build_frame(3, points=4)
        rows = [dict(zip(LoadFrame.CSV_HEADER, row, strict=True)) for row in frame.to_rows()]
        rebuilt = LoadFrame.from_rows(rows)
        assert rebuilt.server_ids() == frame.server_ids()
        for sid in frame.server_ids():
            assert rebuilt.series(sid) == frame.series(sid)
            assert rebuilt.metadata(sid).region == frame.metadata(sid).region

    def test_from_rows_sorts_timestamps(self):
        rows = [
            {"server_id": "a", "timestamp_minutes": 10, "avg_cpu_percent": 2.0},
            {"server_id": "a", "timestamp_minutes": 0, "avg_cpu_percent": 1.0},
        ]
        frame = LoadFrame.from_rows(rows)
        assert frame.series("a").values.tolist() == [1.0, 2.0]
