"""Unit tests for CSV extract serialisation."""

import pytest

from repro.storage import csv_io
from repro.timeseries.frame import LoadFrame, ServerMetadata

from tests.helpers import make_series


@pytest.fixture
def frame() -> LoadFrame:
    frame = LoadFrame(5)
    for index in range(3):
        frame.add_server(
            ServerMetadata(
                server_id=f"srv-{index}",
                region="region-7",
                engine="mysql",
                default_backup_start=100,
                default_backup_end=160,
                backup_duration_minutes=60,
                true_class="stable",
            ),
            make_series([float(index), float(index) + 1.0]),
        )
    return frame


class TestFileRoundTrip:
    def test_write_returns_row_count(self, frame, tmp_path):
        rows = csv_io.write_frame_csv(frame, tmp_path / "extract.csv")
        assert rows == 6

    def test_roundtrip_preserves_series_and_metadata(self, frame, tmp_path):
        path = tmp_path / "sub" / "extract.csv"
        csv_io.write_frame_csv(frame, path)
        loaded = csv_io.frame_from_csv_text(path.read_text())
        assert loaded.server_ids() == frame.server_ids()
        for sid in frame.server_ids():
            assert loaded.series(sid) == frame.series(sid)
            assert loaded.metadata(sid).engine == "mysql"
            assert loaded.metadata(sid).true_class == "stable"

    def test_read_missing_columns_raises(self):
        with pytest.raises(csv_io.CsvSchemaError):
            csv_io.frame_from_csv_text("server_id,foo\na,1\n")

    def test_read_empty_file_raises(self):
        with pytest.raises(csv_io.CsvSchemaError):
            csv_io.frame_from_csv_text("")


class TestTextRoundTrip:
    def test_text_roundtrip(self, frame):
        text = csv_io.frame_to_csv_text(frame)
        loaded = csv_io.frame_from_csv_text(text)
        assert loaded.total_points() == frame.total_points()

    def test_header_first_line(self, frame):
        text = csv_io.frame_to_csv_text(frame)
        assert text.splitlines()[0].startswith("server_id,timestamp_minutes")
