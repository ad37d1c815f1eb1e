"""Load Extraction Module (Section 2.2).

A recurring query that reads raw production telemetry, aggregates it to the
average user CPU percentage per five minutes and writes one extract per
``(region, week)`` to the data lake.  Servers are due for full backup at
least once a week, so the query runs once a week per region.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.storage.datalake import DataLakeStore, ExtractKey
from repro.telemetry.raw_store import RawTelemetryStore
from repro.timeseries.calendar import DEFAULT_INTERVAL_MINUTES, MINUTES_PER_WEEK
from repro.timeseries.frame import LoadFrame
from repro.timeseries.resample import regularize


@dataclass(frozen=True)
class ExtractionReport:
    """Summary of one extraction run, surfaced on the monitoring dashboard."""

    key: ExtractKey
    servers: int
    raw_rows: int
    extracted_points: int
    extract_bytes: int = 0

    def as_dict(self) -> dict[str, object]:
        return {
            "region": self.key.region,
            "week": self.key.week,
            "servers": self.servers,
            "raw_rows": self.raw_rows,
            "extracted_points": self.extracted_points,
            "extract_bytes": self.extract_bytes,
        }


class LoadExtractionQuery:
    """Aggregates raw telemetry into weekly per-region extracts.

    Parameters
    ----------
    raw_store:
        The raw telemetry source.
    data_lake:
        Destination store for the weekly extracts.

    Extracts are aggregated onto the default five-minute grid.
    """

    def __init__(self, raw_store: RawTelemetryStore, data_lake: DataLakeStore) -> None:
        self._raw = raw_store
        self._lake = data_lake

    def extract_week(self, region: str, week: int) -> ExtractionReport:
        """Run the weekly extraction for one region and persist the extract.

        Raw rows falling inside week ``week`` are bucketed onto the regular
        grid by mean; servers with no rows in the week are omitted (they are
        either retired or not yet created).
        """
        week_start = week * MINUTES_PER_WEEK
        week_end = week_start + MINUTES_PER_WEEK

        frame = LoadFrame(DEFAULT_INTERVAL_MINUTES)
        raw_rows = 0
        for server_id, timestamps, values in self._raw.iter_region(region):
            mask = (timestamps >= week_start) & (timestamps < week_end)
            if not mask.any():
                continue
            raw_rows += int(mask.sum())
            series = regularize(timestamps[mask], values[mask], DEFAULT_INTERVAL_MINUTES)
            frame.add_server(self._raw.metadata(server_id), series)

        key = ExtractKey(region=region, week=week)
        self._lake.write_extract(key, frame)
        return ExtractionReport(
            key=key,
            servers=len(frame),
            raw_rows=raw_rows,
            extracted_points=frame.total_points(),
            extract_bytes=self._lake.extract_size_bytes(key),
        )

    def extract_all_regions(self, week: int) -> list[ExtractionReport]:
        """Run the weekly extraction for every region with raw telemetry.

        The paper notes Load Extraction runs outside the per-region pipeline
        for all regions at once (Section 6.1).
        """
        return [self.extract_week(region, week) for region in self._raw.regions()]
