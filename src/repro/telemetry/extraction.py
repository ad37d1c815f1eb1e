"""Load Extraction Module (Section 2.2).

A recurring query that reads raw production telemetry, aggregates it to the
average user CPU percentage per five minutes and writes one extract per
``(region, week)`` to the data lake.  Servers are due for full backup at
least once a week, so the query runs once a week per region.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.storage.datalake import DataLakeStore, ExtractKey
from repro.storage.query import ExtractQuery
from repro.telemetry.raw_store import RawTelemetryStore
from repro.timeseries.calendar import DEFAULT_INTERVAL_MINUTES, MINUTES_PER_WEEK
from repro.timeseries.frame import LoadFrame
from repro.timeseries.resample import regularize


class ExtractionVerificationError(RuntimeError):
    """Raised when a freshly written extract does not read back intact."""


@dataclass(frozen=True)
class ExtractionReport:
    """Summary of one extraction run, surfaced on the monitoring dashboard."""

    key: ExtractKey
    servers: int
    raw_rows: int
    extracted_points: int
    extract_bytes: int = 0
    #: Whether the stored copy was read back and checked after the write.
    verified: bool = False

    def as_dict(self) -> dict[str, object]:
        return {
            "region": self.key.region,
            "week": self.key.week,
            "servers": self.servers,
            "raw_rows": self.raw_rows,
            "extracted_points": self.extracted_points,
            "extract_bytes": self.extract_bytes,
            "verified": self.verified,
        }


class LoadExtractionQuery:
    """Aggregates raw telemetry into weekly per-region extracts.

    Parameters
    ----------
    raw_store:
        The raw telemetry source.
    data_lake:
        Destination store for the weekly extracts.
    interval_minutes:
        Target aggregation granularity (five minutes by default).
    """

    def __init__(
        self,
        raw_store: RawTelemetryStore,
        data_lake: DataLakeStore,
        interval_minutes: int = DEFAULT_INTERVAL_MINUTES,
    ) -> None:
        self._raw = raw_store
        self._lake = data_lake
        self._interval = interval_minutes

    def extract_week(self, region: str, week: int, verify: bool = False) -> ExtractionReport:
        """Run the weekly extraction for one region and persist the extract.

        Raw rows falling inside week ``week`` are bucketed onto the regular
        grid by mean; servers with no rows in the week are omitted (they are
        either retired or not yet created).

        With ``verify`` the stored copy is immediately read back through
        the lake's query surface with a *timestamps-only column
        projection* -- the cheapest structural read the format offers
        (values buffers are neither decoded nor checksummed) -- and its server/row counts are checked against what was
        extracted; a mismatch raises
        :class:`ExtractionVerificationError`.
        """
        week_start = week * MINUTES_PER_WEEK
        week_end = week_start + MINUTES_PER_WEEK

        frame = LoadFrame(self._interval)
        raw_rows = 0
        for server_id, timestamps, values in self._raw.iter_region(region):
            mask = (timestamps >= week_start) & (timestamps < week_end)
            if not mask.any():
                continue
            raw_rows += int(mask.sum())
            series = regularize(timestamps[mask], values[mask], self._interval)
            frame.add_server(self._raw.metadata(server_id), series)

        key = ExtractKey(region=region, week=week)
        self._lake.write_extract(key, frame)
        if verify:
            check = self._lake.query(
                ExtractQuery.for_key(
                    key, interval_minutes=self._interval, columns=("timestamps",)
                )
            )
            if (
                check.stats.extracts_scanned != 1
                or len(check.frame) != len(frame)
                or check.frame.total_points() != frame.total_points()
            ):
                raise ExtractionVerificationError(
                    f"extract for {key} did not read back intact: stored "
                    f"{len(check.frame)} server(s) / {check.frame.total_points()} "
                    f"row(s), extracted {len(frame)} / {frame.total_points()}"
                )
        return ExtractionReport(
            key=key,
            servers=len(frame),
            raw_rows=raw_rows,
            extracted_points=frame.total_points(),
            extract_bytes=self._lake.extract_size_bytes(key),
            verified=verify,
        )

    def extract_all_regions(self, week: int, verify: bool = False) -> list[ExtractionReport]:
        """Run the weekly extraction for every region with raw telemetry.

        The paper notes Load Extraction runs outside the per-region pipeline
        for all regions at once (Section 6.1).
        """
        return [
            self.extract_week(region, week, verify=verify)
            for region in self._raw.regions()
        ]
