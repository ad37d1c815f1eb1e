"""Fleet-level container: many servers' load series plus per-server metadata.

A :class:`LoadFrame` is the in-memory representation of one weekly
per-region extract file (Section 2.2): for every server it holds the load
series and the default backup window.  The pipeline, the classification
analysis and the benchmark harness all consume and produce load frames.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass

import numpy as np

from repro.timeseries.calendar import DEFAULT_INTERVAL_MINUTES
from repro.timeseries.series import LoadSeries


@dataclass(frozen=True)
class ServerMetadata:
    """Static attributes of a server carried alongside its load series.

    Attributes
    ----------
    server_id:
        Unique identifier of the server.
    region:
        Azure-style region name the server lives in.
    engine:
        Database engine (``postgresql``, ``mysql`` or ``sql``).
    default_backup_start / default_backup_end:
        The backup window currently configured by the automated workflow,
        expressed as epoch minutes (the window the paper's scheduler may
        replace with the predicted lowest-load window).
    backup_duration_minutes:
        Expected duration of a full backup of this server.
    true_class:
        Ground-truth workload class assigned by the synthetic generator
        (``stable``, ``daily``, ``weekly``, ``unstable``, ``short_lived``).
        Empty for real data; used only to validate the classifier.
    """

    server_id: str
    region: str = "region-0"
    engine: str = "postgresql"
    default_backup_start: int = 0
    default_backup_end: int = 0
    backup_duration_minutes: int = 60
    true_class: str = ""

@dataclass
class _ServerRecord:
    metadata: ServerMetadata
    series: LoadSeries


class LoadFrame:
    """A keyed collection of per-server load series.

    The frame preserves insertion order, supports partitioning (the unit of
    parallelism used by the Dask-substitute executor) and round-trips to the
    CSV schema described in Section 5.3.1: ``server identifier, timestamp in
    minutes, average user CPU load percentage per five minutes, default
    backup start and end timestamps``.
    """

    def __init__(self, interval_minutes: int = DEFAULT_INTERVAL_MINUTES) -> None:
        self._records: dict[str, _ServerRecord] = {}
        self._interval = int(interval_minutes)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def add_server(
        self,
        metadata: ServerMetadata,
        series: LoadSeries,
        overwrite: bool = False,
    ) -> None:
        """Add a server's series and metadata to the frame."""
        if series.interval_minutes != self._interval:
            raise ValueError(
                f"series interval {series.interval_minutes} does not match frame "
                f"interval {self._interval}"
            )
        if metadata.server_id in self._records and not overwrite:
            raise KeyError(f"server {metadata.server_id!r} already present")
        self._records[metadata.server_id] = _ServerRecord(metadata, series)

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #

    @property
    def interval_minutes(self) -> int:
        return self._interval

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, server_id: str) -> bool:
        return server_id in self._records

    def __iter__(self) -> Iterator[str]:
        return iter(self._records)

    def server_ids(self) -> list[str]:
        """Return server ids in insertion order."""
        return list(self._records)

    def series(self, server_id: str) -> LoadSeries:
        """Return the load series of ``server_id``."""
        return self._records[server_id].series

    def metadata(self, server_id: str) -> ServerMetadata:
        """Return the metadata of ``server_id``."""
        return self._records[server_id].metadata

    def items(self) -> Iterator[tuple[str, ServerMetadata, LoadSeries]]:
        """Yield ``(server_id, metadata, series)`` triples in order."""
        for server_id, record in self._records.items():
            yield server_id, record.metadata, record.series

    def total_points(self) -> int:
        """Total number of telemetry samples across all servers."""
        return sum(len(record.series) for record in self._records.values())

    def content_hash(self) -> str:
        """Hex sha256 digest of the frame's full content.

        Covers every server's metadata, timestamps and values plus the
        sampling interval, independent of insertion order.  Two frames with
        equal content hash are interchangeable as pipeline input, which is
        what makes the digest usable as an artifact-cache key.
        """
        digest = hashlib.sha256()
        digest.update(f"interval={self._interval}".encode())
        for server_id in sorted(self._records):
            record = self._records[server_id]
            metadata = record.metadata
            digest.update(
                "|".join(
                    (
                        metadata.server_id,
                        metadata.region,
                        metadata.engine,
                        str(metadata.default_backup_start),
                        str(metadata.default_backup_end),
                        str(metadata.backup_duration_minutes),
                        metadata.true_class,
                    )
                ).encode()
            )
            digest.update(np.ascontiguousarray(record.series.timestamps).tobytes())
            digest.update(np.ascontiguousarray(record.series.values).tobytes())
        return digest.hexdigest()

    def regions(self) -> list[str]:
        """Distinct regions present, in first-seen order."""
        seen: dict[str, None] = {}
        for record in self._records.values():
            seen.setdefault(record.metadata.region, None)
        return list(seen)

    # ------------------------------------------------------------------ #
    # Transformation
    # ------------------------------------------------------------------ #

    def filter(self, predicate: Callable[[ServerMetadata, LoadSeries], bool]) -> "LoadFrame":
        """Return a new frame containing servers for which ``predicate`` holds."""
        out = LoadFrame(self._interval)
        for _server_id, metadata, series in self.items():
            if predicate(metadata, series):
                out.add_server(metadata, series)
        return out

    def select(self, server_ids: Iterable[str]) -> "LoadFrame":
        """Return a new frame restricted to ``server_ids`` (order preserved)."""
        out = LoadFrame(self._interval)
        for server_id in server_ids:
            record = self._records[server_id]
            out.add_server(record.metadata, record.series)
        return out

    def partition(self, n_partitions: int) -> list["LoadFrame"]:
        """Split the frame into up to ``n_partitions`` server-disjoint frames.

        This is the unit of parallelism: the parallel executor maps a
        function over partitions, mirroring the paper's per-server Dask
        partitioning (Section 5.3.1).
        """
        if n_partitions <= 0:
            raise ValueError("n_partitions must be positive")
        ids = self.server_ids()
        if not ids:
            return []
        n_partitions = min(n_partitions, len(ids))
        chunks = np.array_split(np.array(ids, dtype=object), n_partitions)
        return [self.select(chunk.tolist()) for chunk in chunks if chunk.size]

    def merge(self, other: "LoadFrame") -> "LoadFrame":
        """Return the union of two frames."""
        if other.interval_minutes != self._interval:
            raise ValueError("cannot merge frames with different intervals")
        out = LoadFrame(self._interval)
        for _server_id, metadata, series in self.items():
            out.add_server(metadata, series)
        for _server_id, metadata, series in other.items():
            out.add_server(metadata, series)
        return out

    # ------------------------------------------------------------------ #
    # CSV round trip
    # ------------------------------------------------------------------ #

    CSV_HEADER = (
        "server_id",
        "timestamp_minutes",
        "avg_cpu_percent",
        "default_backup_start",
        "default_backup_end",
        "region",
        "engine",
        "backup_duration_minutes",
        "true_class",
    )

    def to_rows(self) -> Iterator[tuple]:
        """Yield CSV rows in the schema of :attr:`CSV_HEADER`."""
        for server_id, metadata, series in self.items():
            for ts, value in series:
                yield (
                    server_id,
                    ts,
                    value,
                    metadata.default_backup_start,
                    metadata.default_backup_end,
                    metadata.region,
                    metadata.engine,
                    metadata.backup_duration_minutes,
                    metadata.true_class,
                )

    @classmethod
    def from_rows(
        cls,
        rows: Iterable[Mapping[str, str]],
        interval_minutes: int = DEFAULT_INTERVAL_MINUTES,
    ) -> "LoadFrame":
        """Build a frame from dict rows keyed by :attr:`CSV_HEADER` names."""
        per_server_ts: dict[str, list[int]] = {}
        per_server_vs: dict[str, list[float]] = {}
        per_server_meta: dict[str, ServerMetadata] = {}
        for row in rows:
            server_id = str(row["server_id"])
            per_server_ts.setdefault(server_id, []).append(int(row["timestamp_minutes"]))
            per_server_vs.setdefault(server_id, []).append(float(row["avg_cpu_percent"]))
            if server_id not in per_server_meta:
                per_server_meta[server_id] = ServerMetadata(
                    server_id=server_id,
                    region=str(row.get("region", "region-0")),
                    engine=str(row.get("engine", "postgresql")),
                    default_backup_start=int(row.get("default_backup_start", 0) or 0),
                    default_backup_end=int(row.get("default_backup_end", 0) or 0),
                    backup_duration_minutes=int(row.get("backup_duration_minutes", 60) or 60),
                    true_class=str(row.get("true_class", "") or ""),
                )
        frame = cls(interval_minutes)
        for server_id, meta in per_server_meta.items():
            ts = np.asarray(per_server_ts[server_id], dtype=np.int64)
            vs = np.asarray(per_server_vs[server_id], dtype=np.float64)
            order = np.argsort(ts, kind="stable")
            series = LoadSeries(ts[order], vs[order], interval_minutes, validate=False)
            frame.add_server(meta, series)
        return frame
