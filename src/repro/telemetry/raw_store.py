"""Simulated raw production telemetry store.

In production the load-extraction query runs against petabyte-scale raw
telemetry (Section 6.1).  Here the raw store holds per-minute rows
``(server_id, timestamp, cpu_percent)`` with the messiness real telemetry
has -- duplicated rows, missing minutes and out-of-order arrival -- so that
the extraction query has real work to do (bucketing, deduplication and
aggregation to the five-minute grid).
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.timeseries.frame import LoadFrame, ServerMetadata

#: Share of raw rows :meth:`RawTelemetryStore.ingest_frame` drops, and
#: share it delivers twice (at-least-once telemetry delivery).
DROP_FRACTION = 0.01
DUPLICATE_FRACTION = 0.005


class RawTelemetryStore:
    """Holds raw minute-granularity telemetry rows per server and region."""

    def __init__(self) -> None:
        self._rows: dict[str, dict[str, tuple[np.ndarray, np.ndarray]]] = {}
        self._metadata: dict[str, ServerMetadata] = {}

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #

    def ingest_rows(
        self,
        region: str,
        server_id: str,
        timestamps: np.ndarray,
        values: np.ndarray,
        metadata: ServerMetadata | None = None,
    ) -> None:
        """Append raw rows for a server (rows may be unordered or duplicated)."""
        ts = np.asarray(timestamps, dtype=np.int64)
        vs = np.asarray(values, dtype=np.float64)
        if ts.shape != vs.shape:
            raise ValueError("timestamps and values must have the same length")
        region_rows = self._rows.setdefault(region, {})
        if server_id in region_rows:
            old_ts, old_vs = region_rows[server_id]
            ts = np.concatenate([old_ts, ts])
            vs = np.concatenate([old_vs, vs])
        region_rows[server_id] = (ts, vs)
        if metadata is not None:
            self._metadata[server_id] = metadata

    def ingest_frame(
        self,
        frame: LoadFrame,
        noise_rng: np.random.Generator | None = None,
    ) -> None:
        """Explode a clean frame into messy raw minute-granularity rows.

        Each five-minute sample is expanded into per-minute rows with small
        jitter; a fraction of rows is dropped and another fraction
        duplicated, simulating at-least-once telemetry delivery.
        """
        rng = noise_rng if noise_rng is not None else np.random.default_rng(1234)
        interval = frame.interval_minutes
        for server_id, metadata, series in frame.items():
            if series.is_empty:
                self.ingest_rows(
                    metadata.region,
                    server_id,
                    np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.float64),
                    metadata,
                )
                continue
            base_ts = np.repeat(series.timestamps, interval)
            offsets = np.tile(np.arange(interval, dtype=np.int64), len(series))
            raw_ts = base_ts + offsets
            raw_vs = np.repeat(series.values, interval) + rng.normal(0.0, 0.5, raw_ts.shape[0])
            raw_vs = np.clip(raw_vs, 0.0, 100.0)

            keep = rng.uniform(size=raw_ts.shape[0]) >= DROP_FRACTION
            raw_ts, raw_vs = raw_ts[keep], raw_vs[keep]

            n_dup = int(DUPLICATE_FRACTION * raw_ts.shape[0])
            if n_dup > 0:
                dup_idx = rng.integers(0, raw_ts.shape[0], n_dup)
                raw_ts = np.concatenate([raw_ts, raw_ts[dup_idx]])
                raw_vs = np.concatenate([raw_vs, raw_vs[dup_idx]])

            shuffle = rng.permutation(raw_ts.shape[0])
            self.ingest_rows(metadata.region, server_id, raw_ts[shuffle], raw_vs[shuffle], metadata)

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #

    def regions(self) -> list[str]:
        """Regions with at least one ingested server."""
        return sorted(self._rows)

    def servers_in_region(self, region: str) -> list[str]:
        """Server ids with raw rows in ``region``."""
        return sorted(self._rows.get(region, {}))

    def metadata(self, server_id: str) -> ServerMetadata:
        """Metadata recorded for ``server_id`` (default metadata if unknown)."""
        return self._metadata.get(server_id, ServerMetadata(server_id=server_id))

    def raw_rows(self, region: str, server_id: str) -> tuple[np.ndarray, np.ndarray]:
        """Return raw ``(timestamps, values)`` for a server."""
        try:
            ts, vs = self._rows[region][server_id]
        except KeyError as exc:
            raise KeyError(f"no raw telemetry for {server_id!r} in {region!r}") from exc
        return ts.copy(), vs.copy()

    def iter_region(self, region: str) -> Iterator[tuple[str, np.ndarray, np.ndarray]]:
        """Yield ``(server_id, timestamps, values)`` for every server in a region."""
        for server_id in self.servers_in_region(region):
            ts, vs = self._rows[region][server_id]
            yield server_id, ts.copy(), vs.copy()
