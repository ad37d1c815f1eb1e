"""End-to-end tests for the live loop: ingest -> seal -> drift -> promote.

The acceptance scenario of the live subsystem: batches stream into the
tail, queries see them immediately, day-boundary seals commit manifest
generations (pinned readers unaffected), the serving bridge detects the
load-distribution drift and promotes a freshly retrained model -- and a
kill-and-reopen in the middle loses at most the unfsynced WAL tail.
"""

import numpy as np
import pytest

from repro.serving import LiveServingBridge, PredictionService
from repro.storage.datalake import DataLakeStore, ExtractKey
from repro.storage.live import LiveIngestor, LiveWalWarning, wal_path
from repro.storage.query import ExtractQuery
from repro.timeseries.calendar import MINUTES_PER_DAY
from repro.timeseries.frame import ServerMetadata

REGION = "region-live"
KEY = ExtractKey(region=REGION, week=0)
SERVERS = [ServerMetadata(server_id=f"srv-{i}", region=REGION) for i in range(3)]


def ingest_day(ingestor, day, factor=1.0, batch_minutes=120, seed=None):
    """Stream one synthetic day in hourly-ish batches; returns raw rows."""
    rng = np.random.default_rng(1000 * day if seed is None else seed)
    start = day * MINUTES_PER_DAY
    rows = 0
    for offset in range(0, MINUTES_PER_DAY, batch_minutes):
        ts = np.arange(start + offset, start + offset + batch_minutes, dtype=np.int64)
        phase = 2.0 * np.pi * (ts % MINUTES_PER_DAY) / MINUTES_PER_DAY
        load = factor * (50.0 + 20.0 * np.sin(phase))
        for meta in SERVERS:
            noisy = np.maximum(load + rng.normal(0.0, 1.0, ts.size), 0.0)
            rows += ingestor.ingest(KEY, meta, ts, noisy)
    return rows


class TestLiveLoop:
    def test_full_loop_drift_promotes_a_new_version(self, tmp_path):
        store = DataLakeStore(tmp_path / "lake")
        service = PredictionService()
        bridge = LiveServingBridge(store, service)
        actions = []
        with LiveIngestor(store, chunk_minutes=MINUTES_PER_DAY) as ingestor:
            for day in range(4):
                factor = 3.0 if day >= 2 else 1.0
                ingest_day(ingestor, day, factor=factor)
                ingestor.flush()  # readers see exactly the fsync'd state

                # Mid-stream: the unsealed day is already queryable.
                live = store.query(
                    ExtractQuery.for_key(
                        KEY,
                        start_minute=day * MINUTES_PER_DAY,
                        end_minute=(day + 1) * MINUTES_PER_DAY,
                    )
                )
                assert live.stats.tail_rows_scanned == 3 * MINUTES_PER_DAY
                assert live.rows == 3 * MINUTES_PER_DAY // 5

                (report,) = ingestor.seal_due((day + 1) * MINUTES_PER_DAY)
                assert report.generation == day + 1
                event = bridge.on_sealed(report)
                actions.append(event.action)

        assert actions == ["bootstrap", "none", "retrain", "none"]
        health = service.health(REGION)
        assert health["active_version"] == 2
        assert health["n_versions"] == 2
        assert not health["fell_back"]
        # The drift verdict that triggered the retrain is on record.
        drifted = [e for e in bridge.events if e.verdict is not None and e.verdict.drifted]
        assert len(drifted) == 1 and drifted[0].action == "retrain"

    def test_seal_leaves_pinned_reader_on_its_generation(self, tmp_path):
        store = DataLakeStore(tmp_path / "lake")
        with LiveIngestor(store, chunk_minutes=MINUTES_PER_DAY) as ingestor:
            ingest_day(ingestor, 0)
            ingestor.seal(KEY, MINUTES_PER_DAY)  # generation 1
            pinned = DataLakeStore(store.root, pinned_generation=1)
            day_rows = 3 * MINUTES_PER_DAY // 5

            ingest_day(ingestor, 1)
            ingestor.seal(KEY, 2 * MINUTES_PER_DAY)  # generation 2

            assert store.manifest.current().generation == 2
            assert pinned.query(ExtractQuery.for_key(KEY)).rows == day_rows
            assert store.query(ExtractQuery.for_key(KEY)).rows == 2 * day_rows

    def test_kill_and_reopen_loses_at_most_the_unfsynced_tail(self, tmp_path):
        store = DataLakeStore(tmp_path / "lake")
        with LiveIngestor(store, chunk_minutes=MINUTES_PER_DAY) as ingestor:
            ingest_day(ingestor, 0)
            ingestor.seal(KEY, MINUTES_PER_DAY)
            ingest_day(ingestor, 1)
            ingestor.flush()

        # "Kill" the collector mid-append: a partial frame at the end of
        # the WAL, exactly what an OS crash between fsyncs leaves behind.
        path = wal_path(store.root, REGION, 0)
        durable = path.stat().st_size
        with path.open("ab") as handle:
            handle.write(b"\xff\x00\x00\x00half-written frame bytes")

        with pytest.warns(LiveWalWarning, match="torn"):
            reopened = LiveIngestor(store, chunk_minutes=MINUTES_PER_DAY)
        # Every fsync'd row survived; only the torn frame is gone, and
        # the reopen healed the file in place.
        assert reopened.pending_rows() == 3 * MINUTES_PER_DAY
        assert reopened.watermark(KEY) == MINUTES_PER_DAY
        assert path.stat().st_size == durable

        # The loop continues where it left off.
        report = reopened.seal(KEY, 2 * MINUTES_PER_DAY)
        assert report is not None and report.generation == 2
        assert store.query(ExtractQuery.for_key(KEY)).rows == 2 * 3 * MINUTES_PER_DAY // 5
        reopened.close()

    def test_bridge_skips_promotion_when_nothing_fits(self, tmp_path):
        # A forecaster that needs a previous day cannot fit on a region's
        # very first sealed window if that window is shorter than its lag;
        # the bridge reports action "none" instead of deploying garbage.
        store = DataLakeStore(tmp_path / "lake")
        service = PredictionService()
        bridge = LiveServingBridge(store, service)
        with LiveIngestor(store, chunk_minutes=60) as ingestor:
            ts = np.arange(0, 60, dtype=np.int64)
            ingestor.ingest(KEY, SERVERS[0], ts, np.full(60, 10.0))
            (report,) = ingestor.seal_due(60)
            event = bridge.on_sealed(report)
        assert event.action == "none"
        assert event.active_version is None
        assert service.health(REGION)["active_version"] is None
