"""``live-loop``: ingest, read-your-writes, seal, drift, retrain, serve.

One-minute samples of a region arrive in 30-minute batches through a
``LiveIngestor``.  A round is one simulated day: after each batch round the
collector flushes and a dashboard issues a ``fresh`` read (5 servers, last
6 hours: sealed segments plus the tail); every 4th batch round a
month-to-date ``rollup``; at the day's end ``seal_due`` commits the day as a
segment, ``LiveServingBridge.on_sealed`` reacts (the load triples from
``drift_day`` on: one drift verdict, one retrain) and every server is asked
for a one-day prediction.

This uses the same storage layers as ``lake-query`` but **writes beside
reads**: WAL append, fsync batching, seal transactions, tail fold.  A
read-side cache that makes ingest or seal dearer, or a cheaper seal that
slows fresh reads, shows here and nowhere else.

Flush policy (fixed): ``fsync_every=16`` appends, plus one ``flush()`` at the
end of every batch round, so a fresh read sees every row ingested before it.

Oracle: after each day's seal and after reopening the lake at the end,
per-server count and sum equal the ingested samples bucketed to the 5-minute
grid; the bridge produced exactly one ``bootstrap`` and (once the drift day
is sealed) one ``retrain``; each fresh read returns one full 6-hour window.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from bench.harness import Context
from bench.workloads.common import lake_gauges
from repro import DataLakeStore, ExtractKey, PredictionRequest, PredictionService, ServerMetadata
from repro.serving import LiveServingBridge
from repro.storage import ExtractQuery
from repro.storage.live import LiveIngestor, wal_path

DAY = 1440
WEEK = 7 * DAY
REGION = "region-live"
GRID_MINUTES = 5
BATCH_MINUTES = 30
FRESH_SERVERS = 5
FRESH_WINDOW_MINUTES = 360
ROLLUP_EVERY = 4
#: Days of samples the set-up generates; later days are drawn on demand.
GENERATED_DAYS = 16


class LiveLoopWorkload:
    name = "live-loop"
    read_op = "fresh"
    #: The write path (WAL append, fsync batching, flush) has hundreds of
    #: samples a run; seal-to-serve has one a day, and its cost steps up
    #: through the week, so its median is a layer metric, not a gated one.
    batch_op = "ingest_round"

    def __init__(self, n_servers: int, drift_day: int, rounds_per_second: float) -> None:
        self.rounds_per_second = rounds_per_second
        self._n_servers = n_servers
        self._drift_day = drift_day

    def setup(self, ctx: Context, directory: Path) -> None:
        rng = np.random.default_rng([ctx.seed, 0x11FE])
        self._servers = [
            ServerMetadata(server_id=f"srv-{index:03d}", region=REGION)
            for index in range(self._n_servers)
        ]
        minute = np.arange(DAY, dtype=np.float64)
        self._diurnal = 30.0 + 15.0 * np.sin(2.0 * np.pi * minute / DAY)
        self._level = rng.uniform(0.6, 1.4, self._n_servers)
        self._noise_seed = int(rng.integers(2**31))
        self._generated = [self._generate_day(day) for day in range(GENERATED_DAYS)]
        self._open(directory / "lake")

    def _open(self, root: Path) -> None:
        self._store = DataLakeStore(root, write_format="sgx")
        self._service = PredictionService()
        self._bridge = LiveServingBridge(self._store, self._service)
        self._ingestor = LiveIngestor(
            self._store, interval_minutes=GRID_MINUTES, chunk_minutes=DAY, fsync_every=16
        )

    def begin(self, ctx: Context, directory: Path) -> None:
        self._ingestor.close()
        self._open(directory / "lake")
        self._rng = np.random.default_rng([ctx.seed, 0xF5E5])
        #: Reference of everything ingested: per server, per-bucket means.
        self._expected_count = np.zeros(self._n_servers, dtype=np.int64)
        self._expected_sum = np.zeros(self._n_servers)
        self._days_done = 0
        self._wal_bytes = 0
        #: Raw rows ingested and the seconds inside ingest + flush + seal_due.
        self._rows = 0
        self._ingest_seconds = 0.0

    def _day_loads(self, day: int) -> np.ndarray:
        if day < len(self._generated):
            return self._generated[day]
        return self._generate_day(day)

    def _generate_day(self, day: int) -> np.ndarray:
        """The day's samples, ``(server, minute)``; seeded per day."""
        rng = np.random.default_rng([self._noise_seed, day])
        factor = 3.0 if day >= self._drift_day else 1.0
        loads = factor * self._level[:, None] * self._diurnal[None, :]
        loads = loads + rng.normal(0.0, 1.0, loads.shape)
        return np.maximum(loads, 0.0)

    def round(self, ctx: Context, index: int) -> None:
        day = index
        day_start = day * DAY
        key = ExtractKey(region=REGION, week=day_start // WEEK)
        loads = self._day_loads(day)
        ingestor, store = self._ingestor, self._store
        for batch, offset in enumerate(range(0, DAY, BATCH_MINUTES)):
            ts = np.arange(day_start + offset, day_start + offset + BATCH_MINUTES, dtype=np.int64)
            started = time.perf_counter()
            with ctx.tracer.span("op.ingest_round", new_op=True):
                for server, metadata in enumerate(self._servers):
                    ingestor.ingest(key, metadata, ts, loads[server, offset : offset + BATCH_MINUTES])
                ingestor.flush()
            elapsed = time.perf_counter() - started
            ctx.lat.setdefault("ingest_round", []).append(elapsed)
            ctx.attempted += self._n_servers
            self._rows += self._n_servers * BATCH_MINUTES
            self._ingest_seconds += elapsed

            now = day_start + offset + BATCH_MINUTES
            chosen = self._rng.choice(self._n_servers, size=FRESH_SERVERS, replace=False)
            fresh = ctx.timed(
                "fresh",
                store.query,
                ExtractQuery(
                    regions=(REGION,),
                    servers=[self._servers[int(i)].server_id for i in chosen],
                    start_minute=now - FRESH_WINDOW_MINUTES,
                    end_minute=now,
                    interval_minutes=GRID_MINUTES,
                ),
            )
            if fresh is not None:
                ctx.add_scan_stats(fresh.stats)
                ctx.add("live.fresh_rows_returned", fresh.rows)
                window = min(FRESH_WINDOW_MINUTES, now) // GRID_MINUTES
                ctx.check(
                    fresh.rows == FRESH_SERVERS * window,
                    f"fresh read at minute {now} returned {fresh.rows} rows, "
                    f"expected {FRESH_SERVERS * window}",
                )
            if batch % ROLLUP_EVERY == ROLLUP_EVERY - 1:
                rollup = ctx.timed(
                    "rollup",
                    store.query,
                    ExtractQuery(
                        regions=(REGION,), aggregates=("count", "mean", "max"), group_by=("day",)
                    ),
                )
                if rollup is not None:
                    ctx.add_scan_stats(rollup.stats)

        # The tail now holds exactly this day's rows.
        root = store.root
        assert root is not None
        self._wal_bytes = wal_path(root, REGION, key.week).stat().st_size

        # Day boundary: last event -> servable model.
        ctx.attempted += 1
        started = time.perf_counter()
        with ctx.tracer.span("op.seal_to_serve", new_op=True):
            reports = ingestor.seal_due(day_start + DAY)
            sealed = time.perf_counter()
            for report in reports:
                self._bridge.on_sealed(report)
        ended = time.perf_counter()
        self._ingest_seconds += sealed - started
        ctx.lat.setdefault("seal_to_serve", []).append(ended - started)
        ctx.add("live.rows_sealed", sum(report.rows_sealed for report in reports))
        if len(reports) != 1:
            ctx.fail(f"day {day} sealed {len(reports)} partitions, expected 1")

        for metadata in self._servers:
            ctx.timed(
                "predict",
                self._service.predict,
                PredictionRequest(region=REGION, server_id=metadata.server_id, n_points=DAY // GRID_MINUTES),
            )

        buckets = loads.reshape(self._n_servers, DAY // GRID_MINUTES, GRID_MINUTES).mean(axis=2)
        self._expected_count += buckets.shape[1]
        self._expected_sum += buckets.sum(axis=1)
        self._days_done = day + 1

    def _check_totals(self, ctx: Context, store: DataLakeStore, when: str) -> None:
        answer = store.query(
            ExtractQuery(regions=(REGION,), aggregates=("count", "sum"), group_by=("server",))
        ).aggregates or {}
        ok = len(answer) == self._n_servers
        for index, metadata in enumerate(self._servers):
            group = answer.get((metadata.server_id,))
            ok = ok and group is not None and (
                int(group["count"]) == int(self._expected_count[index])
                and bool(np.isclose(group["sum"], self._expected_sum[index], rtol=1e-9))
            )
        ctx.check(bool(ok), f"per-server count/sum differ from the ingested samples {when}")

    def after_round(self, ctx: Context, index: int) -> None:
        self._ingestor.flush()
        self._check_totals(ctx, self._store, f"after day {index}")

    def finish(self, ctx: Context) -> None:
        self._ingestor.close()
        root = self._store.root
        assert root is not None
        reopened = DataLakeStore(root)
        self._check_totals(ctx, reopened, "after reopening the lake")
        actions = [event.action for event in self._bridge.events]
        expected_retrains = 1 if self._days_done > self._drift_day else 0
        ctx.check(
            actions.count("bootstrap") == 1 and actions.count("retrain") == expected_retrains,
            f"bridge actions {actions}: expected one bootstrap and {expected_retrains} retrain(s)",
        )
        drifted = sum(
            1 for event in self._bridge.events if event.verdict is not None and event.verdict.drifted
        )
        ctx.gauges["bridge.retrains"] = actions.count("retrain")
        ctx.gauges["drift.verdicts_drifted"] = drifted

        lake_gauges(ctx, reopened)
        ctx.counts["live.rows_ingested"] = float(self._rows)
        ctx.gauges["live.ingest_rows_per_s"] = self._rows / max(self._ingest_seconds, 1e-9)
        # WAL size just before a seal over the day of rows it held: framing
        # overhead on top of the 16 payload bytes of a raw row.
        ctx.gauges["live.wal_bytes_per_row"] = self._wal_bytes / (self._n_servers * DAY)
        returned = ctx.counts.pop("live.fresh_rows_returned", 0.0)
        scanned = ctx.counts.get("live.tail_rows_scanned", 0.0)
        ctx.gauges["live.tail_rows_scanned_per_row_returned"] = scanned / max(1.0, returned)
        ctx.gauges["live.fresh_read_p90_ms"] = ctx.p("fresh", 0.90, 1e3)
        ctx.gauges["live.seal_to_serve_p50_ms"] = ctx.p("seal_to_serve", 0.5, 1e3)
        ctx.gauges["datalake.query_rollup_p50_ms"] = ctx.p("rollup", 0.5, 1e3)
        ctx.gauges["serving.predict_p99_us"] = ctx.p("predict", 0.99, 1e6)


def live_loop(smoke: bool) -> LiveLoopWorkload:
    if smoke:
        return LiveLoopWorkload(n_servers=8, drift_day=1, rounds_per_second=2.0)
    return LiveLoopWorkload(n_servers=60, drift_day=4, rounds_per_second=0.8)
