"""Streaming ingestion into the lake: active tails + sealed segments.

:class:`LiveIngestor` is the collector-side write surface of
``repro.storage.live``.  Telemetry batches for a ``(region, week)``
partition land in that partition's tail WAL (:mod:`repro.storage.live.wal`)
-- append-only, CRC-framed, fsync-batched, so the hot path never pays the
manifest's per-mutation commit protocol -- and are **sealed** into the
lake proper at ``chunk_minutes`` boundaries.

A seal is one ordinary manifest transaction and therefore inherits every
PR 9 guarantee (crash recovery to a transaction boundary, snapshot
isolation, pinning, gc):

1. flush the WAL (everything to be sealed is durable *before* the
   transaction starts);
2. bucket the tail rows below the watermark ``W`` onto the extract grid
   and merge them after the partition's committed rows;
3. ``ManifestTransaction``: intent -> content-addressed ``.sgx`` v4
   segment -> generation N+1, whose ``sealed_through`` sets the
   partition's watermark to ``W`` -> atomic pointer swap -> log reset;
4. rewrite the WAL keeping only rows ``>= W``, header watermark = ``W``.

The commit point is step 3's pointer swap, which publishes the segment
and ``W`` together.  A crash before it rolls the seal back (tail rows
still in the WAL, readers on generation N); a crash *after* it but before
step 4 leaves sealed rows in the WAL -- which is why the generation
carries ``W``: replay and reads dedupe against the committed snapshot's
watermark, so the rows surface exactly once however the crash lands.
Step 4 has its own fault point (:data:`SEAL_WAL_FAULT_POINT`) so the
crash harness can aim at precisely that window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.storage import columnar
from repro.storage.datalake import DataLakeStore, ExtractKey
from repro.storage.live import wal as livewal
from repro.storage.live.wal import NO_WATERMARK, TailFrame, TailWal
from repro.storage.manifest import FAULT_POINTS, fault_point
from repro.storage.query import ExtractQuery
from repro.timeseries.calendar import DEFAULT_INTERVAL_MINUTES, align_down
from repro.timeseries.frame import LoadFrame, ServerMetadata
from repro.timeseries.resample import regularize

__all__ = [
    "LIVE_FAULT_POINTS",
    "SEAL_WAL_FAULT_POINT",
    "LiveIngestError",
    "LiveIngestor",
    "SealReport",
    "StaleBatchError",
]

#: The one live-specific crash-injection point: fired between the seal
#: transaction's commit and the WAL trim that drops the sealed rows.
SEAL_WAL_FAULT_POINT = "live.wal.rewrite"

#: Every fault point a seal can crash at: the full manifest protocol plus
#: the post-commit WAL trim.
LIVE_FAULT_POINTS = FAULT_POINTS + (SEAL_WAL_FAULT_POINT,)


class LiveIngestError(RuntimeError):
    """A live-ingestion operation could not be carried out coherently."""


class StaleBatchError(LiveIngestError):
    """A batch carries rows below the partition's seal watermark.

    Those minutes are already durable in a committed, immutable ``.sgx``
    segment; accepting them would silently fork history.  The collector
    must drop or re-route late data explicitly.
    """


@dataclass(frozen=True)
class SealReport:
    """What one seal committed."""

    region: str
    week: int
    #: First minute of the sealed window (the previous watermark, or the
    #: earliest sealed bucket for a partition's first seal).
    window_start: int
    #: The new watermark ``W``: rows strictly below it are now committed.
    sealed_through: int
    #: Grid rows (post-bucketing) the seal appended to the partition.
    rows_sealed: int
    #: Servers that contributed sealed rows.
    servers: tuple[str, ...]
    #: Manifest generation the seal committed.
    generation: int
    #: Raw rows still live in the WAL after the trim.
    tail_rows_remaining: int

    @property
    def key(self) -> ExtractKey:
        return ExtractKey(region=self.region, week=self.week)


@dataclass
class _ActiveTail:
    wal: TailWal
    frames: list[TailFrame]
    watermark: int

    @property
    def rows(self) -> int:
        return sum(len(frame) for frame in self.frames)


class LiveIngestor:
    """Collector-side streaming writer for one lake.

    Parameters
    ----------
    store:
        The lake to ingest into.  Must be unpinned (sealing publishes
        new generations).
    interval_minutes:
        The extract grid sealed segments are bucketed onto.
    chunk_minutes:
        Seal boundary and ``.sgx`` chunking policy.  Defaults to the
        store's ``chunk_minutes`` (or the columnar per-day default); must
        be a positive multiple of ``interval_minutes``.
    fsync_every:
        Append batches between WAL fsyncs (1 = every batch durable).
    principal:
        Principal the ingestor acts as, checked against the store's
        allow-list up front and used for every seal write.

    Opening the ingestor replays every on-disk tail WAL: complete frames
    survive, a torn tail is dropped loudly, and rows below a committed
    seal watermark (a crash hit between commit and trim) are deduped --
    so a crashed collector loses at most the batches appended since the
    last fsync.
    """

    def __init__(
        self,
        store: DataLakeStore,
        *,
        interval_minutes: int = DEFAULT_INTERVAL_MINUTES,
        chunk_minutes: int | None = None,
        fsync_every: int = 16,
        principal: str | None = None,
    ) -> None:
        if store.pinned_generation is not None:
            raise ValueError("cannot ingest into a pinned (read-only) store")
        store.check_access(principal)
        if interval_minutes <= 0:
            raise ValueError("interval_minutes must be positive")
        if chunk_minutes is None:
            chunk_minutes = store.chunk_minutes
        if chunk_minutes is None:
            chunk_minutes = columnar.DEFAULT_CHUNK_MINUTES
        if chunk_minutes <= 0:
            raise ValueError("live sealing needs a positive chunk_minutes boundary")
        if chunk_minutes % interval_minutes != 0:
            raise ValueError(
                f"chunk_minutes ({chunk_minutes}) must be a multiple of "
                f"interval_minutes ({interval_minutes}) so seal boundaries "
                f"fall on grid points"
            )
        self._store = store
        self._root = store.root
        self._interval = int(interval_minutes)
        self._chunk = int(chunk_minutes)
        self._fsync_every = fsync_every
        self._principal = principal
        self._tails: dict[ExtractKey, _ActiveTail] = {}
        self._replay_existing()

    # ------------------------------------------------------------------ #

    def _replay_existing(self) -> None:
        for region, week in livewal.LiveTailIndex(self._root).keys():
            self._open_tail(ExtractKey(region=region, week=week))

    def _sealed_through(self, key: ExtractKey) -> int | None:
        """``key``'s watermark in the committed generation (``None``:
        never sealed)."""
        return self._store.manifest.current().sealed_through.get((key.region, key.week))

    def _open_tail(self, key: ExtractKey) -> _ActiveTail:
        """The partition's open tail, opening it against its committed
        seal watermark."""
        tail = self._tails.get(key)
        if tail is not None:
            return tail
        wal, replay = TailWal.open(
            livewal.wal_path(self._root, key.region, key.week),
            key.region,
            key.week,
            self._interval,
            fsync_every=self._fsync_every,
            watermark=self._sealed_through(key),
        )
        tail = _ActiveTail(wal=wal, frames=replay.frames, watermark=replay.sealed_through)
        self._tails[key] = tail
        return tail

    @property
    def store(self) -> DataLakeStore:
        return self._store

    @property
    def interval_minutes(self) -> int:
        return self._interval

    @property
    def chunk_minutes(self) -> int:
        """Seal boundary (and ``.sgx`` chunking) in minutes."""
        return self._chunk

    def tails(self) -> list[ExtractKey]:
        """Partitions with an open tail, sorted."""
        return sorted(self._tails)

    def pending_rows(self, key: ExtractKey | None = None) -> int:
        """Raw unsealed rows in one tail (or across all of them)."""
        if key is not None:
            tail = self._tails.get(key)
            return tail.rows if tail is not None else 0
        return sum(tail.rows for tail in self._tails.values())

    def watermark(self, key: ExtractKey) -> int:
        """The partition's seal watermark (:data:`NO_WATERMARK` if never
        sealed)."""
        tail = self._tails.get(key)
        if tail is not None:
            return tail.watermark
        sealed_through = self._sealed_through(key)
        return NO_WATERMARK if sealed_through is None else sealed_through

    # ------------------------------------------------------------------ #

    def ingest(
        self,
        key: ExtractKey,
        metadata: ServerMetadata,
        timestamps: np.ndarray,
        values: np.ndarray,
    ) -> int:
        """Append one batch of raw samples for one server; returns rows.

        The batch may be irregular (any sampling cadence); sealing buckets
        it onto the ``interval_minutes`` grid.  Rows below the partition's
        seal watermark raise :class:`StaleBatchError` -- those minutes are
        already immutable.  Durability is fsync-batched: the batch is
        crash-safe after the next ``fsync_every`` boundary or
        :meth:`flush`.
        """
        ts = np.ascontiguousarray(timestamps, dtype=np.int64)
        vs = np.ascontiguousarray(values, dtype=np.float64)
        if ts.shape != vs.shape or ts.ndim != 1:
            raise LiveIngestError("batch timestamps/values must be equal-length 1-d arrays")
        if ts.size == 0:
            return 0
        tail = self._open_tail(key)
        if tail.watermark != NO_WATERMARK and int(ts.min()) < tail.watermark:
            raise StaleBatchError(
                f"batch for {key} reaches back to minute {int(ts.min())}, below "
                f"the seal watermark {tail.watermark}; that window is already "
                f"committed and immutable"
            )
        tail.wal.append(metadata, ts, vs)
        tail.frames.append(TailFrame(metadata, ts, vs))
        return int(ts.size)

    def flush(self, key: ExtractKey | None = None) -> None:
        """Fsync one tail WAL (or all of them) now."""
        tails = [self._tails[key]] if key is not None else list(self._tails.values())
        for tail in tails:
            tail.wal.flush()

    # ------------------------------------------------------------------ #

    def seal(self, key: ExtractKey, through: int | None = None) -> SealReport | None:
        """Seal the partition's tail rows below ``through`` into the lake.

        ``through`` defaults to the last full ``chunk_minutes`` boundary
        covered by the tail and must be chunk-aligned (sealed segments
        end exactly on zone-map chunk edges).  Returns ``None`` when
        there is nothing below the boundary to seal; otherwise commits
        one manifest transaction merging the bucketed tail rows after the
        partition's committed rows and trims the WAL.
        """
        tail = self._tails.get(key)
        if tail is None or not tail.frames:
            return None
        if through is None:
            newest = max(int(frame.timestamps.max()) for frame in tail.frames)
            through = align_down(newest, self._chunk)
        elif through % self._chunk != 0:
            raise LiveIngestError(
                f"seal boundary {through} is not aligned to chunk_minutes "
                f"({self._chunk}); sealed segments must end on chunk edges"
            )
        if through <= tail.watermark:
            return None

        # Everything to be sealed must be durable in the WAL before the
        # manifest transaction starts, or a crash after the commit could
        # lose rows the segment claims to contain.
        tail.wal.flush()

        sealed: dict[str, tuple[ServerMetadata, list[np.ndarray], list[np.ndarray]]] = {}
        for frame in tail.frames:
            below = frame.timestamps < through
            if not below.any():
                continue
            slot = sealed.setdefault(frame.metadata.server_id, (frame.metadata, [], []))
            slot[1].append(frame.timestamps[below])
            slot[2].append(frame.values[below])
        if not sealed:
            return None

        base = self._store.query(
            ExtractQuery.for_key(key, interval_minutes=self._interval),
            principal=self._principal,
            include_tail=False,
        ).frame
        merged = LoadFrame(self._interval)
        for _server_id, metadata, series in base.items():
            merged.add_server(metadata, series)
        rows_sealed = 0
        window_start = through
        for server_id, (metadata, ts_parts, vs_parts) in sorted(sealed.items()):
            series = regularize(
                np.concatenate(ts_parts), np.concatenate(vs_parts), self._interval
            )
            rows_sealed += len(series)
            window_start = min(window_start, align_down(series.start, self._chunk))
            if server_id in merged:
                existing = merged.series(server_id)
                try:
                    combined = existing.concat(series)
                except ValueError as exc:
                    raise LiveIngestError(
                        f"tail rows for server {server_id!r} overlap the "
                        f"committed extract for {key} ({exc}); the lake was "
                        f"mutated out-of-band below the live watermark"
                    ) from exc
                merged.add_server(merged.metadata(server_id), combined, overwrite=True)
            else:
                merged.add_server(metadata, series)
        if tail.watermark != NO_WATERMARK:
            window_start = tail.watermark

        payload = columnar.frame_to_sgx_bytes(merged, chunk_minutes=self._chunk)
        manifest = self._store.manifest
        op = f"live-seal {key.region} week{key.week:04d} through {through}"
        with manifest.transaction(op) as txn:
            txn.stage(key.region, key.week, "sgx", payload)
            txn.set_sealed_through(key.region, key.week, through)
            txn.drop(key.region, key.week, "csv")
        generation = manifest.current().generation

        # -- committed.  The trim below is pure hygiene: if we crash here
        # (the fault point simulates exactly that), replay dedupes the
        # still-present sealed rows against the generation's watermark.
        fault_point(SEAL_WAL_FAULT_POINT)
        remaining: list[TailFrame] = []
        for frame in tail.frames:
            keep = frame.timestamps >= through
            if keep.all():
                remaining.append(frame)
            elif keep.any():
                remaining.append(
                    TailFrame(frame.metadata, frame.timestamps[keep], frame.values[keep])
                )
        tail.wal.rewrite(remaining, through)
        tail.frames = remaining
        tail.watermark = through
        return SealReport(
            region=key.region,
            week=key.week,
            window_start=window_start,
            sealed_through=through,
            rows_sealed=rows_sealed,
            servers=tuple(sorted(sealed)),
            generation=generation,
            tail_rows_remaining=tail.rows,
        )

    def seal_due(self, now_minute: int) -> list[SealReport]:
        """Seal every partition up to the chunk boundary at ``now_minute``.

        The collector's clock tick: ``align_down(now_minute,
        chunk_minutes)`` becomes the watermark for every tail that has
        rows below it.  Returns the (possibly empty) list of seals that
        committed.
        """
        boundary = align_down(now_minute, self._chunk)
        reports = []
        for key in self.tails():
            report = self.seal(key, boundary)
            if report is not None:
                reports.append(report)
        return reports

    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Flush and close every tail WAL (the tails stay on disk)."""
        for tail in self._tails.values():
            tail.wal.close()
        self._tails.clear()

    def __enter__(self) -> "LiveIngestor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
