"""Streaming ingestion for the lake: live tails + sealed segments.

The subsystem that turns the batch-only lake into an append-capable one
(the collector -> tsdb shape of the paper's operational setting):

* :mod:`~repro.storage.live.wal` -- the append-only, CRC-framed tail WAL
  under ``_manifest/live/`` and its read-side
  :class:`~repro.storage.live.wal.LiveTailIndex` (what
  :meth:`~repro.storage.datalake.DataLakeStore.query` consults to answer
  from committed segments *plus* the live tail).
* :mod:`~repro.storage.live.ingest` -- :class:`LiveIngestor`, the
  collector-side writer: fsync-batched appends, crash replay, and the
  seal protocol that publishes tail windows as immutable ``.sgx``
  segments through ordinary manifest transactions.

This package is the sole owner of ``tail.wal`` bytes; the
``live-boundary`` lint rule keeps every other module out.
"""

from repro.storage.live.ingest import (
    LIVE_FAULT_POINTS,
    SEAL_WAL_FAULT_POINT,
    LiveIngestError,
    LiveIngestor,
    SealReport,
    StaleBatchError,
)
from repro.storage.live.wal import (
    LIVE_DIR_NAME,
    NO_WATERMARK,
    LiveTailIndex,
    LiveWalError,
    LiveWalWarning,
    TailSnapshot,
    live_dir,
    wal_path,
)

__all__ = [
    "LIVE_DIR_NAME",
    "LIVE_FAULT_POINTS",
    "NO_WATERMARK",
    "SEAL_WAL_FAULT_POINT",
    "LiveIngestError",
    "LiveIngestor",
    "LiveTailIndex",
    "LiveWalError",
    "LiveWalWarning",
    "SealReport",
    "StaleBatchError",
    "TailSnapshot",
    "live_dir",
    "wal_path",
]
