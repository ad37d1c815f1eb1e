"""Transactional lake manifest: crash-safe, generation-numbered mutations.

The subsystem behind :class:`~repro.storage.datalake.DataLakeStore`'s
durability story (see :mod:`repro.storage.manifest.manifest` for the
on-disk layout and protocol):

* :class:`LakeManifest` -- one lake's generation-numbered manifest:
  ``current()`` / ``snapshot_at()`` for readers, ``transaction()`` for
  writers, ``collect_garbage()`` for explicit physical reclaim.
* :class:`ManifestSnapshot` / :class:`SegmentEntry` -- an immutable view
  of one committed generation and its content-addressed payload files.
* :mod:`~repro.storage.manifest.txlog` -- the log of the one transaction
  in flight, which recovery resolves (empty at rest).
* :mod:`~repro.storage.manifest.faults` -- the crash-injection hooks
  (:func:`fault_point`, :class:`InjectedCrash`) the test harness uses to
  kill writers at every step of the protocol.
"""

from repro.storage.manifest.faults import (
    InjectedCrash,
    fault_handler,
    fault_point,
    install_fault_handler,
)
from repro.storage.manifest.manifest import (
    FAULT_POINTS,
    LIVE_DIR_NAME,
    MANIFEST_DIR_NAME,
    GcReport,
    LakeManifest,
    LakeManifestError,
    LakeNotAdoptedError,
    LakeNotFoldedError,
    ManifestSnapshot,
    ManifestTransaction,
    SegmentEntry,
)
from repro.storage.manifest.txlog import PendingTransaction, TransactionLog

__all__ = [
    "FAULT_POINTS",
    "LIVE_DIR_NAME",
    "MANIFEST_DIR_NAME",
    "GcReport",
    "InjectedCrash",
    "LakeManifest",
    "LakeManifestError",
    "LakeNotAdoptedError",
    "LakeNotFoldedError",
    "ManifestSnapshot",
    "ManifestTransaction",
    "PendingTransaction",
    "SegmentEntry",
    "TransactionLog",
    "fault_handler",
    "fault_point",
    "install_fault_handler",
]
