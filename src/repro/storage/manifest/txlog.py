"""The manifest's write-ahead log: the one transaction in flight.

After Zhou et al.'s partially constrained logs, it holds only what
recovery needs.  Each record is one JSON line, appended with ``flush +
fsync`` before the transaction's next durable step:

``intent``
    A transaction started on top of generation ``generation_from``.
``staged``
    It published one content-addressed segment file (``reused``: the
    file already existed, so rollback must keep it).

Transactions hold one exclusive writer lock, and every resolution -- the
commit after its pointer swap, an abort, crash recovery -- resets the
log to empty: at rest it is empty, otherwise it holds one transaction.
A torn line (a crash mid-append) was never acknowledged and is skipped.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any

__all__ = ["PendingTransaction", "TransactionLog"]


@dataclass
class PendingTransaction:
    """The unresolved transaction a non-empty log holds."""

    txid: str
    generation_from: int
    #: ``(relpath, reused)`` of every segment durably staged, in order.
    staged: list[tuple[str, bool]]


def _checked(record: Any, kind: str, **types: type) -> dict[str, Any]:
    """``record``, if it is a ``kind`` record whose fields have ``types``."""
    if isinstance(record, dict) and record.get("type") == kind and all(
        type(record.get(name)) is want for name, want in types.items()
    ):
        return record
    raise ValueError(f"not a well-formed {kind} record: {record!r}")


class TransactionLog:
    """One lake's transaction log (``_manifest/txlog.jsonl``)."""

    def __init__(self, path: Path) -> None:
        self.path = path

    def append(self, record: dict[str, object]) -> None:
        """Durably append one record: returns once it survives a crash."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("ab") as handle:
            handle.write(json.dumps(record, sort_keys=True).encode("utf-8") + b"\n")
            handle.flush()
            os.fsync(handle.fileno())

    def reset(self) -> None:
        """Durably empty the log; a no-op when it is empty or absent."""
        if self.path.exists() and self.path.stat().st_size:
            with self.path.open("r+b") as handle:
                handle.truncate(0)
                os.fsync(handle.fileno())

    def records(self) -> list[Any]:
        """Every complete record, oldest first (torn lines are skipped)."""
        try:
            lines = self.path.read_bytes().splitlines()
        except FileNotFoundError:
            return []
        records = []
        for line in lines:
            with contextlib.suppress(ValueError):  # a torn append, never acknowledged
                records.append(json.loads(line))
        return records

    def pending(self) -> PendingTransaction | None:
        """The transaction the log holds, if any.  Raises :class:`ValueError`
        unless the log is one ``intent`` record and ``staged`` records."""
        records = self.records()
        if not records:
            return None
        intent = _checked(records[0], "intent", txid=str, generation_from=int)
        staged = [_checked(r, "staged", relpath=str, reused=bool) for r in records[1:]]
        pairs = [(record["relpath"], record["reused"]) for record in staged]
        return PendingTransaction(intent["txid"], intent["generation_from"], pairs)
