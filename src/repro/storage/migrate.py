"""The lake's adoption edge, and in-place ``.sgx`` re-chunking.

A lake stores ``.sgx`` segments only.  ``python -m repro.fleet_ops
convert`` starts with one ``adopt`` transaction
(:func:`adopt_legacy_files`), which takes in whatever an older store
left:

* the extract files of a directory that predates the manifest;
* the CSV entries of a committed generation, which no store opens;
* the seal watermarks of a lake whose generations predate them, folded
  in from its transaction log.

That transaction is the lake's one CSV -> ``.sgx`` edge -- this module
is the only caller of :func:`repro.storage.csv_io.frame_from_csv_text`.
Then :func:`convert_lake` health-checks (and, on request, re-chunks)
every segment, one transaction per key.  A crash anywhere leaves the
lake on its last committed generation.  Files taken in stay on disk:
legacy-named ones for good, retired entries until the explicit ``gc``
pass (``python -m repro.fleet_ops gc``).
"""

from __future__ import annotations

import os
import re
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.storage import columnar, csv_io
from repro.storage.datalake import DataLakeStore, ExtractKey
from repro.storage.manifest import LakeManifest, TransactionLog
from repro.storage.manifest.manifest import _fsync_dir
from repro.timeseries.calendar import DEFAULT_INTERVAL_MINUTES
from repro.timeseries.frame import LoadFrame


class ConversionVerificationError(RuntimeError):
    """Raised when a conversion cannot be shown to be lossless."""


@dataclass(frozen=True)
class ConversionRecord:
    """Outcome of health-checking (and maybe re-chunking) one segment."""

    key: ExtractKey
    rows: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    #: The segment was already current: nothing was written.
    skipped: bool = False

    def as_dict(self) -> dict[str, object]:
        fields = asdict(self)
        return {**fields.pop("key"), **fields}  # region, week, then the counts


@dataclass
class LakeConversionReport:
    """Rollup of one :func:`convert_lake` run."""

    verified: bool
    records: list[ConversionRecord] = field(default_factory=list)
    #: ``(relpath, bytes)`` of the files adopted first; they stay on disk,
    #: untouched (see :func:`adopt_legacy_files`).
    adopted: tuple[tuple[str, int], ...] = ()

    @property
    def n_converted(self) -> int:
        return sum(1 for record in self.records if not record.skipped)

    @property
    def n_skipped(self) -> int:
        return sum(1 for record in self.records if record.skipped)

    @property
    def rows_converted(self) -> int:
        return sum(record.rows for record in self.records if not record.skipped)

    @property
    def bytes_in(self) -> int:
        return sum(record.bytes_in for record in self.records if not record.skipped)

    @property
    def bytes_out(self) -> int:
        return sum(record.bytes_out for record in self.records if not record.skipped)

    @property
    def size_ratio(self) -> float:
        """Converted size relative to source size (< 1.0 means smaller)."""
        return self.bytes_out / self.bytes_in if self.bytes_in else 0.0

    def as_dict(self) -> dict[str, object]:
        return {
            "verified": self.verified,
            "n_converted": self.n_converted,
            "n_skipped": self.n_skipped,
            "rows_converted": self.rows_converted,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "size_ratio": self.size_ratio,
            "extracts": [record.as_dict() for record in self.records],
            "adopted": [{"relpath": relpath, "bytes": size} for relpath, size in self.adopted],
        }

    def render_text(self) -> str:
        lines = [
            f"Lake conversion: {self.n_converted} extract(s) converted, "
            f"{self.n_skipped} already current"
        ]
        if self.adopted:
            lines.append(
                f"Adopted {len(self.adopted)} file(s) an older store left into the manifest "
                "(originals left in place):"
            )
            lines += [f"  {relpath} ({size} bytes)" for relpath, size in self.adopted]
        for record in self.records:
            where = f"  {record.key.region} week {record.key.week}: "
            if record.skipped:
                lines.append(f"{where}already current")
            else:
                lines.append(
                    f"{where}{record.rows} rows, {record.bytes_in} -> {record.bytes_out} "
                    "bytes (re-chunked)"
                )
        if self.n_converted:
            lines.append(
                f"Total: {self.rows_converted} rows, {self.bytes_in} -> {self.bytes_out} bytes "
                f"({self.size_ratio:.2f}x size), "
                f"verified={'yes' if self.verified else 'no'}"
            )
        return "\n".join(lines)


def adopt_legacy_files(manifest: LakeManifest) -> tuple[tuple[str, int], ...]:
    """Adopt what an older store left, in one ``adopt`` transaction.

    * Legacy-named files (:meth:`LakeManifest.legacy_files`) of a
      directory with no committed generation: an ``.sgx`` file is staged
      byte for byte, a ``.csv`` one as its ``.sgx`` encoding.
    * CSV entries of the committed generation: every key they name is
      staged anew, so its successor holds none.
    * Seal watermarks of a generation from before they were kept in
      generations: folded in from the log (:func:`_folded_watermarks`).

    A CSV source beside an ``.sgx`` one for the same key (two legacy
    files, or a CSV entry beside a segment) follows three rules: a
    readable segment holding the same frame, by content hash, is kept
    and the CSV dropped; one holding another frame raises
    :class:`ConversionVerificationError`; one the reader rejects is
    replaced by the CSV's encoding.  Every encoding is decoded in memory
    and compared by content hash before it is staged.  A failure or a
    crash publishes nothing, and the next call adopts again.  The files
    taken in stay where they are, untouched, and are returned as
    ``(relpath, bytes)``.  A lake with nothing to adopt is left as it is.
    """
    aside = manifest.log.path.with_name("txlog.unfolded.jsonl")
    head = manifest.head()  # without recovery: an unfolded lake's log is history
    if head.unfolded and not aside.exists() and manifest.log.path.exists():
        # It moves aside, so the adoption starts on an empty log and reads
        # the history there.
        os.replace(manifest.log.path, aside)
        _fsync_dir(aside.parent)
    legacy = manifest.legacy_files()
    if not head.unfolded and not legacy and not head.unimported:
        aside.unlink(missing_ok=True)  # an adoption that crashed after its commit
        return ()
    with manifest.transaction("adopt") as txn:
        if head.unfolded:
            for (region, week), through in _folded_watermarks(aside, head.txid).items():
                txn.set_sealed_through(region, week, through)
        base = txn.base
        segments = {(r, w): path for r, w, fmt, path in legacy if fmt == "sgx"}
        texts = {(r, w): path for r, w, fmt, path in legacy if fmt == "csv"}
        for entry in base.unimported:
            key = (entry.region, entry.week)
            texts[key] = manifest.root / entry.relpath
            sibling = base.entry(*key)
            if sibling is not None:
                segments[key] = manifest.root / sibling.relpath
        # One key's bytes in memory at a time.
        for key in sorted(segments.keys() - texts.keys()):
            txn.stage(*key, segments[key].read_bytes())
        for key in sorted(texts):
            segment = segments[key].read_bytes() if key in segments else None
            where = "{} week {}".format(*key)
            txn.stage(*key, _adopted_csv(where, texts[key].read_bytes(), segment))
    aside.unlink(missing_ok=True)
    files = tuple((f"{region}/{path.name}", path.stat().st_size) for region, _, _, path in legacy)
    return files + tuple((entry.relpath, entry.size) for entry in base.unimported)


def _adopted_csv(where: str, text: bytes, segment: bytes | None) -> bytes:
    """The segment a CSV source leaves its key with, under the rules of
    :func:`adopt_legacy_files`.  The schema records no interval, so the
    text is read on the canonical grid."""
    frame = csv_io.frame_from_csv_text(text.decode("utf-8"), DEFAULT_INTERVAL_MINUTES)
    if segment is not None:
        try:
            stored = columnar.frame_from_sgx_bytes(segment)
        except ValueError:
            pass  # the reader rejects the segment: the CSV's encoding replaces it
        else:
            if stored.content_hash() != frame.content_hash():
                raise ConversionVerificationError(
                    f"the CSV source of {where} disagrees with its .sgx segment; adopting nothing"
                )
            return segment
    payload = columnar.frame_to_sgx_bytes(frame)
    _check_round_trip(where, frame, payload)
    return payload


#: How a store from before watermarks in generations labelled a seal
#: transaction; its committed seals are the only place it kept ``W``.
_SEAL_OP_RE = re.compile(
    r"^live-seal (?P<region>.+) week(?P<week>\d+) through (?P<through>-?\d+)$"
)


def _folded_watermarks(log: Path, head_txid: object) -> dict[tuple[str, int], int]:
    """The highest committed seal watermark of each partition, from the
    whole log a store from before watermarks in generations kept.  A
    seal committed if its intent is followed by a ``commit`` record, by a
    ``recovered`` one with ``action="commit"``, or if the pointer names
    it (``head_txid``: only its record was lost)."""
    seals: dict[object, tuple[tuple[str, int], int]] = {}
    committed = {head_txid}
    for record in TransactionLog(log).records():
        if not isinstance(record, dict):
            continue
        match = _SEAL_OP_RE.match(str(record.get("op", "")))
        if record.get("type") == "intent" and match is not None:
            key = (match.group("region"), int(match.group("week")))
            seals[record.get("txid")] = (key, int(match.group("through")))
        elif record.get("type") in ("commit", "recovered") and (
            record.get("action", "commit") == "commit"
        ):
            committed.add(record.get("txid"))
    watermarks: dict[tuple[str, int], int] = {}
    for txid, (key, through) in seals.items():
        if txid in committed:
            watermarks[key] = max(through, watermarks.get(key, through))
    return watermarks


def _check_round_trip(where: str, frame: LoadFrame, payload: bytes) -> None:
    """Decode ``payload`` in memory and compare it with ``frame`` by content
    hash -- before any write, because what the bytes replace may be the
    only other copy.  The caller lands exactly the bytes checked here."""
    if columnar.frame_from_sgx_bytes(payload).content_hash() != frame.content_hash():
        raise ConversionVerificationError(
            f".sgx encoding of {where} does not round-trip losslessly; "
            "leaving the stored entry untouched"
        )


def convert_lake(
    lake: DataLakeStore,
    *,
    region: str | None = None,
    verify: bool = True,
    chunk_minutes: int | None = None,
) -> LakeConversionReport:
    """Health-check every segment of ``lake`` (optionally one region).

    A readable segment is already current and skipped -- unless
    ``chunk_minutes`` is passed, which re-chunks it under that policy,
    one transaction per key, when its bytes are not already what the
    policy produces.  An unreadable one (damaged, or a pre-v4 layout
    this reader rejects) raises :class:`ConversionVerificationError`.
    With ``verify`` (the default) every re-chunked encoding is
    round-tripped in memory and compared by frame content hash before it
    is written.  A lake with nothing to do publishes no generation.
    """
    report = LakeConversionReport(verified=verify)
    for key in lake.list_extracts(region):
        raw = lake.extract_path(key).read_bytes()
        try:
            stored = columnar.frame_from_sgx_bytes(raw)
        except ValueError as exc:
            raise ConversionVerificationError(
                f"stored .sgx segment of {key} is unreadable (re-extract it or restore "
                f"that file): {exc}"
            ) from exc
        payload = raw
        if chunk_minutes is not None:
            payload = columnar.frame_to_sgx_bytes(stored, chunk_minutes=chunk_minutes)
        if payload == raw:
            report.records.append(ConversionRecord(key, skipped=True))
            continue
        if verify:
            _check_round_trip(str(key), stored, payload)
        lake.write_extract_bytes(key, payload)
        report.records.append(
            ConversionRecord(key, stored.total_points(), bytes_in=len(raw), bytes_out=len(payload))
        )
    return report
