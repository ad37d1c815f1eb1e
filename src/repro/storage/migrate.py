"""The lake's adoption and CSV import edges, and in-place ``.sgx`` re-chunking.

A lake stores ``.sgx`` segments only.  ``python -m repro.fleet_ops
convert`` is how anything else gets in.  On a directory whose extract
files predate the manifest it first adopts them
(:func:`adopt_legacy_files`): one transaction stages each file's bytes as
a content-addressed entry with its sha256.  On a lake whose generations
predate seal watermarks it folds them in from the transaction log
(:func:`fold_seal_watermarks`).  Then :func:`convert_lake`
turns every CSV manifest entry into a verified segment -- this module is
the only caller of :func:`repro.storage.csv_io.frame_from_csv_text` --
and health-checks (and, on request, re-chunks) the segments already
there.

Every key is one transaction through the lake's write API
(:mod:`repro.storage.manifest`): a crash mid-conversion leaves the key
on its last committed entry -- CSV or ``.sgx``, never both by this
module's doing, never neither.  Retired CSV bytes stay on disk, and
readers pinned to an older generation keep working, until the explicit
``gc`` pass (``python -m repro.fleet_ops gc``).
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field

from repro.storage import columnar, csv_io
from repro.storage.datalake import DataLakeStore, ExtractKey
from repro.storage.manifest import LakeManifest, SegmentEntry, TransactionLog
from repro.storage.manifest.manifest import _fsync_dir
from repro.timeseries.calendar import DEFAULT_INTERVAL_MINUTES
from repro.timeseries.frame import LoadFrame


class ConversionVerificationError(RuntimeError):
    """Raised when a conversion cannot be shown to be lossless."""


@dataclass(frozen=True)
class ConversionRecord:
    """Outcome of converting one extract."""

    key: ExtractKey
    #: ``"csv"`` for an import; ``"sgx"`` for a re-chunk or a segment
    #: that was already current (``skipped``).
    source_format: str
    rows: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    skipped: bool = False
    #: Size of the CSV entry this conversion retired from the manifest
    #: (``None``: the key had none); reclaimed by the next ``gc``.
    csv_bytes_retired: int | None = None

    def as_dict(self) -> dict[str, object]:
        return {
            "region": self.key.region,
            "week": self.key.week,
            "source_format": self.source_format,
            "rows": self.rows,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "skipped": self.skipped,
            "csv_bytes_retired": self.csv_bytes_retired,
        }


@dataclass
class LakeConversionReport:
    """Rollup of one :func:`convert_lake` run."""

    verified: bool
    records: list[ConversionRecord] = field(default_factory=list)
    #: ``(relpath, bytes)`` of the pre-manifest files adopted first; they
    #: stay on disk, untouched (see :func:`adopt_legacy_files`).
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
    def n_csv_retired(self) -> int:
        return sum(1 for record in self.records if record.csv_bytes_retired is not None)

    @property
    def csv_bytes_retired(self) -> int:
        return sum(record.csv_bytes_retired or 0 for record in self.records)

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
            "n_csv_retired": self.n_csv_retired,
            "csv_bytes_retired": self.csv_bytes_retired,
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
                f"Adopted {len(self.adopted)} pre-manifest file(s) into the manifest "
                "(originals left in place):"
            )
            lines += [f"  {relpath} ({size} bytes)" for relpath, size in self.adopted]
        for record in self.records:
            where = f"  {record.key.region} week {record.key.week}: "
            if record.skipped:
                note = ""
                if record.csv_bytes_retired is not None:
                    note = f"; retired its CSV entry ({record.csv_bytes_retired} bytes)"
                lines.append(f"{where}already .sgx{note}")
            else:
                lines.append(
                    f"{where}{record.rows} rows, {record.bytes_in} -> {record.bytes_out} "
                    f"bytes (.{record.source_format} -> .sgx)"
                )
        if self.n_converted:
            lines.append(
                f"Total: {self.rows_converted} rows, {self.bytes_in} -> {self.bytes_out} bytes "
                f"({self.size_ratio:.2f}x size), "
                f"verified={'yes' if self.verified else 'no'}"
            )
        if self.n_csv_retired:
            lines.append(
                f"Retired {self.n_csv_retired} CSV entry(ies); "
                f"gc reclaims their {self.csv_bytes_retired} bytes"
            )
        return "\n".join(lines)


def adopt_legacy_files(manifest: LakeManifest) -> tuple[tuple[str, int], ...]:
    """Adopt the extract files of a directory that predates the manifest.

    Every legacy-named file (:meth:`LakeManifest.legacy_files`) is staged
    byte for byte, under its content-addressed name and with its sha256,
    in one ``adopt`` transaction; a crash in it rolls back like any other
    and the next call adopts again.  The originals stay where they are,
    untouched, and are returned as ``(relpath, bytes)``.  A lake that
    already has a committed generation, or holds no legacy file, is left
    exactly as it is.
    """
    legacy = [] if manifest.exists() else manifest.legacy_files()
    if not legacy:
        return ()
    with manifest.transaction("adopt") as txn:
        return tuple(
            (f"{region}/{path.name}", txn.stage(region, week, fmt, path.read_bytes()).size)
            for region, week, fmt, path in legacy
        )


#: How a store from before watermarks in generations labelled a seal
#: transaction; its committed seals are the only place it kept ``W``.
_SEAL_OP_RE = re.compile(
    r"^live-seal (?P<region>.+) week(?P<week>\d+) through (?P<through>-?\d+)$"
)


def fold_seal_watermarks(manifest: LakeManifest) -> None:
    """Fold a lake's seal watermarks from its transaction log into a
    generation, if a store from before watermarks in generations wrote it.

    Such a store kept every record it ever logged and each seal's
    watermark only in the seal's op.  The fold moves that log aside, so
    the transaction it commits starts on an empty log, takes the highest
    committed ``W`` of each partition -- a seal whose intent is followed
    by a ``commit`` record, a ``recovered`` one with ``action="commit"``,
    or that the pointer names (only its record was lost) -- and commits
    one generation carrying them, possibly none.  A crash before the
    pointer swap leaves the lake unfolded with the log still aside, so the
    next fold reads it from there.  Any other lake is left as it is.
    """
    aside = manifest.log.path.with_name("txlog.unfolded.jsonl")
    head = manifest.unfolded()
    if head is None:
        aside.unlink(missing_ok=True)  # a fold that crashed after its commit
        return
    if not aside.exists() and manifest.log.path.exists():
        os.replace(manifest.log.path, aside)
        _fsync_dir(aside.parent)
    seals: dict[object, tuple[tuple[str, int], int]] = {}
    committed = {head.txid}
    for record in TransactionLog(aside).records():
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
    with manifest.transaction("fold seal watermarks") as txn:
        for (region, week), through in sorted(watermarks.items()):
            txn.set_sealed_through(region, week, through)
    aside.unlink(missing_ok=True)


def _check_round_trip(key: ExtractKey, frame: LoadFrame, payload: bytes) -> None:
    """Decode ``payload`` in memory and compare it with ``frame`` by content
    hash -- before any write, because what the bytes replace may be the
    only other copy.  The caller lands exactly the bytes checked here."""
    if columnar.frame_from_sgx_bytes(payload).content_hash() != frame.content_hash():
        raise ConversionVerificationError(
            f".sgx encoding of {key} does not round-trip losslessly; "
            "leaving the stored entry untouched"
        )


def _csv_entry_frame(lake: DataLakeStore, entry: SegmentEntry) -> LoadFrame:
    """Parse a CSV manifest entry: the import edge.  The lake's read API
    does not read CSV, so the bytes come from where the manifest says
    they are; the schema records no interval, so the canonical grid."""
    text = (lake.root / entry.relpath).read_bytes().decode("utf-8")
    return csv_io.frame_from_csv_text(text, DEFAULT_INTERVAL_MINUTES)


def _import_csv(
    lake: DataLakeStore,
    key: ExtractKey,
    csv_entry: SegmentEntry,
    verify: bool,
    principal: str | None,
    chunk_minutes: int | None,
) -> ConversionRecord:
    """Stage ``csv_entry``'s frame as ``key``'s segment and retire the
    entry, in one transaction."""
    frame = _csv_entry_frame(lake, csv_entry)
    if chunk_minutes is None:
        chunk_minutes = lake.chunk_minutes
    payload = columnar.frame_to_sgx_bytes(frame, chunk_minutes=chunk_minutes)
    if verify:
        _check_round_trip(key, frame, payload)
    lake.write_extract_bytes(key, payload, principal=principal)
    return ConversionRecord(
        key,
        "csv",
        rows=frame.total_points(),
        bytes_in=csv_entry.size,
        bytes_out=len(payload),
        csv_bytes_retired=csv_entry.size,
    )


def _check_segment(
    lake: DataLakeStore,
    key: ExtractKey,
    csv_entry: SegmentEntry | None,
    verify: bool,
    principal: str | None,
    chunk_minutes: int | None,
) -> ConversionRecord | None:
    """Health-check ``key``'s stored segment, re-chunk it when the policy
    is forced, retire a CSV entry still beside it.  ``None`` means the
    segment is unreadable and ``csv_entry`` is there to re-import from."""
    raw = lake.read_extract_bytes(key, principal=principal)
    try:
        stored = columnar.frame_from_sgx_bytes(raw)
    except ValueError as exc:
        if csv_entry is not None:
            return None
        raise ConversionVerificationError(
            f"stored .sgx segment of {key} is unreadable and the key has no "
            f"CSV entry to re-import it from: {exc}"
        ) from exc
    if (
        csv_entry is not None
        and verify
        and _csv_entry_frame(lake, csv_entry).content_hash() != stored.content_hash()
    ):
        raise ConversionVerificationError(
            f"the CSV entry of {key} disagrees with its .sgx segment; refusing to retire it"
        )
    # With the policy forced, a differently chunked segment is not
    # "already current": re-encode it in place.
    payload = raw
    if chunk_minutes is not None:
        payload = columnar.frame_to_sgx_bytes(stored, chunk_minutes=chunk_minutes)
        if verify and payload != raw:
            _check_round_trip(key, stored, payload)
    if payload != raw or csv_entry is not None:
        lake.write_extract_bytes(key, payload, principal=principal)
    retired = csv_entry.size if csv_entry is not None else None
    if payload == raw:
        return ConversionRecord(key, "sgx", skipped=True, csv_bytes_retired=retired)
    return ConversionRecord(
        key,
        "sgx",
        rows=stored.total_points(),
        bytes_in=len(raw),
        bytes_out=len(payload),
        csv_bytes_retired=retired,
    )


def convert_lake(
    lake: DataLakeStore,
    *,
    region: str | None = None,
    verify: bool = True,
    principal: str | None = None,
    chunk_minutes: int | None = None,
) -> LakeConversionReport:
    """Import every CSV entry of ``lake`` (optionally one region) as an
    ``.sgx`` segment and health-check the segments already there.

    Per key, one transaction:

    * **CSV entry only** -- parsed, encoded under ``chunk_minutes``
      (default: the lake's policy), verified, then staged while the CSV
      entry is retired.
    * **readable segment** -- skipped as already current; passing
      ``chunk_minutes`` explicitly re-chunks it under that policy unless
      its bytes already are what the policy produces.  A CSV entry beside
      it is retired once its content hash equals the segment's; a
      mismatch raises :class:`ConversionVerificationError`.
    * **unreadable segment** (damaged, or a pre-v4 layout this reader
      rejects) -- re-imported from the CSV entry beside it; alone it
      raises :class:`ConversionVerificationError`.

    With ``verify`` (the default) every new encoding is round-tripped in
    memory and compared by frame content hash before it is written, and
    no CSV entry is retired unchecked; a failure raises and publishes
    nothing for that key.  A lake with nothing left to do publishes no
    generation.
    """
    report = LakeConversionReport(verified=verify)
    for key in lake.list_extracts(region, principal=principal):
        snap = lake.manifest.current()
        csv_entry = snap.entry(key.region, key.week, "csv")
        record = None
        if snap.entry(key.region, key.week, "sgx") is not None:
            record = _check_segment(lake, key, csv_entry, verify, principal, chunk_minutes)
        if record is None and csv_entry is not None:
            record = _import_csv(lake, key, csv_entry, verify, principal, chunk_minutes)
        if record is not None:
            report.records.append(record)
    return report
