"""In-place lake conversion between extract formats.

``python -m repro.fleet_ops convert`` migrates an existing lake from the
row-oriented CSV extracts the load-extraction query historically wrote to
the columnar ``.sgx`` format (or back).  Each extract is decoded from its
stored format, re-encoded, verified by frame content hash -- the converter
never trades durability for speed -- and only then is the source copy
dropped (when requested).  The rollup reports rows and bytes moved so an
operator can see what a migration bought before deleting sources.

Every write and delete here goes through the lake's API and therefore
through its transactional manifest (:mod:`repro.storage.manifest`): a
converted extract is staged as a content-addressed segment and published
as a new committed generation in one atomic pointer swap, so a crash
mid-conversion leaves the lake on the last committed generation -- never
a half-converted extract.  "Deleting" a source copy retires it from the
manifest; the bytes are reclaimed by the explicit ``gc`` pass
(``python -m repro.fleet_ops gc``), and readers pinned to an older
generation keep working until then.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.storage import columnar
from repro.storage.datalake import DataLakeStore, ExtractKey, check_format
from repro.storage.query import ExtractQuery
from repro.timeseries.calendar import DEFAULT_INTERVAL_MINUTES


def _read_stored_frame(
    lake: DataLakeStore, key: ExtractKey, fmt: str, principal: str | None
):
    """One stored copy of ``key`` as a frame, via the lake's query surface.

    ``interval_minutes=None`` preserves whatever interval the extract
    itself records (the converter must never rewrite it to the default).
    """
    query = ExtractQuery.for_key(key, interval_minutes=None, fmt=fmt)
    return lake.query(query, principal=principal).frame


class ConversionVerificationError(RuntimeError):
    """Raised when a freshly converted extract does not round-trip losslessly."""


@dataclass(frozen=True)
class ConversionRecord:
    """Outcome of converting one extract."""

    key: ExtractKey
    source_format: str
    target_format: str
    rows: int
    bytes_in: int
    bytes_out: int
    skipped: bool = False
    deleted_formats: tuple[str, ...] = ()
    bytes_freed: int = 0

    def as_dict(self) -> dict[str, object]:
        return {
            "region": self.key.region,
            "week": self.key.week,
            "source_format": self.source_format,
            "target_format": self.target_format,
            "rows": self.rows,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "skipped": self.skipped,
            "deleted_formats": list(self.deleted_formats),
            "bytes_freed": self.bytes_freed,
        }


@dataclass
class LakeConversionReport:
    """Rollup of one :func:`convert_lake` run."""

    to_format: str
    verified: bool
    deleted_source: bool
    records: list[ConversionRecord] = field(default_factory=list)

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
    def n_sources_deleted(self) -> int:
        return sum(len(record.deleted_formats) for record in self.records)

    @property
    def bytes_freed(self) -> int:
        return sum(record.bytes_freed for record in self.records)

    @property
    def size_ratio(self) -> float:
        """Converted size relative to source size (< 1.0 means smaller)."""
        return self.bytes_out / self.bytes_in if self.bytes_in else 0.0

    def as_dict(self) -> dict[str, object]:
        return {
            "to_format": self.to_format,
            "verified": self.verified,
            "deleted_source": self.deleted_source,
            "n_converted": self.n_converted,
            "n_skipped": self.n_skipped,
            "rows_converted": self.rows_converted,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "size_ratio": self.size_ratio,
            "n_sources_deleted": self.n_sources_deleted,
            "bytes_freed": self.bytes_freed,
            "extracts": [record.as_dict() for record in self.records],
        }

    def render_text(self) -> str:
        lines = [
            f"Lake conversion to .{self.to_format}: "
            f"{self.n_converted} extract(s) converted, {self.n_skipped} already current"
        ]
        for record in self.records:
            if record.skipped:
                note = ""
                if record.deleted_formats:
                    removed = ", ".join(f".{fmt}" for fmt in record.deleted_formats)
                    note = f"; removed stale {removed} copy ({record.bytes_freed} bytes)"
                lines.append(
                    f"  {record.key.region} week {record.key.week}: "
                    f"already .{record.target_format}{note}"
                )
            else:
                lines.append(
                    f"  {record.key.region} week {record.key.week}: "
                    f"{record.rows} rows, {record.bytes_in} -> {record.bytes_out} bytes "
                    f"(.{record.source_format} -> .{record.target_format})"
                )
        if self.n_converted:
            lines.append(
                f"Total: {self.rows_converted} rows, {self.bytes_in} -> {self.bytes_out} bytes "
                f"({self.size_ratio:.2f}x size), "
                f"verified={'yes' if self.verified else 'no'}, "
                f"sources {'deleted' if self.deleted_source else 'kept'}"
            )
        if self.n_sources_deleted:
            # A --delete-source run must never look like a no-op: say what
            # was removed even when every extract was already current.
            lines.append(
                f"Deleted {self.n_sources_deleted} source copy(ies), "
                f"freeing {self.bytes_freed} bytes"
            )
        return "\n".join(lines)


def _rechunk_sgx_in_place(
    lake: DataLakeStore,
    key: ExtractKey,
    frame,
    raw: bytes,
    verify: bool,
    chunk_minutes: int,
    principal: str | None,
) -> ConversionRecord | None:
    """Re-encode ``key``'s stored ``.sgx`` copy under a forced chunking
    policy; returns the record, or ``None`` when the stored bytes are
    already exactly what the policy would produce.

    Unlike a cross-format conversion, a re-chunk *overwrites its own
    source*, so with ``verify`` the new encoding is round-tripped in
    memory and compared by content hash **before** any write -- once the
    old file is gone there is nothing left to fall back to.  The exact
    verified bytes are what lands on disk (no re-encode in between).
    """
    new_bytes = columnar.frame_to_sgx_bytes(frame, chunk_minutes=chunk_minutes)
    if new_bytes == bytes(raw):
        return None
    if verify:
        round_tripped = columnar.frame_from_sgx_bytes(new_bytes, None)
        if round_tripped.content_hash() != frame.content_hash():
            raise ConversionVerificationError(
                f"re-chunked .sgx encoding of {key} does not round-trip "
                "losslessly; leaving the stored copy untouched"
            )
    lake.write_extract_bytes(
        key, "sgx", new_bytes, principal=principal, keep_other_formats=True
    )
    return ConversionRecord(
        key=key,
        source_format="sgx",
        target_format="sgx",
        rows=frame.total_points(),
        bytes_in=len(raw),
        bytes_out=len(new_bytes),
    )


def convert_lake(
    lake: DataLakeStore,
    to_format: str = "sgx",
    region: str | None = None,
    delete_source: bool = False,
    verify: bool = True,
    principal: str | None = None,
    chunk_minutes: int | None = None,
) -> LakeConversionReport:
    """Convert every extract in ``lake`` (optionally one region) to ``to_format``.

    Extracts already stored in the target format are health-checked (read
    back) and then skipped; a damaged target copy is dropped and
    re-converted from a healthy source-format copy instead of being
    trusted -- which is also what happens to an ``.sgx`` copy in a
    pre-v4 layout, which this reader rejects: with a CSV copy beside it
    it is re-converted from the CSV, alone it raises
    :class:`ConversionVerificationError` and nothing is published.
    ``chunk_minutes`` sets the ``.sgx`` chunking policy of converted
    extracts; passing it explicitly also forces already-current extracts
    to be re-chunked under that policy, verified in memory *before* the
    old file is overwritten -- a re-chunk rewrites its own source, so
    post-write rollback would be too late.  With
    ``verify`` (the default) the converted copy is read back and its frame
    content hash compared against the source frame; a mismatch raises
    :class:`ConversionVerificationError` and leaves the source untouched.
    The source copy is kept unless ``delete_source`` is set.
    """
    check_format(to_format)
    report = LakeConversionReport(
        to_format=to_format, verified=verify, deleted_source=delete_source
    )
    for key in lake.list_extracts(region, principal=principal):
        formats = lake.extract_formats(key, principal=principal)
        if to_format in formats:
            # Already current -- but only trust the stored target copy if
            # it actually reads back; a damaged one is dropped and
            # re-converted from a healthy source below.  For .sgx the
            # bytes are fetched once and parsed in memory, so a forced
            # re-chunk costs no second disk read.
            raw = None
            try:
                if to_format == "sgx":
                    _fmt, raw = lake.read_extract_bytes(key, principal=principal, fmt="sgx")
                    target = columnar.frame_from_sgx_bytes(raw, None)
                else:
                    target = _read_stored_frame(lake, key, to_format, principal)
            except ValueError as exc:
                if len(formats) == 1:
                    raise ConversionVerificationError(
                        f"stored .{to_format} copy of {key} is unreadable and no "
                        f"other format exists to re-convert it from: {exc}"
                    ) from exc
                lake.delete_extract(key, principal=principal, fmt=to_format)
                formats = tuple(fmt for fmt in formats if fmt != to_format)
            else:
                rechunk_record = None
                if raw is not None and chunk_minutes is not None:
                    # With the policy forced, a differently chunked .sgx
                    # copy is not "already current": re-encode it in place.
                    rechunk_record = _rechunk_sgx_in_place(
                        lake, key, target, raw, verify, chunk_minutes, principal
                    )
                # With ``delete_source`` the leftover source copies (e.g.
                # from an earlier run without the flag) still have to go,
                # after the same lossless check.
                leftovers = [fmt for fmt in formats if fmt != to_format]
                freed = 0
                if delete_source and leftovers:
                    if verify:
                        for leftover in leftovers:
                            source = _read_stored_frame(lake, key, leftover, principal)
                            if source.content_hash() != target.content_hash():
                                raise ConversionVerificationError(
                                    f"existing .{to_format} copy of {key} disagrees with "
                                    f"its .{leftover} copy; refusing to delete the source"
                                )
                    for leftover in leftovers:
                        freed += lake.extract_size_bytes(key, principal=principal, fmt=leftover)
                        lake.delete_extract(key, principal=principal, fmt=leftover)
                deleted = tuple(leftovers) if delete_source and leftovers else ()
                record = (
                    replace(rechunk_record, deleted_formats=deleted, bytes_freed=freed)
                    if rechunk_record is not None
                    else ConversionRecord(
                        key=key,
                        source_format=to_format,
                        target_format=to_format,
                        rows=0,
                        bytes_in=0,
                        bytes_out=0,
                        skipped=True,
                        deleted_formats=deleted,
                        bytes_freed=freed,
                    )
                )
                report.records.append(record)
                continue
        source_format = formats[0]
        bytes_in = lake.extract_size_bytes(key, principal=principal, fmt=source_format)
        frame = _read_stored_frame(lake, key, source_format, principal)
        if to_format == "csv":
            # The row-oriented CSV schema cannot represent a server with
            # zero samples; converting would silently drop its metadata.
            # Refuse before writing anything so the source stays intact.
            empty = [sid for sid, _metadata, series in frame.items() if series.is_empty]
            if empty:
                raise ConversionVerificationError(
                    f"extract for {key} holds server(s) with no samples "
                    f"({', '.join(empty[:3])}{'...' if len(empty) > 3 else ''}); "
                    "the CSV schema cannot represent them -- keeping the "
                    f".{source_format} copy"
                )
            if frame.interval_minutes != DEFAULT_INTERVAL_MINUTES:
                # Guarded even with verify=False: CSV carries no interval
                # column, so the recorded interval would be irrecoverable.
                raise ConversionVerificationError(
                    f"extract for {key} records a {frame.interval_minutes}-minute "
                    "sampling interval; the CSV schema cannot carry it -- "
                    f"keeping the .{source_format} copy"
                )
        rows = lake.write_extract(
            key,
            frame,
            principal=principal,
            fmt=to_format,
            keep_other_formats=True,
            chunk_minutes=chunk_minutes,
        )
        if verify:
            round_tripped = _read_stored_frame(lake, key, to_format, principal)
            if round_tripped.content_hash() != frame.content_hash():
                lake.delete_extract(key, principal=principal, fmt=to_format)
                detail = ""
                if round_tripped.interval_minutes != frame.interval_minutes:
                    detail = (
                        f" (the .{to_format} schema cannot represent its "
                        f"{frame.interval_minutes}-minute sampling interval)"
                    )
                raise ConversionVerificationError(
                    f"converted extract for {key} does not round-trip losslessly"
                    f"{detail}; source .{source_format} kept"
                )
        bytes_out = lake.extract_size_bytes(key, principal=principal, fmt=to_format)
        if delete_source:
            lake.delete_extract(key, principal=principal, fmt=source_format)
        report.records.append(
            ConversionRecord(
                key=key,
                source_format=source_format,
                target_format=to_format,
                rows=rows,
                bytes_in=bytes_in,
                bytes_out=bytes_out,
                deleted_formats=(source_format,) if delete_source else (),
                bytes_freed=bytes_in if delete_source else 0,
            )
        )
    return report
