"""Partitioned extract store standing in for Azure Data Lake Store.

The load-extraction query writes one extract file per ``(region, week)``;
the AML pipeline later picks up the extract for the region it is scheduled
on (Section 2.2).  :class:`DataLakeStore` reproduces that contract on the
local filesystem: the "location of input data in ADLS" knob of Section
2.4 is its ``root``.  The "access rights to this data" are the store's
own (ADLS's), not something this process checks.

A lake stores, queries and writes one format: the binary columnar
``.sgx`` of :mod:`repro.storage.columnar` (column buffers become arrays
without a copy or a parse; zone maps, server filters and chunk statistics
decide which of them are read from disk at all).  The paper's CSV schema
(Section 5.3.1) lives at the edges: ``convert``'s adoption
(:mod:`repro.storage.migrate`) turns CSV into segments as a lake is
adopted, and :func:`repro.storage.csv_io.frame_to_csv_text` turns a
queried frame back into text.  Nothing answers for a damaged segment:
the read raises :class:`~repro.storage.columnar.ColumnarFormatError`
naming the extract, the segment file and the remedy.

Reading goes through one declarative surface:
:meth:`DataLakeStore.query` materialises a typed
:class:`~repro.storage.query.ExtractQuery` (server filters and column
projections are pushed down into the ``.sgx`` reader) and
:meth:`DataLakeStore.scan` streams the same answer one server at a time
(``ExtractQuery.for_key`` scopes either to one extract).  Extracts are
read at the sampling interval they record and bucket-mean resampled onto
``q.interval_minutes`` on the way out.  Reads also unify the committed
lake with the *live tail* (:mod:`repro.storage.live`): unsealed rows
under ``_manifest/live/`` answer through the same filters, projections
and accumulators (``stats.tail_rows_scanned`` counts them), except for
pinned stores -- a pin names a committed generation, which the tail is
by definition not part of.

Durability is the manifest subsystem's job
(:mod:`repro.storage.manifest`): a lake keeps its truth in a
generation-numbered manifest pointing at immutable, content-addressed
segment files, every mutation is an intent-logged transaction published
atomically via ``os.replace``, and every read operation resolves one
committed :class:`~repro.storage.manifest.ManifestSnapshot` up front --
so a query racing a writer answers entirely from the generation it
started on, never a mix.  An overwrite retires files logically; physical
reclaim is the explicit ``gc`` pass
(:meth:`~repro.storage.manifest.LakeManifest.collect_garbage`).  Opening
a store with ``pinned_generation=N`` yields a read-only view of exactly
generation ``N`` (what out-of-process fleet workers do).  A directory
holding extract files that predate the manifest, or a generation holding
an older store's CSV entries, pinned or not, does not open
(:class:`~repro.storage.manifest.LakeNotAdoptedError`) until ``convert``
has adopted them, nor does a lake whose generations predate seal
watermarks (:class:`~repro.storage.manifest.LakeNotFoldedError`), unless
pinned, until ``convert`` has folded them in.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn

from repro.storage import columnar
from repro.storage.aggregate import AggregateAccumulator
from repro.storage.columnar import ColumnarFormatError, SgxReadStats
from repro.storage.manifest import (
    LakeManifest,
    LakeManifestError,
    LakeNotAdoptedError,
    LakeNotFoldedError,
    ManifestSnapshot,
    SegmentEntry,
)
from repro.storage.query import (
    ExtractQuery,
    QueryError,
    QueryResult,
    ScanStats,
    project_series,
    resample_series,
    truncate_series,
)
from repro.timeseries.calendar import DEFAULT_INTERVAL_MINUTES
from repro.timeseries.frame import LoadFrame, ServerMetadata
from repro.timeseries.resample import regularize
from repro.timeseries.series import LoadSeries

if TYPE_CHECKING:
    from repro.storage.live.wal import LiveTailIndex

__all__ = [
    "DataLakeStore",
    "ExtractKey",
    "ExtractNotFoundError",
    "ExtractQuery",
    "LakeManifestError",
    "LakeNotAdoptedError",
    "QueryError",
    "QueryResult",
    "ScanStats",
]


class ExtractNotFoundError(KeyError):
    """Raised when an extract for a requested (region, week) does not exist."""


@dataclass(frozen=True, order=True)
class ExtractKey:
    """Identifies one weekly per-region extract."""

    region: str
    week: int

    def filename(self, fmt: str = "sgx") -> str:
        return f"extract_{self.region}_week{self.week:04d}.{fmt}"


#: Most chunk-table entries a store's structure cache retains (72 bytes
#: each, so about 9 MiB): two dozen 200-server four-week segments.
MAX_CACHED_CHUNKS = 1 << 17

#: What must still be true of a segment file for its cached structure to
#: be reused: ``(st_dev, st_ino, st_size, st_mtime_ns)`` of the open file.
_FileSignature = tuple[int, int, int, int]


class _StructureCache:
    """LRU of verified ``.sgx`` structures keyed by segment sha256.

    Bounded by the total chunk-table entries retained
    (:data:`MAX_CACHED_CHUNKS`), not by entry count: segments differ a
    hundredfold in size and the table is what a structure costs.  A
    structure larger than the whole bound is simply not retained.
    """

    def __init__(self) -> None:
        self._entries: OrderedDict[str, tuple[_FileSignature, columnar.SgxStructure]] = (
            OrderedDict()
        )
        self._chunks = 0

    def get(self, sha256: str, signature: _FileSignature) -> columnar.SgxStructure | None:
        """The structure cached for ``sha256`` if the file still carries
        ``signature``; an entry whose file changed is dropped."""
        entry = self._entries.get(sha256)
        if entry is None:
            return None
        if entry[0] != signature:
            del self._entries[sha256]
            self._chunks -= entry[1].chunks.shape[0]
            return None
        self._entries.move_to_end(sha256)
        return entry[1]

    def put(
        self, sha256: str, signature: _FileSignature, structure: columnar.SgxStructure
    ) -> None:
        self._entries[sha256] = (signature, structure)
        self._chunks += structure.chunks.shape[0]
        while self._chunks > MAX_CACHED_CHUNKS:
            _sha256, (_signature, evicted) = self._entries.popitem(last=False)
            self._chunks -= evicted.chunks.shape[0]


class DataLakeStore:
    """Weekly per-region extract store over ``.sgx`` segments.

    Parameters
    ----------
    root:
        Directory to persist extracts under (created if missing).  Tests
        that want a throwaway lake point it at a temporary directory.
    write_format:
        Accepted for callers that still pass ``write_format="sgx"``; it
        selects nothing, and any other value raises :class:`ValueError`.
    chunk_minutes:
        Chunking policy for ``.sgx`` writes: each server's series is
        split at absolute multiples of this many minutes, so zone maps
        can prune time-range reads *within* a server.  ``None`` (the
        default) uses the columnar layer's per-day default; ``0`` writes
        one whole-series chunk per server.
    pinned_generation:
        When given, every read answers from exactly that committed
        manifest generation, however far the live lake moves on -- the
        fleet's unit of worker handoff.  A pinned store
        is read-only; mutations raise
        :class:`~repro.storage.manifest.LakeManifestError`.

    Notes
    -----
    **Read cost follows the answer, not the file.**  The store keeps a
    small LRU of verified ``.sgx`` structures
    (:class:`~repro.storage.columnar.SgxStructure`: server metadata and
    one compact chunk table -- no payload bytes, no descriptors), keyed
    by the segment's full sha256 and bounded by
    :data:`MAX_CACHED_CHUNKS` table entries.  The first read of a segment
    reads the file whole, once, verifies its structure, answers from the
    bytes in hand and retains only the structure.  Later reads open the
    file, ``fstat`` it and ``pread`` one contiguous run per surviving
    server: chunks pruned by zone map, skipped by a server filter or
    answered from chunk statistics are never read from disk.

    A retained structure is reused only when both of these hold:

    * the whole structure verified when it was filled -- a fill that
      raises caches nothing, so the next read fills (and raises) again;
    * the opened descriptor's ``(st_dev, st_ino, st_size, st_mtime_ns)``
      are what they were at fill -- anything else drops the entry and
      reads cold.

    Growth of the lake never invalidates an entry: segments are
    immutable and content-addressed, an overwrite or a seal publishes a
    *new* sha256 (one fill), and an unrelated commit touches nothing
    that is cached.  An out-of-band edit that slips past the signature
    still cannot produce a wrong answer: the structure used is the one
    that verified, and every payload byte returned is CRC-checked
    against it on every read, so the edit surfaces as a
    :class:`~repro.storage.columnar.ColumnarFormatError` (or a short
    read, same error) -- never as data.  ``ScanStats`` are the same
    whether a read filled the cache or used it.  The cache belongs to
    the store object and, like the store, is not shared between threads.
    """

    def __init__(
        self,
        root: str | Path,
        write_format: str = "sgx",
        chunk_minutes: int | None = None,
        pinned_generation: int | None = None,
    ) -> None:
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        if write_format != "sgx":
            raise ValueError(
                f"a lake stores .sgx only, not {write_format!r}: CSV files are "
                "adopted by `python -m repro.fleet_ops convert`, and a queried frame "
                "becomes CSV text through csv_io.frame_to_csv_text()"
            )
        if chunk_minutes is not None and chunk_minutes < 0:
            raise ValueError("chunk_minutes must be a non-negative number of minutes")
        self._chunk_minutes = (
            chunk_minutes if chunk_minutes is not None else columnar.DEFAULT_CHUNK_MINUTES
        )
        self._manifest = manifest = LakeManifest(self._root)
        self._live: LiveTailIndex | None = None
        self._structures = _StructureCache()
        self._pinned: ManifestSnapshot | None = None
        # A pin is loaded eagerly: generation files are immutable, so it
        # is one read here and zero manifest I/O per query after.
        opened = manifest.head() if pinned_generation is None else manifest.snapshot_at(
            pinned_generation
        )
        if manifest.legacy_files():
            self._refuse("holds extract files that predate the lake manifest")
        if opened.unimported:
            self._refuse(f"holds CSV entries in generation {opened.generation}")
        if pinned_generation is not None:
            self._pinned = opened
        elif opened.unfolded:
            # Only an unpinned store reads the tail and writes, the two
            # things the seal watermarks are for.
            raise LakeNotFoldedError(
                f"{self._root} was written by a store whose generations carry no seal "
                "watermarks; fold them in from its transaction log with "
                f"`python -m repro.fleet_ops convert --lake-dir {self._root}`"
            )

    # ------------------------------------------------------------------ #

    @property
    def root(self) -> Path:
        """Filesystem root of the store."""
        return self._root

    @property
    def chunk_minutes(self) -> int:
        """The store's ``.sgx`` chunking policy."""
        return self._chunk_minutes

    @property
    def manifest(self) -> LakeManifest:
        """The lake's manifest handle."""
        return self._manifest

    @property
    def pinned_generation(self) -> int | None:
        """Generation this store is pinned to (``None``: follow commits)."""
        return self._pinned.generation if self._pinned is not None else None

    def current_generation(self) -> int:
        """The committed manifest generation reads currently resolve to.

        ``0`` for a lake nothing has been committed to yet; for pinned
        stores, the pin.
        """
        return self._snapshot().generation

    def extract_path(self, key: ExtractKey) -> Path:
        """Filesystem path of the segment backing ``key``; raises
        :class:`ExtractNotFoundError` when ``key`` has none.

        The one byte-level accessor.  The path is an *immutable segment
        file* owned by the manifest: valid for reading (``convert`` reads
        the stored bytes through it; tests use it to simulate disk
        damage), never for writing -- mutations go through the write API
        so they are published transactionally.
        """
        return self._root / self._entry(key, self._snapshot()).relpath

    def _snapshot(self) -> ManifestSnapshot:
        """The committed manifest generation this operation reads from.

        Resolved once per public read operation and threaded through, so
        one ``query()``/``scan()`` never mixes two generations however
        many extracts it touches.  A generation an older store committed
        with CSV entries is refused, as it is at open.
        """
        if self._pinned is not None:
            return self._pinned
        snap = self._manifest.current()
        if snap.unimported:
            self._refuse(f"holds CSV entries in generation {snap.generation}")
        return snap

    def _refuse(self, why: str) -> NoReturn:
        raise LakeNotAdoptedError(
            f"{self._root} {why}, which a lake does not read; adopt them with "
            f"`python -m repro.fleet_ops convert --lake-dir {self._root}`"
        )

    def _tail_index(self) -> "LiveTailIndex | None":
        """The lake's live-tail view, or ``None`` when reads must not see
        unsealed rows (pinned stores name a committed generation, which
        the tail is by definition not part of)."""
        if self._pinned is not None:
            return None
        if self._live is None:
            # Imported lazily: repro.storage.live sits one layer above
            # this module (its ingestor writes through the store), so a
            # module-level import would be a cycle.
            from repro.storage.live.wal import LiveTailIndex

            self._live = LiveTailIndex(self._root)
        return self._live

    def _entry(self, key: ExtractKey, snap: ManifestSnapshot) -> SegmentEntry:
        """The segment entry every read of ``key`` answers from."""
        entry = snap.entry(key.region, key.week)
        if entry is None:
            raise ExtractNotFoundError(f"no extract for {key}")
        return entry

    @contextmanager
    def _open_sgx(self, key: ExtractKey, snap: ManifestSnapshot) -> Iterator[columnar.SgxSegment]:
        """Open ``key``'s ``.sgx`` segment for one read.

        A segment whose structure this store has already verified is
        read through its descriptor (closed when the ``with`` block
        ends): only the column buffers the read keeps are fetched.
        Otherwise the file is read whole, once, its structure verified,
        the read answers from the bytes in hand, and only the structure
        is retained for the next one.  See the class docstring for when
        a structure may be reused.

        Damage -- found while filling (nothing is cached then) or by the
        read running inside the ``with`` block, cold or warm -- leaves
        here as the :class:`~repro.storage.columnar.ColumnarFormatError`
        the reader raised, prefixed with which extract and segment file
        it was and what to do about it.
        """
        entry = self._entry(key, snap)
        try:
            with open(self._root / entry.relpath, "rb", buffering=0) as handle:
                status = os.fstat(handle.fileno())
                signature = (status.st_dev, status.st_ino, status.st_size, status.st_mtime_ns)
                structure = self._structures.get(entry.sha256, signature)
                if structure is not None:
                    yield columnar.SgxSegment.from_descriptor(structure, handle.fileno())
                    return
                data = handle.readall()
            segment = columnar.SgxSegment.from_bytes(data)
            self._structures.put(entry.sha256, signature, segment.structure)
            yield segment
        except ColumnarFormatError as exc:
            raise ColumnarFormatError(
                f"damaged extract for {key.region} week {key.week} (segment "
                f"{entry.relpath}, sha256 {entry.sha256[:12]}; re-extract it or "
                f"restore that file): {exc}"
            ) from exc

    # ------------------------------------------------------------------ #

    def write_extract(self, key: ExtractKey, frame: LoadFrame) -> int:
        """Persist ``frame`` as the extract for ``key`` under the store's
        chunking policy; returns rows written."""
        self._store_payload(
            key, columnar.frame_to_sgx_bytes(frame, chunk_minutes=self._chunk_minutes)
        )
        return frame.total_points()

    def write_extract_bytes(self, key: ExtractKey, payload: bytes) -> None:
        """Persist pre-encoded ``.sgx`` ``payload`` as ``key``'s segment.

        The byte-level dual of :meth:`extract_path`: the payload is stored
        exactly as given, trusting the caller's encoding -- the lake
        converter uses this to land precisely the bytes it verified in
        memory, with no re-encode in between.
        """
        self._store_payload(key, bytes(payload))

    def _require_writable(self) -> None:
        if self._pinned is not None:
            raise LakeManifestError(
                f"store is pinned to generation {self._pinned.generation} "
                "and therefore read-only"
            )

    def _store_payload(self, key: ExtractKey, payload: bytes) -> None:
        self._require_writable()
        # One manifest transaction: the new segment is staged under a
        # content-addressed name, fsync'd, and becomes visible in one
        # atomic pointer swap.  A crash at any point leaves readers on the
        # previous committed generation.
        with self._manifest.transaction(f"write {key.filename()}") as txn:
            txn.stage(key.region, key.week, payload)

    # ------------------------------------------------------------------ #
    # The query surface (the one read path)
    # ------------------------------------------------------------------ #

    def _list_keys(self, snap: ManifestSnapshot, region: str | None) -> list[ExtractKey]:
        """Extract keys of ``snap``, sorted."""
        keys = [ExtractKey(region=r, week=w) for r, w in snap.keys()]
        if region is not None:
            keys = [key for key in keys if key.region == region]
        return keys

    def _query_keys(
        self,
        q: ExtractQuery,
        snap: ManifestSnapshot,
        tails: "LiveTailIndex | None" = None,
    ) -> list[ExtractKey]:
        """Extract keys inside ``q``'s partition scope, sorted.

        With ``tails`` given, partitions that exist *only* as a live tail
        (first batches ingested, nothing sealed yet) are included too.
        """
        region = q.regions[0] if q.regions is not None and len(q.regions) == 1 else None
        keys = {key for key in self._list_keys(snap, region) if q.matches_key(key)}
        if tails is not None:
            for tail_region, week in tails.keys():
                key = ExtractKey(region=tail_region, week=week)
                if q.matches_key(key):
                    keys.add(key)
        return sorted(keys)

    def _read_one_for_query(
        self, key: ExtractKey, q: ExtractQuery, stats: ScanStats, snap: ManifestSnapshot
    ) -> LoadFrame:
        """Materialise ``q`` against ``key``'s stored segment.

        The segment is decoded at the interval it records (the pushdowns
        prune on the stored layout) and resampled onto
        ``q.interval_minutes`` afterwards -- the honest half of the
        query's interval contract."""
        stats.extracts_scanned += 1
        sgx_stats = SgxReadStats()
        with self._open_sgx(key, snap) as segment:
            frame = columnar.frame_from_sgx_bytes(
                segment,
                None,
                start_minute=q.start_minute,
                end_minute=q.end_minute,
                stats=sgx_stats,
                servers=q.servers,
                predicate=q.metadata_predicate(),
                columns=q.columns,
            )
        stats.absorb_sgx(sgx_stats)
        return self._resample_frame(frame, q)

    def _resample_frame(self, frame: LoadFrame, q: ExtractQuery) -> LoadFrame:
        """Bucket-mean ``frame`` onto ``q.interval_minutes`` (no-op when
        the intervals agree or the query defers to the stored one)."""
        target = q.interval_minutes
        if target is None or frame.interval_minutes == target:
            return frame
        rng = q.time_range() if q.is_ranged else None
        out = LoadFrame(target)
        for _server_id, metadata, series in frame.items():
            series = resample_series(series, target, rng)
            if q.is_ranged and series.is_empty:
                continue
            out.add_server(metadata, series)
        return out

    def _tail_frame_for_query(
        self,
        key: ExtractKey,
        q: ExtractQuery,
        stats: ScanStats | None,
        snap: ManifestSnapshot,
        tails: "LiveTailIndex",
    ) -> LoadFrame | None:
        """Materialise ``q`` against ``key``'s live tail, if it has one.

        Raw tail rows go through the same filters and projections the
        committed paths apply, bucketed onto ``q.interval_minutes`` (or,
        when the query defers, the grid the ingestor records in the WAL
        header -- the grid a seal would produce).  Rows below ``snap``'s
        seal watermark are left out; rows consulted are counted in
        ``stats.tail_rows_scanned``.
        """
        sealed_through = snap.sealed_through.get((key.region, key.week))
        snapshot = tails.tail(key.region, key.week, sealed_through)
        if snapshot is None:
            return None
        target = (
            q.interval_minutes
            if q.interval_minutes is not None
            else snapshot.interval_minutes
        )
        allow = set(q.servers) if q.servers is not None else None
        predicate = q.metadata_predicate()
        rng = q.time_range() if q.is_ranged else None
        out = LoadFrame(target)
        for server_id, (metadata, ts, vs) in sorted(snapshot.servers.items()):
            if stats is not None:
                stats.servers_seen += 1
            if (allow is not None and server_id not in allow) or (
                predicate is not None and not predicate(metadata)
            ):
                if stats is not None:
                    stats.servers_skipped += 1
                continue
            if stats is not None:
                stats.tail_rows_scanned += int(ts.size)
            series = project_series(regularize(ts, vs, target), q.wants_values, rng)
            if q.is_ranged and series.is_empty:
                continue
            out.add_server(metadata, series)
        return out if len(out) else None

    def _aggregate_tail(
        self,
        key: ExtractKey,
        q: ExtractQuery,
        accumulator: AggregateAccumulator,
        stats: ScanStats | None,
        snap: ManifestSnapshot,
        tails: "LiveTailIndex",
    ) -> None:
        """Fold ``key``'s live tail above ``snap``'s seal watermark into
        ``accumulator``.

        Tail rows are bucketed onto the ingestor's grid first -- the same
        representation a seal would commit -- so an aggregate's answer
        does not change when the window it covers moves from the tail
        into a sealed segment.
        """
        sealed_through = snap.sealed_through.get((key.region, key.week))
        snapshot = tails.tail(key.region, key.week, sealed_through)
        if snapshot is None:
            return
        allow = set(q.servers) if q.servers is not None else None
        predicate = q.metadata_predicate()
        rng = q.time_range() if q.is_ranged else None
        for server_id, (metadata, ts, vs) in sorted(snapshot.servers.items()):
            if stats is not None:
                stats.servers_seen += 1
            if (allow is not None and server_id not in allow) or (
                predicate is not None and not predicate(metadata)
            ):
                if stats is not None:
                    stats.servers_skipped += 1
                continue
            if stats is not None:
                stats.tail_rows_scanned += int(ts.size)
            series = regularize(ts, vs, snapshot.interval_minutes)
            if rng is not None:
                series = series.slice(*rng)
            accumulator.fold_columns(server_id, series.timestamps, series.values)

    def _aggregate_one(
        self,
        key: ExtractKey,
        q: ExtractQuery,
        accumulator: AggregateAccumulator,
        stats: ScanStats,
        snap: ManifestSnapshot,
    ) -> None:
        """Fold ``key``'s stored segment into ``accumulator``.

        Straight into the caller's accumulator: damage raises out of the
        whole query, so a partial fold is never part of an answer.
        """
        stats.extracts_scanned += 1
        sgx_stats = SgxReadStats()
        with self._open_sgx(key, snap) as segment:
            columnar.aggregate_sgx_bytes(
                segment,
                accumulator,
                q.start_minute,
                q.end_minute,
                servers=q.servers,
                predicate=q.metadata_predicate(),
                stats=sgx_stats,
            )
        stats.absorb_sgx(sgx_stats)

    def _query_aggregate(
        self,
        q: ExtractQuery,
        stats: ScanStats,
        snap: ManifestSnapshot,
        tails: "LiveTailIndex | None",
    ) -> QueryResult:
        """Answer an aggregate query: reductions, no materialised rows.

        Chunks fully inside the time range and server/engine scope are
        answered from ``.sgx`` chunk-table statistics without their
        value buffers ever being decoded (``stats`` counts them in
        ``chunks_answered_from_stats``/``bytes_decoded_avoided``); only
        partial-overlap chunks are decoded, and the pairwise merge makes
        mixing the sources (and the live tail) exact.  The result's
        ``aggregates`` maps group-key tuples to the requested reductions;
        its frame is empty.
        """
        assert q.aggregates is not None
        accumulator = AggregateAccumulator(q.aggregates, q.group_by)
        for key in self._query_keys(q, snap, tails):
            if snap.entry(key.region, key.week) is not None:
                self._aggregate_one(key, q, accumulator, stats, snap)
            if tails is not None:
                self._aggregate_tail(key, q, accumulator, stats, snap, tails)
        empty = LoadFrame(
            q.interval_minutes if q.interval_minutes is not None else DEFAULT_INTERVAL_MINUTES
        )
        return QueryResult(
            query=q, frame=empty, stats=stats, aggregates=accumulator.results()
        )

    def query(self, q: ExtractQuery, *, include_tail: bool = True) -> QueryResult:
        """Answer ``q`` with one materialised frame plus scan statistics.

        Every extract in ``q``'s partition scope is read with the
        server-filter and column-projection pushdowns applied; a query
        matching no extract returns an empty frame (``stats.extracts_scanned == 0`` tells the
        caller nothing was found).  A server appearing in several matched
        extracts has its series concatenated in key order -- overlapping
        copies raise :class:`~repro.storage.query.QueryError` (narrow the
        query) -- keeping the metadata of the first key that carried it.
        ``q.limit`` caps the total rows materialised; once reached, the
        remaining extracts are not read at all.  A matched key that is
        damaged (:class:`~repro.storage.columnar.ColumnarFormatError`)
        fails the whole query.

        Unless ``include_tail=False`` (or the store is pinned),
        partitions with live-tail rows answer from committed segments *plus* the tail: the unsealed
        rows ride after the committed ones through the same filters and
        accumulators, counted in ``stats.tail_rows_scanned``.  The seal
        path reads with ``include_tail=False`` -- merging the tail back
        on top of itself would double-count.

        An aggregate query (``q.aggregates`` set) returns reductions in
        ``result.aggregates`` instead of rows -- see
        :meth:`_query_aggregate` for the decode-avoidance contract.
        """
        stats = ScanStats()
        snap = self._snapshot()
        tails = self._tail_index() if include_tail else None
        if q.is_aggregate:
            return self._query_aggregate(q, stats, snap, tails)
        out: LoadFrame | None = None
        remaining = q.limit
        for key in self._query_keys(q, snap, tails):
            if remaining is not None and remaining <= 0:
                break
            frames: list[LoadFrame] = []
            if snap.entry(key.region, key.week) is not None:
                frames.append(self._read_one_for_query(key, q, stats, snap))
            if tails is not None:
                tail_frame = self._tail_frame_for_query(key, q, stats, snap, tails)
                if tail_frame is not None:
                    frames.append(tail_frame)
            for frame in frames:
                if out is None:
                    out = LoadFrame(frame.interval_minutes)
                elif frame.interval_minutes != out.interval_minutes:
                    raise QueryError(
                        f"extracts matched by the query record different sampling "
                        f"intervals ({out.interval_minutes} vs {frame.interval_minutes} "
                        f"minutes for {key})"
                    )
                for server_id, metadata, series in frame.items():
                    if remaining is not None:
                        if remaining <= 0:
                            break
                        series = truncate_series(series, remaining)
                        remaining -= len(series)
                    if server_id in out:
                        try:
                            merged = out.series(server_id).concat(series)
                        except ValueError as exc:
                            raise QueryError(
                                f"server {server_id!r} appears in several matched "
                                f"extracts with overlapping samples; narrow the "
                                f"query's weeks/regions ({exc})"
                            ) from exc
                        out.add_server(out.metadata(server_id), merged, overwrite=True)
                    else:
                        out.add_server(metadata, series)
                    stats.rows += len(series)
        if out is None:
            out = LoadFrame(
                q.interval_minutes if q.interval_minutes is not None else DEFAULT_INTERVAL_MINUTES
            )
        return QueryResult(query=q, frame=out, stats=stats)

    def _scan_one(
        self,
        key: ExtractKey,
        q: ExtractQuery,
        stats: ScanStats | None,
        snap: ManifestSnapshot,
    ) -> Iterator[tuple[ServerMetadata, LoadSeries]]:
        """Stream ``key``'s stored servers under ``q``, truly lazily: a
        consumer that stops early never touches the remaining servers'
        payload bytes, and the segment's descriptor is closed as the
        generator is.  Damage met mid-stream raises out of the scan
        after the servers already yielded."""
        if stats is not None:
            stats.extracts_scanned += 1
        sgx_stats = SgxReadStats()
        try:
            with self._open_sgx(key, snap) as segment:
                yield from columnar.scan_sgx_bytes(
                    segment,
                    None,
                    q.start_minute,
                    q.end_minute,
                    servers=q.servers,
                    predicate=q.metadata_predicate(),
                    columns=q.columns,
                    stats=sgx_stats,
                )
        finally:
            if stats is not None:
                stats.absorb_sgx(sgx_stats)

    def _scan_sources(
        self,
        key: ExtractKey,
        q: ExtractQuery,
        stats: ScanStats | None,
        snap: ManifestSnapshot,
        tails: "LiveTailIndex | None",
    ) -> Iterator[tuple[ServerMetadata, LoadSeries]]:
        """One partition's scan stream: committed servers first (resampled
        onto ``q.interval_minutes``), then its live-tail servers."""
        if snap.entry(key.region, key.week) is not None:
            rng = q.time_range() if q.is_ranged else None
            for metadata, series in self._scan_one(key, q, stats, snap):
                series = resample_series(series, q.interval_minutes, rng)
                if q.is_ranged and series.is_empty:
                    continue
                yield metadata, series
        if tails is not None:
            tail_frame = self._tail_frame_for_query(key, q, stats, snap, tails)
            if tail_frame is not None:
                for _server_id, metadata, series in tail_frame.items():
                    yield metadata, series

    def scan(
        self, q: ExtractQuery, stats: ScanStats | None = None
    ) -> Iterator[tuple[ExtractKey, ServerMetadata, LoadSeries]]:
        """Stream ``q``'s answer as ``(key, metadata, series)`` triples.

        The streaming dual of :meth:`query` for consumers that never need
        the whole frame in memory (fleet coordinators, exports, metadata
        walks): servers arrive one at a time, extracts are opened one at
        a time, and abandoning the iterator stops all further reading --
        combined with ``q.limit`` this is the lake's row-bounded cursor
        (the scan returns the moment the limit is exhausted, before the
        next server's payload would be decoded).  Like :meth:`query`, a
        scan refuses to silently mix sampling intervals across matched
        extracts, applies the ``q.interval_minutes`` resample, and (unless
        the store is pinned) streams each partition's live-tail servers
        after its committed ones.
        ``stats``, when given, fills in as the scan advances.
        Aggregate queries have no row stream -- use :meth:`query`.
        """
        if q.is_aggregate:
            raise QueryError(
                "aggregate queries produce reductions, not a row stream; "
                "answer them with query()"
            )
        remaining = q.limit
        if remaining is not None and remaining <= 0:
            return
        # Pin one committed generation for the whole scan (captured lazily
        # at the first element, since this is a generator): concurrent
        # writers publishing new generations never change what an
        # in-flight scan observes.
        snap = self._snapshot()
        tails = self._tail_index()
        expected_interval: int | None = None
        for key in self._query_keys(q, snap, tails):
            for metadata, series in self._scan_sources(key, q, stats, snap, tails):
                if expected_interval is None:
                    expected_interval = series.interval_minutes
                elif series.interval_minutes != expected_interval:
                    raise QueryError(
                        f"extracts matched by the query record different sampling "
                        f"intervals ({expected_interval} vs {series.interval_minutes} "
                        f"minutes for {key})"
                    )
                if remaining is not None:
                    series = truncate_series(series, remaining)
                    remaining -= len(series)
                if stats is not None:
                    stats.rows += len(series)
                yield key, metadata, series
                if remaining is not None and remaining <= 0:
                    # Exhausted exactly here: return *before* the iterator
                    # would decode the next server's payload.
                    return

    def extract_fingerprint(self, key: ExtractKey) -> str:
        """Hex sha256 digest of the stored segment's raw bytes.

        The digest the manifest recorded when the segment was staged: no
        file is read, which lets the fleet orchestrator decide "unchanged
        since last run?" without paying the ingestion cost.  It covers
        the bytes the next read would ingest: re-chunking a lake changes
        fingerprints (the stored bytes changed) even though frame
        content -- and therefore every stage-cache key -- is unchanged.
        Out-of-band damage to the file does not change it; the next read
        of the damaged bytes raises instead.
        """
        return self._entry(key, self._snapshot()).sha256

    def has_extract(self, key: ExtractKey) -> bool:
        """Return whether ``key`` has a committed segment."""
        return self._snapshot().entry(key.region, key.week) is not None

    def list_extracts(self, region: str | None = None) -> list[ExtractKey]:
        """List available extract keys, optionally restricted to a region.

        The listing is the committed manifest generation's (pinned stores
        list their pinned generation), so files staged by an in-flight or
        crashed transaction are never visible here.
        """
        return self._list_keys(self._snapshot(), region)

    def extract_size_bytes(self, key: ExtractKey) -> int:
        """Size in bytes of the stored segment (what a full read ingests).

        Region extract size is the scalability axis of Figure 12; the
        benchmark harness reports it alongside runtimes.
        """
        return self._entry(key, self._snapshot()).size

    def collect_garbage(self):
        """Physically reclaim segment files and generations no longer
        referenced by the current committed generation.

        Delegates to
        :meth:`~repro.storage.manifest.LakeManifest.collect_garbage` and
        returns its :class:`~repro.storage.manifest.GcReport`.  Invalidates
        stores pinned to older generations -- run it only when no pinned
        readers are in flight.
        """
        self._require_writable()
        return self._manifest.collect_garbage()
