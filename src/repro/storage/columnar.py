"""Binary columnar extract format (``.sgx``).

CSV parsing dominates cold-run ingestion: every value is re-tokenised and
re-converted on every read.  The ``.sgx`` format stores a weekly extract
the way the pipeline consumes it -- per-server columns of raw
little-endian ``int64`` timestamps and ``float64`` CPU values -- so a read
is a :func:`numpy.frombuffer` over the column bytes instead of a row loop.

Format v4 layout (all integers little-endian)::

    header   magic "SGXF" | version u16 | flags u16 | interval u32
             | n_servers u32 | n_dict u32 | file_length u64
             | structure_crc u32 | header_crc u32
    dict     n_dict strings (u16 length + UTF-8 bytes); region / engine /
             true-class values are stored once and referenced by index
    servers  one record per server:
               server_id (u16 length + UTF-8 bytes)
               region_idx u32 | engine_idx u32 | true_class_idx u32
               backup_start i64 | backup_end i64 | backup_duration u32
               n_chunks u32
               n_chunks x (n_points u64 | min_ts i64 | max_ts i64
                           | ts_crc u32 | vs_crc u32
                           | vs_sum f64 | vs_min f64 | vs_max f64
                           | vs_sum_sq f64)
               n_chunks payloads, each:
                 timestamps  n_points x i64
                 values      n_points x f64

The writer splits each server's series at absolute ``chunk_minutes``
boundaries (default: one chunk per day), so every chunk carries its own
**zone map** (``min_ts``/``max_ts``) and one CRC *per column buffer*.  A
time-range read (:func:`frame_from_sgx_bytes` with ``start_minute``/
``end_minute``) skips non-overlapping chunks without touching -- or
checksum-verifying -- their payload bytes, then merges a server's
surviving chunks back into one series: pruning works *within* a server,
so a 1-day read of a 7-day extract verifies ~1/7 of the payload.  Two
further pushdowns ride the same structure (:func:`scan_sgx_bytes`):

* **server filtering** -- an allow-list or metadata predicate is decided
  from the (structure-verified) record header alone, so a filtered-out
  server's chunks are never read, decoded or checksummed;
* **column projection** -- per-column CRCs let a timestamps-only read
  skip decoding *and* checksumming every values buffer; unprojected
  values surface as NaN ("not loaded", never 0.0);
* **aggregation pushdown** -- each chunk-table entry also carries
  pre-aggregates of its values buffer (sum / min / max / sum-of-squares,
  next to the count and time bounds), so :func:`aggregate_sgx_bytes`
  answers count/sum/min/max/mean/variance reductions for any chunk lying
  fully inside the requested time range *without reading its payload at
  all* -- only partial-overlap chunks are decoded, and the two sources
  merge exactly (pairwise moments, see :mod:`repro.storage.aggregate`).

v4 is the only layout this module reads or writes.  Files in the older
v1-v3 layouts (no writer has emitted them since v4 landed) are rejected
by the header check with a :class:`ColumnarFormatError` that names the
version and the remedy: re-extract, or convert with a checkout that
still carries their decoders.

Zone maps are only trustworthy for sorted data: the writer refuses
non-strictly-increasing timestamps (they would round-trip with a wrong
zone map and be silently mis-pruned), and three checksums cover
everything that *is* ingested: ``header_crc`` over the fixed header,
``structure_crc`` over the dictionary and every server/chunk header (so
tampered zone maps, metadata fields or dictionary strings cannot be
silently loaded -- pruning and filtering decisions are only trusted once
the structure verifies), and the per-chunk column CRCs over the buffers
actually read.  Any damage (bad magic, truncation, checksum mismatch,
out-of-range dictionary index, out-of-order chunks) raises the typed
:class:`ColumnarFormatError`; the lake re-raises it naming the segment.

A read is two things, and the code keeps them apart.  The **verified
structure** (:class:`SgxStructure`: interval, server metadata, one
compact chunk table with zone maps, CRCs, pre-aggregates and payload
offsets) comes only from the structure walk, which runs every check that
does not need payload bytes -- once per parse, never less.  The **byte
source** hands :func:`_decode_chunk` exactly the column buffers it is
about to CRC: slices of a buffer in memory, or ``os.pread`` on a
descriptor.  An :class:`SgxSegment` pairs the two; every reader here
takes either raw bytes ("parse the structure, then read from this
buffer") or a segment whose structure already verified, and runs the same
walk and the same decoder over both.  A structure is immutable and a pure
function of the file's bytes, so a caller that knows the bytes have not
changed (:class:`~repro.storage.datalake.DataLakeStore`, by segment
sha256) may keep it and skip both the whole-file read and the re-walk.
Checks on payload are never skipped or hoisted: every column buffer
returned is CRC-checked against the verified table on every read, and a
file read shorter than asked is a :class:`ColumnarFormatError`.
"""

from __future__ import annotations

import os
import struct
import zlib
from collections.abc import Callable, Collection, Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from repro.timeseries.calendar import MAX_MINUTE, MIN_MINUTE, MINUTES_PER_DAY
from repro.timeseries.frame import LoadFrame, ServerMetadata
from repro.timeseries.series import LoadSeries

MAGIC = b"SGXF"
#: Version the writer emits.
VERSION = 4
#: Versions the reader accepts: the one the writer emits, nothing else.
SUPPORTED_VERSIONS = (VERSION,)

#: Per-point column buffers of the format, in stored order.  A column
#: projection is a subset of these; ``timestamps`` is the series index
#: and can never be projected away.
COLUMNS = ("timestamps", "values")

#: Default writer chunking policy: one chunk per day, so zone maps prune
#: day-granular time-range reads within a server.  Pass ``0`` for a
#: single whole-series chunk.
DEFAULT_CHUNK_MINUTES = MINUTES_PER_DAY

#: magic 4s | version u16 | flags u16 | interval u32 | n_servers u32
#: | n_dict u32 | file_length u64 | structure_crc u32 -- followed by a
#: u32 CRC of these bytes.  ``structure_crc`` covers the dictionary
#: section plus every server record header and chunk-header table
#: (everything between the header and the payloads), so zone maps and
#: metadata are tamper-evident even though pruned payloads are never
#: read.
_FILE_HEADER = struct.Struct("<4sHHIIIQI")
FILE_HEADER_SIZE = 32
_HEADER_CRC = struct.Struct("<I")
HEADER_CRC_SIZE = 4
HEADER_BYTES = FILE_HEADER_SIZE + HEADER_CRC_SIZE  # 36

#: per-server fixed fields: region_idx | engine_idx | true_class_idx
#: | backup_start | backup_end | backup_duration | n_chunks
_SERVER_FIXED = struct.Struct("<IIIqqII")
SERVER_FIXED_ENTRY_SIZE = 36
#: per-chunk header: n_points | min_ts | max_ts | ts_crc | vs_crc -- one
#: CRC per column buffer, so a projected read can verify only the buffers
#: it actually ingests -- plus pre-aggregates of the values buffer (sum
#: | min | max | sum-of-squares), so aggregate queries can answer fully
#: covered chunks without reading their payload.  Covered by the
#: structure CRC like every other chunk-header field.
_CHUNK_HEADER_V4 = struct.Struct("<QqqIIdddd")
CHUNK_HEADER_V4_ENTRY_SIZE = 64
#: The same entry as a numpy record, so a reader views a whole chunk table
#: with one ``frombuffer`` instead of unpacking it entry by entry.
_CHUNK_TABLE_DTYPE = np.dtype(
    [
        ("n_points", "<u8"),
        ("min_ts", "<i8"),
        ("max_ts", "<i8"),
        ("ts_crc", "<u4"),
        ("vs_crc", "<u4"),
        ("vs_sum", "<f8"),
        ("vs_min", "<f8"),
        ("vs_max", "<f8"),
        ("vs_sum_sq", "<f8"),
    ]
)
assert _CHUNK_TABLE_DTYPE.itemsize == CHUNK_HEADER_V4_ENTRY_SIZE
#: A chunk as a verified structure keeps it: the table entry plus the
#: absolute file offset of its payload (timestamps buffer, then values).
_CHUNK_DTYPE = np.dtype([*_CHUNK_TABLE_DTYPE.descr, ("payload_offset", "<i8")])
#: Position of the payload offset in a :data:`_CHUNK_DTYPE` row read out
#: as a tuple (``tolist``).
_PAYLOAD_OFFSET = _CHUNK_DTYPE.names.index("payload_offset")
_STRING_LEN = struct.Struct("<H")
STRING_LEN_SIZE = 2

#: Sentinel zone map of an empty chunk: min > max can match no range.
_EMPTY_MIN_TS = 0
_EMPTY_MAX_TS = -1

#: Bytes per sample across the two column buffers (i64 + f64).
_POINT_BYTES = 16


class ColumnarFormatError(ValueError):
    """Raised when bytes are not a readable ``.sgx`` extract.

    Covers structural damage (bad magic, unsupported version, truncation)
    and content damage (header or chunk checksum mismatches).  It is a
    ``ValueError`` so ingestion error handling that already catches parse
    failures keeps working.
    """


@dataclass
class SgxReadStats:
    """Observability counters filled in by one ``.sgx`` read.

    ``payload_bytes_verified`` is the number of payload bytes actually
    CRC-checked and ingested; a zone-map-pruned, server-filtered or
    column-projected read verifies strictly fewer bytes than a full read
    of the same file.  A filtered-out server's chunks count as both seen
    and pruned; ``columns_skipped`` counts column buffers whose decode
    and checksum a projection skipped.

    Aggregate walks (:func:`aggregate_sgx_bytes`) additionally count
    ``chunks_answered_from_stats`` -- chunks whose reductions came from
    the stored chunk-table pre-aggregates -- and ``bytes_decoded_avoided``,
    the payload bytes of those chunks, which were never read, decoded or
    checksummed (their statistics are vouched for by the structure CRC).
    """

    chunks_seen: int = 0
    chunks_pruned: int = 0
    servers_seen: int = 0
    servers_skipped: int = 0
    columns_skipped: int = 0
    chunks_answered_from_stats: int = 0
    bytes_decoded_avoided: int = 0
    payload_bytes_total: int = 0
    payload_bytes_verified: int = 0


# --------------------------------------------------------------------- #
# Writing
# --------------------------------------------------------------------- #


def _packed_string(text: str, what: str) -> bytes:
    encoded = text.encode("utf-8")
    if len(encoded) > 0xFFFF:
        raise ColumnarFormatError(f"{what} {text[:32]!r}... exceeds 65535 encoded bytes")
    return _STRING_LEN.pack(len(encoded)) + encoded


def _split_at_boundaries(
    timestamps: np.ndarray, values: np.ndarray, chunk_minutes: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split sorted column arrays at absolute ``chunk_minutes`` boundaries.

    Returns only non-empty pieces (a gap spanning whole chunk periods
    produces no empty interior chunks).  ``chunk_minutes=0`` keeps the
    series whole.
    """
    n = int(timestamps.shape[0])
    if n == 0 or chunk_minutes == 0:
        return [(timestamps, values)]
    first = int(timestamps[0]) // chunk_minutes
    last = int(timestamps[-1]) // chunk_minutes
    if first == last:
        return [(timestamps, values)]
    boundaries = np.arange(first + 1, last + 1, dtype=np.int64) * chunk_minutes
    splits = np.searchsorted(timestamps, boundaries, side="left").tolist()
    pieces: list[tuple[np.ndarray, np.ndarray]] = []
    prev = 0
    for split in [*splits, n]:
        if split > prev:
            pieces.append((timestamps[prev:split], values[prev:split]))
        prev = split
    return pieces


def frame_to_sgx_bytes(frame: LoadFrame, chunk_minutes: int = DEFAULT_CHUNK_MINUTES) -> bytes:
    """Serialise ``frame`` into ``.sgx`` (format v4) bytes.

    ``chunk_minutes`` is the chunking policy: each server's series is
    split at absolute multiples of it (default: day boundaries) into
    chunks that each carry their own zone map and payload CRC, which is
    what lets time-range reads prune *within* a server.  ``0`` writes a
    single whole-series chunk per server.

    Zone maps assume sorted data, so a series whose timestamps are not
    strictly increasing (possible via ``LoadSeries(..., validate=False)``)
    is rejected with :class:`ColumnarFormatError` naming the server --
    writing it would produce a wrong zone map and silently mis-pruned or
    mis-sliced reads.
    """
    if chunk_minutes < 0:
        raise ValueError("chunk_minutes must be a non-negative number of minutes")
    dictionary: dict[str, int] = {}

    def intern(text: str) -> int:
        return dictionary.setdefault(text, len(dictionary))

    records: list[tuple[bytes, list[bytes]]] = []  # (record header, payloads)
    for server_id, metadata, series in frame.items():
        timestamps = np.ascontiguousarray(series.timestamps, dtype="<i8")
        values = np.ascontiguousarray(series.values, dtype="<f8")
        if timestamps.shape[0] > 1 and bool(np.any(np.diff(timestamps) <= 0)):
            raise ColumnarFormatError(
                f"cannot write .sgx extract: timestamps of server {server_id!r} "
                "are not strictly increasing -- the zone map would be wrong and "
                "time-range reads silently corrupted; sort the series first"
            )
        pieces = _split_at_boundaries(timestamps, values, chunk_minutes)
        chunk_table = bytearray()
        payloads: list[bytes] = []
        for chunk_ts, chunk_vs in pieces:
            n_points = int(chunk_ts.shape[0])
            ts_bytes = chunk_ts.tobytes()
            vs_bytes = chunk_vs.tobytes()
            if n_points:
                min_ts, max_ts = int(chunk_ts[0]), int(chunk_ts[-1])
                vs_sum = float(chunk_vs.sum())
                vs_min = float(chunk_vs.min())
                vs_max = float(chunk_vs.max())
                vs_sum_sq = float(np.dot(chunk_vs, chunk_vs))
            else:
                min_ts, max_ts = _EMPTY_MIN_TS, _EMPTY_MAX_TS
                vs_sum = vs_min = vs_max = vs_sum_sq = 0.0
            chunk_table += _CHUNK_HEADER_V4.pack(
                n_points,
                min_ts,
                max_ts,
                zlib.crc32(ts_bytes),
                zlib.crc32(vs_bytes),
                vs_sum,
                vs_min,
                vs_max,
                vs_sum_sq,
            )
            payloads.append(ts_bytes + vs_bytes)
        record_header = (
            _packed_string(server_id, "server id")
            + _SERVER_FIXED.pack(
                intern(metadata.region),
                intern(metadata.engine),
                intern(metadata.true_class),
                metadata.default_backup_start,
                metadata.default_backup_end,
                metadata.backup_duration_minutes,
                len(payloads),
            )
            + bytes(chunk_table)
        )
        records.append((record_header, payloads))

    dict_section = bytearray()
    for text in dictionary:  # insertion order == index order
        dict_section += _packed_string(text, "dictionary string")

    structure_crc = zlib.crc32(bytes(dict_section))
    for record_header, _payloads in records:
        structure_crc = zlib.crc32(record_header, structure_crc)

    body_parts = [bytes(dict_section)]
    for record_header, payloads in records:
        body_parts.append(record_header)
        body_parts.extend(payloads)
    body = b"".join(body_parts)
    header = _FILE_HEADER.pack(
        MAGIC,
        VERSION,
        0,
        frame.interval_minutes,
        len(frame),
        len(dictionary),
        HEADER_BYTES + len(body),
        structure_crc,
    )
    return header + _HEADER_CRC.pack(zlib.crc32(header)) + body


# --------------------------------------------------------------------- #
# Reading
# --------------------------------------------------------------------- #


def _as_view(data) -> memoryview:
    """A flat byte view over ``data`` without copying the buffer."""
    view = data if isinstance(data, memoryview) else memoryview(data)
    if view.ndim != 1 or view.format != "B":
        view = view.cast("B")
    return view


def _read_string(view: memoryview, offset: int, what: str) -> tuple[str, int]:
    end = offset + _STRING_LEN.size
    if end > view.nbytes:
        raise ColumnarFormatError(f"truncated .sgx extract: {what} length at byte {offset}")
    (length,) = _STRING_LEN.unpack_from(view, offset)
    if end + length > view.nbytes:
        raise ColumnarFormatError(f"truncated .sgx extract: {what} bytes at byte {end}")
    try:
        text = bytes(view[end : end + length]).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ColumnarFormatError(f"garbled .sgx extract: {what} is not UTF-8") from exc
    return text, end + length


def _parse_header(view: memoryview) -> tuple[int, int, int, int, int]:
    """Validate the header; returns
    ``(version, interval, n_servers, n_dict, structure_crc)``.

    Any version but :data:`VERSION` is rejected here, so everything
    downstream parses exactly one layout."""
    if view.nbytes < HEADER_BYTES:
        raise ColumnarFormatError(
            f"truncated .sgx extract: {view.nbytes} bytes, header needs {HEADER_BYTES}"
        )
    (
        magic,
        version,
        _flags,
        interval,
        n_servers,
        n_dict,
        file_length,
        structure_crc,
    ) = _FILE_HEADER.unpack_from(view, 0)
    if magic != MAGIC:
        raise ColumnarFormatError(f"not an .sgx extract (magic {magic!r})")
    (header_crc,) = _HEADER_CRC.unpack_from(view, _FILE_HEADER.size)
    if zlib.crc32(view[: _FILE_HEADER.size]) != header_crc:
        raise ColumnarFormatError("garbled .sgx extract: header checksum mismatch")
    if version not in SUPPORTED_VERSIONS:
        remedy = ""
        if version < VERSION:
            remedy = (
                "; re-extract it, or rewrite it as v4 by running `python -m "
                "repro.fleet_ops convert` from a checkout at or before PR 11 "
                "(the last one that decodes v1-v3)"
            )
        raise ColumnarFormatError(
            f"unsupported .sgx version {version}: this reader supports only "
            f"v{VERSION}{remedy}"
        )
    if file_length != view.nbytes:
        raise ColumnarFormatError(
            f"truncated .sgx extract: header declares {file_length} bytes, got {view.nbytes}"
        )
    return version, interval, n_servers, n_dict, structure_crc


def _dict_lookup(dictionary: list[str], index: int, what: str) -> str:
    if index >= len(dictionary):
        raise ColumnarFormatError(
            f"garbled .sgx extract: {what} dictionary index {index} out of range"
        )
    return dictionary[index]


@dataclass(frozen=True, eq=False)
class SgxStructure:
    """The verified layout of one ``.sgx`` file: everything but its payload.

    Only the structure walk (:func:`_parse_structure`) produces one, and
    that walk is the single place the header CRC, version and declared
    length, the structure CRC, record/table bounds, the exact fill of the
    file, dictionary indices and duplicate server ids are checked -- so
    holding a structure means all of those held for the bytes it was
    parsed from.  It is immutable and shares no memory with those bytes:
    it can outlive the file buffer and answer any later read of the same
    bytes.  Zone maps, pre-aggregates, column CRCs and payload offsets
    all come from here; payload bytes never do, and every column buffer a
    read returns is CRC-checked against this table on every read.

    ``servers`` holds one ``(metadata, first, end, n_points)`` per server
    record in file order: ``chunks[first:end]`` is the server's chunk
    table and ``n_points`` its total sample count.  ``chunks`` is one
    72-byte numpy record per chunk (:data:`_CHUNK_DTYPE`) -- a column
    store, not per-chunk Python objects, so keeping a structure costs
    little more than the table bytes themselves.  ``server_chunks`` and
    ``server_ids`` hold each server record's chunk count (``end -
    first``) and id, so a read can test an allow-list and broadcast
    per-server decisions onto the table without walking the records.
    The :class:`ServerMetadata` objects are frozen and shared by every
    read.
    """

    interval_minutes: int
    n_bytes: int
    n_dictionary_strings: int
    servers: tuple[tuple[ServerMetadata, int, int, int], ...]
    chunks: np.ndarray
    server_chunks: np.ndarray
    server_ids: tuple[str, ...]


def _parse_structure(view: memoryview) -> SgxStructure:
    """Validate header, dictionary and every record; return the
    :class:`SgxStructure`.

    Every record is bounds-checked, the records must exactly fill the
    file, every dictionary index must resolve, no server id may repeat
    and the accumulated structure CRC must match the header -- payloads
    are not touched.  This is the single walk the reader, the lake's
    structure cache and the inspector use, so they can never diverge on
    the layout.
    """
    _version, interval, n_servers, n_dict, structure_crc = _parse_header(view)
    total = view.nbytes
    position = HEADER_BYTES
    dictionary: list[str] = []
    for _ in range(n_dict):
        text, position = _read_string(view, position, "dictionary string")
        dictionary.append(text)
    seen_crc = zlib.crc32(view[HEADER_BYTES:position])
    servers: list[tuple[ServerMetadata, int, int, int]] = []
    seen_ids: set[str] = set()
    tables: list[memoryview] = []
    # Per server: where its payloads start, less the payload bytes of all
    # earlier servers -- what turns a running sum of chunk sizes over the
    # whole file into absolute payload offsets (below).
    shifts: list[int] = []
    n_chunks_seen = 0
    points_seen = 0
    for _ in range(n_servers):
        record_start = position
        server_id, position = _read_string(view, record_start, "server id")
        if position + _SERVER_FIXED.size > total:
            raise ColumnarFormatError(
                f"truncated .sgx extract: server record of {server_id!r} at byte {position}"
            )
        (
            region_idx,
            engine_idx,
            true_class_idx,
            backup_start,
            backup_end,
            backup_duration,
            n_chunks,
        ) = _SERVER_FIXED.unpack_from(view, position)
        table_offset = position + _SERVER_FIXED.size
        table_end = table_offset + n_chunks * CHUNK_HEADER_V4_ENTRY_SIZE
        if table_end > total:
            raise ColumnarFormatError(
                f"truncated .sgx extract: chunk table of {server_id!r} at byte {table_offset}"
            )
        seen_crc = zlib.crc32(view[record_start:table_end], seen_crc)
        table = view[table_offset:table_end]
        tables.append(table)
        # Summed as Python ints: a garbled u64 count must fail the bounds
        # check, not wrap around it.
        n_points = sum(np.frombuffer(table, _CHUNK_TABLE_DTYPE)["n_points"].tolist())
        position = table_end + n_points * _POINT_BYTES
        if position > total:
            raise ColumnarFormatError(
                f"truncated .sgx extract: payloads of {server_id!r} at byte {table_end}"
            )
        if server_id in seen_ids:
            raise ColumnarFormatError(
                f"garbled .sgx extract: duplicate chunk for server {server_id!r}"
            )
        seen_ids.add(server_id)
        metadata = ServerMetadata(
            server_id=server_id,
            region=_dict_lookup(dictionary, region_idx, "region"),
            engine=_dict_lookup(dictionary, engine_idx, "engine"),
            default_backup_start=backup_start,
            default_backup_end=backup_end,
            backup_duration_minutes=backup_duration,
            true_class=_dict_lookup(dictionary, true_class_idx, "true class"),
        )
        servers.append((metadata, n_chunks_seen, n_chunks_seen + n_chunks, n_points))
        shifts.append(table_end - points_seen * _POINT_BYTES)
        n_chunks_seen += n_chunks
        points_seen += n_points
    if position != total:
        raise ColumnarFormatError(
            f"garbled .sgx extract: {total - position} trailing bytes after last chunk"
        )
    if seen_crc != structure_crc:
        # Covers the dictionary, zone maps and every server's metadata
        # fields -- tampered structure must not be silently ingested,
        # nor allowed to mis-prune a time-range read.
        raise ColumnarFormatError("garbled .sgx extract: structure checksum mismatch")
    # Copied out of the file buffer, so the structure does not pin it.
    chunks = np.empty(n_chunks_seen, dtype=_CHUNK_DTYPE)
    chunks[list(_CHUNK_TABLE_DTYPE.names)] = np.frombuffer(
        b"".join(tables), _CHUNK_TABLE_DTYPE
    )
    # Every count passed the bounds check above, so int64 cannot wrap.
    sizes = chunks["n_points"].astype(np.int64) * _POINT_BYTES
    per_server = np.array(
        [end - first for _metadata, first, end, _n_points in servers], dtype=np.int64
    )
    chunks["payload_offset"] = np.cumsum(sizes) - sizes + np.repeat(shifts, per_server)
    chunks.flags.writeable = False
    per_server.flags.writeable = False
    server_ids = tuple(metadata.server_id for metadata, *_rest in servers)
    return SgxStructure(interval, total, n_dict, tuple(servers), chunks, per_server, server_ids)


class _BufferSource:
    """Payload bytes already in memory: a whole ``.sgx`` image (``base``
    0), or one run of a file read at offset ``base``."""

    def __init__(self, data, base: int = 0) -> None:
        self._view = _as_view(data)
        self._base = base
        self._mutable = not isinstance(data, bytes)

    def fetch(self, server_id: str, start: int, end: int) -> tuple[memoryview, int]:
        """A buffer holding file bytes ``[start, end)`` and the file
        offset of the buffer's first byte."""
        return self._view, self._base

    def copies(self, ranged: bool) -> bool:
        """Whether arrays a scan keeps must be copied out of this buffer.

        Arrays over a mutable buffer would alias caller state, so those
        are always copied (chunk by chunk, never the whole file).  Over
        immutable ``bytes`` a full read stays zero-copy -- the frame
        spans the buffer anyway -- but a ranged read keeps a small
        fraction of the file and copying its slices releases the rest.
        """
        return ranged or self._mutable


class _FileSource:
    """Payload bytes ``pread`` from an open descriptor, exactly the ranges
    asked for.  The descriptor stays the caller's to close."""

    def __init__(self, descriptor: int) -> None:
        self._descriptor = descriptor

    def fetch(self, server_id: str, start: int, end: int) -> tuple[memoryview, int]:
        data = os.pread(self._descriptor, end - start, start)
        if len(data) != end - start:
            raise ColumnarFormatError(
                f"truncated .sgx extract: payload of {server_id!r} at byte {start} "
                f"is {len(data)} bytes, expected {end - start}"
            )
        return memoryview(data), start

    def copies(self, ranged: bool) -> bool:
        return False  # each read owns a buffer no larger than what it asked for


class SgxSegment:
    """One ``.sgx`` file opened for reading: its verified
    :class:`SgxStructure` plus where payload bytes come from.

    :meth:`from_bytes` is "parse the structure, then read from this
    buffer" -- what every read of raw bytes does.  :meth:`from_descriptor`
    pairs a structure that already verified with an open file holding
    the same bytes, so a read fetches only the column buffers it is about
    to CRC.  Either way the same scan, aggregate and chunk decoder run
    over it; which bytes get read is the only difference.
    """

    def __init__(self, structure: SgxStructure, source: "_BufferSource | _FileSource") -> None:
        self.structure = structure
        self._source = source

    @classmethod
    def from_bytes(cls, data) -> "SgxSegment":
        """Verify ``data``'s structure and read payloads from ``data``
        (``bytes``, ``bytearray`` or ``memoryview``; never copied whole)."""
        return cls(_parse_structure(_as_view(data)), _BufferSource(data))

    @classmethod
    def from_descriptor(cls, structure: SgxStructure, descriptor: int) -> "SgxSegment":
        """Read payloads with ``os.pread`` on ``descriptor``, trusting
        ``structure`` for the layout.

        The caller vouches that the file is the one ``structure`` was
        parsed from and keeps the descriptor open while the segment is
        read.  If that is wrong the answer is still never wrong data:
        every column buffer is CRC-checked against ``structure``, and a
        read shorter than asked raises :class:`ColumnarFormatError`.
        """
        return cls(structure, _FileSource(descriptor))


def _as_segment(data) -> SgxSegment:
    return data if isinstance(data, SgxSegment) else SgxSegment.from_bytes(data)


def _prune(
    structure: SgxStructure,
    start_minute: int | None,
    end_minute: int | None,
    servers: Collection[str] | None,
    predicate: Callable[[ServerMetadata], bool] | None,
) -> tuple[tuple[int, int] | None, np.ndarray, np.ndarray, np.ndarray]:
    """Apply the header-only pushdowns to a verified structure; return
    ``(bounds, server_kept, row_kept, row_server)``.

    The one definition of what survives a read, shared by scan and
    aggregate.  Nothing here reads the file: ``structure`` already passed
    every structural check (see :class:`SgxStructure`), so zone maps and
    metadata fields can be acted on.  ``bounds`` is the half-open
    ``(lo, hi)`` time range with open ends made explicit, or ``None`` for
    an unbounded read.  ``server_kept`` holds one flag per server record:
    a server failing the ``servers`` allow-list or the metadata
    ``predicate`` is skipped whole.  ``row_kept`` holds one flag per
    chunk-table row: its server is kept and, under ``bounds``, its zone
    map meets the range (an empty chunk meets none).  ``row_server`` is
    the server index of each row.  Pruned payloads are never read or
    checksummed.
    """
    chunks = structure.chunks
    per_server = structure.server_chunks
    n_servers = per_server.shape[0]
    row_server = np.repeat(np.arange(n_servers), per_server)
    if servers is None and predicate is None:
        server_kept = np.ones(n_servers, dtype=bool)
        row_kept = np.ones(chunks.shape[0], dtype=bool)
    else:
        if servers is None:
            server_kept = np.ones(n_servers, dtype=bool)
        else:
            server_kept = np.fromiter(
                map(frozenset(servers).__contains__, structure.server_ids),
                dtype=bool,
                count=n_servers,
            )
        if predicate is not None:
            # The predicate sees only the servers the allow-list admits.
            rejected = [
                index
                for index in np.flatnonzero(server_kept).tolist()
                if not predicate(structure.servers[index][0])
            ]
            server_kept[rejected] = False
        row_kept = np.repeat(server_kept, per_server)
    bounds = None
    if start_minute is not None or end_minute is not None:
        bounds = (
            start_minute if start_minute is not None else MIN_MINUTE,
            end_minute if end_minute is not None else MAX_MINUTE,
        )
        row_kept &= (
            (chunks["n_points"] > 0)
            & (chunks["max_ts"] >= bounds[0])
            & (chunks["min_ts"] < bounds[1])
        )
    return bounds, server_kept, row_kept, row_server


def _walk_servers(
    structure: SgxStructure,
    start_minute: int | None,
    end_minute: int | None,
    servers: Collection[str] | None,
    predicate: Callable[[ServerMetadata], bool] | None,
    stats: SgxReadStats | None,
):
    """The scan's per-server view of :func:`_prune`; return ``(bounds,
    survivors)``.

    ``survivors`` lazily yields ``(metadata, chunks)`` per kept server --
    ``chunks`` its kept :data:`_CHUNK_DTYPE` rows as a list of tuples, in
    file order -- and fills ``stats`` one server at a time as the
    consumer advances.
    """
    bounds, server_kept, row_kept, _row_server = _prune(
        structure, start_minute, end_minute, servers, predicate
    )
    chunks = structure.chunks

    def survivors() -> Iterator[tuple[ServerMetadata, list[tuple]]]:
        for kept_server, (metadata, first, end, n_points) in zip(
            server_kept.tolist(), structure.servers, strict=True
        ):
            kept = chunks[first:end].compress(row_kept[first:end]).tolist() if kept_server else []
            if stats is not None:
                stats.servers_seen += 1
                if not kept_server:
                    stats.servers_skipped += 1
                stats.chunks_seen += end - first
                stats.chunks_pruned += end - first - len(kept)
                stats.payload_bytes_total += n_points * _POINT_BYTES
            if kept_server:
                yield metadata, kept

    return bounds, survivors()


def _decode_chunk(
    source: "_BufferSource | _FileSource",
    server_id: str,
    chunk: tuple,
    want_values: bool,
    bounds: tuple[int, int] | None,
    stats: SgxReadStats | None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Fetch one chunk's column buffers from ``source``, CRC-verify them
    against the chunk's (structure-verified) table row and view them as
    arrays, cut to ``bounds`` when the chunk straddles them.

    Returns ``(timestamps, values)`` as zero-copy ``frombuffer`` views
    over what ``source`` returned (possibly empty after the cut).  With
    ``want_values`` false the values buffer is neither fetched,
    checksummed nor decoded (``values`` is ``None``) -- the per-column
    CRCs let the timestamps vouch for themselves.
    """
    n_points, min_ts, max_ts, ts_crc, vs_crc = chunk[:5]
    column_bytes = 8 * n_points
    offset = chunk[_PAYLOAD_OFFSET]
    buffer, base = source.fetch(
        server_id, offset, offset + (2 * column_bytes if want_values else column_bytes)
    )
    offset -= base
    vs_offset = offset + column_bytes
    if zlib.crc32(buffer[offset:vs_offset]) != ts_crc or (
        want_values and zlib.crc32(buffer[vs_offset : vs_offset + column_bytes]) != vs_crc
    ):
        raise ColumnarFormatError(
            f"garbled .sgx extract: chunk checksum mismatch for {server_id!r}"
        )
    if stats is not None:
        if want_values:
            stats.payload_bytes_verified += 2 * column_bytes
        else:
            stats.payload_bytes_verified += column_bytes
            stats.columns_skipped += 1
    timestamps = np.frombuffer(buffer, dtype="<i8", count=n_points, offset=offset)
    values = (
        np.frombuffer(buffer, dtype="<f8", count=n_points, offset=vs_offset)
        if want_values
        else None
    )
    if bounds is not None and (min_ts < bounds[0] or max_ts >= bounds[1]):
        lo, hi = np.searchsorted(timestamps, bounds, side="left").tolist()
        timestamps = timestamps[lo:hi]
        if values is not None:
            values = values[lo:hi]
    return timestamps, values


def normalize_columns(columns: Iterable[str] | str | None) -> bool:
    """Validate a column projection; returns whether ``values`` is wanted.

    ``None`` means "every column".  ``timestamps`` is the series index
    (it defines alignment, slicing and the zone maps), so a projection
    that drops it is rejected.
    """
    if columns is None:
        return True
    cols = (columns,) if isinstance(columns, str) else tuple(columns)
    unknown = [column for column in cols if column not in COLUMNS]
    if unknown:
        raise ValueError(f"unknown column(s) {unknown!r}; expected a subset of {COLUMNS}")
    if "timestamps" not in cols:
        raise ValueError(
            "column projection must include 'timestamps' -- it is the series index"
        )
    return "values" in cols


def scan_sgx_bytes(
    data,
    interval_minutes: int | None = None,
    start_minute: int | None = None,
    end_minute: int | None = None,
    *,
    servers: Collection[str] | None = None,
    predicate: Callable[[ServerMetadata], bool] | None = None,
    columns: Iterable[str] | None = None,
    stats: SgxReadStats | None = None,
) -> Iterator[tuple[ServerMetadata, LoadSeries]]:
    """Lazily yield ``(metadata, series)`` per server, with pushdown.

    This is the streaming core every ``.sgx`` read goes through.  The
    whole structure is verified *before* the first yield (see
    :class:`SgxStructure` for what that covers), so pruning and
    filtering decisions are never made from an unverified layout, even
    when a consumer stops early.  Payloads, by contrast, are only
    fetched as the generator is consumed: abandoning the scan after k
    servers never touches the remaining servers' bytes.

    Three pushdowns avoid work at the byte level:

    * ``start_minute``/``end_minute`` -- zone-map chunk pruning exactly
      as in :func:`frame_from_sgx_bytes`; servers with no samples in
      range are omitted.
    * ``servers`` (an id allow-list) and ``predicate`` (a metadata
      predicate, e.g. an engine filter) -- a server failing either is
      skipped from its record header alone; its chunk payloads are never
      read, decoded or checksummed.
    * ``columns`` -- a projection over :data:`COLUMNS`.  Excluding
      ``values`` skips decoding every values buffer and its checksum
      too; the yielded series carry NaN values, marking "not loaded".

    ``data`` may be ``bytes``, ``bytearray`` or a ``memoryview`` (non-
    ``bytes`` buffers are read through a view, never copied wholesale) --
    then the structure is parsed from it first -- or an
    :class:`SgxSegment` whose structure already verified.  ``stats``,
    when given, is filled incrementally as the scan advances, identically
    for either.
    """
    want_values = normalize_columns(columns)
    segment = _as_segment(data)
    source = segment._source
    bounds, survivors = _walk_servers(
        segment.structure, start_minute, end_minute, servers, predicate, stats
    )
    if interval_minutes is None:
        interval_minutes = segment.structure.interval_minutes
    copy = source.copies(bounds is not None)

    for metadata, chunks in survivors:
        server_id = metadata.server_id
        chunk_source = source
        if want_values and len(chunks) > 1:
            # A server's chunks lie back to back in the file and zone-map
            # survivors are consecutive: fetch the run once, not per chunk.
            last = chunks[-1]
            chunk_source = _BufferSource(
                *source.fetch(
                    server_id,
                    chunks[0][_PAYLOAD_OFFSET],
                    last[_PAYLOAD_OFFSET] + last[0] * _POINT_BYTES,
                )
            )
        kept_ts: list[np.ndarray] = []
        kept_vs: list[np.ndarray] = []
        for chunk in chunks:
            timestamps, values = _decode_chunk(
                chunk_source, server_id, chunk, want_values, bounds, stats
            )
            if not timestamps.shape[0]:
                continue
            if values is None:
                # Unprojected values surface as NaN -- "not loaded", never
                # a fabricated 0.0 load.
                values = np.full(timestamps.shape[0], np.nan, dtype="<f8")
            elif copy:
                values = values.copy()
            kept_ts.append(timestamps.copy() if copy else timestamps)
            kept_vs.append(values)
        if not kept_ts:
            if bounds is not None:
                continue  # no samples in range: server omitted
            timestamps = np.empty(0, dtype="<i8")
            values = np.empty(0, dtype="<f8")
        elif len(kept_ts) == 1:
            timestamps, values = kept_ts[0], kept_vs[0]
        else:
            for prev, nxt in zip(kept_ts, kept_ts[1:], strict=False):
                if int(nxt[0]) <= int(prev[-1]):
                    raise ColumnarFormatError(
                        f"garbled .sgx extract: out-of-order chunks for server {server_id!r}"
                    )
            timestamps = np.concatenate(kept_ts)
            values = np.concatenate(kept_vs)
        yield metadata, LoadSeries(timestamps, values, interval_minutes, validate=False)


def frame_from_sgx_bytes(
    data,
    interval_minutes: int | None = None,
    start_minute: int | None = None,
    end_minute: int | None = None,
    stats: SgxReadStats | None = None,
    *,
    servers: Collection[str] | None = None,
    predicate: Callable[[ServerMetadata], bool] | None = None,
    columns: Iterable[str] | None = None,
) -> LoadFrame:
    """Deserialise ``.sgx`` bytes into a :class:`LoadFrame`.

    ``interval_minutes`` defaults to the interval recorded in the header.
    When ``start_minute``/``end_minute`` bound a half-open time range,
    chunks whose zone map falls outside it are skipped without reading or
    verifying their payload -- per-day chunking makes that pruning
    effective *within* a server -- and overlapping chunks are cut to the
    range; servers with no samples in range are omitted from the result.
    A server's surviving chunks are merged back into one series.

    ``servers``/``predicate``/``columns`` push server filtering and
    column projection down to the byte level -- see
    :func:`scan_sgx_bytes`, which this wraps.

    ``data`` is what :func:`scan_sgx_bytes` accepts: a ``bytes``,
    ``bytearray`` or ``memoryview`` (never copied wholesale -- a pruned
    read materialises only the slices it keeps) or an
    :class:`SgxSegment`.  ``stats``, when given, is filled with
    chunk/byte counters for observability.
    """
    segment = _as_segment(data)
    if interval_minutes is None:
        interval_minutes = segment.structure.interval_minutes
    frame = LoadFrame(interval_minutes)
    for metadata, series in scan_sgx_bytes(
        segment,
        interval_minutes,
        start_minute,
        end_minute,
        servers=servers,
        predicate=predicate,
        columns=columns,
        stats=stats,
    ):
        frame.add_server(metadata, series)
    return frame


# --------------------------------------------------------------------- #
# Aggregation
# --------------------------------------------------------------------- #


def aggregate_sgx_bytes(
    data,
    accumulator,
    start_minute: int | None = None,
    end_minute: int | None = None,
    *,
    servers: Collection[str] | None = None,
    predicate: Callable[[ServerMetadata], bool] | None = None,
    stats: SgxReadStats | None = None,
) -> None:
    """Fold ``.sgx`` bytes into an :class:`~repro.storage.aggregate.AggregateAccumulator`.

    The decode-free read path: ``data`` is taken and its structure
    verified exactly as in :func:`scan_sgx_bytes`, and the pushdowns of
    :func:`_prune` decide which chunk-table rows survive.  A surviving
    row is *answerable from statistics* when that is exact: the chunk
    lies fully inside the time range and, when grouping by day, does not
    straddle a day boundary.  All answerable rows of the segment are
    folded in one array reduction per group key
    (:meth:`~repro.storage.aggregate.AggregateAccumulator.fold_chunk_table`);
    only the rest -- partial-overlap chunks, day-straddling chunks, and
    under an unbounded by-day grouping the empty chunk's sentinel zone
    map -- are fetched, CRC-verified, decoded and folded sample by
    sample.  The pairwise merge inside the accumulator makes mixing the
    two sources exact.

    Chunks answered from statistics never have their payload read or
    checksummed -- their integrity rests on the structure CRC, which
    covers every chunk-table field.  ``stats`` counts them in
    ``chunks_answered_from_stats``/``bytes_decoded_avoided``.
    """
    segment = _as_segment(data)
    structure = segment.structure
    chunks = structure.chunks
    bounds, server_kept, row_kept, row_server = _prune(
        structure, start_minute, end_minute, servers, predicate
    )
    answerable = row_kept.copy()
    if bounds is not None:
        answerable &= (chunks["min_ts"] >= bounds[0]) & (chunks["max_ts"] < bounds[1])
    if accumulator.by_day:
        answerable &= chunks["min_ts"] // MINUTES_PER_DAY == chunks["max_ts"] // MINUTES_PER_DAY
    if stats is not None:
        # Python ints: the u64 point counts passed the structure's bounds
        # check, so these sums are the exact byte counts.
        n_points = chunks["n_points"]
        stats.servers_seen += server_kept.shape[0]
        stats.servers_skipped += server_kept.shape[0] - int(np.count_nonzero(server_kept))
        stats.chunks_seen += chunks.shape[0]
        stats.chunks_pruned += chunks.shape[0] - int(np.count_nonzero(row_kept))
        stats.payload_bytes_total += int(n_points.sum()) * _POINT_BYTES
        stats.chunks_answered_from_stats += int(np.count_nonzero(answerable))
        stats.bytes_decoded_avoided += int(n_points[answerable].sum()) * _POINT_BYTES
    # Answered from the chunk table alone: the payloads stay unread; the
    # statistics are vouched for by the already-verified structure CRC.
    # (``compress``, not a mask index: numpy copies masked records of a
    # structured dtype several times slower.)
    accumulator.fold_chunk_table(
        chunks.compress(answerable),
        row_server.compress(answerable),
        structure.server_ids.__getitem__,
    )
    decode = row_kept & ~answerable
    for chunk, index in zip(
        chunks.compress(decode).tolist(), row_server.compress(decode).tolist(), strict=True
    ):
        server_id = structure.server_ids[index]
        timestamps, values = _decode_chunk(
            segment._source, server_id, chunk, accumulator.values_needed, bounds, stats
        )
        accumulator.fold_columns(server_id, timestamps, values)


# --------------------------------------------------------------------- #
# Inspection
# --------------------------------------------------------------------- #


def sgx_summary(data) -> dict[str, object]:
    """Describe ``.sgx`` bytes without verifying payload checksums.

    Returns header fields plus one zone-map entry per chunk (each tagged
    with its server id -- a server contributes one entry per day
    chunk) -- the inspection hook for tests and debugging (cheap:
    payloads are skipped, not read).
    """
    structure = _parse_structure(_as_view(data))
    fields = ["n_points", "min_ts", "max_ts", "vs_sum", "vs_min", "vs_max", "vs_sum_sq"]
    table = structure.chunks[fields]
    chunks: list[dict[str, object]] = []
    for metadata, first, end, _n_points in structure.servers:
        for row in table[first:end].tolist():
            chunks.append(
                {"server_id": metadata.server_id, **dict(zip(fields, row, strict=True))}
            )
    return {
        "version": VERSION,  # the only one _parse_structure accepts
        "interval_minutes": structure.interval_minutes,
        "n_servers": len(structure.servers),
        "n_dictionary_strings": structure.n_dictionary_strings,
        "n_points": sum(n_points for *_server, n_points in structure.servers),
        "n_chunks": len(chunks),
        "n_bytes": structure.n_bytes,
        "chunks": chunks,
    }
