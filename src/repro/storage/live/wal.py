"""Append-only, CRC-framed write-ahead log for the lake's live tail.

One ``tail.wal`` file per active ``(region, week)`` partition, living under
``_manifest/live/<region>/week<NNNN>.tail.wal`` -- *inside* the manifest
directory on purpose: the manifest's orphan sweep and ``collect_garbage``
never descend into ``_manifest``'s subdirectories, so an active tail can
never be reclaimed as garbage.  The hot append path stays out of the
strict per-mutation manifest protocol (the partially-constrained-log idea:
constrain only what recovery needs); durability is fsync-*batched*, so a
crashed collector loses at most the batches appended since the last fsync.

On-disk layout::

    header   MAGIC "SGWL" | u16 version | u32 interval_minutes |
             u32 week | i64 sealed_through | u16 len | region utf-8 |
             u32 crc32(everything before)
    frame*   u32 payload_len | u32 crc32(payload) | payload
    payload  u32 meta_len | meta json (one server's metadata + row count) |
             i64 timestamps ... | f64 values ...

Each frame is one ingested batch for one server: raw (possibly irregular)
``(timestamp, value)`` samples.  Readers bucket them onto the extract grid
with :func:`repro.timeseries.resample.regularize`.

``sealed_through`` is the tail's low-water mark: rows strictly below it
have been sealed into an immutable ``.sgx`` segment by a committed
manifest transaction and must be ignored on replay.  Because a crash can
land *between* the manifest commit and the WAL rewrite that trims the
sealed rows, the header is not the whole truth: the committed generation
carries the seal's watermark too (``ManifestSnapshot.sealed_through``,
published by the same pointer swap as the segment), and replay and reads
cut at the higher of the two, so sealed rows surface exactly once.

A torn tail (crash mid-append) is detected by the length/CRC framing:
the partial last frame is dropped *loudly* (a :class:`LiveWalWarning` plus
counters in :class:`TailReplay`) and every complete frame before it
survives -- mirroring the manifest txlog's torn-tail semantics.

Both readers share one frame walk (:func:`_walk_frames`).
:func:`read_tail` is the full replay -- header to EOF -- that the writer
heals from and the tests use as reference.  :class:`LiveTailIndex`, the
query side, runs the same walk from the end of the last frame it already
verified: the file is append-only between seals and atomically *replaced*
by every trim or heal, so a verified prefix stays verified until the file
is no longer the same file, and a read costs the frames appended since
the previous read instead of every frame since the last seal.
"""

from __future__ import annotations

import json
import os
import re
import struct
import warnings
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.storage.manifest.manifest import LIVE_DIR_NAME, MANIFEST_DIR_NAME, _fsync_dir
from repro.timeseries.frame import ServerMetadata

__all__ = [
    "LIVE_DIR_NAME",
    "NO_WATERMARK",
    "LiveTailIndex",
    "LiveWalError",
    "LiveWalWarning",
    "TailFrame",
    "TailReplay",
    "TailSnapshot",
    "TailWal",
    "live_dir",
    "wal_path",
]

_WAL_MAGIC = b"SGWL"
_WAL_VERSION = 1
#: ``magic | version | interval | week | sealed_through | region_len``
_HEADER_FIXED = struct.Struct("<4sHIIqH")
_FRAME_HEADER = struct.Struct("<II")
_U32 = struct.Struct("<I")

#: ``sealed_through`` sentinel for "nothing sealed yet": below every valid
#: epoch minute (:data:`repro.timeseries.calendar.MIN_MINUTE`).
NO_WATERMARK = -(1 << 62)

_WAL_NAME_RE = re.compile(r"^week(?P<week>\d{4,})\.tail\.wal$")


class LiveWalError(RuntimeError):
    """A live-tail WAL could not be read or written coherently."""


class LiveWalWarning(UserWarning):
    """Emitted when replay drops torn/corrupt WAL bytes (loud, not silent)."""


def live_dir(root: Path) -> Path:
    """The lake's live-tail directory (``<root>/_manifest/live``)."""
    return root / MANIFEST_DIR_NAME / LIVE_DIR_NAME


def wal_path(root: Path, region: str, week: int) -> Path:
    """Path of the tail WAL for one ``(region, week)`` partition."""
    return live_dir(root) / region / f"week{week:04d}.tail.wal"


@dataclass(frozen=True)
class TailFrame:
    """One replayed WAL frame: a raw ingested batch for one server."""

    metadata: ServerMetadata
    timestamps: np.ndarray  # int64 epoch minutes, batch order (may be irregular)
    values: np.ndarray  # float64

    def __len__(self) -> int:
        return int(self.timestamps.size)


@dataclass
class TailReplay:
    """What :func:`read_tail` recovered from one WAL file."""

    region: str
    week: int
    interval_minutes: int
    sealed_through: int
    frames: list[TailFrame] = field(default_factory=list)
    #: Complete frames whose rows all predate the effective watermark
    #: (sealed by a committed transaction; dropped as duplicates).
    frames_deduped: int = 0
    #: Torn/corrupt frames dropped from the tail of the file.
    frames_dropped: int = 0
    bytes_dropped: int = 0

    @property
    def torn(self) -> bool:
        return self.frames_dropped > 0 or self.bytes_dropped > 0

    @property
    def rows(self) -> int:
        return sum(len(frame) for frame in self.frames)


def _encode_header(
    region: str, week: int, interval_minutes: int, sealed_through: int
) -> bytes:
    name = region.encode("utf-8")
    body = _HEADER_FIXED.pack(
        _WAL_MAGIC, _WAL_VERSION, interval_minutes, week, sealed_through, len(name)
    ) + name
    return body + _U32.pack(zlib.crc32(body))


def encode_frame(metadata: ServerMetadata, timestamps: np.ndarray, values: np.ndarray) -> bytes:
    """Encode one batch as a self-checking WAL frame."""
    ts = np.ascontiguousarray(timestamps, dtype=np.int64)
    vs = np.ascontiguousarray(values, dtype=np.float64)
    if ts.shape != vs.shape or ts.ndim != 1:
        raise LiveWalError("batch timestamps/values must be equal-length 1-d arrays")
    meta = json.dumps(
        {
            "server": metadata.server_id,
            "region": metadata.region,
            "engine": metadata.engine,
            "backup_start": metadata.default_backup_start,
            "backup_end": metadata.default_backup_end,
            "backup_duration": metadata.backup_duration_minutes,
            "true_class": metadata.true_class,
            "rows": int(ts.size),
        },
        sort_keys=True,
    ).encode("utf-8")
    payload = _U32.pack(len(meta)) + meta + ts.tobytes() + vs.tobytes()
    return _FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _decode_payload(payload: memoryview) -> TailFrame:
    if len(payload) < _U32.size:
        raise LiveWalError("frame payload shorter than its metadata length field")
    (meta_len,) = _U32.unpack_from(payload)
    meta_end = _U32.size + meta_len
    column_bytes = len(payload) - meta_end
    if column_bytes < 0 or column_bytes % 16 != 0:
        raise LiveWalError("frame payload does not frame two equal column buffers")
    meta = json.loads(str(payload[_U32.size:meta_end], "utf-8"))
    rows = column_bytes // 16
    if int(meta.get("rows", rows)) != rows:
        raise LiveWalError("frame metadata row count disagrees with payload size")
    ts = np.frombuffer(payload, dtype=np.int64, count=rows, offset=meta_end)
    vs = np.frombuffer(payload, dtype=np.float64, count=rows, offset=meta_end + rows * 8)
    metadata = ServerMetadata(
        server_id=str(meta["server"]),
        region=str(meta.get("region", "")),
        engine=str(meta.get("engine", "postgresql")),
        default_backup_start=int(meta.get("backup_start", 0)),
        default_backup_end=int(meta.get("backup_end", 0)),
        backup_duration_minutes=int(meta.get("backup_duration", 60)),
        true_class=str(meta.get("true_class", "")),
    )
    return TailFrame(metadata, ts.copy(), vs.copy())


class _FrameWalk(NamedTuple):
    """What :func:`_walk_frames` verified in one buffer."""

    #: Surviving frames in append order, cut to rows at or above the watermark.
    frames: list[TailFrame]
    #: Complete frames whose rows all predate the watermark.
    deduped: int
    #: Buffer index just past the last complete, CRC-verified, decoded
    #: frame; anything between it and the end of the buffer is torn.
    end: int
    #: Buffer index of that last frame's 8-byte frame header (the walk's
    #: starting index when it verified no frame).
    last_frame: int


def _walk_frames(data: bytes, offset: int, watermark: int) -> _FrameWalk:
    """Walk the frames of ``data`` from ``offset``: the one frame parser.

    Length/CRC framing, payload decode, watermark filter, and a stop at
    the first frame that is incomplete, fails its CRC or does not decode
    -- framing trust is gone from there on, so nothing after it is
    looked at.  The walk neither warns nor counts: whoever calls it
    decides whether ``end < len(data)`` is loud (:func:`read_tail`) or
    simply retried on the next growth (:class:`LiveTailIndex`).
    """
    view = memoryview(data)
    frames: list[TailFrame] = []
    deduped = 0
    last_frame = offset
    while len(view) - offset >= _FRAME_HEADER.size:
        length, crc = _FRAME_HEADER.unpack_from(view, offset)
        end = offset + _FRAME_HEADER.size + length
        if end > len(view):
            break
        payload = view[offset + _FRAME_HEADER.size:end]
        if zlib.crc32(payload) != crc:
            break
        try:
            frame = _decode_payload(payload)
        except (LiveWalError, ValueError, KeyError):
            # The CRC passed but the payload does not parse: as torn as
            # a failed CRC.
            break
        last_frame, offset = offset, end
        keep = frame.timestamps >= watermark
        if keep.all():
            frames.append(frame)
        elif keep.any():
            frames.append(
                TailFrame(frame.metadata, frame.timestamps[keep], frame.values[keep])
            )
        else:
            deduped += 1
    return _FrameWalk(frames, deduped, offset, last_frame)


def read_tail(path: Path, *, watermark: int | None = None) -> TailReplay | None:
    """Replay one WAL file; ``None`` when it does not exist.

    ``watermark``, when given, is the committed generation's seal
    watermark; frames are filtered to rows at or above the higher of it
    and the header's, so sealed rows never surface twice.  A torn or
    corrupt tail is dropped loudly: every complete, checksummed frame
    before the damage survives, the rest is counted in the replay report
    and warned about.  A file torn inside its *header*
    (creation crashed before the first fsync) replays as an empty,
    headerless tail -- the caller recreates it.
    """
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return None
    header_probe = _try_decode_header(data)
    if header_probe is None:
        warnings.warn(
            f"live tail {path.name}: header torn or corrupt; "
            f"treating the whole file ({len(data)} bytes) as an unacknowledged tail",
            LiveWalWarning,
            stacklevel=2,
        )
        replay = TailReplay("", -1, 0, NO_WATERMARK)
        replay.bytes_dropped = len(data)
        replay.frames_dropped = 0
        return replay
    region, week, interval, sealed_through, offset = header_probe
    effective = sealed_through if watermark is None else max(sealed_through, watermark)
    walk = _walk_frames(data, offset, effective)
    replay = TailReplay(
        region, week, interval, effective, walk.frames, frames_deduped=walk.deduped
    )
    if walk.end < len(data):
        replay.frames_dropped = 1
        replay.bytes_dropped = len(data) - walk.end
        warnings.warn(
            f"live tail {path.name}: dropped {replay.bytes_dropped} torn trailing "
            f"byte(s) ({replay.frames_dropped} partial frame(s)); "
            f"{len(replay.frames)} complete frame(s) survive",
            LiveWalWarning,
            stacklevel=2,
        )
    return replay


def _try_decode_header(
    data: bytes,
) -> tuple[str, int, int, int, int] | None:
    """Decode the WAL header; ``None`` when torn/corrupt.

    Returns ``(region, week, interval_minutes, sealed_through,
    first_frame_offset)``.
    """
    if len(data) < _HEADER_FIXED.size:
        return None
    magic, version, interval, week, sealed_through, name_len = _HEADER_FIXED.unpack_from(
        data
    )
    if magic != _WAL_MAGIC or version != _WAL_VERSION:
        return None
    end = _HEADER_FIXED.size + name_len
    if len(data) < end + _U32.size:
        return None
    (crc,) = _U32.unpack_from(data, end)
    if zlib.crc32(data[:end]) != crc:
        return None
    region = data[_HEADER_FIXED.size:end].decode("utf-8")
    return region, week, interval, sealed_through, end + _U32.size


class TailWal:
    """Writer handle for one partition's tail WAL.

    ``open()`` replays the existing file (if any), self-heals a torn tail
    by atomically rewriting the surviving frames, and leaves the handle
    positioned for appends.  Appends are fsync-batched: every
    ``fsync_every``-th frame (and every explicit :meth:`flush`) makes the
    log durable; a crash loses at most the batches since then.
    """

    def __init__(
        self,
        path: Path,
        region: str,
        week: int,
        interval_minutes: int,
        *,
        fsync_every: int,
    ) -> None:
        if fsync_every < 1:
            raise ValueError("fsync_every must be at least 1")
        self._path = path
        self._region = region
        self._week = week
        self._interval = interval_minutes
        self._fsync_every = fsync_every
        self._handle = None  # type: ignore[assignment]
        self._unsynced = 0
        self._sealed_through = NO_WATERMARK

    # ------------------------------------------------------------------ #

    @classmethod
    def open(
        cls,
        path: Path,
        region: str,
        week: int,
        interval_minutes: int,
        *,
        fsync_every: int = 16,
        watermark: int | None = None,
    ) -> tuple["TailWal", TailReplay]:
        """Open (creating or replaying) the WAL; returns ``(wal, replay)``.

        Leftover ``*.tmp-*`` siblings from a crashed rewrite are removed
        first -- they were never acknowledged.  A replayed file whose tail
        was torn, whose header was unreadable, or whose frames were partly
        deduped against ``watermark`` is rewritten in place (atomically)
        so the on-disk bytes are coherent before the first new append.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        for stray in path.parent.glob(path.name + ".tmp-*"):
            stray.unlink(missing_ok=True)
        wal = cls(path, region, week, interval_minutes, fsync_every=fsync_every)
        replay = read_tail(path, watermark=watermark)
        if replay is None:
            replay = TailReplay(region, week, interval_minutes, NO_WATERMARK)
            if watermark is not None:
                replay.sealed_through = max(replay.sealed_through, watermark)
            wal._create(replay.sealed_through)
        else:
            stale_header = (
                replay.region != region
                or replay.week != week
                or replay.interval_minutes != interval_minutes
            )
            if stale_header and replay.frames:
                raise LiveWalError(
                    f"live tail {path} belongs to "
                    f"({replay.region!r}, week {replay.week}, "
                    f"{replay.interval_minutes}m), not "
                    f"({region!r}, week {week}, {interval_minutes}m)"
                )
            replay.region, replay.week = region, week
            replay.interval_minutes = interval_minutes
            needs_rewrite = (
                replay.torn or replay.frames_deduped > 0 or stale_header
                or (watermark is not None and watermark > replay.sealed_through)
            )
            if watermark is not None:
                replay.sealed_through = max(replay.sealed_through, watermark)
            if needs_rewrite:
                wal._rewrite(replay.frames, replay.sealed_through)
            else:
                wal._sealed_through = replay.sealed_through
                wal._handle = path.open("ab")
        return wal, replay

    @property
    def path(self) -> Path:
        return self._path

    @property
    def sealed_through(self) -> int:
        """Rows strictly below this epoch minute are sealed (durable in
        a committed ``.sgx`` segment) and no longer live in this WAL."""
        return self._sealed_through

    def _create(self, sealed_through: int) -> None:
        self._sealed_through = sealed_through
        self._handle = self._path.open("wb")
        self._handle.write(
            _encode_header(self._region, self._week, self._interval, sealed_through)
        )
        self._handle.flush()
        os.fsync(self._handle.fileno())
        _fsync_dir(self._path.parent)

    def append(
        self, metadata: ServerMetadata, timestamps: np.ndarray, values: np.ndarray
    ) -> None:
        """Append one batch frame (durable at the next fsync boundary)."""
        if self._handle is None:
            raise LiveWalError("tail WAL is closed")
        self._handle.write(encode_frame(metadata, timestamps, values))
        self._unsynced += 1
        if self._unsynced >= self._fsync_every:
            self.flush()

    def flush(self) -> None:
        """Make every appended frame durable now."""
        if self._handle is None:
            raise LiveWalError("tail WAL is closed")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._unsynced = 0

    def rewrite(self, frames: list[TailFrame], sealed_through: int) -> None:
        """Atomically replace the WAL with ``frames`` at a new watermark.

        The seal path's trim step: tmp file, fsync, ``os.replace``,
        directory fsync -- a crash anywhere leaves either the old complete
        WAL (replay dedupes against the committed generation's watermark)
        or the new complete one, never a mix.
        """
        self._rewrite(frames, sealed_through)

    def _rewrite(self, frames: list[TailFrame], sealed_through: int) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        tmp = self._path.with_name(f"{self._path.name}.tmp-{os.getpid()}")
        with tmp.open("wb") as handle:
            handle.write(
                _encode_header(self._region, self._week, self._interval, sealed_through)
            )
            for frame in frames:
                handle.write(encode_frame(frame.metadata, frame.timestamps, frame.values))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self._path)
        _fsync_dir(self._path.parent)
        self._sealed_through = sealed_through
        self._unsynced = 0
        self._handle = self._path.open("ab")

    def close(self) -> None:
        if self._handle is not None:
            self.flush()
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "TailWal":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# ---------------------------------------------------------------------- #
# Read-side view (what DataLakeStore queries consult)
# ---------------------------------------------------------------------- #


_Servers = dict[str, tuple[ServerMetadata, np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class TailSnapshot:
    """An immutable point-in-time view of one partition's live tail.

    ``servers`` maps server id to ``(metadata, timestamps, values)`` with
    the raw rows of every surviving frame concatenated in append order and
    already filtered to the effective seal watermark.  ``raw_rows`` counts
    them (that is what ``ScanStats.tail_rows_scanned`` reports).
    """

    region: str
    week: int
    interval_minutes: int
    sealed_through: int
    servers: _Servers

    @property
    def raw_rows(self) -> int:
        return sum(int(ts.size) for _, ts, _ in self.servers.values())


def _fold(servers: _Servers, frames: list[TailFrame]) -> _Servers:
    """``servers`` with ``frames`` appended, as a new mapping.

    Snapshots are handed to callers, so nothing they hold is written to:
    a server the frames touch gets new concatenated arrays, every other
    server's arrays are shared with ``servers`` as they are.  A server
    keeps the metadata of its first frame.
    """
    pieces: dict[str, list[TailFrame]] = {}
    for frame in frames:
        server_id = frame.metadata.server_id
        if server_id not in pieces:
            held = servers.get(server_id)
            pieces[server_id] = [TailFrame(*held)] if held is not None else []
        pieces[server_id].append(frame)
    out = dict(servers)
    for server_id, parts in pieces.items():
        out[server_id] = (
            parts[0].metadata,
            np.concatenate([part.timestamps for part in parts]),
            np.concatenate([part.values for part in parts]),
        )
    return out


@dataclass(frozen=True)
class _VerifiedPrefix:
    """What the index knows about one WAL file as of its last read of it.

    Every byte below ``offset`` belongs to the header or to a complete,
    CRC-verified, decoded frame, and every surviving row of those frames
    is in ``snapshot``.  Replaced whole on every read, never updated.
    """

    #: ``(st_dev, st_ino, st_size, st_mtime_ns)`` from ``fstat`` of the
    #: descriptor the bytes were read through.
    signature: tuple[int, int, int, int]
    #: The file's header bytes, and the seal watermark they carry.
    header: bytes
    header_sealed: int
    #: End of the last verified frame (of the header, before any frame).
    offset: int
    #: Where that frame's 8-byte frame header sits and what it reads
    #: (``b""`` before any frame).
    last_frame: int
    last_frame_header: bytes
    snapshot: TailSnapshot

    def unchanged_below_offset(self, fd: int, st: os.stat_result) -> bool:
        """Is the file open at ``fd`` still the file this prefix was read
        from, as far as the prefix reaches?  (Conditions 1, 2, 4 and 5 of
        :class:`LiveTailIndex`.)"""
        return (
            self.signature[:2] == (st.st_dev, st.st_ino)
            and st.st_size >= self.offset
            and os.pread(fd, len(self.header), 0) == self.header
            and os.pread(fd, len(self.last_frame_header), self.last_frame)
            == self.last_frame_header
        )


def _stat_signature(st: os.stat_result) -> tuple[int, int, int, int]:
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)


def _extend_prefix(
    path: Path, prefix: _VerifiedPrefix | None, watermark: int
) -> _VerifiedPrefix | None:
    """Verify and fold what the WAL at ``path`` holds past ``prefix``.

    The file is opened once; identity, header and new bytes all come from
    that descriptor, so the offset kept is an offset into the file that
    was checked.  Without a prefix that still holds, the walk starts
    behind the header with nothing folded -- the full replay.  ``None``:
    the file is gone or torn inside its header.  A torn tail is silent
    here (the owning ingestor warns and heals on its next open) and stays
    outside the prefix.
    """
    try:
        handle = path.open("rb", buffering=0)
    except FileNotFoundError:
        return None
    with handle:
        fd = handle.fileno()
        st = os.fstat(fd)
        if prefix is not None and prefix.unchanged_below_offset(fd, st):
            base = prefix.offset
            data = os.pread(fd, st.st_size - base, base)
        else:
            base = 0
            data = os.pread(fd, st.st_size, 0)
            probe = _try_decode_header(data)
            if probe is None:
                return None
            region, week, interval, sealed, end = probe
            nothing = TailSnapshot(region, week, interval, max(sealed, watermark), {})
            prefix = _VerifiedPrefix(
                _stat_signature(st), data[:end], sealed, end, end, b"", nothing
            )
    start = prefix.offset - base
    walk = _walk_frames(data, start, prefix.snapshot.sealed_through)
    if walk.end == start:
        return replace(prefix, signature=_stat_signature(st))
    return _VerifiedPrefix(
        _stat_signature(st),
        prefix.header,
        prefix.header_sealed,
        base + walk.end,
        base + walk.last_frame,
        data[walk.last_frame:walk.last_frame + _FRAME_HEADER.size],
        replace(prefix.snapshot, servers=_fold(prefix.snapshot.servers, walk.frames)),
    )


class LiveTailIndex:
    """Read-only, cross-process view of every live tail under one lake.

    Queries consult this instead of talking to a :class:`TailWal` writer;
    a reader in a different process than the ingestor sees exactly what
    is on disk.  The caller passes the partition's seal watermark from the
    committed snapshot it already resolved.  What is cached, per ``(region,
    week)`` and behind the stat signature of the WAL it was read from, is
    a :class:`_VerifiedPrefix`: the WAL's identity and header bytes, the
    offset up to which its frames were verified, and the per-server rows
    folded so far.

    A read whose WAL signature and watermark are what they were opens
    nothing.  Otherwise the WAL is opened once, ``fstat``-ed, and read
    through that descriptor, and the cached prefix is reused only if

    1. ``(st_dev, st_ino)`` are the prefix's,
    2. the header bytes are byte-equal,
    3. the effective watermark ``max(header, snapshot)`` is unchanged,
    4. ``st_size`` is not below the verified offset, and
    5. the frame header of the last verified frame still reads back
       identically at its offset (a delete + recreate can reuse an inode).

    Then only the bytes past the verified offset are read, verified and
    folded; anything else is the same walk with no prefix.  Growth never
    invalidates: the writer only appends between seals, and a trim or a
    heal replaces the file (new inode, and a new header when the
    watermark moved), so bytes once verified cannot change while 1-5
    hold.  A torn last frame is not part of the prefix -- the offset
    stays before it and the next read looks at it again -- so a reader
    that saw half a frame returns the whole frame once the writer
    finishes it.
    """

    def __init__(self, root: Path) -> None:
        self._root = root
        self._prefixes: dict[tuple[str, int], _VerifiedPrefix] = {}

    def keys(self) -> list[tuple[str, int]]:
        """Partitions with an on-disk tail WAL, sorted."""
        base = live_dir(self._root)
        if not base.is_dir():
            return []
        found: list[tuple[str, int]] = []
        for region_dir in base.iterdir():
            if not region_dir.is_dir():
                continue
            for path in region_dir.iterdir():
                match = _WAL_NAME_RE.match(path.name)
                if match is not None:
                    found.append((region_dir.name, int(match.group("week"))))
        return sorted(found)

    def tail(self, region: str, week: int, sealed_through: int | None) -> TailSnapshot | None:
        """The partition's current tail snapshot above ``sealed_through``,
        its committed seal watermark (``None``: never sealed), or ``None``
        when it has no tail or an empty one."""
        key = (region, week)
        watermark = NO_WATERMARK if sealed_through is None else sealed_through
        path = wal_path(self._root, region, week)
        try:
            signature = _stat_signature(path.stat())
        except FileNotFoundError:
            self._prefixes.pop(key, None)
            return None
        prefix = self._prefixes.get(key)
        if prefix is not None and (
            max(prefix.header_sealed, watermark) != prefix.snapshot.sealed_through
        ):
            prefix = None  # its rows were cut at another watermark
        if prefix is None or prefix.signature != signature:
            prefix = _extend_prefix(path, prefix, watermark)
            if prefix is None:
                self._prefixes.pop(key, None)
                return None
            self._prefixes[key] = prefix
        return prefix.snapshot if prefix.snapshot.servers else None
