"""Generation-numbered lake manifest: atomic, crash-safe lake mutations.

A manifested lake keeps its truth in ``<root>/_manifest/``::

    _manifest/
        MANIFEST.json      # tiny pointer: {"generation": N, "txid", "file"}
        gen-00000000.json  # immutable snapshot of generation 0
        gen-00000001.json  # ... one file per committed generation
        txlog.jsonl        # the transaction in flight; empty at rest (txlog.py)
        LOCK               # advisory flock taken by writers

Payload bytes live in immutable, content-addressed ``.sgx`` **segment
files** (``<region>/extract_<region>_week<NNNN>-<sha12>.sgx``); a
generation file is just the list of segments that make up the lake at
that point in time, one per ``(region, week)``.  Mutations never touch
published files: a transaction stages new
segments under temp names, fsyncs them into place, writes generation
``N+1``'s snapshot file, and finally publishes it by atomically swapping
``MANIFEST.json`` via ``os.replace`` -- the one instant the transaction
commits.  A snapshot also carries each live partition's seal watermark
(``sealed_through``), so the swap publishes a sealed segment and its
watermark together.  The transaction log records the steps of the one
transaction in flight, so crash recovery can always tell "not yet
committed, roll the leftovers back" from "committed, only the log reset
is missing".

Readers load a snapshot once and keep it: every file a snapshot
references is immutable and survives until an explicit
:meth:`LakeManifest.collect_garbage`, so a reader (or out-of-process
fleet worker) pinned to generation ``N`` is untouched by concurrent
writes and conversions.  An overwrite therefore retires the file it
replaces *logically* -- the new generation no longer references it --
and ``collect_garbage`` is the only code that unlinks published payload
files.

A directory without a committed pointer is generation 0, the empty
lake.  Extract files that predate the manifest
(``<region>/extract_<region>_week<NNNN>.<sgx|csv>``) are not part of it:
:meth:`LakeManifest.legacy_files` finds them, ``DataLakeStore`` refuses
to open such a directory (:class:`LakeNotAdoptedError`), and
``python -m repro.fleet_ops convert`` adopts them in one transaction.
The same holds for a generation an older store committed with CSV
entries (``-<sha12>.csv``): it loads, with those entries apart in
:attr:`ManifestSnapshot.unimported`, but it opens nowhere and publishes
no successor until that adoption has staged every key they name.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from collections.abc import Collection, Mapping
from dataclasses import asdict, dataclass, field
from pathlib import Path
from types import MappingProxyType, TracebackType

from repro.storage.manifest.faults import fault_point
from repro.storage.manifest.txlog import TransactionLog

try:  # pragma: no cover - POSIX everywhere we run; the fallback documents intent
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "FAULT_POINTS",
    "GcReport",
    "LIVE_DIR_NAME",
    "LakeManifest",
    "LakeManifestError",
    "LakeNotAdoptedError",
    "LakeNotFoldedError",
    "ManifestSnapshot",
    "ManifestTransaction",
    "SegmentEntry",
]

MANIFEST_DIR_NAME = "_manifest"
POINTER_NAME = "MANIFEST.json"
TXLOG_NAME = "txlog.jsonl"
LOCK_NAME = "LOCK"
#: Subdirectory of ``_manifest`` owned by :mod:`repro.storage.live`:
#: active tail WALs (``live/<region>/week<NNNN>.tail.wal``).  Those files
#: hold *unsealed* ingested rows -- data that exists nowhere else -- so
#: neither the orphan sweep nor :meth:`LakeManifest.collect_garbage` may
#: ever reclaim anything under it.  The one walk both run
#: (``LakeManifest._reclaim``) is structurally safe (a non-recursive
#: ``_manifest`` glob; region walks skip ``_manifest`` entirely) and
#: additionally skips directories outright; live-tail hygiene (crashed
#: rewrite temps, fully-sealed WALs) is the ingestor's job on open, never
#: gc's.
LIVE_DIR_NAME = "live"

#: Every crash-injectable step of a transaction, in protocol order.  The
#: pointer swap at ``manifest.pointer`` is the commit point: a crash at
#: any earlier point recovers to the *pre*-transaction generation, a
#: crash there or later recovers to the *post*-transaction generation.
FAULT_POINTS: tuple[str, ...] = (
    "txlog.intent",
    "segment.tmp",
    "segment.final",
    "txlog.staged",
    "manifest.generation",
    "manifest.pointer",
    "txlog.reset",
)

#: Content-addressed segment file names: the legacy stem plus 12 hex
#: digits of the payload's sha256.  The week digits being followed by
#: ``-<hash>`` is what keeps these names apart from legacy ones (whose
#: stem *ends* in digits).  ``.csv`` ones are an older store's entries,
#: garbage once adoption has imported them.
_SEGMENT_RE = re.compile(
    r"extract_(?P<region>.+)_week(?P<week>\d{4,})-(?P<sha>[0-9a-f]{12})\.(sgx|csv)$"
)

#: Legacy (pre-manifest) extract file names, exactly as
#: ``ExtractKey.filename`` produces them.
_LEGACY_RE = re.compile(r"extract_(?P<region>.+)_week(?P<week>\d{4,})\.(?P<fmt>sgx|csv)$")


class LakeManifestError(RuntimeError):
    """Raised for manifest protocol violations (missing generations,
    writes against a pinned snapshot, corrupt manifest files)."""


class LakeNotAdoptedError(LakeManifestError):
    """Raised on opening a directory whose extract files predate the
    manifest, or a generation holding CSV entries, and on committing on
    such a generation: ``python -m repro.fleet_ops convert`` has to adopt
    them."""


class LakeNotFoldedError(LakeManifestError):
    """Raised on opening a lake whose committed generation predates seal
    watermarks in generations: ``python -m repro.fleet_ops convert`` has
    to fold them in from the transaction log."""


def _gen_filename(generation: int) -> str:
    return f"gen-{generation:08d}.json"


def _fsync_dir(path: Path) -> None:
    """fsync a directory so a just-renamed entry survives a crash."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_file_durably(path: Path, payload: bytes) -> None:
    with path.open("wb") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())


@dataclass(frozen=True)
class SegmentEntry:
    """One immutable payload file of one generation."""

    region: str
    week: int
    #: Path relative to the lake root (``<region>/<filename>``).
    relpath: str
    size: int
    #: Hex sha256 of the payload bytes.
    sha256: str

    def as_dict(self) -> dict[str, object]:
        return {
            "region": self.region,
            "week": self.week,
            "relpath": self.relpath,
            "size": self.size,
            "sha256": self.sha256,
        }

    @staticmethod
    def from_dict(raw: dict[str, object]) -> "SegmentEntry":
        try:
            sha256 = raw["sha256"]
            if not isinstance(sha256, str):
                raise TypeError("sha256 is not a string")
            return SegmentEntry(
                region=str(raw["region"]),
                week=int(raw["week"]),  # type: ignore[arg-type]
                relpath=str(raw["relpath"]),
                size=int(raw["size"]),  # type: ignore[arg-type]
                sha256=sha256,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed entry {raw!r} ({exc!r})") from exc


@dataclass(frozen=True)
class ManifestSnapshot:
    """One committed generation: an immutable view of the whole lake.

    Pure data -- a snapshot stays valid however far the live lake moves
    on, as long as no :meth:`LakeManifest.collect_garbage` retires the
    files it references.
    """

    generation: int
    txid: str | None
    segments: tuple[SegmentEntry, ...]
    #: Seal watermark of every sealed ``(region, week)``: its rows strictly
    #: below the watermark are in the partition's committed segment.
    sealed_through: Mapping[tuple[str, int], int] = field(default_factory=dict)
    #: CSV entries an older store committed (``-<sha12>.csv``): never
    #: read, kept referenced until adoption imports them.
    unimported: tuple[SegmentEntry, ...] = ()
    #: The generation file has no ``sealed_through``: a store from before
    #: watermarks in generations wrote it, and its log (read without
    #: recovery: it is history) holds them until ``convert`` folds them in.
    unfolded: bool = False
    _index: dict[tuple[str, int], SegmentEntry] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        index = {(e.region, e.week): e for e in self.segments}
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "sealed_through", MappingProxyType(dict(self.sealed_through)))

    def entry(self, region: str, week: int) -> SegmentEntry | None:
        return self._index.get((region, week))

    def keys(self) -> list[tuple[str, int]]:
        """Sorted ``(region, week)`` pairs with a segment."""
        return sorted(self._index)

    def relpaths(self) -> frozenset[str]:
        return frozenset(entry.relpath for entry in (*self.segments, *self.unimported))

    def as_dict(self) -> dict[str, object]:
        ordered = sorted(self.segments, key=lambda e: (e.region, e.week))
        return {
            "generation": self.generation,
            "txid": self.txid,
            "segments": [entry.as_dict() for entry in ordered],
            "sealed_through": [
                {"region": region, "week": week, "through": through}
                for (region, week), through in sorted(self.sealed_through.items())
            ],
        }


#: Generation 0 of every lake: what a directory with no committed pointer
#: holds.
EMPTY_SNAPSHOT = ManifestSnapshot(generation=0, txid=None, segments=())


@dataclass
class GcReport:
    """What one :meth:`LakeManifest.collect_garbage` pass reclaimed."""

    segments_removed: int = 0
    generations_removed: int = 0
    tmp_removed: int = 0
    bytes_freed: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


class _WriterLock:
    """Advisory exclusive lock on ``_manifest/LOCK``.

    ``flock`` is released by the kernel when the holding process dies,
    which is the property the crash model relies on; in-process the
    simulated-crash path closes the descriptor, which releases the lock
    the same way.  On platforms without :mod:`fcntl` the lock degrades to
    a no-op (single-writer discipline is then the caller's problem).
    """

    def __init__(self, path: Path) -> None:
        self._path = path
        self._fd: int | None = None

    def acquire(self, blocking: bool = True) -> bool:
        self._path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(self._path, os.O_RDWR | os.O_CREAT, 0o644)
        if fcntl is not None:
            flags = fcntl.LOCK_EX | (0 if blocking else fcntl.LOCK_NB)
            try:
                fcntl.flock(fd, flags)
            except OSError:
                os.close(fd)
                return False
        self._fd = fd
        return True

    def release(self) -> None:
        if self._fd is not None:
            os.close(self._fd)  # closing drops the flock, like process death
            self._fd = None


class LakeManifest:
    """The manifest of one on-disk lake rooted at ``root``."""

    def __init__(self, root: str | Path) -> None:
        self._root = Path(root)
        self._dir = self._root / MANIFEST_DIR_NAME
        self._log = TransactionLog(self._dir / TXLOG_NAME)
        self._snapshots: dict[int, ManifestSnapshot] = {}
        self._recovered = False
        self._txn_counter = 0

    # ------------------------------------------------------------------ #
    # Paths and basic state
    # ------------------------------------------------------------------ #

    @property
    def root(self) -> Path:
        return self._root

    @property
    def directory(self) -> Path:
        return self._dir

    @property
    def pointer_path(self) -> Path:
        return self._dir / POINTER_NAME

    @property
    def log(self) -> TransactionLog:
        return self._log

    def exists(self) -> bool:
        """Whether anything has been committed (the pointer exists)."""
        return self.pointer_path.exists()

    def _read_pointer(self) -> tuple[int, object] | None:
        """``(generation, txid)`` of the committed pointer, ``None`` when
        nothing has been committed yet."""
        try:
            raw = self.pointer_path.read_bytes()
        except FileNotFoundError:
            return None
        try:
            pointer = json.loads(raw)
            return int(pointer["generation"]), pointer.get("txid")
        except (KeyError, TypeError, ValueError) as exc:
            # The pointer is written atomically; a corrupt one means
            # something other than this module scribbled on it.
            raise LakeManifestError(f"corrupt manifest pointer {self.pointer_path}: {exc}") from exc

    def legacy_files(self) -> list[tuple[str, int, str, Path]]:
        """Pre-manifest extract files, as ``(region, week, fmt, path)``.

        Only a directory without a committed pointer has any: once a
        generation exists, the lake is what the manifest lists, and a file
        outside it is not part of the lake.  Only files named exactly
        ``extract_<region>_week<NNNN>.<fmt>`` under their own region
        directory count; content-addressed segments, temp files and
        foreign files do not.
        """
        if self.exists():
            return []
        found = []
        for region_dir in self._region_dirs():
            for path in sorted(region_dir.iterdir()):
                match = _LEGACY_RE.fullmatch(path.name)
                if match is not None and match.group("region") == region_dir.name:
                    week, fmt = int(match.group("week")), match.group("fmt")
                    found.append((region_dir.name, week, fmt, path))
        return found

    def _region_dirs(self) -> list[Path]:
        dirs = self._root.iterdir()
        return sorted(path for path in dirs if path.is_dir() and path.name != MANIFEST_DIR_NAME)

    # ------------------------------------------------------------------ #
    # Snapshots
    # ------------------------------------------------------------------ #

    def current(self) -> ManifestSnapshot:
        """The last *committed* generation (after crash recovery, if due)."""
        self.ensure_recovered()
        return self.head()

    def head(self) -> ManifestSnapshot:
        """The last committed generation, read without crash recovery
        (which never moves the pointer)."""
        pointer = self._read_pointer()
        if pointer is None:
            return EMPTY_SNAPSHOT
        return self._load_generation(pointer[0])

    def snapshot_at(self, generation: int) -> ManifestSnapshot:
        """Load one committed generation by number (for pinned readers).

        Raises :class:`LakeManifestError` for generations that were never
        committed, are newer than the committed pointer, or whose
        snapshot file has been garbage-collected.
        """
        pointer = self._read_pointer()
        committed = 0 if pointer is None else pointer[0]
        if generation > committed:
            raise LakeManifestError(
                f"generation {generation} is not committed (lake is at {committed})"
            )
        if pointer is None and generation == 0:
            return EMPTY_SNAPSHOT
        return self._load_generation(generation)

    def _load_generation(self, generation: int) -> ManifestSnapshot:
        cached = self._snapshots.get(generation)
        if cached is not None:
            return cached
        path = self._dir / _gen_filename(generation)
        try:
            raw = json.loads(path.read_bytes())
            # Absent from a store from before watermarks: empty, which is
            # all a reader pinned to such a generation (no tail) needs.
            marks = raw.get("sealed_through")
            entries = [SegmentEntry.from_dict(entry) for entry in raw["segments"]]
            snapshot = ManifestSnapshot(
                generation=int(raw["generation"]),
                txid=raw.get("txid"),
                segments=tuple(e for e in entries if not e.relpath.endswith(".csv")),
                unimported=tuple(e for e in entries if e.relpath.endswith(".csv")),
                sealed_through={
                    (str(mark["region"]), int(mark["week"])): int(mark["through"])
                    for mark in marks or ()
                },
                unfolded=marks is None,
            )
        except FileNotFoundError:
            raise LakeManifestError(
                f"generation {generation} of {self._root} is gone "
                "(garbage-collected or never committed)"
            ) from None
        except (KeyError, TypeError, ValueError) as exc:
            raise LakeManifestError(f"corrupt manifest generation file {path}: {exc}") from exc
        self._snapshots[generation] = snapshot
        return snapshot

    # ------------------------------------------------------------------ #
    # Recovery
    # ------------------------------------------------------------------ #

    def ensure_recovered(self) -> None:
        """Run crash recovery once per handle (cheap when there is nothing
        to do).  Skipped entirely when another live writer holds the lock
        -- a dangling intent then belongs to *it*, not to a crash."""
        if self._recovered:
            return
        self._recovered = True
        if not self._dir.is_dir():
            return  # nothing was ever written: nothing to replay
        lock = _WriterLock(self._dir / LOCK_NAME)
        if not lock.acquire(blocking=False):
            return
        try:
            self._recover_locked(sweep=True)
        finally:
            lock.release()

    def _recover_locked(self, sweep: bool) -> None:
        """Resolve the transaction the log holds, reset the log and (with
        ``sweep``) remove crash leftovers.  Caller holds the lock;
        transaction begin resolves but skips the directory sweep (it is
        the open-time and gc-time job)."""
        try:
            pending = self._log.pending()
        except ValueError as exc:
            raise LakeManifestError(f"corrupt transaction log {self._log.path}: {exc}") from exc
        pointer = self._read_pointer()
        if pending is not None:
            target = pending.generation_from + 1
            if pointer != (target, pending.txid):
                # Not committed: the old pointer still rules.  Remove
                # everything the transaction durably staged (files whose
                # identical bytes predate the transaction are kept) and
                # its generation file.  A committed one (the pointer swap
                # happened) only lost its log reset.
                for relpath, reused in pending.staged:
                    if not reused:
                        (self._root / relpath).unlink(missing_ok=True)
                (self._dir / _gen_filename(target)).unlink(missing_ok=True)
        # Also drops a torn intent line: a transaction that never began.
        self._log.reset()
        if sweep:
            self._sweep_orphans(pointer)

    def _sweep_orphans(self, pointer: tuple[int, object] | None) -> None:
        """Delete temp files and unreferenced content-addressed segments.

        A crash between publishing a segment file and logging its
        ``staged`` record leaves a final-named file no log record points
        at.  Such orphans are exactly the content-addressed files no
        retained generation references -- legacy-named and foreign files
        are never touched here.
        """
        referenced: set[str] = set()
        for gen_path in self._dir.glob("gen-*.json"):
            if pointer is None:
                # No committed manifest: every gen file is staged garbage.
                gen_path.unlink(missing_ok=True)
                continue
            try:
                raw = json.loads(gen_path.read_bytes())
                for entry in raw.get("segments", ()):
                    referenced.add(str(entry["relpath"]))
            except (ValueError, KeyError, TypeError, AttributeError):
                continue
        self._reclaim(referenced, GcReport())

    def _reclaim(self, referenced: Collection[str], report: GcReport) -> None:
        """Delete stray temp files and every content-addressed segment not
        in ``referenced``, counting them into ``report``.  Legacy-named and
        foreign files are never touched, nor is anything under
        ``_manifest/live/``: the glob there is non-recursive on purpose
        (see :data:`LIVE_DIR_NAME`)."""
        temps = [path for path in self._dir.glob("*.tmp-*") if not path.is_dir()]
        for region_dir in self._region_dirs():
            for path in region_dir.iterdir():
                match = _SEGMENT_RE.fullmatch(path.name)
                if ".tmp-" in path.name:
                    temps.append(path)
                elif (
                    match is not None
                    and match.group("region") == region_dir.name
                    and f"{region_dir.name}/{path.name}" not in referenced
                ):
                    report.segments_removed += 1
                    report.bytes_freed += path.stat().st_size
                    path.unlink(missing_ok=True)
        for path in temps:
            report.tmp_removed += 1
            path.unlink(missing_ok=True)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def transaction(self, op: str) -> "ManifestTransaction":
        """Begin one atomic mutation (usable as a context manager)."""
        return ManifestTransaction(self, op)

    def _next_txid(self, generation: int) -> str:
        self._txn_counter += 1
        token = os.urandom(4).hex()
        return f"tx{generation:08d}-{os.getpid():x}-{self._txn_counter:x}-{token}"

    # ------------------------------------------------------------------ #
    # Garbage collection
    # ------------------------------------------------------------------ #

    def collect_garbage(self) -> GcReport:
        """Physically reclaim everything the *current* generation does not
        reference: retired segment files, old generation snapshots and
        stray temp files.  Legacy-named and foreign files are never
        touched.

        This is the one operation that invalidates pinned readers of
        older generations -- run it when none are live.
        """
        self.ensure_recovered()
        report = GcReport()
        if not self._dir.is_dir():
            return report
        lock = _WriterLock(self._dir / LOCK_NAME)
        lock.acquire(blocking=True)
        try:
            # Resolve any dangling intent first (rolled-back segment files
            # then count as gc'd garbage below, not as live segments).
            self._recover_locked(sweep=False)
            current = self.head()
            # With nothing committed, every generation file is staging
            # garbage from a rolled-back first transaction.
            keep = _gen_filename(current.generation) if self.exists() else None
            for gen_path in self._dir.glob("gen-*.json"):
                if gen_path.name != keep:
                    report.generations_removed += 1
                    report.bytes_freed += gen_path.stat().st_size
                    gen_path.unlink()
            self._snapshots = {current.generation: current}
            self._reclaim(current.relpaths(), report)
        finally:
            lock.release()
        return report


class ManifestTransaction:
    """One atomic lake mutation: stage segments, publish.

    The protocol (each step durable before the next, each step a named
    fault point)::

        intent appended            -> txlog.intent
        per staged segment:
            temp bytes fsynced     -> segment.tmp
            os.replace to final    -> segment.final
            staged record appended -> txlog.staged
        gen N+1 file published     -> manifest.generation
        MANIFEST.json swapped      -> manifest.pointer   (the commit point)
        log reset to empty         -> txlog.reset

    Generation N+1 carries generation N's seal watermarks forward, with
    any :meth:`set_sealed_through` applied.  Used as a context manager it
    commits on clean exit and rolls back on failure.  A writer-side
    :class:`Exception` aborts cleanly (staged files removed, log reset); an
    :class:`~repro.storage.manifest.faults.InjectedCrash` (or any other
    ``BaseException``) releases the lock and nothing else -- exactly the
    state a killed process leaves for recovery to mop up.
    """

    def __init__(self, manifest: LakeManifest, op: str) -> None:
        self._manifest = manifest
        self._op = op
        self._lock = _WriterLock(manifest.directory / LOCK_NAME)
        self._base: ManifestSnapshot | None = None
        self._txid = ""
        self._staged: dict[tuple[str, int], SegmentEntry] = {}
        self._created: list[tuple[str, bool]] = []
        self._sealed: dict[tuple[str, int], int] = {}
        self._published = False
        self._done = False

    @property
    def txid(self) -> str:
        return self._txid

    @property
    def base(self) -> ManifestSnapshot:
        assert self._base is not None, "transaction not entered"
        return self._base

    def __enter__(self) -> "ManifestTransaction":
        manifest = self._manifest
        self._lock.acquire(blocking=True)
        try:
            sweep = not manifest._recovered  # this handle recovers right here
            manifest._recovered = True
            manifest._recover_locked(sweep=sweep)
            self._base = manifest.head()
            self._sealed = dict(self._base.sealed_through)
            self._txid = manifest._next_txid(self._base.generation + 1)
            manifest.log.append(
                {
                    "type": "intent",
                    "txid": self._txid,
                    "generation_from": self._base.generation,
                    "op": self._op,
                }
            )
            fault_point("txlog.intent")
        except BaseException:
            self._lock.release()
            raise
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        try:
            if exc is None:
                if not self._done:
                    self.commit()
            elif isinstance(exc, Exception) and not self._published:
                self._abort()
            # else: simulated (or real) catastrophic exit -- leave every
            # file exactly as it is; recovery owns the mess.  A published
            # pointer whose log reset was lost is resolved the same way.
        finally:
            self._lock.release()

    # -- staging ------------------------------------------------------- #

    def stage(self, region: str, week: int, payload: bytes) -> SegmentEntry:
        """Durably stage ``.sgx`` ``payload`` as the segment for
        ``(region, week)`` in the generation being built.

        The file lands under its final content-addressed name before the
        commit point, which is safe precisely because nothing references
        it until the pointer swap.  Identical payload bytes hash to an
        already-present name (``reused``): the payload is still staged --
        the atomic replace installs bit-identical content, self-healing
        any out-of-band damage to the existing copy -- but rollback then
        knows the name predates this transaction and must survive.
        """
        assert self._base is not None, "transaction not entered"
        sha = hashlib.sha256(payload).hexdigest()
        filename = f"extract_{region}_week{week:04d}-{sha[:12]}.sgx"
        relpath = f"{region}/{filename}"
        final = self._manifest.root / relpath
        final.parent.mkdir(parents=True, exist_ok=True)
        reused = final.exists()
        tmp = final.with_name(f"{final.name}.tmp-{self._txid}")
        _write_file_durably(tmp, payload)
        fault_point("segment.tmp")
        os.replace(tmp, final)
        _fsync_dir(final.parent)
        fault_point("segment.final")
        self._manifest.log.append(
            {"type": "staged", "txid": self._txid, "relpath": relpath, "reused": reused}
        )
        fault_point("txlog.staged")
        entry = SegmentEntry(region, week, relpath, len(payload), sha)
        self._staged[(region, week)] = entry
        self._created.append((relpath, reused))
        return entry

    def set_sealed_through(self, region: str, week: int, through: int) -> None:
        """Set ``(region, week)``'s seal watermark in the generation being
        built: the pointer swap publishes it with the staged segment."""
        self._sealed[(region, week)] = through

    # -- commit / abort ------------------------------------------------ #

    def commit(self) -> ManifestSnapshot:
        """Publish the new generation; returns its snapshot.

        A transaction that staged nothing and moved no watermark is a
        no-op: it resets the log instead of publishing an identical
        generation -- unless its base predates watermarks in generations,
        which is what ``convert``'s fold publishes a generation to change.  A base holding CSV entries
        publishes a successor only once each of their keys is staged
        anew, which is what adoption does: any other commit raises
        :class:`LakeNotAdoptedError` rather than drop them.
        """
        assert self._base is not None, "transaction not entered"
        if self._done:
            raise LakeManifestError("transaction already committed or aborted")
        manifest = self._manifest
        if (
            not self._staged
            and self._sealed == self._base.sealed_through
            and not self._base.unfolded
        ):
            self._done = True
            manifest.log.reset()
            return self._base
        unimported = [
            e.relpath for e in self._base.unimported if (e.region, e.week) not in self._staged
        ]
        if unimported:
            self._abort()
            raise LakeNotAdoptedError(
                f"generation {self._base.generation} of {manifest.root} holds CSV entries "
                f"({', '.join(unimported)}); import them with "
                f"`python -m repro.fleet_ops convert --lake-dir {manifest.root}`"
            )
        self._done = True
        entries = {(e.region, e.week): e for e in self._base.segments}
        entries.update(self._staged)
        generation = self._base.generation + 1
        if not manifest.exists():
            # The first commit materialises the empty generation 0 so
            # pinned readers of it resolve from a file even after the
            # pointer appears.
            self._publish_file(
                manifest.directory / _gen_filename(self._base.generation),
                json.dumps(self._base.as_dict(), sort_keys=True).encode("utf-8"),
            )
        snapshot = ManifestSnapshot(
            generation=generation,
            txid=self._txid,
            segments=tuple(entries.values()),
            sealed_through=self._sealed,
        )
        self._publish_file(
            manifest.directory / _gen_filename(generation),
            json.dumps(snapshot.as_dict(), sort_keys=True).encode("utf-8"),
        )
        fault_point("manifest.generation")
        pointer = {
            "generation": generation,
            "txid": self._txid,
            "file": _gen_filename(generation),
        }
        self._publish_file(
            manifest.pointer_path, json.dumps(pointer, sort_keys=True).encode("utf-8")
        )
        self._published = True
        fault_point("manifest.pointer")
        manifest.log.reset()
        fault_point("txlog.reset")
        manifest._snapshots[generation] = snapshot
        return snapshot

    def _publish_file(self, path: Path, payload: bytes) -> None:
        """Atomically publish ``payload`` at ``path`` (tmp, fsync,
        ``os.replace``, directory fsync)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.tmp-{self._txid}")
        _write_file_durably(tmp, payload)
        os.replace(tmp, path)
        _fsync_dir(path.parent)

    def _abort(self) -> None:
        """Roll back a writer-side failure while the writer is alive."""
        if self._done:
            return
        self._done = True
        manifest = self._manifest
        for relpath, reused in self._created:
            if not reused:
                (manifest.root / relpath).unlink(missing_ok=True)
        assert self._base is not None
        for tmp_dir in (manifest.directory, *{
            (manifest.root / relpath).parent for relpath, _ in self._created
        }):
            for path in tmp_dir.glob(f"*.tmp-{self._txid}"):
                path.unlink(missing_ok=True)
        (manifest.directory / _gen_filename(self._base.generation + 1)).unlink(
            missing_ok=True
        )
        manifest.log.reset()
