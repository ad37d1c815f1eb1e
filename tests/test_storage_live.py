"""Unit tests for the live tail: WAL framing, replay, sealing, tail reads.

Layered bottom-up: the raw WAL (torn tails, CRC damage, watermark
dedupe), the read-side :class:`LiveTailIndex`, the
:class:`LiveIngestor` write surface (sealing = one manifest
transaction), and the query/scan/aggregate unification of committed
segments with unsealed tail rows -- plus the gc-vs-active-tail safety
regression.  The index is incremental (it parses only what was appended
since its last read), so it is also held against a cold index: pinned
cases for every way a verified prefix can stop being true, and generated
histories (``TestTailIndexHistories``) for the ones nobody listed.
"""

import os
import shutil
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.storage.datalake import DataLakeStore, ExtractKey, ExtractNotFoundError
from repro.storage.live import (
    NO_WATERMARK,
    LiveIngestError,
    LiveIngestor,
    LiveTailIndex,
    LiveWalError,
    LiveWalWarning,
    StaleBatchError,
    wal_path,
)
from repro.storage.live import wal as livewal
from repro.storage.live.wal import TailWal, encode_frame, read_tail
from repro.storage.manifest import InjectedCrash, fault_handler
from repro.storage.query import ExtractQuery, ScanStats
from repro.timeseries.calendar import MINUTES_PER_DAY
from repro.timeseries.frame import LoadFrame, ServerMetadata

from tests.helpers import CrashInjector, make_series, naive_rows, write_via

META = ServerMetadata(server_id="srv-a", region="r0")
META_B = ServerMetadata(server_id="srv-b", region="r0")
KEY = ExtractKey(region="r0", week=0)


def minute_batch(start, n, level=10.0):
    """``n`` one-minute raw samples starting at ``start``."""
    ts = np.arange(start, start + n, dtype=np.int64)
    return ts, np.full(n, level, dtype=np.float64)


# ---------------------------------------------------------------------- #
# WAL framing and replay
# ---------------------------------------------------------------------- #


class TestTailWal:
    def test_roundtrip_preserves_batches_and_metadata(self, tmp_path):
        path = wal_path(tmp_path, "r0", 0)
        wal, replay = TailWal.open(path, "r0", 0, 5)
        assert replay.frames == [] and replay.sealed_through == NO_WATERMARK
        ts, vs = minute_batch(0, 7, level=3.5)
        wal.append(META, ts, vs)
        wal.append(META_B, ts + 7, vs + 1.0)
        wal.close()

        replay = read_tail(path)
        assert [f.metadata.server_id for f in replay.frames] == ["srv-a", "srv-b"]
        assert replay.frames[0].metadata.region == "r0"
        np.testing.assert_array_equal(replay.frames[0].timestamps, ts)
        np.testing.assert_array_equal(replay.frames[1].values, vs + 1.0)
        assert replay.rows == 14 and not replay.torn

    def test_lives_under_manifest_live_dir(self, tmp_path):
        path = wal_path(tmp_path, "r0", 3)
        assert path == tmp_path / "_manifest" / "live" / "r0" / "week0003.tail.wal"

    def test_torn_tail_drops_partial_frame_loudly(self, tmp_path):
        path = wal_path(tmp_path, "r0", 0)
        wal, _ = TailWal.open(path, "r0", 0, 5)
        wal.append(META, *minute_batch(0, 5))
        wal.append(META, *minute_batch(5, 5))
        wal.close()
        intact = path.stat().st_size
        path.write_bytes(path.read_bytes() + b"\x09\x00\x00\x00partial")

        with pytest.warns(LiveWalWarning, match="torn trailing"):
            replay = read_tail(path)
        assert replay.torn and replay.frames_dropped == 1
        assert len(replay.frames) == 2 and replay.rows == 10
        assert replay.bytes_dropped == path.stat().st_size - intact

    def test_crc_damage_drops_frame_and_everything_after(self, tmp_path):
        path = wal_path(tmp_path, "r0", 0)
        wal, _ = TailWal.open(path, "r0", 0, 5)
        wal.append(META, *minute_batch(0, 5))
        wal.append(META, *minute_batch(5, 5))
        wal.append(META, *minute_batch(10, 5))
        wal.close()
        good = read_tail(path)
        data = bytearray(path.read_bytes())
        # Flip a payload byte in the middle frame: its CRC no longer
        # matches, so it and the (valid) frame after it are dropped.
        frame_len = (path.stat().st_size - good.bytes_dropped) // 3  # same-size frames
        header_end = path.stat().st_size - 3 * frame_len
        data[header_end + frame_len + 40] ^= 0xFF
        path.write_bytes(bytes(data))

        with pytest.warns(LiveWalWarning):
            replay = read_tail(path)
        assert len(replay.frames) == 1 and replay.frames_dropped == 1
        np.testing.assert_array_equal(replay.frames[0].timestamps, np.arange(5))

    def test_torn_header_replays_as_unacknowledged_empty_tail(self, tmp_path):
        path = wal_path(tmp_path, "r0", 0)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"SGW")  # creation crashed inside the header
        with pytest.warns(LiveWalWarning, match="header torn"):
            replay = read_tail(path)
        assert replay.frames == [] and replay.bytes_dropped == 3

    def test_open_self_heals_torn_tail(self, tmp_path):
        path = wal_path(tmp_path, "r0", 0)
        wal, _ = TailWal.open(path, "r0", 0, 5)
        wal.append(META, *minute_batch(0, 5))
        wal.close()
        path.write_bytes(path.read_bytes() + b"\xde\xad\xbe\xef")

        with pytest.warns(LiveWalWarning):
            wal, replay = TailWal.open(path, "r0", 0, 5)
        wal.close()
        assert replay.torn and replay.rows == 5
        # The rewrite left coherent bytes: a fresh replay is clean.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            healed = read_tail(path)
        assert not healed.torn and healed.rows == 5

    def test_replay_dedupes_rows_below_watermark(self, tmp_path):
        path = wal_path(tmp_path, "r0", 0)
        wal, _ = TailWal.open(path, "r0", 0, 5)
        wal.append(META, *minute_batch(0, 10))  # entirely below
        wal.append(META, *minute_batch(5, 10))  # straddles
        wal.close()

        replay = read_tail(path, watermark=10)
        assert replay.sealed_through == 10
        assert replay.frames_deduped == 1 and len(replay.frames) == 1
        np.testing.assert_array_equal(replay.frames[0].timestamps, np.arange(10, 15))

    def test_open_against_foreign_partition_raises(self, tmp_path):
        path = wal_path(tmp_path, "r0", 0)
        wal, _ = TailWal.open(path, "r0", 0, 5)
        wal.append(META, *minute_batch(0, 5))
        wal.close()
        with pytest.raises(LiveWalError, match="belongs to"):
            TailWal.open(path, "r1", 0, 5)

    def test_rewrite_is_atomic_and_cleans_stray_tmps(self, tmp_path):
        path = wal_path(tmp_path, "r0", 0)
        wal, _ = TailWal.open(path, "r0", 0, 5)
        wal.append(META, *minute_batch(0, 5))
        wal.close()
        stray = path.with_name(path.name + ".tmp-999")
        stray.write_bytes(b"leftover from a crashed rewrite")

        wal, replay = TailWal.open(path, "r0", 0, 5)
        wal.close()
        assert not stray.exists()
        assert replay.rows == 5

    def test_fsync_every_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="fsync_every"):
            TailWal(wal_path(tmp_path, "r0", 0), "r0", 0, 5, fsync_every=0)


class TestLiveTailIndex:
    def test_keys_discovers_on_disk_tails(self, tmp_path):
        for region, week in [("r0", 0), ("r0", 2), ("r1", 1)]:
            wal, _ = TailWal.open(wal_path(tmp_path, region, week), region, week, 5)
            wal.close()
        index = LiveTailIndex(tmp_path)
        assert index.keys() == [("r0", 0), ("r0", 2), ("r1", 1)]

    def test_tail_caches_until_wal_changes(self, tmp_path):
        wal, _ = TailWal.open(wal_path(tmp_path, "r0", 0), "r0", 0, 5)
        wal.append(META, *minute_batch(0, 5))
        wal.flush()
        index = LiveTailIndex(tmp_path)
        first = index.tail("r0", 0, None)
        assert first is not None and first.raw_rows == 5
        assert index.tail("r0", 0, None) is first  # unchanged signature -> cached

        wal.append(META, *minute_batch(5, 5))
        wal.flush()
        assert index.tail("r0", 0, None).raw_rows == 10
        wal.close()

    def test_empty_or_missing_tail_is_none(self, tmp_path):
        index = LiveTailIndex(tmp_path)
        assert index.tail("r0", 0, None) is None
        wal, _ = TailWal.open(wal_path(tmp_path, "r0", 0), "r0", 0, 5)
        wal.close()
        assert index.tail("r0", 0, None) is None  # header only, no frames

    def test_torn_header_is_no_tail_until_the_writer_recreates_it(self, tmp_path):
        path = wal_path(tmp_path, "r0", 0)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"SGW")  # creation crashed inside the header
        index = LiveTailIndex(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert index.tail("r0", 0, None) is None
        with pytest.warns(LiveWalWarning, match="header torn"):
            wal, _ = TailWal.open(path, "r0", 0, 5)
        wal.append(META, *minute_batch(0, 5))
        wal.close()
        assert index.tail("r0", 0, None).raw_rows == 5


def assert_same_snapshot(got, expected):
    """Two ``TailSnapshot``s (or two ``None``s) hold the same tail."""
    assert (got is None) == (expected is None)
    if expected is None:
        return
    assert (got.region, got.week, got.interval_minutes, got.sealed_through) == (
        expected.region, expected.week, expected.interval_minutes, expected.sealed_through
    )
    assert list(got.servers) == list(expected.servers)
    for server_id, (metadata, ts, vs) in expected.servers.items():
        got_metadata, got_ts, got_vs = got.servers[server_id]
        assert got_metadata == metadata
        np.testing.assert_array_equal(got_ts, ts)
        np.testing.assert_array_equal(got_vs, vs)


def append_bytes(path, data):
    """Bytes landing on the WAL behind the writer's back (a torn append,
    another process's frame)."""
    with path.open("ab") as handle:
        handle.write(data)


def bump_mtime(path, past):
    """A file changed behind the index is told apart by its stat
    signature; make sure the clock's granularity cannot hide the change."""
    st = path.stat()
    os.utime(path, ns=(st.st_atime_ns, max(st.st_mtime_ns, past.st_mtime_ns) + 1))


class TestIncrementalTail:
    """Each case breaks an offset cache that trusts its prefix for the
    wrong reason; the index must answer like a cold one every time."""

    def test_half_written_frame_is_returned_whole_once_completed(self, tmp_path):
        path = wal_path(tmp_path, "r0", 0)
        wal, _ = TailWal.open(path, "r0", 0, 5)
        wal.append(META, *minute_batch(0, 5))
        wal.close()
        frame = encode_frame(META, *minute_batch(5, 5, level=2.0))
        # Three writes: into the frame header, into the payload, the rest.
        # The first read already finds torn bytes behind a whole frame.
        cuts = (0, 3, len(frame) // 2, len(frame))
        index = LiveTailIndex(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # torn bytes stay silent on the read side
            for start, end in zip(cuts, cuts[1:]):
                append_bytes(path, frame[start:end])
                whole = index.tail("r0", 0, None)
                assert whole.raw_rows == (5 if end < len(frame) else 10)
        assert whole.raw_rows == 10
        assert_same_snapshot(whole, LiveTailIndex(tmp_path).tail("r0", 0, None))

    def test_torn_tail_healed_by_reopen_keeps_the_prefix_and_sees_new_frames(self, tmp_path):
        path = wal_path(tmp_path, "r0", 0)
        wal, _ = TailWal.open(path, "r0", 0, 5)
        wal.append(META, *minute_batch(0, 5))
        wal.append(META_B, *minute_batch(0, 5))
        wal.close()
        append_bytes(path, b"\xde\xad\xbe\xef torn")
        index = LiveTailIndex(tmp_path)
        assert index.tail("r0", 0, None).raw_rows == 10
        torn_size = path.stat().st_size

        with pytest.warns(LiveWalWarning):
            wal, _ = TailWal.open(path, "r0", 0, 5)  # same frames, shorter file
        assert path.stat().st_size < torn_size
        assert index.tail("r0", 0, None).raw_rows == 10
        wal.append(META, *minute_batch(5, 5))
        wal.close()
        assert_same_snapshot(index.tail("r0", 0, None), LiveTailIndex(tmp_path).tail("r0", 0, None))
        assert index.tail("r0", 0, None).raw_rows == 15

    def test_seal_trim_drops_the_sealed_rows_from_a_warm_reader(self, tmp_path):
        store, ingestor = make_ingestor(tmp_path)
        ingestor.ingest(KEY, META, *minute_batch(0, MINUTES_PER_DAY + 60))
        ingestor.flush()
        q = ExtractQuery.for_key(KEY)
        assert store.query(q).stats.tail_rows_scanned == MINUTES_PER_DAY + 60

        ingestor.seal(KEY, MINUTES_PER_DAY)  # header watermark moves, file replaced
        ingestor.close()
        warm, cold = store.query(q), DataLakeStore(store.root).query(q)
        assert warm.stats.tail_rows_scanned == 60
        assert warm.rows == cold.rows == (MINUTES_PER_DAY + 60) // 5
        assert warm.frame.content_hash() == cold.frame.content_hash()

    def test_committed_seal_whose_trim_was_lost_surfaces_rows_once(self, tmp_path):
        store, ingestor = make_ingestor(tmp_path)
        ingestor.ingest(KEY, META, *minute_batch(0, MINUTES_PER_DAY + 60))
        ingestor.flush()
        q = ExtractQuery.for_key(KEY)
        before = store.query(q)
        wal_bytes = wal_path(store.root, "r0", 0).read_bytes()

        with fault_handler(CrashInjector("live.wal.rewrite")), pytest.raises(InjectedCrash):
            ingestor.seal(KEY, MINUTES_PER_DAY)
        # Only the generation's watermark moved; the WAL still carries the sealed day.
        assert wal_path(store.root, "r0", 0).read_bytes() == wal_bytes
        warm, cold = store.query(q), DataLakeStore(store.root).query(q)
        assert warm.stats.tail_rows_scanned == cold.stats.tail_rows_scanned == 60
        assert warm.rows == before.rows == (MINUTES_PER_DAY + 60) // 5
        assert warm.frame.content_hash() == before.frame.content_hash()
        ingestor.close()

    def test_wal_deleted_and_recreated_with_the_same_size(self, tmp_path):
        path = wal_path(tmp_path, "r0", 0)

        def write(level):
            wal, _ = TailWal.open(path, "r0", 0, 5)
            wal.append(META, *minute_batch(0, 5, level=level))
            wal.append(META, *minute_batch(5, 5, level=level + 1.0))
            wal.close()
            return path.stat()

        old = write(1.0)
        index = LiveTailIndex(tmp_path)
        assert set(index.tail("r0", 0, None).servers["srv-a"][2]) == {1.0, 2.0}

        path.unlink()
        new = write(3.0)
        assert new.st_size == old.st_size  # the inode may well be the old one too
        bump_mtime(path, old)
        assert set(index.tail("r0", 0, None).servers["srv-a"][2]) == {3.0, 4.0}
        assert_same_snapshot(index.tail("r0", 0, None), LiveTailIndex(tmp_path).tail("r0", 0, None))

    def test_same_inode_same_frames_under_another_header(self, tmp_path):
        def write(root, watermark):
            path = wal_path(root, "r0", 0)
            wal, _ = TailWal.open(path, "r0", 0, 5, watermark=watermark)
            wal.append(META, *minute_batch(0, 5))
            wal.append(META, *minute_batch(5, 5))
            wal.close()
            return path

        path = write(tmp_path, None)
        index = LiveTailIndex(tmp_path)
        assert index.tail("r0", 0, None).raw_rows == 10

        # What a delete + recreate that lands on the old inode looks like,
        # without depending on the filesystem to hand the inode out again:
        # same size, same last frame, but rows below 3 were sealed elsewhere.
        other = write(tmp_path / "elsewhere", 3).read_bytes()
        before = path.stat()
        assert len(other) == before.st_size
        with path.open("r+b") as handle:
            handle.write(other)
        bump_mtime(path, before)
        assert index.tail("r0", 0, None).raw_rows == 7
        assert_same_snapshot(index.tail("r0", 0, None), LiveTailIndex(tmp_path).tail("r0", 0, None))

    def test_replaced_by_a_file_that_differs_only_before_the_last_frame(self, tmp_path):
        path = wal_path(tmp_path, "r0", 0)
        wal, _ = TailWal.open(path, "r0", 0, 5)
        wal.append(META, *minute_batch(0, 5, level=1.0))
        wal.append(META, *minute_batch(5, 5, level=2.0))
        wal.flush()
        index = LiveTailIndex(tmp_path)
        first = index.tail("r0", 0, None)
        size = path.stat().st_size

        # Same header, same size, same last frame: only the inode says
        # this is another file (a rewrite never reuses the one it replaces).
        replay = read_tail(path)
        replay.frames[0].values[:] = 7.0
        wal.rewrite(replay.frames, NO_WATERMARK)
        wal.close()
        assert path.stat().st_size == size
        second = index.tail("r0", 0, None)
        assert set(second.servers["srv-a"][2]) == {7.0, 2.0}
        assert set(first.servers["srv-a"][2]) == {1.0, 2.0}
        assert_same_snapshot(second, LiveTailIndex(tmp_path).tail("r0", 0, None))

    def test_truncated_in_place_below_the_verified_offset(self, tmp_path):
        path = wal_path(tmp_path, "r0", 0)
        wal, _ = TailWal.open(path, "r0", 0, 5)
        wal.append(META, *minute_batch(0, 5))
        wal.append(META, *minute_batch(5, 5))
        wal.close()
        index = LiveTailIndex(tmp_path)
        assert index.tail("r0", 0, None).raw_rows == 10

        os.truncate(path, path.stat().st_size - 20)  # the last frame's header survives
        assert index.tail("r0", 0, None).raw_rows == 5
        assert_same_snapshot(index.tail("r0", 0, None), LiveTailIndex(tmp_path).tail("r0", 0, None))

    def test_a_read_decodes_only_the_frames_appended_since_the_last_one(
        self, tmp_path, monkeypatch
    ):
        decodes = []
        decode_payload = livewal._decode_payload

        def counting(payload):
            decodes.append(len(payload))
            return decode_payload(payload)

        monkeypatch.setattr(livewal, "_decode_payload", counting)
        store = DataLakeStore(tmp_path)
        index = LiveTailIndex(tmp_path)
        wal, _ = TailWal.open(wal_path(tmp_path, "r0", 0), "r0", 0, 5)
        for batch in range(7):
            wal.append(META if batch % 2 else META_B, *minute_batch(5 * batch, 5))
        wal.flush()
        assert index.tail("r0", 0, None).raw_rows == 35 and len(decodes) == 7

        for batch in range(7, 10):
            wal.append(META, *minute_batch(5 * batch, 5))
        wal.flush()
        grown = index.tail("r0", 0, None)
        assert grown.raw_rows == 50 and len(decodes) == 7 + 3
        assert index.tail("r0", 0, None) is grown and len(decodes) == 10

        # An unrelated commit moves the generation, not this tail's watermark.
        frame = LoadFrame(5)
        frame.add_server(META, make_series([1.0] * 12))
        store.write_extract(ExtractKey(region="elsewhere", week=3), frame)
        assert index.tail("r0", 0, None) is grown and len(decodes) == 10
        wal.close()
        del decodes[:]
        assert_same_snapshot(grown, LiveTailIndex(tmp_path).tail("r0", 0, None))
        assert len(decodes) == 10  # what a reader without a prefix pays

    def test_snapshots_already_handed_out_are_never_written_to(self, tmp_path):
        wal, _ = TailWal.open(wal_path(tmp_path, "r0", 0), "r0", 0, 5)
        wal.append(META, *minute_batch(0, 5))
        wal.append(META_B, *minute_batch(0, 5))
        wal.flush()
        index = LiveTailIndex(tmp_path)
        first = index.tail("r0", 0, None)
        held = {sid: (ts.copy(), vs.copy()) for sid, (_, ts, vs) in first.servers.items()}

        wal.append(META, *minute_batch(5, 5, level=99.0))
        wal.close()
        second = index.tail("r0", 0, None)
        assert second.servers["srv-a"][1].size == 10
        for server_id, (ts, vs) in held.items():
            np.testing.assert_array_equal(first.servers[server_id][1], ts)
            np.testing.assert_array_equal(first.servers[server_id][2], vs)
        # The server the read did not touch is shared, not copied.
        assert second.servers["srv-b"][1] is first.servers["srv-b"][1]


HISTORY_KEYS = (ExtractKey(region="r0", week=0), ExtractKey(region="r1", week=0))


class TailIndexHistory(RuleBasedStateMachine):
    """One lake, one index that lives through everything done to it.

    After every step the long-lived :class:`LiveTailIndex` must hold what
    a cold one reads off the disk, and a long-lived store must answer
    like a cold store.  Timestamps rise per (partition, server), so every
    history is one a collector could have produced.
    """

    def __init__(self):
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="tail-history-")) / "lake"
        self.index = LiveTailIndex(self.root)
        self.store = DataLakeStore(self.root)
        self.ingestor = self._open_ingestor()
        self.clock = {}
        self.unrelated_commits = 0
        for key in HISTORY_KEYS:  # every history starts with two live tails
            self.ingestor.ingest(key, *self._next_batch(key, "srv-a", 20, False))
        self.ingestor.flush()

    def teardown(self):
        if self.ingestor is not None:
            self.ingestor.close()
        shutil.rmtree(self.root.parent)

    def _open_ingestor(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LiveWalWarning)  # healing a torn tail
            # A seal boundary every 15 minutes: short histories reach one.
            return LiveIngestor(self.store, interval_minutes=5, chunk_minutes=15, fsync_every=4)

    @staticmethod
    def _sealed_through(store, key):
        return store.manifest.current().sealed_through.get((key.region, key.week))

    def _next_batch(self, key, server, rows, irregular):
        """The server's next ``rows`` samples: one-minute cadence, or
        gaps of one to three minutes."""
        start = max(self.clock.get((key, server), 0), self._sealed_through(self.store, key) or 0)
        gaps = (np.arange(rows) * 7 + start) % 3 if irregular else np.zeros(rows, dtype=np.int64)
        ts = start + np.arange(rows) + np.cumsum(gaps) - gaps[0]
        self.clock[(key, server)] = int(ts[-1]) + 1
        metadata = ServerMetadata(server_id=server, region=key.region)
        return metadata, ts.astype(np.int64), ts % 17 + 0.5

    alive = precondition(lambda self: self.ingestor is not None)
    keys = st.sampled_from(HISTORY_KEYS)

    @alive
    @rule(key=keys, server=st.sampled_from(("srv-a", "srv-b", "srv-c")),
          rows=st.integers(1, 45), irregular=st.booleans(), flush=st.booleans())
    def ingest(self, key, server, rows, irregular, flush):
        self.ingestor.ingest(key, *self._next_batch(key, server, rows, irregular))
        if flush:
            self.ingestor.flush(key)

    @alive
    @rule()
    def flush(self):
        self.ingestor.flush()

    @rule(key=keys, rows=st.integers(1, 6), percent=st.integers(1, 99), finish=st.booleans())
    def append_a_frame_in_two_writes(self, key, rows, percent, finish):
        """Another process's append, seen half-way; ``finish=False`` is a
        writer that died there."""
        path = wal_path(self.root, key.region, key.week)
        if path.exists():
            frame = encode_frame(*self._next_batch(key, "srv-oob", rows, False))
            cut = max(1, len(frame) * percent // 100)
            append_bytes(path, frame[:cut])
            if finish:
                self.warm_readers_answer_like_cold_ones()
                append_bytes(path, frame[cut:])

    @rule(key=keys, garbage=st.binary(min_size=1, max_size=24))
    def append_garbage(self, key, garbage):
        path = wal_path(self.root, key.region, key.week)
        if path.exists():
            append_bytes(path, garbage)

    @rule()
    def reopen_ingestor(self):
        if self.ingestor is not None:
            self.ingestor.close()
        self.ingestor = self._open_ingestor()

    @alive
    @rule()
    def seal(self):
        for key in HISTORY_KEYS:
            self.ingestor.seal(key)

    @alive
    @rule()
    def seal_crashing_before_the_trim(self):
        try:
            with fault_handler(CrashInjector("live.wal.rewrite")):
                for key in HISTORY_KEYS:
                    self.ingestor.seal(key)
        except InjectedCrash:
            # The collector died: only a reopen brings one back.
            self.ingestor.close()
            self.ingestor = None

    @rule()
    def unrelated_commit(self):
        frame = LoadFrame(5)
        frame.add_server(META, make_series([float(self.unrelated_commits)] * 3))
        self.store.write_extract(ExtractKey(region="elsewhere", week=9), frame)
        self.unrelated_commits += 1

    @rule(key=keys)
    def delete_the_wal_and_start_it_again(self, key):
        if self.ingestor is not None:
            self.ingestor.close()
        wal_path(self.root, key.region, key.week).unlink(missing_ok=True)
        self.ingestor = self._open_ingestor()
        self.ingestor.ingest(key, *self._next_batch(key, "srv-a", 5, False))
        self.ingestor.flush()

    @rule()
    def reopen_store(self):
        if self.ingestor is not None:
            self.ingestor.close()
        self.store = DataLakeStore(self.root)
        self.ingestor = self._open_ingestor()

    @invariant()
    def warm_readers_answer_like_cold_ones(self):
        cold_index, cold_store = LiveTailIndex(self.root), DataLakeStore(self.root)
        assert self.index.keys() == cold_index.keys()
        for key in HISTORY_KEYS:
            watermark = self._sealed_through(cold_store, key)
            assert_same_snapshot(
                self.index.tail(key.region, key.week, watermark),
                cold_index.tail(key.region, key.week, watermark),
            )
            q = ExtractQuery.for_key(key)
            warm, cold = self.store.query(q), cold_store.query(q)
            assert warm.rows == cold.rows
            assert warm.stats.tail_rows_scanned == cold.stats.tail_rows_scanned
            assert warm.frame.content_hash() == cold.frame.content_hash()


TestTailIndexHistories = TailIndexHistory.TestCase
TestTailIndexHistories.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None, derandomize=True, database=None
)


# ---------------------------------------------------------------------- #
# LiveIngestor
# ---------------------------------------------------------------------- #


def make_ingestor(tmp_path, **kwargs):
    store = DataLakeStore(tmp_path / "lake")
    kwargs.setdefault("interval_minutes", 5)
    kwargs.setdefault("chunk_minutes", MINUTES_PER_DAY)
    return store, LiveIngestor(store, **kwargs)


class TestLiveIngestor:
    def test_requires_unpinned_store(self, tmp_path):
        store = DataLakeStore(tmp_path / "lake")
        store.write_extract(KEY, LoadFrame(5))
        pinned = DataLakeStore(tmp_path / "lake", pinned_generation=1)
        with pytest.raises(ValueError, match="pinned"):
            LiveIngestor(pinned)

    def test_chunk_must_be_multiple_of_interval(self, tmp_path):
        store = DataLakeStore(tmp_path / "lake")
        with pytest.raises(ValueError, match="multiple"):
            LiveIngestor(store, interval_minutes=7, chunk_minutes=MINUTES_PER_DAY)

    def test_ingest_accumulates_and_reopen_replays(self, tmp_path):
        store, ingestor = make_ingestor(tmp_path)
        ingestor.ingest(KEY, META, *minute_batch(0, 60))
        ingestor.ingest(KEY, META_B, *minute_batch(0, 30))
        assert ingestor.pending_rows(KEY) == 90
        assert ingestor.tails() == [KEY]
        ingestor.close()

        reopened = LiveIngestor(store, interval_minutes=5)
        assert reopened.pending_rows(KEY) == 90
        assert reopened.watermark(KEY) == NO_WATERMARK
        reopened.close()

    def test_seal_commits_one_manifest_transaction(self, tmp_path):
        store, ingestor = make_ingestor(tmp_path)
        ingestor.ingest(KEY, META, *minute_batch(0, MINUTES_PER_DAY + 60))
        report = ingestor.seal(KEY, MINUTES_PER_DAY)
        ingestor.close()

        assert report.sealed_through == MINUTES_PER_DAY
        assert report.rows_sealed == MINUTES_PER_DAY // 5
        assert report.servers == ("srv-a",)
        assert report.generation == 1
        assert report.tail_rows_remaining == 60
        assert store.manifest.current().generation == 1
        assert store.manifest.current().sealed_through == {("r0", 0): MINUTES_PER_DAY}

        # The committed segment holds exactly the sealed window; the
        # unified read surface adds the 60 unsealed minutes on top.
        sealed = store.query(ExtractQuery.for_key(KEY), include_tail=False).frame
        assert sealed.series("srv-a").start == 0
        assert len(sealed.series("srv-a")) == MINUTES_PER_DAY // 5
        unified = store.read_extract(KEY)
        assert len(unified.series("srv-a")) == (MINUTES_PER_DAY + 60) // 5

    def test_seal_boundary_must_be_chunk_aligned(self, tmp_path):
        _, ingestor = make_ingestor(tmp_path)
        ingestor.ingest(KEY, META, *minute_batch(0, MINUTES_PER_DAY))
        with pytest.raises(LiveIngestError, match="not aligned"):
            ingestor.seal(KEY, 77)
        ingestor.close()

    def test_seal_with_nothing_below_boundary_is_noop(self, tmp_path):
        _, ingestor = make_ingestor(tmp_path)
        assert ingestor.seal(KEY) is None  # no tail at all
        ingestor.ingest(KEY, META, *minute_batch(MINUTES_PER_DAY, 10))
        assert ingestor.seal(KEY, MINUTES_PER_DAY) is None
        ingestor.close()

    def test_stale_batch_below_watermark_rejected(self, tmp_path):
        store, ingestor = make_ingestor(tmp_path)
        ingestor.ingest(KEY, META, *minute_batch(0, MINUTES_PER_DAY))
        ingestor.seal(KEY, MINUTES_PER_DAY)
        with pytest.raises(StaleBatchError, match="immutable"):
            ingestor.ingest(KEY, META, *minute_batch(MINUTES_PER_DAY - 5, 10))
        # At/above the watermark is fine.
        assert ingestor.ingest(KEY, META, *minute_batch(MINUTES_PER_DAY, 10)) == 10
        ingestor.close()

    def test_write_of_the_sealed_key_keeps_the_watermark(self, tmp_path):
        store, ingestor = make_ingestor(tmp_path)
        ingestor.ingest(KEY, META, *minute_batch(0, MINUTES_PER_DAY))
        ingestor.seal(KEY, MINUTES_PER_DAY)
        ingestor.close()
        store.write_extract(KEY, store.read_extract(KEY))
        wal_path(store.root, "r0", 0).unlink()  # only the generation knows W now
        with LiveIngestor(store, interval_minutes=5) as reopened:
            with pytest.raises(StaleBatchError, match="immutable"):
                reopened.ingest(KEY, META, *minute_batch(MINUTES_PER_DAY - 5, 10))

    def test_consecutive_seals_extend_the_segment(self, tmp_path):
        store, ingestor = make_ingestor(tmp_path)
        ingestor.ingest(KEY, META, *minute_batch(0, 2 * MINUTES_PER_DAY))
        first = ingestor.seal(KEY, MINUTES_PER_DAY)
        second = ingestor.seal(KEY, 2 * MINUTES_PER_DAY)
        ingestor.close()

        assert (first.generation, second.generation) == (1, 2)
        assert second.window_start == MINUTES_PER_DAY
        series = store.read_extract(KEY).series("srv-a")
        assert len(series) == 2 * MINUTES_PER_DAY // 5
        assert ingestor.pending_rows() == 0

    def test_seal_due_seals_every_tail_to_the_boundary(self, tmp_path):
        _, ingestor = make_ingestor(tmp_path)
        other = ExtractKey(region="r1", week=0)
        ingestor.ingest(KEY, META, *minute_batch(0, MINUTES_PER_DAY + 30))
        ingestor.ingest(other, ServerMetadata(server_id="x", region="r1"),
                        *minute_batch(0, MINUTES_PER_DAY))
        reports = ingestor.seal_due(MINUTES_PER_DAY + 30)
        ingestor.close()
        assert [r.key for r in reports] == [KEY, other]
        assert all(r.sealed_through == MINUTES_PER_DAY for r in reports)

    def test_seal_preserves_pinned_reader(self, tmp_path):
        store, ingestor = make_ingestor(tmp_path)
        frame = LoadFrame(5)
        frame.add_server(META, make_series([1.0] * 288, start=0))
        store.write_extract(KEY, frame)  # generation 1
        pinned = DataLakeStore(store.root, pinned_generation=1)

        ingestor.ingest(KEY, META, *minute_batch(MINUTES_PER_DAY, MINUTES_PER_DAY))
        report = ingestor.seal(KEY, 2 * MINUTES_PER_DAY)
        ingestor.close()
        assert report.generation == 2
        # The pinned reader still sees exactly generation 1's bytes and
        # never the tail.
        assert len(pinned.read_extract(KEY).series("srv-a")) == 288
        assert pinned.query(ExtractQuery.for_key(KEY)).stats.tail_rows_scanned == 0


# ---------------------------------------------------------------------- #
# Query/scan/aggregate unification
# ---------------------------------------------------------------------- #


class TestTailReads:
    def test_query_unifies_committed_and_tail(self, tmp_path):
        store, ingestor = make_ingestor(tmp_path)
        ingestor.ingest(KEY, META, *minute_batch(0, MINUTES_PER_DAY + 300))
        ingestor.seal(KEY, MINUTES_PER_DAY)

        result = store.query(ExtractQuery.for_key(KEY))
        series = result.frame.series("srv-a")
        assert len(series) == (MINUTES_PER_DAY + 300) // 5
        assert result.stats.tail_rows_scanned == 300
        ingestor.close()

    def test_tail_only_partition_visible_to_query_not_read_extract(self, tmp_path):
        store, ingestor = make_ingestor(tmp_path)
        ingestor.ingest(KEY, META, *minute_batch(0, 50))
        ingestor.flush()

        result = store.query(ExtractQuery.for_key(KEY))
        assert len(result.frame.series("srv-a")) == 10  # 50 raw -> 5-minute grid
        with pytest.raises(ExtractNotFoundError):
            store.read_extract(KEY)  # stored-segment contract unchanged
        ingestor.close()

    def test_include_tail_false_and_a_pin_exclude_the_tail(self, tmp_path):
        store, ingestor = make_ingestor(tmp_path)
        ingestor.ingest(KEY, META, *minute_batch(0, MINUTES_PER_DAY + 300))
        ingestor.seal(KEY, MINUTES_PER_DAY)

        committed_rows = MINUTES_PER_DAY // 5
        no_tail = store.query(ExtractQuery.for_key(KEY), include_tail=False)
        assert len(no_tail.frame.series("srv-a")) == committed_rows
        assert no_tail.stats.tail_rows_scanned == 0
        pinned = DataLakeStore(store.root, pinned_generation=store.current_generation())
        assert len(pinned.query(ExtractQuery.for_key(KEY)).frame.series("srv-a")) == committed_rows
        ingestor.close()

    def test_tail_rows_respect_server_and_range_filters(self, tmp_path):
        store, ingestor = make_ingestor(tmp_path)
        ingestor.ingest(KEY, META, *minute_batch(0, 100))
        ingestor.ingest(KEY, META_B, *minute_batch(0, 100))
        ingestor.flush()

        result = store.query(
            ExtractQuery.for_key(KEY, servers=("srv-b",), start_minute=50, end_minute=80)
        )
        assert list(result.frame.server_ids()) == ["srv-b"]
        series = result.frame.series("srv-b")
        assert series.start >= 50 and series.timestamps.max() < 80
        # Raw tail rows are only counted for servers that pass the filter.
        assert result.stats.tail_rows_scanned == 100
        ingestor.close()

    def test_scan_streams_tail_after_committed(self, tmp_path):
        store, ingestor = make_ingestor(tmp_path)
        ingestor.ingest(KEY, META, *minute_batch(0, MINUTES_PER_DAY + 300))
        ingestor.seal(KEY, MINUTES_PER_DAY)

        stats = ScanStats()
        items = list(store.scan(ExtractQuery.for_key(KEY), stats=stats))
        ingestor.close()
        assert [meta.server_id for _key, meta, _series in items] == ["srv-a", "srv-a"]
        assert stats.tail_rows_scanned == 300
        total = sum(len(series) for _key, _meta, series in items)
        assert total == (MINUTES_PER_DAY + 300) // 5

    def test_aggregate_answer_is_invariant_across_seal(self, tmp_path):
        store, ingestor = make_ingestor(tmp_path)
        rng = np.random.default_rng(3)
        ts = np.arange(0, MINUTES_PER_DAY, dtype=np.int64)
        vs = rng.uniform(0.0, 100.0, ts.size)
        ingestor.ingest(KEY, META, ts, vs)
        ingestor.flush()

        q = ExtractQuery.for_key(KEY, aggregates=("count", "sum", "min", "max"))
        before = store.query(q).aggregates[()]
        ingestor.seal(KEY, MINUTES_PER_DAY)
        after = store.query(q).aggregates[()]
        ingestor.close()
        assert before["count"] == after["count"] == MINUTES_PER_DAY // 5
        assert before["sum"] == pytest.approx(after["sum"])
        assert (before["min"], before["max"]) == (
            pytest.approx(after["min"]), pytest.approx(after["max"])
        )

    def test_no_double_count_when_crash_left_sealed_rows_in_wal(self, tmp_path):
        store, ingestor = make_ingestor(tmp_path)
        ingestor.ingest(KEY, META, *minute_batch(0, MINUTES_PER_DAY + 60))
        ingestor.seal(KEY, MINUTES_PER_DAY)
        ingestor.close()

        # Simulate the crash window between commit and trim: restore a
        # WAL that still carries the sealed rows.
        wal, _ = TailWal.open(wal_path(store.root, "r0", 0), "r0", 0, 5)
        wal.rewrite([], NO_WATERMARK)
        wal.append(META, *minute_batch(0, MINUTES_PER_DAY + 60))
        wal.close()

        result = store.query(ExtractQuery.for_key(KEY))
        # The generation's watermark wins: sealed rows surface exactly once.
        assert len(result.frame.series("srv-a")) == (MINUTES_PER_DAY + 60) // 5
        assert result.stats.tail_rows_scanned == 60


# ---------------------------------------------------------------------- #
# Satellite 2: gc never touches an active tail
# ---------------------------------------------------------------------- #


class TestGcSafety:
    def test_collect_garbage_mid_ingestion_preserves_the_tail(self, tmp_path):
        store, ingestor = make_ingestor(tmp_path)
        ingestor.ingest(KEY, META, *minute_batch(0, 2 * MINUTES_PER_DAY))
        ingestor.seal(KEY, MINUTES_PER_DAY)  # gen 1
        ingestor.seal(KEY, 2 * MINUTES_PER_DAY)  # gen 2: gen-1 segment is garbage
        ingestor.ingest(KEY, META, *minute_batch(2 * MINUTES_PER_DAY, 120))
        ingestor.flush()

        wal_file = wal_path(store.root, "r0", 0)
        before = wal_file.read_bytes()
        report = store.manifest.collect_garbage()
        assert report.segments_removed >= 1  # the superseded gen-1 segment

        # The active tail is untouched, on disk and still queryable.
        assert wal_file.read_bytes() == before
        result = store.query(ExtractQuery.for_key(KEY))
        assert result.stats.tail_rows_scanned == 120
        assert len(result.frame.series("srv-a")) == (2 * MINUTES_PER_DAY + 120) // 5

        # And the ingestor keeps working across the gc.
        ingestor.ingest(KEY, META, *minute_batch(2 * MINUTES_PER_DAY + 120, 60))
        assert ingestor.pending_rows(KEY) == 180
        ingestor.close()

    def test_orphan_sweep_ignores_live_tmp_files(self, tmp_path):
        store, ingestor = make_ingestor(tmp_path)
        ingestor.ingest(KEY, META, *minute_batch(0, MINUTES_PER_DAY))
        ingestor.seal(KEY, MINUTES_PER_DAY)
        ingestor.close()
        # A crashed WAL rewrite can leave a tmp inside _manifest/live;
        # only TailWal.open may reclaim it, never the manifest sweep/gc.
        stray = wal_path(store.root, "r0", 0).with_name("week0000.tail.wal.tmp-1")
        stray.write_bytes(b"crashed rewrite")

        store.manifest.collect_garbage()
        assert stray.exists()
        wal, _ = TailWal.open(wal_path(store.root, "r0", 0), "r0", 0, 5)
        wal.close()
        assert not stray.exists()


# ---------------------------------------------------------------------- #
# Satellite 1: honest interval_minutes (resample parity)
# ---------------------------------------------------------------------- #


class TestIntervalResampleParity:
    @pytest.mark.parametrize("fmt", ["sgx", "csv"])
    def test_query_interval_matches_manual_resample(self, tmp_path, fmt):
        store = DataLakeStore(tmp_path / "lake")
        rng = np.random.default_rng(11)
        frame = LoadFrame(5)
        for meta in (META, META_B):
            frame.add_server(
                meta,
                make_series(rng.uniform(0.0, 100.0, 288), start=0, interval=5),
            )
        write_via(fmt, store, KEY, frame)

        for q in (
            ExtractQuery.for_key(KEY, interval_minutes=60),
            ExtractQuery.for_key(KEY, interval_minutes=60, start_minute=90, end_minute=600),
        ):
            bucketed, expected = store.query(q).frame, naive_rows(frame, q)
            assert bucketed.server_ids() == expected.server_ids()
            for server_id, _meta, want in expected.items():
                got = bucketed.series(server_id)
                assert got.interval_minutes == 60
                np.testing.assert_array_equal(got.timestamps, want.timestamps)
                np.testing.assert_allclose(got.values, want.values)

    def test_ranged_resample_stays_inside_the_range(self, tmp_path):
        store = DataLakeStore(tmp_path / "lake")
        frame = LoadFrame(5)
        frame.add_server(META, make_series(np.arange(288.0), start=0, interval=5))
        store.write_extract(KEY, frame)

        result = store.query(
            ExtractQuery.for_key(
                KEY, interval_minutes=60, start_minute=90, end_minute=600
            )
        )
        series = result.frame.series("srv-a")
        # Bucket starts are grid-aligned, so the first surviving bucket
        # is 120 (the 60-bucket at 60 reaches back before 90).
        assert series.start >= 90
        assert int(series.timestamps.max()) < 600
        assert series.interval_minutes == 60

    def test_tail_rows_bucket_onto_the_requested_interval(self, tmp_path):
        store, ingestor = make_ingestor(tmp_path)
        ingestor.ingest(KEY, META, *minute_batch(0, 120, level=4.0))
        ingestor.flush()
        result = store.query(ExtractQuery.for_key(KEY, interval_minutes=30))
        series = result.frame.series("srv-a")
        assert series.interval_minutes == 30 and len(series) == 4
        np.testing.assert_allclose(series.values, 4.0)
        ingestor.close()
