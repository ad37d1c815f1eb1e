"""Generated lake histories: a store that lives through them vs a cold one.

``DataLakeStore`` keeps state between reads (verified ``.sgx``
structures by segment sha256, the live-tail index), so "what does a store
that has seen everything answer?" is a different question from "what does
the disk say?".  This machine asks both after every step of a generated
history -- writes, overwrites, re-chunks, live ingest and seal,
gc, a second committer, reopened writers, pinned generations -- and
requires the same rows, content hashes, aggregates, ``scan()`` streams
*and* ``ScanStats``: a reader cannot tell a cache hit from a miss.

Histories also cross the adoption edge.  A lake may start as a
pre-manifest directory of ``.csv`` files, and an older writer may commit
a generation with a CSV entry, alone or beside the segment holding the
same rows: no store opens or reads that generation until ``convert``'s
adoption has imported the entry, after which both stores answer with
the frame that was planted.
"""

import hashlib
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.storage.datalake import DataLakeStore, ExtractKey
from repro.storage.live import LIVE_FAULT_POINTS, LiveIngestor
from repro.storage.manifest import InjectedCrash, LakeManifest, LakeNotAdoptedError, fault_handler
from repro.storage.migrate import adopt_legacy_files, convert_lake
from repro.storage.query import ExtractQuery, ScanStats
from repro.timeseries.calendar import MINUTES_PER_DAY, align_down
from repro.timeseries.frame import LoadFrame, ServerMetadata

from tests.helpers import CrashInjector, make_series, plant_csv, plant_legacy

KEYS = (ExtractKey("r0", 0), ExtractKey("r0", 1), ExtractKey("r1", 0))
DAY = MINUTES_PER_DAY
#: Written frames cover at most three days; live rows start after them,
#: so a seal never overlaps what a write put there.
LIVE_START = 4 * DAY


def history_frame(key: ExtractKey, version: int, n_servers: int, n_days: int) -> LoadFrame:
    """Servers ``<region>-s<i>``, server ``i`` starting on day ``i % 2``."""
    frame = LoadFrame(5)
    for index in range(n_servers):
        metadata = ServerMetadata(
            server_id=f"{key.region}-s{index}",
            region=key.region,
            engine=("postgresql", "mysql")[index % 2],
        )
        points = n_days * (DAY // 5)
        values = (np.arange(points) * (index + 1) + version * 7.0 + key.week) % 97.0
        frame.add_server(metadata, make_series(values, start=(index % 2) * DAY))
    return frame


def committed(key: ExtractKey) -> ExtractQuery:
    return ExtractQuery.for_key(key, interval_minutes=None)


def queries() -> list[ExtractQuery]:
    """Per key a point, a ranged and a full read plus a ranged aggregate
    (partial-overlap chunks are decoded), and one lake-wide by-day rollup
    (answered from chunk statistics)."""
    out = [ExtractQuery(aggregates=("count", "mean", "max"), group_by=("day",))]
    for key in KEYS:
        servers = [f"{key.region}-s0", f"{key.region}-s2", f"{key.region}-live"]
        out += [
            ExtractQuery.for_key(key, servers=servers, start_minute=DAY, end_minute=2 * DAY),
            ExtractQuery.for_key(key, start_minute=DAY // 2, end_minute=DAY + DAY // 2),
            ExtractQuery.for_key(key),
            ExtractQuery.for_key(
                key,
                aggregates=("count", "sum", "min"),
                group_by=("server", "day"),
                start_minute=DAY // 2,
                end_minute=5 * DAY,
            ),
        ]
    return out


QUERIES = queries()


def answer(store: DataLakeStore, q: ExtractQuery) -> tuple:
    """Everything a reader can observe of ``q``: the materialised answer,
    the streamed one and both ``ScanStats``."""
    result = store.query(q)
    streamed = None
    if not q.is_aggregate:
        stats = ScanStats()
        digest = hashlib.sha256()
        for key, metadata, series in store.scan(q, stats=stats):
            digest.update(f"{key}|{metadata.server_id}|".encode())
            digest.update(series.timestamps.tobytes() + series.values.tobytes())
        streamed = (digest.hexdigest(), stats.as_dict())
    return (
        result.rows,
        result.frame.content_hash(),
        result.aggregates,
        result.stats.as_dict(),
        streamed,
    )


def answers(store: DataLakeStore) -> list[tuple]:
    return [answer(store, q) for q in QUERIES]


class LakeHistory(RuleBasedStateMachine):
    """One lake; ``store`` is constructed once and never reset."""

    def __init__(self):
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="lake-history-")) / "lake"
        self.store = DataLakeStore(self.root)
        self.writer = DataLakeStore(self.root)
        self.version = 0
        self.live_clock = LIVE_START
        self.pins: list[tuple[DataLakeStore, list[tuple]]] = []
        #: Keys holding a CSV entry, with the frame that was planted.
        self.unimported: dict[ExtractKey, LoadFrame] = {}
        #: Highest ``through`` of the seals that committed, per partition.
        self.sealed: dict[tuple[str, int], int] = {}

    def teardown(self):
        shutil.rmtree(self.root.parent)

    keys = st.sampled_from(KEYS)

    @initialize(legacy=st.booleans())
    def start_with_something(self, legacy):
        """Two keys to cache -- or, ``legacy``, a pre-manifest directory of
        ``.csv`` files, imported by the adopt step."""
        frames = {key: history_frame(key, 0, 3, 2) for key in KEYS[:2]}
        if legacy:
            plant_legacy(self.writer, frames)
        else:
            for key, frame in frames.items():
                self.store.write_extract(key, frame)
        for key, frame in frames.items():
            assert self.store.query(committed(key)).frame.content_hash() == frame.content_hash()

    @precondition(lambda self: not self.unimported)
    @rule(key=keys, n_servers=st.integers(1, 4), n_days=st.integers(1, 3),
          second_writer=st.booleans())
    def write_or_overwrite(self, key, n_servers, n_days, second_writer):
        self.version += 1
        store = self.writer if second_writer else self.store
        store.write_extract(key, history_frame(key, self.version, n_servers, n_days))

    @precondition(lambda self: not self.unimported)
    @rule(key=keys, n_servers=st.integers(1, 4), n_days=st.integers(1, 3), beside=st.booleans())
    def an_older_writer_leaves_a_csv_entry(self, key, n_servers, n_days, beside):
        """A CSV entry as an older store committed one: ``beside`` the
        key's segment, holding its rows, or alone with new ones."""
        beside = beside and self.writer.has_extract(key)
        if beside:
            frame = self.writer.query(committed(key), include_tail=False).frame
        else:
            self.version += 1
            frame = history_frame(key, self.version, n_servers, n_days)
        plant_csv(self.writer, key, frame, alone=not beside)
        self.unimported[key] = frame

    @rule(chunk_minutes=st.sampled_from((None, 0, 360, DAY)))
    def convert(self, chunk_minutes):
        """Adopt what an older writer left, maybe force a re-chunk."""
        adopt_legacy_files(LakeManifest(self.root))
        convert_lake(self.writer, chunk_minutes=chunk_minutes)
        for key, planted in self.unimported.items():
            for store in (self.store, DataLakeStore(self.root)):
                got = store.query(committed(key), include_tail=False).frame
                assert got.content_hash() == planted.content_hash(), key
        self.unimported.clear()

    @precondition(lambda self: not self.unimported)
    @rule(key=keys, rows=st.integers(1, 200), seal=st.booleans(),
          crash_at=st.none() | st.sampled_from(LIVE_FAULT_POINTS))
    def live_ingest(self, key, rows, seal, crash_at):
        """One collector session: ingest a batch, maybe seal -- killed at
        ``crash_at`` if the seal gets there -- close."""
        ts = self.live_clock + np.arange(rows, dtype=np.int64)
        self.live_clock += rows
        metadata = ServerMetadata(server_id=f"{key.region}-live", region=key.region)
        with LiveIngestor(self.writer, interval_minutes=5, chunk_minutes=60) as ingestor:
            ingestor.ingest(key, metadata, ts, ts % 13 + 0.25)
            ingestor.flush()
            try:
                with fault_handler(CrashInjector(crash_at)):
                    sealed = ingestor.seal(key) if seal else None
            except InjectedCrash:
                # From the pointer swap on, the seal through the tail's last
                # chunk boundary committed.
                if LIVE_FAULT_POINTS.index(crash_at) >= LIVE_FAULT_POINTS.index("manifest.pointer"):
                    self.sealed[(key.region, key.week)] = align_down(int(ts[-1]), 60)
            else:
                if sealed is not None:
                    self.sealed[(key.region, key.week)] = sealed.sealed_through

    @rule()
    def collect_garbage(self):
        self.writer.collect_garbage()
        self.pins.clear()  # gc invalidates stores pinned to older generations

    @precondition(lambda self: not self.unimported)
    @rule()
    def reopen_writer(self):
        self.writer = DataLakeStore(self.root)

    @precondition(lambda self: not self.unimported)
    @rule()
    def pin_the_current_generation(self):
        generation = self.store.current_generation()
        if generation and len(self.pins) < 3:
            pinned = DataLakeStore(self.root, pinned_generation=generation)
            self.pins.append((pinned, answers(pinned)))

    @precondition(lambda self: not self.unimported)
    @invariant()
    def a_store_that_saw_everything_answers_like_a_cold_one(self):
        warm, cold = answers(self.store), answers(DataLakeStore(self.root))
        for q, got, want in zip(QUERIES, warm, cold, strict=True):
            assert got == want, q

    @invariant()
    def a_generation_with_csv_entries_opens_and_reads_nowhere(self):
        planted = {(key.region, key.week) for key in self.unimported}
        unimported = LakeManifest(self.root).current().unimported
        assert {(entry.region, entry.week) for entry in unimported} == planted
        if planted:
            for refused in (lambda: DataLakeStore(self.root), lambda: answers(self.store)):
                with pytest.raises(LakeNotAdoptedError):
                    refused()

    @invariant()
    def each_partition_is_sealed_through_its_last_committed_seal(self):
        assert self.store.manifest.current().sealed_through == self.sealed

    @invariant()
    def pinned_stores_keep_answering_their_generation(self):
        for pinned, at_pin_time in self.pins:
            assert answers(pinned) == at_pin_time


TestLakeHistories = LakeHistory.TestCase
# 30 x 30 rather than 20 x 20: with the derandomised draw the shorter
# budget ran ``convert`` once; this one adopts ~45 planted CSV entries.
TestLakeHistories.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None, derandomize=True, database=None
)
