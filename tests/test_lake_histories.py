"""Generated lake histories: a store that lives through them vs a cold one.

``DataLakeStore`` keeps state between reads (verified ``.sgx``
structures by segment sha256, the live-tail index), so "what does a store
that has seen everything answer?" is a different question from "what does
the disk say?".  This machine asks both after every step of a generated
history -- writes, overwrites, deletes, format conversions, re-chunks,
live ingest and seal, gc, a second committer, reopened writers, pinned
generations -- and requires the same rows, content hashes, aggregates
*and* ``ScanStats``: a reader cannot tell a cache hit from a miss.
"""

import shutil
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.storage.datalake import DataLakeStore, ExtractKey
from repro.storage.live import LiveIngestor
from repro.storage.migrate import convert_lake
from repro.storage.query import ExtractQuery
from repro.timeseries.calendar import MINUTES_PER_DAY
from repro.timeseries.frame import LoadFrame, ServerMetadata

from tests.helpers import make_series

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


def answers(store: DataLakeStore) -> list[tuple]:
    out = []
    for q in QUERIES:
        result = store.query(q)
        out.append(
            (result.rows, result.frame.content_hash(), result.aggregates, result.stats.as_dict())
        )
    return out


class LakeHistory(RuleBasedStateMachine):
    """One lake; ``store`` is constructed once and never reset."""

    def __init__(self):
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="lake-history-")) / "lake"
        self.store = DataLakeStore(self.root, write_format="sgx")
        self.writer = DataLakeStore(self.root, write_format="sgx")
        self.version = 0
        self.live_clock = LIVE_START
        self.pins: list[tuple[DataLakeStore, list[tuple]]] = []
        for key in KEYS[:2]:  # every history starts with something to cache
            self.store.write_extract(key, history_frame(key, 0, 3, 2))

    def teardown(self):
        shutil.rmtree(self.root.parent)

    keys = st.sampled_from(KEYS)

    @rule(key=keys, n_servers=st.integers(1, 4), n_days=st.integers(1, 3),
          fmt=st.sampled_from(("sgx", "sgx", "csv")), second_writer=st.booleans())
    def write_or_overwrite(self, key, n_servers, n_days, fmt, second_writer):
        self.version += 1
        store = self.writer if second_writer else self.store
        store.write_extract(key, history_frame(key, self.version, n_servers, n_days), fmt=fmt)

    @rule(key=keys, second_writer=st.booleans())
    def delete(self, key, second_writer):
        (self.writer if second_writer else self.store).delete_extract(key)

    @rule(to_format=st.sampled_from(("csv", "sgx")), delete_source=st.booleans())
    def convert(self, to_format, delete_source):
        convert_lake(self.writer, to_format, delete_source=delete_source)

    @rule(chunk_minutes=st.sampled_from((0, 360, DAY)))
    def forced_rechunk(self, chunk_minutes):
        convert_lake(self.writer, "sgx", chunk_minutes=chunk_minutes)

    @rule(key=keys, rows=st.integers(1, 200), seal=st.booleans())
    def live_ingest(self, key, rows, seal):
        """One collector session: ingest a batch, maybe seal, close."""
        ts = self.live_clock + np.arange(rows, dtype=np.int64)
        self.live_clock += rows
        metadata = ServerMetadata(server_id=f"{key.region}-live", region=key.region)
        with LiveIngestor(self.writer, interval_minutes=5, chunk_minutes=60) as ingestor:
            ingestor.ingest(key, metadata, ts, ts % 13 + 0.25)
            ingestor.flush()
            if seal:
                ingestor.seal(key)

    @rule()
    def collect_garbage(self):
        self.writer.collect_garbage()
        self.pins.clear()  # gc invalidates stores pinned to older generations

    @rule()
    def reopen_writer(self):
        self.writer = DataLakeStore(self.root, write_format="sgx")

    @rule()
    def pin_the_current_generation(self):
        generation = self.store.current_generation()
        if generation and len(self.pins) < 3:
            pinned = DataLakeStore(self.root, pinned_generation=generation)
            self.pins.append((pinned, answers(pinned)))

    @invariant()
    def a_store_that_saw_everything_answers_like_a_cold_one(self):
        warm, cold = answers(self.store), answers(DataLakeStore(self.root))
        for q, got, want in zip(QUERIES, warm, cold, strict=True):
            assert got == want, q

    @invariant()
    def pinned_stores_keep_answering_their_generation(self):
        for pinned, at_pin_time in self.pins:
            assert answers(pinned) == at_pin_time


TestLakeHistories = LakeHistory.TestCase
TestLakeHistories.settings = settings(
    max_examples=20, stateful_step_count=20, deadline=None, derandomize=True, database=None
)
