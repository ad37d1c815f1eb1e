"""Crash-injection tests for the transactional lake manifest.

Every mutation of an on-disk :class:`DataLakeStore` is one manifest
transaction; this suite kills the writer at every fault point of every
mutation protocol (fresh write, overwrite, byte write, delete, CSV
import, in-place ``.sgx`` re-chunk) and asserts the recovered lake is
*exactly* the pre-transaction or the post-transaction state -- never a
mix -- and that re-running the interrupted mutation converges on the
clean outcome.  A hypothesis property test does the same over random
operation sequences, and a pinned-reader test asserts the ISSUE's
acceptance criterion: a reader holding generation N through a concurrent
convert keeps answering byte-for-byte from generation N.  CSV entries are
planted the way a PR <= 18 store wrote them (``tests.helpers.plant_csv``).
"""

from __future__ import annotations

import hashlib
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.columnar import frame_to_sgx_bytes
from repro.storage.datalake import DataLakeStore, ExtractKey
from repro.storage.live import LIVE_FAULT_POINTS, LiveIngestor
from repro.storage.manifest import FAULT_POINTS, InjectedCrash, fault_handler
from repro.storage.migrate import convert_lake
from repro.storage.query import ExtractQuery
from repro.timeseries.calendar import MINUTES_PER_DAY
from repro.timeseries.frame import LoadFrame, ServerMetadata

from tests.helpers import CrashInjector, make_series, plant_csv


def small_frame(n: int = 2, level: float = 1.0, prefix: str = "s") -> LoadFrame:
    frame = LoadFrame(5)
    for index in range(n):
        frame.add_server(
            ServerMetadata(server_id=f"{prefix}{index}", region="r0"),
            make_series([level, level + 1.0, level + 2.0]),
        )
    return frame


def lake_state(root: Path) -> dict:
    """The complete reader-observable state of the lake at ``root``.

    Keys, the formats of their entries, and a digest of every entry's
    payload file -- byte-level, so an in-place ``.sgx`` re-chunk (same
    logical content, different bytes) still reads as a distinct state.
    Opening a fresh store here is the point: it runs crash recovery
    exactly like a process that reopens the lake after a kill.
    """
    state: dict = {}
    for entry in DataLakeStore(root).manifest.current().segments:
        digest = hashlib.sha256((root / entry.relpath).read_bytes()).hexdigest()
        state.setdefault((entry.region, entry.week), {})[entry.fmt] = digest
    return state


# --------------------------------------------------------------------- #
# Deterministic crash matrix: every fault point of every mutation
# --------------------------------------------------------------------- #


@dataclass
class Scenario:
    """One lake mutation plus the clean transaction-boundary states.

    ``ref_stages`` replays the mutation's internal transaction sequence
    one transaction at a time on a reference lake; the states after each
    prefix are the only states crash recovery is ever allowed to land on.
    """

    name: str
    setup: Callable[[Path], None]
    mutate: Callable[[Path], None]
    ref_stages: list[Callable[[Path], None]] = field(default_factory=list)
    #: Whether the mutation stages payload bytes (delete-only
    #: transactions never reach the segment.* fault points).
    stages_segments: bool = True

    def __post_init__(self) -> None:
        if not self.ref_stages:
            self.ref_stages = [self.mutate]


KEY = ExtractKey("r0", 7)


def _setup_empty(root: Path) -> None:
    DataLakeStore(root)


def _setup_csv(root: Path) -> None:
    plant_csv(DataLakeStore(root), KEY, small_frame())


def _setup_dual(root: Path) -> None:
    lake = DataLakeStore(root)
    lake.write_extract(KEY, small_frame())
    plant_csv(lake, KEY, small_frame())


def _setup_day_chunked(root: Path) -> None:
    # One series straddling midnight: two chunks under the per-day
    # default, one under ``chunk_minutes=0``.
    frame = LoadFrame(5)
    frame.add_server(
        ServerMetadata(server_id="s0", region="r0"),
        make_series([1.0, 2.0, 3.0], start=MINUTES_PER_DAY - 5),
    )
    DataLakeStore(root, write_format="sgx").write_extract(KEY, frame)


SCENARIOS = [
    Scenario(
        name="fresh-write",
        setup=_setup_empty,
        mutate=lambda root: DataLakeStore(root, write_format="sgx").write_extract(
            KEY, small_frame()
        ),
    ),
    Scenario(
        # Overwriting an un-imported CSV entry retires it in the same
        # transaction -- a crash must never publish one half.
        name="overwrite-drops-other-format",
        setup=_setup_csv,
        mutate=lambda root: DataLakeStore(root).write_extract(KEY, small_frame(level=5.0)),
    ),
    Scenario(
        name="write-bytes",
        setup=_setup_csv,
        mutate=lambda root: DataLakeStore(root).write_extract_bytes(
            KEY, frame_to_sgx_bytes(small_frame(level=9.0))
        ),
    ),
    Scenario(
        name="delete-dual-format",
        setup=_setup_dual,
        mutate=lambda root: DataLakeStore(root).delete_extract(KEY),
        stages_segments=False,
    ),
    Scenario(
        # An import is one transaction per key -- stage the verified
        # .sgx, retire the CSV entry -- so there is no ``ref_stages``
        # middle state: a crash leaves the key CSV or .sgx, never both,
        # never neither.
        name="convert-imports-csv",
        setup=_setup_csv,
        mutate=lambda root: convert_lake(DataLakeStore(root)),
    ),
    Scenario(
        # Forced in-place re-chunk (verify in memory, then overwrite the
        # stored copy's own source): same logical content before and
        # after, so only the byte-level state digests tell pre from post.
        name="rechunk-in-place",
        setup=_setup_day_chunked,
        mutate=lambda root: convert_lake(DataLakeStore(root), chunk_minutes=0),
    ),
]


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
def test_crash_at_every_fault_point_recovers_atomically(tmp_path, scenario):
    # Clean reference run: the states at each transaction boundary.
    ref = tmp_path / "ref"
    scenario.setup(ref)
    allowed = [lake_state(ref)]
    for stage in scenario.ref_stages:
        stage(ref)
        allowed.append(lake_state(ref))
    assert allowed[0] != allowed[-1], "scenario must actually change the lake"

    # Recording run: discover how often the mutation hits each point.
    recorded = tmp_path / "recorded"
    scenario.setup(recorded)
    recorder = CrashInjector(None)
    with fault_handler(recorder):
        scenario.mutate(recorded)
    assert lake_state(recorded) == allowed[-1]
    counts = Counter(recorder.seen)
    expected_points = (
        set(FAULT_POINTS)
        if scenario.stages_segments
        else set(FAULT_POINTS) - {"segment.tmp", "segment.final", "txlog.staged"}
    )
    assert set(counts) == expected_points

    # Crash at the i-th hit of every fault point; recovery must land on
    # a transaction boundary, and a re-run must converge on the clean
    # outcome.
    for point in FAULT_POINTS:
        for occurrence in range(1, counts.get(point, 0) + 1):
            work = tmp_path / f"work-{point}-{occurrence}"
            scenario.setup(work)
            injector = CrashInjector(point, occurrence=occurrence)
            with fault_handler(injector):
                with pytest.raises(InjectedCrash):
                    scenario.mutate(work)
            recovered = lake_state(work)
            assert recovered in allowed, (
                f"crash at {point}#{occurrence} recovered to a state that is "
                "not any transaction boundary (torn transaction)"
            )
            scenario.mutate(work)
            assert lake_state(work) == allowed[-1], (
                f"re-running after a crash at {point}#{occurrence} did not "
                "converge on the clean outcome"
            )


def test_commit_point_is_the_pointer_swap(tmp_path):
    """Points strictly before ``manifest.pointer`` roll back; the pointer
    swap and everything after roll forward."""
    commit_index = FAULT_POINTS.index("manifest.pointer")
    for index, point in enumerate(FAULT_POINTS):
        root = tmp_path / point
        _setup_csv(root)
        pre = lake_state(root)
        injector = CrashInjector(point)
        with fault_handler(injector):
            with pytest.raises(InjectedCrash):
                DataLakeStore(root).write_extract(KEY, small_frame(level=3.0))
        recovered = lake_state(root)
        if index < commit_index:
            assert recovered == pre, f"crash at {point} must roll back"
        else:
            assert recovered != pre, f"crash at {point} must roll forward"
            assert tuple(recovered[(KEY.region, KEY.week)]) == ("sgx",)


def test_write_protocol_hits_every_fault_point_in_order(tmp_path):
    recorder = CrashInjector(None)
    with fault_handler(recorder):
        DataLakeStore(tmp_path).write_extract(KEY, small_frame())
    assert tuple(recorder.seen) == FAULT_POINTS


# --------------------------------------------------------------------- #
# Property test: random operation sequences with a random crash
# --------------------------------------------------------------------- #

_KEYS = [ExtractKey("r0", 1), ExtractKey("r0", 2), ExtractKey("r1", 1)]

_op = st.one_of(
    st.tuples(
        st.just("write"),
        st.sampled_from(range(len(_KEYS))),
        st.integers(min_value=0, max_value=5),
    ),
    st.tuples(st.just("delete"), st.sampled_from(range(len(_KEYS)))),
)


def _apply(root: Path, op: tuple) -> None:
    lake = DataLakeStore(root)
    if op[0] == "write":
        _tag, key_index, level = op
        lake.write_extract(_KEYS[key_index], small_frame(level=float(level)))
    else:
        lake.delete_extract(_KEYS[op[1]])


@settings(max_examples=25, deadline=None)
@given(
    ops=st.lists(_op, min_size=1, max_size=5),
    crash_index=st.integers(min_value=0, max_value=4),
    point=st.sampled_from(FAULT_POINTS),
)
def test_random_sequence_crash_parity(ops, crash_index, point):
    """Crash one random op of a random sequence at a random fault point:
    the recovered lake equals the state before or after that op, and
    finishing the sequence converges with an uncrashed reference run."""
    crash_index = min(crash_index, len(ops) - 1)
    with tempfile.TemporaryDirectory() as tmp:
        ref, work = Path(tmp) / "ref", Path(tmp) / "work"
        prefix_states = [lake_state(ref)]
        for op in ops:
            _apply(ref, op)
            prefix_states.append(lake_state(ref))

        for op in ops[:crash_index]:
            _apply(work, op)
        injector = CrashInjector(point)
        try:
            with fault_handler(injector):
                _apply(work, ops[crash_index])
        except InjectedCrash:
            pass
        recovered = lake_state(work)
        if injector.fired:
            assert recovered in (
                prefix_states[crash_index],
                prefix_states[crash_index + 1],
            )
        else:
            # The op never reached that point (e.g. a delete of a missing
            # key commits nothing, so the publish fault points never
            # fire) and simply completed.
            assert recovered == prefix_states[crash_index + 1]

        # Retry the interrupted op and play out the rest of the tape.
        for op in ops[crash_index:]:
            _apply(work, op)
        assert lake_state(work) == prefix_states[-1]


# --------------------------------------------------------------------- #
# Pinned readers vs concurrent mutations
# --------------------------------------------------------------------- #


def test_pinned_reader_survives_concurrent_convert(tmp_path):
    """ISSUE acceptance: a reader pinned to generation N while the lake
    is converted (every segment re-chunked in place) keeps returning
    results identical to its pre-convert reads."""
    lake = DataLakeStore(tmp_path)
    keys = [ExtractKey("r0", 1), ExtractKey("r0", 2)]
    for index, key in enumerate(keys):
        lake.write_extract(key, small_frame(level=float(index), prefix=f"w{index}-"))

    reader = DataLakeStore(tmp_path, pinned_generation=lake.current_generation())
    q = ExtractQuery(regions=("r0",))
    before = reader.query(q)
    before_bytes = {key: reader.read_extract_bytes(key) for key in keys}

    assert convert_lake(DataLakeStore(tmp_path), chunk_minutes=5).n_converted == 2

    # The live lake moved on...
    live = DataLakeStore(tmp_path)
    assert live.current_generation() > reader.pinned_generation
    assert all(live.read_extract_bytes(key) != before_bytes[key] for key in keys)
    # ...but the pinned reader still serves generation N, byte for byte.
    assert {key: reader.read_extract_bytes(key) for key in keys} == before_bytes
    after = reader.query(q)
    assert after.rows == before.rows
    assert after.frame.content_hash() == before.frame.content_hash()


def test_scan_in_flight_is_isolated_from_writes(tmp_path):
    """A scan pins the generation current at its first element: a write
    landing mid-scan neither changes what the scan yields nor breaks it."""
    lake = DataLakeStore(tmp_path, write_format="sgx")
    keys = [ExtractKey("r0", 1), ExtractKey("r0", 2)]
    for index, key in enumerate(keys):
        lake.write_extract(key, small_frame(level=1.0, prefix=f"w{index}-"))

    stream = lake.scan(ExtractQuery(regions=("r0",)))
    first_key, _metadata, first_series = next(stream)
    assert first_key == keys[0]
    assert float(first_series.values[0]) == 1.0

    # Overwrite both extracts while the scan is in flight.
    writer = DataLakeStore(tmp_path)
    for index, key in enumerate(keys):
        writer.write_extract(key, small_frame(level=50.0, prefix=f"w{index}-"))

    rest = list(stream)
    assert [key for key, _m, _s in rest] == [keys[0], keys[1], keys[1]]
    assert all(float(series.values[0]) == 1.0 for _k, _m, series in rest)
    # A fresh query sees the new generation.
    fresh = lake.query(ExtractQuery(regions=("r0",)))
    assert float(next(iter(fresh.frame.items()))[2].values[0]) == 50.0


# --------------------------------------------------------------------- #
# Live seal transactions: the manifest protocol plus the WAL trim
# --------------------------------------------------------------------- #

LIVE_KEY = ExtractKey("r0", 0)
_LIVE_META = ServerMetadata(server_id="s0", region="r0")


def _live_setup(root: Path) -> None:
    """A day plus an hour of raw 1-minute rows, all fsync'd in the tail."""
    store = DataLakeStore(root)
    with LiveIngestor(store, interval_minutes=5, chunk_minutes=MINUTES_PER_DAY) as ing:
        ts = np.arange(0, MINUTES_PER_DAY + 60, dtype=np.int64)
        ing.ingest(LIVE_KEY, _LIVE_META, ts, np.sin(ts / 60.0) + 2.0)


def _live_seal(root: Path) -> None:
    # Deliberately no close(): an injected crash should leave the
    # process state exactly like a kill would.
    ingestor = LiveIngestor(
        DataLakeStore(root), interval_minutes=5, chunk_minutes=MINUTES_PER_DAY
    )
    ingestor.seal(LIVE_KEY, MINUTES_PER_DAY)


def _unified_view(root: Path) -> tuple[str, int, int]:
    """What any reader sees: committed segments plus the live tail."""
    result = DataLakeStore(root).query(ExtractQuery.for_key(LIVE_KEY))
    return (result.frame.content_hash(), result.rows, result.stats.tail_rows_scanned)


def test_seal_crash_at_every_fault_point_recovers_atomically(tmp_path):
    """Killing a seal anywhere -- the whole manifest protocol plus the
    post-commit WAL trim -- leaves committed state on a transaction
    boundary and never duplicates or loses a row: the unified
    (committed + tail) answer is identical at every crash site."""
    ref = tmp_path / "ref"
    _live_setup(ref)
    pre_committed = lake_state(ref)
    pre_unified = _unified_view(ref)
    _live_seal(ref)
    post_committed = lake_state(ref)
    post_unified = _unified_view(ref)
    assert pre_committed != post_committed
    # The seal moves rows between worlds without changing the answer
    # (the invariant the crash matrix below leans on) -- only the
    # tail-vs-committed split shifts.
    assert post_unified[:2] == pre_unified[:2]
    assert pre_unified[2] == MINUTES_PER_DAY + 60 and post_unified[2] == 60

    # Recording run: a seal must hit every manifest fault point plus its
    # own WAL-trim point, exactly once each.
    recorded = tmp_path / "recorded"
    _live_setup(recorded)
    recorder = CrashInjector(None)
    with fault_handler(recorder):
        _live_seal(recorded)
    counts = Counter(recorder.seen)
    assert set(counts) == set(LIVE_FAULT_POINTS)

    for point in LIVE_FAULT_POINTS:
        for occurrence in range(1, counts.get(point, 0) + 1):
            work = tmp_path / f"work-{point}-{occurrence}"
            _live_setup(work)
            injector = CrashInjector(point, occurrence=occurrence)
            with fault_handler(injector):
                with pytest.raises(InjectedCrash):
                    _live_seal(work)
            assert lake_state(work) in (pre_committed, post_committed), (
                f"seal crash at {point}#{occurrence} recovered committed "
                "state off a transaction boundary"
            )
            assert _unified_view(work)[:2] == pre_unified[:2], (
                f"seal crash at {point}#{occurrence} lost or duplicated "
                "rows in the unified view"
            )
            # Re-running the seal converges on the clean outcome.
            _live_seal(work)
            assert lake_state(work) == post_committed
            assert _unified_view(work) == post_unified


def test_seal_protocol_hits_manifest_points_then_wal_trim(tmp_path):
    _live_setup(tmp_path)
    recorder = CrashInjector(None)
    with fault_handler(recorder):
        _live_seal(tmp_path)
    assert tuple(recorder.seen) == LIVE_FAULT_POINTS


def test_crash_between_commit_and_trim_rolls_forward_once(tmp_path):
    """The seal's own window: commit landed, trim did not.  Replay must
    dedupe the sealed rows against the generation's watermark -- reopening and
    re-sealing is a no-op, and ingestion continues above the watermark."""
    _live_setup(tmp_path)
    injector = CrashInjector("live.wal.rewrite")
    with fault_handler(injector):
        with pytest.raises(InjectedCrash):
            _live_seal(tmp_path)

    store = DataLakeStore(tmp_path)
    assert store.manifest.current().generation == 1  # the seal committed
    with LiveIngestor(
        store, interval_minutes=5, chunk_minutes=MINUTES_PER_DAY
    ) as ingestor:
        # Replay deduped the sealed day; only the trailing hour is live.
        assert ingestor.pending_rows(LIVE_KEY) == 60
        assert ingestor.watermark(LIVE_KEY) == MINUTES_PER_DAY
        assert ingestor.seal(LIVE_KEY, MINUTES_PER_DAY) is None
        ts = np.arange(MINUTES_PER_DAY + 60, MINUTES_PER_DAY + 120, dtype=np.int64)
        ingestor.ingest(LIVE_KEY, _LIVE_META, ts, np.full(60, 1.0))
    result = store.query(ExtractQuery.for_key(LIVE_KEY))
    assert result.rows == (MINUTES_PER_DAY + 120) // 5
    assert result.stats.tail_rows_scanned == 120
