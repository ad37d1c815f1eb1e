"""Columnar ``.sgx`` extracts: the CSV edges and what pruning saves.

The lake stores extracts as raw little-endian column buffers that
deserialise via ``numpy.frombuffer``; the paper's CSV schema is an
import/export edge.  This benchmark checks the edges are lossless to the
byte (CSV text -> ``convert`` -> a query -> ``frame_to_csv_text``), that the stored
segment is smaller than the text it was imported from, and shows what
zone-map pruning saves on time-range reads.  (The CSV-vs-``.sgx`` cold
read race that used to live here went with the CSV read path; wall-clock
comparisons live in ``python -m bench compare``.)
"""

from __future__ import annotations

import time

from bench_utils import print_table
from repro.fleet_ops.synthesis import populate_lake
from repro.storage.columnar import SgxReadStats, frame_from_sgx_bytes, sgx_summary
from repro.storage.csv_io import frame_to_csv_text, write_frame_csv
from repro.storage.datalake import DataLakeStore, ExtractKey, ExtractQuery
from repro.storage.migrate import adopt_legacy_files, convert_lake
from repro.telemetry.fleet import default_fleet_spec
from repro.telemetry.generator import WorkloadGenerator

#: One region of paper-scale servers, one weekly extract cycle.
N_SERVERS = 24
SPEC_WEEKS = 2

#: Required payload-verification saving of a 1-day partial read over a
#: full read of a 7-day v2 extract (day chunks make ~7x achievable; the
#: floor leaves room for servers that do not span the full week).
MIN_PRUNED_BYTES_RATIO = 2.0

DAY_MINUTES = 24 * 60


def _best_of(n: int, fn) -> float:
    best = float("inf")
    for _ in range(n):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_columnar_roundtrip_is_lossless(tmp_path_factory):
    spec = default_fleet_spec(servers_per_region=(N_SERVERS,), weeks=SPEC_WEEKS, seed=307)
    region = spec.regions[0]
    frame = WorkloadGenerator(spec).generate_weekly_extract(region, 0)
    key = ExtractKey(region=region.name, week=0)
    # A legacy-layout CSV file, as the load-extraction query once wrote
    # it, imported as it is adopted: what `convert` does.
    lake = DataLakeStore(tmp_path_factory.mktemp("columnar-lake"))
    csv_path = lake.root / key.region / key.filename("csv")
    rows = write_frame_csv(frame, csv_path)
    csv_bytes = csv_path.read_bytes()

    assert adopt_legacy_files(lake.manifest) == ((f"{key.region}/{csv_path.name}", len(csv_bytes)),)
    whole = ExtractQuery.for_key(key, interval_minutes=None)
    assert lake.query(whole).frame.total_points() == rows
    report = convert_lake(lake)  # nothing left to do but the health check
    assert report.n_converted == 0 and report.n_skipped == 1
    # Timestamps, values and metadata all feed the content hash.
    assert lake.query(whole).frame.content_hash() == frame.content_hash()
    # And exporting keeps the bytes-level schema identical.
    committed = lake.query(whole, include_tail=False).frame
    assert frame_to_csv_text(committed).encode("utf-8") == csv_bytes
    sgx_bytes = lake.extract_size_bytes(key)
    print_table(
        "One extract, as CSV text and as the .sgx segment imported from it",
        ["format", "rows", "bytes"],
        [["csv", rows, len(csv_bytes)], ["sgx", rows, sgx_bytes]],
    )
    assert sgx_bytes < len(csv_bytes)  # raw column buffers beat decimal text


def test_columnar_partial_read_prunes_within_server(
    benchmark, tmp_path_factory, record_ratio
):
    """Format v2: a 1-day read of a 7-day extract verifies a fraction of
    the payload bytes, because per-day chunks let zone maps prune inside
    each server, not just across servers."""
    spec = default_fleet_spec(servers_per_region=(N_SERVERS,), weeks=1, seed=311)
    lake = DataLakeStore(tmp_path_factory.mktemp("chunked-lake"))
    key = populate_lake(lake, spec, weeks=[0])[0]
    raw = lake.extract_path(key).read_bytes()

    # Per-server chunking is observable through the inspector walk.
    info = sgx_summary(raw)
    chunks_per_server: dict[str, int] = {}
    for chunk in info["chunks"]:
        chunks_per_server[chunk["server_id"]] = chunks_per_server.get(chunk["server_id"], 0) + 1
    assert max(chunks_per_server.values()) >= 7  # a full-week server has day chunks

    day_start = (
        min(c["min_ts"] for c in info["chunks"] if c["n_points"]) // DAY_MINUTES
    ) * DAY_MINUTES

    def read_day_vs_week():
        day_seconds = _best_of(
            3,
            lambda: frame_from_sgx_bytes(
                raw, start_minute=day_start, end_minute=day_start + DAY_MINUTES
            ),
        )
        week_seconds = _best_of(3, lambda: frame_from_sgx_bytes(raw))
        return day_seconds, week_seconds

    day_seconds, week_seconds = benchmark.pedantic(read_day_vs_week, rounds=1, iterations=1)

    full_stats = SgxReadStats()
    full = frame_from_sgx_bytes(raw, stats=full_stats)
    day_stats = SgxReadStats()
    one_day = frame_from_sgx_bytes(
        raw, start_minute=day_start, end_minute=day_start + DAY_MINUTES, stats=day_stats
    )
    print_table(
        "Within-server chunk pruning: 1-day vs 7-day read of one v2 extract",
        ["read", "servers", "points", "chunks_pruned", "payload_bytes_verified", "seconds"],
        [
            [
                "first day",
                len(one_day),
                one_day.total_points(),
                day_stats.chunks_pruned,
                day_stats.payload_bytes_verified,
                day_seconds,
            ],
            [
                "full week",
                len(full),
                full.total_points(),
                full_stats.chunks_pruned,
                full_stats.payload_bytes_verified,
                week_seconds,
            ],
        ],
    )
    assert day_stats.chunks_pruned > 0
    assert full_stats.payload_bytes_verified == full_stats.payload_bytes_total
    ratio = full_stats.payload_bytes_verified / max(day_stats.payload_bytes_verified, 1)
    assert ratio >= MIN_PRUNED_BYTES_RATIO, (
        f"1-day read verified only {ratio:.1f}x fewer payload bytes than a full "
        f"read (required >= {MIN_PRUNED_BYTES_RATIO}x)"
    )
    record_ratio("columnar_chunk_prune_bytes", ratio, floor=MIN_PRUNED_BYTES_RATIO)
    assert one_day.total_points() < full.total_points()


def test_columnar_zone_map_pruned_read(benchmark, tmp_path_factory):
    spec = default_fleet_spec(servers_per_region=(N_SERVERS,), weeks=SPEC_WEEKS, seed=307)
    lake = DataLakeStore(tmp_path_factory.mktemp("columnar-lake"))
    key = populate_lake(lake, spec, weeks=[0])[0]
    day_minutes = 24 * 60
    day = ExtractQuery.for_key(key, start_minute=0, end_minute=day_minutes)
    week = ExtractQuery.for_key(key)

    def read_day_vs_week():
        day_seconds = _best_of(3, lambda: lake.query(day))
        week_seconds = _best_of(3, lambda: lake.query(week))
        return day_seconds, week_seconds

    day_seconds, week_seconds = benchmark.pedantic(read_day_vs_week, rounds=1, iterations=1)
    one_day = lake.query(day).frame
    full = lake.query(week).frame
    print_table(
        "Zone-map pruned partial read: first day vs full week (.sgx)",
        ["read", "servers", "points", "seconds"],
        [
            ["first day", len(one_day), one_day.total_points(), day_seconds],
            ["full week", len(full), full.total_points(), week_seconds],
        ],
    )
    assert one_day.total_points() < full.total_points()
    for _server_id, _metadata, series in one_day.items():
        assert series.end < day_minutes
