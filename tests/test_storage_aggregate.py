"""Tests for the aggregate query mode and the v4 chunk-statistics path.

Parity is the contract under test: whatever mix of sources answers an
aggregate -- stored v4 chunk statistics, decoded partial-overlap chunks
-- the reductions must match a naive recompute over the materialised row
path, on a lake that was written and on one that was imported from CSV
entries.  The pairwise (Chan/Welford) merge is additionally checked for
fold-order independence with hypothesis.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.storage import columnar
from repro.storage.aggregate import AggregateAccumulator
from repro.storage.datalake import DataLakeStore, ExtractKey
from repro.storage.query import ExtractQuery, QueryError
from repro.timeseries.calendar import MINUTES_PER_DAY
from repro.timeseries.frame import LoadFrame, ServerMetadata
from repro.timeseries.series import LoadSeries

from tests.helpers import diurnal_series, write_via

ALL_REDUCTIONS = ("count", "sum", "min", "max", "mean", "variance", "std")


def build_frame(n_servers: int = 4, n_days: int = 7) -> LoadFrame:
    frame = LoadFrame(5)
    for i in range(n_servers):
        metadata = ServerMetadata(
            server_id=f"srv-{i}",
            region="westus2",
            engine="postgresql" if i % 2 else "mysql",
            default_backup_start=0,
            default_backup_end=360,
            backup_duration_minutes=45,
            true_class="stable",
        )
        frame.add_server(metadata, diurnal_series(n_days, noise=1.5, seed=i))
    return frame


@pytest.fixture
def make_lake(tmp_path):
    def make(frame: LoadFrame, origin: str) -> DataLakeStore:
        lake = DataLakeStore(tmp_path / "lake")
        write_via(origin, lake, ExtractKey("westus2", 0), frame)
        return lake

    return make


def naive_aggregate(frame, query):
    """Recompute the reductions directly from the materialised rows."""
    group_by = query.group_by or ()
    lo, hi = query.time_range()
    allow = set(query.servers) if query.servers is not None else None
    engines = set(query.engines) if query.engines is not None else None
    groups: dict[tuple, list[np.ndarray]] = {}
    for server_id, metadata, series in frame.items():
        if allow is not None and server_id not in allow:
            continue
        if engines is not None and metadata.engine not in engines:
            continue
        ts, vs = series.timestamps, series.values
        mask = (ts >= lo) & (ts < hi)
        if not mask.any():
            continue
        if "day" in group_by:
            for day in np.unique(ts[mask] // MINUTES_PER_DAY):
                key = tuple(
                    server_id if name == "server" else int(day) for name in group_by
                )
                groups.setdefault(key, []).append(vs[mask & (ts // MINUTES_PER_DAY == day)])
        else:
            key = (server_id,) if "server" in group_by else ()
            groups.setdefault(key, []).append(vs[mask])
    out = {}
    for key, parts in groups.items():
        values = np.concatenate(parts)
        out[key] = {
            "count": int(values.shape[0]),
            "sum": float(values.sum()),
            "min": float(values.min()),
            "max": float(values.max()),
            "mean": float(values.mean()),
            "variance": float(values.var()),
            "std": float(values.std()),
        }
    return out


def assert_aggregates_close(got, want):
    assert set(got) == set(want)
    for key in want:
        for name in ALL_REDUCTIONS:
            assert got[key][name] == pytest.approx(want[key][name], rel=1e-9, abs=1e-7), (
                key,
                name,
            )


class TestAggregateRowParity:
    """Aggregate answers match a naive recompute of the row path."""

    @pytest.mark.parametrize("fmt", ["csv", "sgx"])
    @pytest.mark.parametrize(
        "start,end",
        [
            (None, None),  # full scan: every chunk fully covered
            (MINUTES_PER_DAY, 3 * MINUTES_PER_DAY),  # day-aligned: full chunks
            (700, 5 * MINUTES_PER_DAY - 300),  # partial chunks at both edges
        ],
        ids=["full", "chunk-aligned", "partial-overlap"],
    )
    @pytest.mark.parametrize("group_by", [None, ("server",), ("day",), ("server", "day")])
    def test_parity(self, make_lake, fmt, start, end, group_by):
        frame = build_frame()
        lake = make_lake(frame, fmt)
        query = ExtractQuery(
            aggregates=ALL_REDUCTIONS,
            group_by=group_by,
            start_minute=start,
            end_minute=end,
        )
        result = lake.query(query)
        assert result.frame.total_points() == 0  # no rows materialised
        assert_aggregates_close(result.aggregates, naive_aggregate(frame, query))

    @pytest.mark.parametrize("fmt", ["csv", "sgx"])
    def test_parity_with_server_and_engine_filters(self, make_lake, fmt):
        frame = build_frame(n_servers=6)
        lake = make_lake(frame, fmt)
        query = ExtractQuery(
            aggregates=ALL_REDUCTIONS,
            group_by=("server",),
            servers=("srv-1", "srv-2", "srv-3", "srv-5"),
            engines=("postgresql",),
        )
        result = lake.query(query)
        want = naive_aggregate(frame, query)
        assert set(result.aggregates) == {("srv-1",), ("srv-3",), ("srv-5",)}
        assert_aggregates_close(result.aggregates, want)

    def test_empty_scope_is_empty_mapping_not_nan(self, make_lake):
        lake = make_lake(build_frame(), "sgx")
        result = lake.query(
            ExtractQuery(aggregates=("mean", "min"), servers=("no-such-server",))
        )
        assert result.aggregates == {}
        ranged = lake.query(
            ExtractQuery(aggregates=("mean",), start_minute=10**9, end_minute=10**9 + 10)
        )
        assert ranged.aggregates == {}

    def test_results_are_nan_free(self, make_lake):
        frame = build_frame()
        lake = make_lake(frame, "sgx")
        result = lake.query(
            ExtractQuery(aggregates=ALL_REDUCTIONS, group_by=("server", "day"))
        )
        assert result.aggregates
        for reductions in result.aggregates.values():
            for value in reductions.values():
                assert not math.isnan(value)


class TestDecodeAvoidance:
    """Fully covered chunks are answered from statistics, not payloads."""

    def test_full_scan_decodes_nothing(self, make_lake):
        lake = make_lake(build_frame(), "sgx")
        result = lake.query(ExtractQuery(aggregates=ALL_REDUCTIONS, group_by=("day",)))
        stats = result.stats
        assert stats.chunks_answered_from_stats == stats.chunks_seen
        assert stats.payload_bytes_verified == 0
        assert stats.bytes_decoded_avoided == stats.payload_bytes_stored

    def test_partial_range_decodes_only_edge_chunks(self, make_lake):
        lake = make_lake(build_frame(n_servers=2, n_days=7), "sgx")
        result = lake.query(
            ExtractQuery(
                aggregates=("mean",),
                start_minute=700,  # mid-day cut: day 0 is a partial chunk
                end_minute=5 * MINUTES_PER_DAY,  # aligned: days 1-4 fully covered
            )
        )
        stats = result.stats
        assert stats.chunks_answered_from_stats == 2 * 4  # days 1-4, both servers
        assert stats.chunks_pruned == 2 * 2  # days 5-6 zone-map pruned
        assert stats.payload_bytes_verified == 2 * 288 * 16  # the two partial chunks
        assert stats.bytes_decoded_avoided == 2 * 4 * 288 * 16

    def test_count_only_is_answered_from_chunk_headers(self):
        frame = build_frame(n_servers=2, n_days=3)
        data = columnar.frame_to_sgx_bytes(frame)
        acc = AggregateAccumulator(("count",), ("server",))
        stats = columnar.SgxReadStats()
        columnar.aggregate_sgx_bytes(data, acc, stats=stats)
        assert stats.chunks_answered_from_stats == stats.chunks_seen
        assert stats.payload_bytes_verified == 0
        for i in range(2):
            assert acc.results()[(f"srv-{i}",)]["count"] == 3 * 288

    def test_day_straddling_chunk_decodes_when_grouped_by_day(self):
        # One whole-series chunk spanning 3 days: grouping by day cannot
        # use its statistics, grouping by server can.
        frame = build_frame(n_servers=1, n_days=3)
        data = columnar.frame_to_sgx_bytes(frame, chunk_minutes=0)
        by_day = AggregateAccumulator(("mean",), ("day",))
        day_stats = columnar.SgxReadStats()
        columnar.aggregate_sgx_bytes(data, by_day, stats=day_stats)
        assert day_stats.chunks_answered_from_stats == 0
        assert len(by_day.results()) == 3
        by_server = AggregateAccumulator(("mean",), ("server",))
        server_stats = columnar.SgxReadStats()
        columnar.aggregate_sgx_bytes(data, by_server, stats=server_stats)
        assert server_stats.chunks_answered_from_stats == 1
        assert server_stats.payload_bytes_verified == 0


class TestQueryValidation:
    def test_unknown_reduction_rejected(self):
        with pytest.raises(QueryError, match="unknown aggregate reduction"):
            ExtractQuery(aggregates=("median",))

    def test_group_by_requires_aggregates(self):
        with pytest.raises(QueryError, match="group_by requires aggregates"):
            ExtractQuery(group_by=("day",))

    def test_limit_incompatible_with_aggregates(self):
        with pytest.raises(QueryError, match="limit"):
            ExtractQuery(aggregates=("count",), limit=10)

    def test_column_projection_incompatible_with_aggregates(self):
        with pytest.raises(QueryError, match="projection"):
            ExtractQuery(aggregates=("count",), columns=("timestamps",))

    def test_aggregates_canonicalise_and_hash_equal(self):
        a = ExtractQuery(aggregates=["std", "mean", "count"], group_by=["day", "server"])
        b = ExtractQuery(aggregates=("count", "mean", "std"), group_by=("server", "day"))
        assert a == b and hash(a) == hash(b)

    def test_aggregate_query_differs_from_row_query(self):
        assert ExtractQuery() != ExtractQuery(aggregates=("count",))

    def test_scan_rejects_aggregate_queries(self, make_lake):
        lake = make_lake(build_frame(n_servers=1, n_days=1), "sgx")
        with pytest.raises(QueryError, match="row stream"):
            list(lake.scan(ExtractQuery(aggregates=("count",))))


class TestConvertKeepsChunking:
    def test_convert_lake_leaves_custom_chunk_boundaries_alone(self, tmp_path):
        from repro.storage.migrate import convert_lake

        frame = build_frame(n_servers=2, n_days=6)
        lake = DataLakeStore(tmp_path / "lake", write_format="sgx")
        key = ExtractKey("westus2", 0)
        # Non-default half-day chunks: without a forced --chunk-minutes
        # policy the stored copy is already current, however it is chunked.
        raw = columnar.frame_to_sgx_bytes(frame, chunk_minutes=720)
        lake.write_extract_bytes(key, raw)
        report = convert_lake(lake)
        assert report.n_converted == 0 and report.n_skipped == 1
        assert lake.extract_path(key).read_bytes() == raw


# Hypothesis strategies ---------------------------------------------------- #

loads = st.floats(min_value=0.0, max_value=100.0, allow_nan=False, width=32)


def load_arrays(min_size=1, max_size=200):
    return st.lists(loads, min_size=min_size, max_size=max_size).map(
        lambda values: np.asarray(values, dtype=np.float64)
    )


def stats_table(*parts: np.ndarray) -> np.ndarray:
    """The chunk-table rows the writer stores for ``parts``: one server,
    one whole-series chunk per part."""
    frame = LoadFrame(5)
    for i, part in enumerate(parts):
        frame.add_server(
            ServerMetadata(server_id=f"s{i}", region="r", engine="e"),
            LoadSeries.from_values(part, interval_minutes=5),
        )
    data = columnar.frame_to_sgx_bytes(frame, chunk_minutes=0)
    return columnar.SgxSegment.from_bytes(data).structure.chunks


def fold_table(acc: AggregateAccumulator, part: np.ndarray) -> None:
    """Fold ``part``'s stored statistics into ``acc`` as a one-row table."""
    acc.fold_chunk_table(stats_table(part), np.zeros(1, dtype=np.intp), lambda _index: "srv")


def assert_matches_oracle(got, want, reductions):
    """Exact counts and extrema; sums and means to rel 1e-9; the second
    moment to rel 1e-6 / abs 1e-7 (stored sum-of-squares cancellation)."""
    assert set(got) == set(want)
    for key in want:
        for name in reductions:
            if name in ("count", "min", "max"):
                assert got[key][name] == want[key][name], (key, name)
            elif name in ("sum", "mean"):
                assert got[key][name] == pytest.approx(want[key][name], rel=1e-9), (key, name)
            else:
                assert got[key][name] == pytest.approx(
                    want[key][name], rel=1e-6, abs=1e-7
                ), (key, name)


class TestMergeExactness:
    """The pairwise merge agrees with a naive recompute, any fold order."""

    @given(st.lists(load_arrays(), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_chunked_fold_matches_naive(self, parts):
        acc = AggregateAccumulator(ALL_REDUCTIONS, ())
        for part in parts:
            # Alternate the two fold paths: stored statistics vs arrays.
            if len(part) % 2:
                fold_table(acc, part)
            else:
                acc.fold_columns("srv", np.arange(part.shape[0], dtype=np.int64), part)
        values = np.concatenate(parts)
        got = acc.results()[()]
        assert got["count"] == values.shape[0]
        assert got["sum"] == pytest.approx(float(values.sum()), rel=1e-9)
        assert got["min"] == float(values.min())
        assert got["max"] == float(values.max())
        assert got["mean"] == pytest.approx(float(values.mean()), rel=1e-9)
        assert got["variance"] == pytest.approx(float(values.var()), rel=1e-6, abs=1e-7)
        assert got["std"] == pytest.approx(float(values.std()), rel=1e-6, abs=1e-7)

    @given(st.lists(load_arrays(), min_size=2, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_accumulator_merge_matches_single_fold(self, parts):
        merged = AggregateAccumulator(ALL_REDUCTIONS, ("server",))
        for part in parts:
            partial = AggregateAccumulator(ALL_REDUCTIONS, ("server",))
            partial.fold_columns("srv", np.arange(part.shape[0], dtype=np.int64), part)
            merged.merge(partial)
        direct = AggregateAccumulator(ALL_REDUCTIONS, ("server",))
        # Fold day-split to vary the internal chunking too.
        values = np.concatenate(parts)
        direct.fold_columns("srv", np.arange(values.shape[0], dtype=np.int64), values)
        got, want = merged.results()[("srv",)], direct.results()[("srv",)]
        for name in ALL_REDUCTIONS:
            assert got[name] == pytest.approx(want[name], rel=1e-9, abs=1e-7)

    @given(load_arrays(min_size=2))
    # 122 x 54.3625: the stored sum_sq - sum * mean is -1.2e-10, the
    # residue the fold must clamp.
    @example(np.full(122, 54.36249923706055))
    @settings(max_examples=60, deadline=None)
    def test_constant_series_variance_never_negative(self, values):
        acc = AggregateAccumulator(("variance", "std"), ())
        fold_table(acc, np.full(values.shape[0], float(values[0])))
        result = acc.results()[()]
        assert result["variance"] >= 0.0
        assert result["std"] >= 0.0

    def test_near_constant_table_fold_matches_sequential_pairwise(self):
        # 1000 +- 1e-3 over 28 day-chunks: the stored sum-of-squares is
        # ~2.9e8 per chunk while the group's M2 is ~3e-3, so the formula
        # the fold uses decides whether the variance survives.
        values = 1000.0 + np.random.default_rng(25).uniform(-1e-3, 1e-3, 28 * 288)
        frame = LoadFrame(5)
        frame.add_server(
            ServerMetadata(server_id="srv", region="r", engine="e"),
            LoadSeries.from_values(values, interval_minutes=5),
        )
        data = columnar.frame_to_sgx_bytes(frame)
        table = columnar.SgxSegment.from_bytes(data).structure.chunks
        assert table.shape == (28,)
        acc = AggregateAccumulator(("variance",), ("server",))
        stats = columnar.SgxReadStats()
        columnar.aggregate_sgx_bytes(data, acc, stats=stats)
        assert stats.chunks_answered_from_stats == 28
        got = acc.results()[("srv",)]["variance"]

        # Reference: fold the same stored rows one at a time, pairwise.
        count, mean, m2 = 0, 0.0, 0.0
        for n, total, sum_sq in table[["n_points", "vs_sum", "vs_sum_sq"]].tolist():
            row_mean = total / n
            row_m2 = max(sum_sq - total * row_mean, 0.0)
            combined = count + n
            delta = row_mean - mean
            mean += delta * n / combined
            m2 += row_m2 + delta * delta * count * n / combined
            count = combined
        want = m2 / count

        assert got >= 0.0
        assert got == pytest.approx(want, rel=1e-9)
        # The case tells the formulas apart: sum_sq - sum^2 / N is far off.
        total, sum_sq = float(table["vs_sum"].sum()), float(table["vs_sum_sq"].sum())
        naive = (sum_sq - total * total / count) / count
        assert abs(naive - want) > 1e-6 * want

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 2 * MINUTES_PER_DAY // 5),  # start, in 5-minute steps
                st.integers(1, 3 * MINUTES_PER_DAY // 5),  # samples (up to 3 days)
                st.sampled_from(["mysql", "postgresql"]),
                st.integers(0, 2**32 - 1),  # value seed
            ),
            min_size=1,
            max_size=4,
        ),
        st.sampled_from([None, (), ("server",), ("day",), ("server", "day")]),
        st.booleans(),  # count-only
        st.one_of(st.none(), st.integers(0, 3 * MINUTES_PER_DAY)),
        st.one_of(st.none(), st.integers(MINUTES_PER_DAY, 5 * MINUTES_PER_DAY)),
        st.booleans(),  # allow-list
        st.sampled_from([None, ("mysql",), ("postgresql",)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_sgx_roundtrip_aggregate_matches_naive(
        self, servers, group_by, count_only, start, end, allow, engines
    ):
        # Multi-day servers under day chunking, plus an empty-series server
        # in the same segment and a multi-day whole-series server in a
        # second segment written with chunk_minutes=0, folded into one
        # accumulator as the lake folds its extracts.
        day_chunked, whole = LoadFrame(5), LoadFrame(5)
        oracle = LoadFrame(5)
        for i, (start_step, n, engine, seed) in enumerate(servers):
            values = np.random.default_rng(seed).uniform(0.0, 100.0, n)
            series = LoadSeries.from_values(values, start=5 * start_step, interval_minutes=5)
            metadata = ServerMetadata(server_id=f"s{i}", region="r", engine=engine)
            day_chunked.add_server(metadata, series)
            oracle.add_server(metadata, series)
        empty = ServerMetadata(server_id="empty", region="r", engine="mysql")
        day_chunked.add_server(empty, LoadSeries.from_values(np.empty(0), interval_minutes=5))
        oracle.add_server(empty, LoadSeries.from_values(np.empty(0), interval_minutes=5))
        straddling = ServerMetadata(server_id="whole", region="r", engine="postgresql")
        series = LoadSeries.from_values(
            np.random.default_rng(len(servers)).uniform(0.0, 100.0, 700),
            start=1000,
            interval_minutes=5,
        )
        whole.add_server(straddling, series)
        oracle.add_server(straddling, series)
        if start is not None and end is not None and end <= start:
            end = start + 1
        query = ExtractQuery(
            aggregates=("count",) if count_only else ALL_REDUCTIONS,
            group_by=group_by,
            start_minute=start,
            end_minute=end,
            servers=("s0", "empty", "whole") if allow else None,
            engines=engines,
        )
        acc = AggregateAccumulator(query.aggregates, query.group_by)
        for frame, chunk_minutes in ((day_chunked, MINUTES_PER_DAY), (whole, 0)):
            columnar.aggregate_sgx_bytes(
                columnar.frame_to_sgx_bytes(frame, chunk_minutes=chunk_minutes),
                acc,
                query.start_minute,
                query.end_minute,
                servers=query.servers,
                predicate=query.metadata_predicate(),
            )
        assert_matches_oracle(acc.results(), naive_aggregate(oracle, query), query.aggregates)


class TestPinnedReadStats:
    """Every :class:`SgxReadStats` counter of an aggregate read, pinned to
    the values the per-chunk fold produced before the table fold."""

    def test_unbounded_by_day_with_empty_series_server(self):
        frame = build_frame(n_servers=4, n_days=3)
        frame.add_server(
            ServerMetadata(server_id="srv-empty", region="westus2", engine="mysql"),
            LoadSeries.from_values(np.empty(0), interval_minutes=5),
        )
        acc = AggregateAccumulator(ALL_REDUCTIONS, ("day",))
        stats = columnar.SgxReadStats()
        columnar.aggregate_sgx_bytes(columnar.frame_to_sgx_bytes(frame), acc, stats=stats)
        # The empty chunk's sentinel zone map (0 / -1) straddles "days" -1
        # and 0, so it takes the decode path: zero bytes, no group.
        assert stats == columnar.SgxReadStats(
            chunks_seen=13,
            chunks_pruned=0,
            servers_seen=5,
            servers_skipped=0,
            columns_skipped=0,
            chunks_answered_from_stats=12,
            bytes_decoded_avoided=12 * 288 * 16,
            payload_bytes_total=12 * 288 * 16,
            payload_bytes_verified=0,
        )
        assert sorted(acc.results()) == [(0,), (1,), (2,)]

    def test_allow_list_engines_and_mid_day_bounds_by_server_and_day(self):
        frame = build_frame(n_servers=6, n_days=5)
        acc = AggregateAccumulator(ALL_REDUCTIONS, ("server", "day"))
        stats = columnar.SgxReadStats()
        columnar.aggregate_sgx_bytes(
            columnar.frame_to_sgx_bytes(frame),
            acc,
            700,
            4 * MINUTES_PER_DAY - 300,
            servers=("srv-1", "srv-2", "srv-3", "srv-5"),
            predicate=lambda metadata: metadata.engine == "postgresql",
            stats=stats,
        )
        # srv-1/3/5 survive; their days 1-2 come from statistics, days 0
        # and 3 are cut by the bounds and decoded, day 4 is pruned.
        assert stats == columnar.SgxReadStats(
            chunks_seen=30,
            chunks_pruned=18,
            servers_seen=6,
            servers_skipped=3,
            columns_skipped=0,
            chunks_answered_from_stats=6,
            bytes_decoded_avoided=6 * 288 * 16,
            payload_bytes_total=30 * 288 * 16,
            payload_bytes_verified=6 * 288 * 16,
        )
        assert sorted(acc.results()) == [
            (server, day) for server in ("srv-1", "srv-3", "srv-5") for day in range(4)
        ]
