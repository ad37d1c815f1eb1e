"""``lake-query``: the storage read path in isolation.

One long-lived ``DataLakeStore`` over a lake larger than any in-program
cache (there is none today; the OS page cache is warm).  A round is a seeded,
shuffled mix of four query shapes:

* ``point``  -- 1 region, 1 week, 10 servers, 1 day (a dashboard drill-down);
* ``scan``   -- ``ExtractQuery.for_key``: one full unit materialised (what a
  pipeline worker reads);
* ``rollup`` -- every region and week, ``(count, mean, max)`` by day, answered
  from chunk statistics;
* ``range``  -- 1 region, 1 week, a 2-day window, every server.

Point, scan and rollup stress pruning, decode and stats-answering
differently, so a structure cache or ``mmap`` that helps ``point`` but hurts
``scan`` shows.  ``features``, ``models`` and ``serving`` do nothing here.

Oracle: every 25th operation is re-answered by a naive numpy filter/reduce
over the regenerated frames.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

import numpy as np

from bench.harness import Context
from bench.workloads.common import lake_gauges, populate, synthesize_region
from repro import DataLakeStore, ExtractKey, default_fleet_spec
from repro.storage import ExtractQuery

HORIZON_WEEKS = 4
DAY = 1440
HORIZON_DAYS = 7 * HORIZON_WEEKS
ORACLE_EVERY = 25
ROLLUP = ExtractQuery(aggregates=("count", "mean", "max"), group_by=("day",))


def _row_digest(ts: np.ndarray, vs: np.ndarray) -> tuple[int, float, int, int]:
    """(rows, sum, first minute, last minute) of one server's answer."""
    if len(ts) == 0:
        return (0, 0.0, 0, 0)
    return (len(ts), float(vs.sum()), int(ts[0]), int(ts[-1]))


def _digest(frame: Any) -> dict[str, tuple[int, float, int, int]]:
    return {
        server_id: _row_digest(series.timestamps, series.values)
        for server_id, _metadata, series in frame.items()
    }


def _same_digest(got: dict, want: dict) -> bool:
    if got.keys() != want.keys():
        return False
    return all(
        got[key][0] == want[key][0]
        and got[key][2:] == want[key][2:]
        and np.isclose(got[key][1], want[key][1], rtol=1e-9, atol=1e-9)
        for key in got
    )


class LakeQueryWorkload:
    name = "lake-query"
    read_op = "point"
    batch_op = "scan"

    def __init__(
        self,
        servers: tuple[int, ...],
        weeks: int,
        mix: tuple[tuple[str, int], ...],
        rounds_per_second: float,
    ) -> None:
        self.rounds_per_second = rounds_per_second
        self._servers = servers
        self._weeks = weeks
        self._mix = mix

    def setup(self, ctx: Context, directory: Path) -> None:
        self._spec = default_fleet_spec(self._servers, weeks=HORIZON_WEEKS, seed=ctx.seed)
        self._lake = DataLakeStore(directory / "lake", write_format="sgx")
        self._keys = populate(self._lake, self._spec, range(self._weeks))

    def begin(self, ctx: Context, directory: Path) -> None:
        root = self._lake.root
        assert root is not None
        self._store = DataLakeStore(root)
        self._rng = np.random.default_rng([ctx.seed, 0x1A4E])
        self._issued = 0
        self._sampled: list[tuple[str, ExtractQuery, Any]] = []
        self._next_plan = self._plan()

    def _plan(self) -> list[tuple[str, ExtractQuery]]:
        """One round's operations: the fixed mix, seeded, interleaved."""
        rng = self._rng
        ops: list[tuple[str, ExtractQuery]] = []
        for kind, count in self._mix:
            for _ in range(count):
                region_index = int(rng.integers(len(self._servers)))
                region = f"region-{region_index}"
                week = int(rng.integers(self._weeks))
                if kind == "point":
                    day = int(rng.integers(HORIZON_DAYS))
                    n_servers = self._servers[region_index]
                    chosen = rng.choice(n_servers, size=min(10, n_servers), replace=False)
                    query = ExtractQuery(
                        regions=(region,),
                        weeks=(week,),
                        servers=[f"{region}-srv-{int(i):05d}" for i in chosen],
                        start_minute=day * DAY,
                        end_minute=(day + 1) * DAY,
                    )
                elif kind == "scan":
                    query = ExtractQuery.for_key(ExtractKey(region=region, week=week))
                elif kind == "range":
                    day = int(rng.integers(HORIZON_DAYS - 1))
                    query = ExtractQuery(
                        regions=(region,),
                        weeks=(week,),
                        start_minute=day * DAY,
                        end_minute=(day + 2) * DAY,
                    )
                else:
                    query = ROLLUP
                ops.append((kind, query))
        order = rng.permutation(len(ops))
        return [ops[i] for i in order]

    def round(self, ctx: Context, index: int) -> None:
        store = self._store
        probe = ctx.io
        for kind, query in self._next_plan:
            before = probe.sample() if probe is not None and kind == "point" else None
            result = ctx.timed(kind, store.query, query)
            if before is not None and probe is not None:
                ctx.add("fileio.point_read_bytes", probe.delta(before)[0])
            if result is None:
                continue
            ctx.add_scan_stats(result.stats)
            ctx.add("datalake.rows_returned", result.rows)
            self._issued += 1
            if self._issued % ORACLE_EVERY == 0:
                answer = result.aggregates if kind == "rollup" else _digest(result.frame)
                self._sampled.append((kind, query, answer))

    def after_round(self, ctx: Context, index: int) -> None:
        # Building the next round's queries is the client's work: untimed.
        self._next_plan = self._plan()

    def finish(self, ctx: Context) -> None:
        self._verify(ctx)
        lake_gauges(ctx, self._lake)
        points = len(ctx.lat.get("point", []))
        ctx.gauges["datalake.query_point_p90_ms"] = ctx.p("point", 0.90, 1e3)
        ctx.gauges["datalake.query_point_p99_ms"] = ctx.p("point", 0.99, 1e3)
        ctx.gauges["datalake.query_point_samples"] = points
        ctx.gauges["datalake.query_scan_p50_ms"] = ctx.p("scan", 0.5, 1e3)
        ctx.gauges["datalake.query_rollup_p50_ms"] = ctx.p("rollup", 0.5, 1e3)
        ctx.gauges["datalake.query_range_p50_ms"] = ctx.p("range", 0.5, 1e3)
        ctx.gauges["datalake.bytes_verified_per_row"] = ctx.counts.get(
            "columnar.payload_bytes_verified", 0.0
        ) / max(1.0, ctx.counts.pop("datalake.rows_returned", 0.0))
        if points:
            ctx.gauges["fileio.read_bytes_per_point_query"] = (
                ctx.counts.pop("fileio.point_read_bytes", 0.0) / points
            )

    # ------------------------------------------------------------------ #
    # Oracle
    # ------------------------------------------------------------------ #

    def _verify(self, ctx: Context) -> None:
        by_key: dict[ExtractKey, list[tuple[ExtractQuery, Any]]] = {}
        rollups = []
        for kind, query, answer in self._sampled:
            if kind == "rollup":
                rollups.append(answer)
            else:
                assert query.regions is not None and query.weeks is not None
                key = ExtractKey(region=query.regions[0], week=query.weeks[0])
                by_key.setdefault(key, []).append((query, answer))
        # Per-day (count, sum, max) over the whole lake, built key by key so
        # only one regenerated frame is alive at a time.
        count = np.zeros(HORIZON_DAYS, dtype=np.int64)
        total = np.zeros(HORIZON_DAYS)
        peak = np.full(HORIZON_DAYS, -np.inf)
        for key in self._keys if rollups else sorted(by_key):
            frame = synthesize_region(self._spec, key.region, key.week)
            for query, answer in by_key.get(key, []):
                ctx.check(
                    _same_digest(answer, self._naive_rows(frame, query)),
                    f"row answer differs from the naive filter for {query}",
                )
            if rollups:
                for _server_id, _metadata, series in frame.items():
                    days = series.timestamps // DAY
                    count += np.bincount(days, minlength=HORIZON_DAYS)
                    total += np.bincount(days, weights=series.values, minlength=HORIZON_DAYS)
                    np.maximum.at(peak, days, series.values)
        for answer in rollups:
            ok = answer is not None and set(answer) == {(int(d),) for d in np.nonzero(count)[0]}
            if ok:
                for (day,), group in answer.items():
                    ok = ok and (
                        int(group["count"]) == int(count[day])
                        and np.isclose(group["mean"], total[day] / count[day], rtol=1e-9)
                        and float(group["max"]) == float(peak[day])
                    )
            ctx.check(bool(ok), "rollup differs from the naive per-day reduction")

    @staticmethod
    def _naive_rows(frame: Any, query: ExtractQuery) -> dict[str, tuple[int, float, int, int]]:
        start, end = query.time_range()
        wanted = query.servers if query.servers is not None else frame.server_ids()
        out = {}
        for server_id in wanted:
            if server_id not in frame:
                continue
            series = frame.series(server_id)
            ts, vs = series.timestamps, series.values
            keep = (ts >= start) & (ts < end)
            if query.is_ranged and not keep.any():
                continue  # ranged reads drop servers with no row in range
            out[server_id] = _row_digest(ts[keep], vs[keep])
        return out


def lake_query(smoke: bool) -> LakeQueryWorkload:
    if smoke:
        return LakeQueryWorkload(
            (12, 6), 1, (("point", 20), ("scan", 3), ("rollup", 2), ("range", 3)), 1.0
        )
    return LakeQueryWorkload(
        (200, 100, 50),
        4,
        (("point", 150), ("scan", 15), ("rollup", 6), ("range", 20)),
        0.6,
    )
