"""``fleet-pf`` and ``fleet-ssa``: the paper's weekly batch over a fleet.

One round is a cold ``FleetOrchestrator.run`` on a fresh cache directory
(same lake) followed by ``warm_runs`` re-runs on that cache directory.

* ``fleet-pf`` uses the free ``persistent_previous_day`` model, so storage
  read, ``features``, ``metrics`` and the artifact-cache write do nearly all
  the work and ``models`` almost none.  The warm re-runs exercise only
  ``extract_fingerprint`` plus the unit-cache ``get``.
* ``fleet-ssa`` is the Figure 11(a) shape: ``models.fit`` is over nine tenths
  of the time and storage under a hundredth.  It is the bypass workload for
  every storage or cache optimisation (prediction: no change) and the target
  for model and ``parallel`` work.

Oracle: no unit fails, every warm outcome equals the cold outcome it was
cached from, and a warm run serves every unit from the unit cache.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any

from bench.harness import Context, pool_startup_seconds
from bench.workloads.common import lake_gauges, populate, tree_bytes
from repro import DataLakeStore, FleetOrchestrator, PipelineConfig, default_fleet_spec

#: Horizon every weekly extract carries (predictability needs four weeks).
HORIZON_WEEKS = 4


def _result_of(outcome: Any) -> Any:
    """What a cache hit must reproduce: the outcome without the fields that
    describe the run (its wall time and cache activity), after the JSON
    round trip a cached outcome has been through (``15 == 15.0`` holds)."""
    payload = outcome.to_payload()
    del payload["wall_seconds"], payload["cache_events"]
    return json.loads(json.dumps(payload))


class FleetWorkload:
    read_op = "warm_run"
    batch_op = "cold_run"

    def __init__(
        self,
        name: str,
        servers: tuple[int, ...],
        weeks: int,
        model: str,
        warm_runs: int,
        rounds_per_second: float,
    ) -> None:
        self.name = name
        self.rounds_per_second = rounds_per_second
        self._servers = servers
        self._weeks = weeks
        self._config = PipelineConfig(model_name=model)
        self._warm_runs = warm_runs

    def setup(self, ctx: Context, directory: Path) -> None:
        spec = default_fleet_spec(self._servers, weeks=HORIZON_WEEKS, seed=ctx.seed)
        self._lake = DataLakeStore(directory / "lake", write_format="sgx")
        self._keys = populate(self._lake, spec, range(self._weeks))

    def begin(self, ctx: Context, directory: Path) -> None:
        self._cache_root = directory
        self._checked: list[tuple[Any, Any]] = []
        self._last_cache: Path | None = None
        self._unit_walls: list[float] = []
        self._executor_report: Any = None

    def round(self, ctx: Context, index: int) -> None:
        cache_dir = self._cache_root / f"cache-{index}"
        with FleetOrchestrator(
            self._lake, config=self._config, backend="serial", cache_dir=cache_dir
        ) as orchestrator:
            cold = ctx.timed("cold_run", orchestrator.run, self._keys)
            self._executor_report = orchestrator.executor.last_report
            warm = None
            for _ in range(self._warm_runs):
                warm = ctx.timed("warm_run", orchestrator.run, self._keys)
        if cold is None or warm is None:
            return
        self._checked.append((cold, warm))
        self._last_cache = cache_dir

    def after_round(self, ctx: Context, index: int) -> None:
        pass

    def finish(self, ctx: Context) -> None:
        n_units = len(self._keys)
        for cold, warm in self._checked:
            ctx.check(cold.n_failed == 0 and cold.n_units == n_units, "cold run had failed units")
            ctx.check(warm.n_failed == 0, "warm run had failed units")
            hits = sum(1 for outcome in warm.outcomes if outcome.from_unit_cache)
            ctx.check(hits == n_units, f"warm run hit the unit cache {hits}/{n_units} times")
            for before, after in zip(cold.outcomes, warm.outcomes):
                ctx.check(
                    _result_of(before) == _result_of(after),
                    f"warm outcome differs for {before.region} week {before.week}",
                )
            self._count_layers(ctx, cold, hits)

        lake_gauges(ctx, self._lake)
        if self._last_cache is not None:
            ctx.gauges["artifacts.bytes_on_disk"] = tree_bytes(self._last_cache)
        if self._unit_walls:
            ctx.gauges["fleet_ops.unit_p50_s"] = statistics.median(self._unit_walls)
            ctx.gauges["fleet_ops.unit_max_s"] = max(self._unit_walls)
        if self._executor_report is not None:
            ctx.gauges["parallel.map_s"] = self._executor_report.elapsed_seconds
            ctx.gauges["parallel.n_workers"] = self._executor_report.n_workers
        if ctx.traced:
            ctx.gauges["parallel.pool_startup_s"] = pool_startup_seconds()

    def _count_layers(self, ctx: Context, cold: Any, warm_hits: int) -> None:
        """Counters the program itself reports for one round."""
        for region_seconds in cold.per_region_component_seconds().values():
            for component, seconds in region_seconds.items():
                ctx.add(f"pipeline.{component}_s", seconds)
        stages = hits = 0
        for outcome in cold.outcomes:
            self._unit_walls.append(outcome.wall_seconds)
            ctx.add("features.servers", outcome.n_servers)
            if outcome.summary is not None:
                ctx.add("metrics.server_days", outcome.summary["n_server_days"])
            scan = outcome.scan
            ctx.add("columnar.chunks_seen", scan.get("chunks_seen", 0))
            ctx.add("columnar.chunks_pruned", scan.get("chunks_pruned", 0))
            ctx.add("columnar.payload_bytes_verified", scan.get("payload_bytes_verified", 0))
            ctx.add(
                "columnar.chunks_answered_from_stats",
                outcome.load.get("chunks_answered_from_stats", 0),
            )
            ctx.add("columnar.bytes_decoded_avoided", outcome.load.get("bytes_decoded_avoided", 0))
            stages += len(outcome.cache_events)
            hits += sum(1 for event in outcome.cache_events.values() if event == "hit")
        ctx.add("fleet_ops.unit_cache_hits", self._warm_runs * warm_hits)
        # Artifact lookups of the round: the cold run's stage lookups (all
        # misses on a fresh cache) plus one unit lookup per warm unit.
        lookups = stages + len(cold.outcomes) + self._warm_runs * len(cold.outcomes)
        ctx.gauges["artifacts.hit_ratio"] = (
            (hits + self._warm_runs * warm_hits) / lookups if lookups else 0.0
        )


def fleet_pf(smoke: bool) -> FleetWorkload:
    if smoke:
        return FleetWorkload("fleet-pf", (12, 6), 1, "persistent_previous_day", 2, 1.0)
    return FleetWorkload(
        "fleet-pf", (80, 40, 20, 10), 2, "persistent_previous_day", 10, 0.4
    )


def fleet_ssa(smoke: bool) -> FleetWorkload:
    if smoke:
        return FleetWorkload("fleet-ssa", (3, 2), 1, "ssa", 2, 1.0)
    return FleetWorkload("fleet-ssa", (8, 4), 1, "ssa", 10, 0.6)
