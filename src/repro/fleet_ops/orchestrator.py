"""Fleet-scale orchestration of Seagull pipeline runs.

The seed pipeline processes one region's weekly extract per call; in
production Seagull runs per region across the entire cloud fleet
(Section 2.1: "all regions of the entire cloud infrastructure").  The
orchestrator closes that gap: it shards ``(region, week)`` work units
across a shared :class:`~repro.parallel.executor.PartitionedExecutor`,
runs the full pipeline on each unit, and consolidates the per-unit
results into one :class:`~repro.fleet_ops.report.FleetReport`.

Two cache layers make re-runs cheap:

* a **unit-level outcome cache** keyed by unit and raw extract fingerprint
  -- an unchanged extract skips ingestion, parsing and every pipeline stage;
* the pipeline's **stage-level artifact cache** (``features``, ``model``)
  keyed by extract content hash -- a changed configuration reuses
  whichever stages its parameters do not touch.

Both layers live in one :class:`~repro.storage.artifacts.ArtifactStore`
directory, ``cache_dir``, which every worker opens for itself: entries are
immutable content-keyed files published by atomic rename, so pool workers
share it without coordination, warm re-runs work across operating-system
processes, and identical stage inputs are computed once across units.

The unit of worker handoff is ``(lake root, ExtractQuery, generation)``:
every task carries the lake's root path, a typed query pinned to its
``(region, week)`` partition and the committed manifest generation the
run is pinned to; the worker re-opens the lake at that generation and
reads only its shard.  Whole extract payloads never cross the process
boundary, which keeps coordinator RSS flat however large the fleet is.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from repro.core.config import PipelineConfig
from repro.core.incidents import IncidentManager
from repro.core.pipeline import SeagullPipeline
from repro.core.stage_cache import STAGE_UNIT_OUTCOME
from repro.fleet_ops.report import FleetReport, FleetUnitOutcome
from repro.parallel.executor import (
    MAX_FLEET_WORKERS,
    ExecutionBackend,
    PartitionedExecutor,
    recommended_fleet_workers,
)
from repro.storage.artifacts import ArtifactStore, artifact_key
from repro.storage.datalake import DataLakeStore, ExtractKey, ExtractNotFoundError
from repro.storage.query import ExtractQuery


#: Config fields that change *how* a unit is computed, not *what* it
#: computes -- they must not invalidate cached outcomes.
_EXECUTION_ONLY_FIELDS = ("executor_backend", "n_workers")


def _unit_cache_params(task: "_UnitTask") -> dict[str, Any]:
    """What a cached unit outcome depends on besides the extract's bytes.

    The outcome names its region and week, so units whose stored bytes are
    identical (empty, replicated or backfilled extracts) must not share an
    entry; the stage entries underneath depend on the frame alone and do.
    """
    params = task.config.as_dict()
    for field_name in _EXECUTION_ONLY_FIELDS:
        params.pop(field_name, None)
    return {**params, "region": task.region, "week": task.week}


@dataclass(frozen=True)
class _UnitTask:
    """Everything a (possibly out-of-process) worker needs for one unit.

    Deliberately tiny and payload-free (see the module docstring): the
    worker reads its shard through its own :class:`DataLakeStore`, and a
    damaged extract fails that unit with the lake's message, never the
    run.
    """

    region: str
    week: int
    config: PipelineConfig
    lake_root: str
    query: ExtractQuery
    #: Committed manifest generation the worker pins its lake handle to:
    #: every unit of one fleet run reads the same immutable snapshot,
    #: however the live lake moves underneath it.
    generation: int
    cache_dir: str | None = None


def _failed_outcome(task: _UnitTask, reason: str, wall: float) -> FleetUnitOutcome:
    return FleetUnitOutcome(
        region=task.region,
        week=task.week,
        run_id="",
        succeeded=False,
        abort_reason=reason,
        timings={},
        summary=None,
        n_servers=0,
        n_predictions=0,
        n_predictable=0,
        incidents=[
            {
                "severity": "critical",
                "source": "data_ingestion",
                "message": reason,
                "region": task.region,
            }
        ],
        cache_events={},
        wall_seconds=wall,
    )


def _execute_unit(task: _UnitTask) -> FleetUnitOutcome:
    """Run the pipeline for one ``(region, week)`` unit.

    Module-level so the process-pool backend can pickle it.  The artifact
    cache is opened from ``task.cache_dir`` inside the worker -- cache
    objects never cross process boundaries.
    """
    started = time.perf_counter()
    key = ExtractKey(region=task.region, week=task.week)
    lake = DataLakeStore(task.lake_root, pinned_generation=task.generation)

    # Fingerprint the raw extract bytes (no parsing yet).  The digest
    # covers the stored representation, so re-chunking a lake refreshes
    # unit fingerprints while stage-cache keys (frame content hashes)
    # stay valid.
    try:
        fingerprint = lake.extract_fingerprint(key)
    except ExtractNotFoundError:
        return _failed_outcome(
            task,
            f"missing input extract for {task.region} week {task.week}",
            time.perf_counter() - started,
        )

    cache: ArtifactStore | None = None
    unit_key = ""
    if task.cache_dir is not None:
        cache = ArtifactStore.at(task.cache_dir)
        unit_key = artifact_key(STAGE_UNIT_OUTCOME, fingerprint, _unit_cache_params(task))
        payload = cache.get(unit_key)
        if payload is not None:
            outcome: FleetUnitOutcome | None
            try:
                outcome = FleetUnitOutcome.from_payload(payload)
            except Exception:
                outcome = None
            if outcome is not None:
                return outcome.as_cache_hit(time.perf_counter() - started)

    # Ingest (unit-cache miss or caching disabled): the worker answers its
    # own shard's query against its own lake handle.
    ingest_started = time.perf_counter()
    try:
        answer = lake.query(task.query)
    except ValueError as exc:
        return _failed_outcome(task, f"unreadable extract for {key}: {exc}", time.perf_counter() - started)
    frame = answer.frame
    ingest_seconds = time.perf_counter() - ingest_started

    # Roll up the shard's load through the aggregate query path: fully
    # covered chunks reduce from chunk-table statistics without their
    # value buffers ever being decoded.  Best-effort -- a
    # lake that cannot answer it leaves the summary empty rather than
    # failing a unit whose row read succeeded.
    load: dict[str, Any] = {}
    try:
        agg = lake.query(
            replace(task.query, aggregates=("count", "mean", "max"), group_by=("day",))
        )
    except ValueError:
        pass
    else:
        groups = agg.aggregates or {}
        rows = sum(int(g["count"]) for g in groups.values())
        load = {
            "rows": rows,
            "days": len(groups),
            "mean_load": (
                sum(int(g["count"]) * float(g["mean"]) for g in groups.values()) / rows
                if rows
                else 0.0
            ),
            "peak_load": max((float(g["max"]) for g in groups.values()), default=0.0),
            "chunks_answered_from_stats": agg.stats.chunks_answered_from_stats,
            "bytes_decoded_avoided": agg.stats.bytes_decoded_avoided,
            "payload_bytes_verified": agg.stats.payload_bytes_verified,
        }

    incidents = IncidentManager()
    pipeline = SeagullPipeline(
        task.config,
        incident_manager=incidents,
        artifact_cache=cache,
    )
    result = pipeline.run(frame, region=task.region, week=task.week)
    # run() only counts a manifest check for pre-loaded frames; charge the
    # real parse cost to data_ingestion so fleet runtimes stay honest.
    result.timings["data_ingestion"] = ingest_seconds

    # Predictions flow through the unit's serving layer; roll its health
    # (version routing, request/cache counters) into the fleet report.
    serving = (
        pipeline.serving.health(task.region) if result.model_record is not None else {}
    )

    outcome = FleetUnitOutcome(
        region=task.region,
        week=task.week,
        run_id=result.run_id,
        succeeded=result.succeeded,
        abort_reason=result.abort_reason,
        timings=dict(result.timings),
        summary=result.summary.as_dict() if result.summary is not None else None,
        n_servers=len(frame),
        n_predictions=len(result.predictions),
        n_predictable=sum(1 for v in result.predictability.values() if v.predictable),
        incidents=[incident.as_dict() for incident in incidents.incidents()],
        cache_events=dict(result.cache_events),
        wall_seconds=time.perf_counter() - started,
        serving=serving,
        scan=answer.stats.as_dict(),
        load=load,
    )
    if cache is not None and result.succeeded:
        cache.put(unit_key, outcome.to_payload())
    return outcome


class FleetOrchestrator:
    """Runs the Seagull pipeline over many ``(region, week)`` extracts.

    Parameters
    ----------
    lake:
        Extract store holding the fleet's weekly extracts.  It is handed
        to workers by root path -- whole extract payloads never ride
        along inside tasks, with any backend.
    config:
        Pipeline configuration applied to every unit.
    backend / n_workers:
        How units are sharded.  The orchestrator creates one worker pool
        at the first :meth:`run` and reuses it across successive runs,
        defaulting ``n_workers`` to
        :func:`~repro.parallel.executor.recommended_fleet_workers` for the
        unit count being sharded.
    cache_dir:
        Directory of the artifact cache shared by every unit and worker.
        ``None`` disables caching.
    """

    def __init__(
        self,
        lake: DataLakeStore,
        config: PipelineConfig | None = None,
        backend: ExecutionBackend | str = ExecutionBackend.SERIAL,
        n_workers: int | None = None,
        cache_dir: str | Path | None = None,
    ) -> None:
        self._lake = lake
        self._config = config if config is not None else PipelineConfig()
        self._backend = backend
        self._n_workers = n_workers
        self._executor: PartitionedExecutor | None = None
        self._cache_dir = str(cache_dir) if cache_dir is not None else None

    def _make_executor(self, n_units: int | None) -> PartitionedExecutor:
        n_workers = self._n_workers
        backend = ExecutionBackend(self._backend)  # accepts the value or the member
        if n_workers is None and backend is not ExecutionBackend.SERIAL:
            # Unknown unit count (pool built before the first run) still
            # gets the CPU/cap bounds; a known count tightens it further.
            n_workers = recommended_fleet_workers(
                n_units if n_units is not None else MAX_FLEET_WORKERS
            )
        return PartitionedExecutor(backend, n_workers)

    @property
    def executor(self) -> PartitionedExecutor:
        if self._executor is None:
            self._executor = self._make_executor(None)
        return self._executor

    @property
    def config(self) -> PipelineConfig:
        return self._config

    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Release the worker pool."""
        if self._executor is not None:
            self._executor.close()

    def __enter__(self) -> "FleetOrchestrator":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ #

    def run(self, units: list[ExtractKey] | None = None) -> FleetReport:
        """Process ``units`` (default: every extract in the lake).

        Units are sharded across the executor as ``(lake root,
        ExtractQuery, generation)`` tasks; the consolidated report covers
        successes, failures (missing/invalid extracts become failed
        outcomes plus incident entries, they never abort the fleet run),
        cache activity and scan/pushdown statistics.
        """
        started = time.perf_counter()
        if units is None:
            units = self._lake.list_extracts()
        # Pin the whole run to the lake's current committed generation:
        # every worker reads the same immutable snapshot, so a writer
        # publishing mid-run cannot make two units disagree about the
        # lake's contents.
        generation = self._lake.current_generation()
        tasks = [
            _UnitTask(
                region=key.region,
                week=key.week,
                config=self._config,
                lake_root=str(self._lake.root),
                query=ExtractQuery.for_key(key, interval_minutes=self._config.interval_minutes),
                generation=generation,
                cache_dir=self._cache_dir,
            )
            for key in sorted(units)
        ]
        if self._executor is None:
            # Deferred so the owned pool can be sized by the fleet
            # heuristic for the actual unit count; later runs reuse it.
            self._executor = self._make_executor(len(tasks))
        outcomes = self._executor.map(_execute_unit, tasks)
        return FleetReport(
            outcomes=list(outcomes),
            backend=self._executor.backend.value,
            n_workers=self._executor.n_workers,
            wall_seconds=time.perf_counter() - started,
            lake_generation=generation,
        )
