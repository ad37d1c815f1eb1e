"""Consolidated fleet report: the multi-region analogue of Figures 12a/13.

One pipeline run reports component runtimes for one region-week (Figure
12(a)) and predictability for its servers (Figure 13's inputs).  The fleet
report rolls those up across every ``(region, week)`` unit the
orchestrator processed: per-region component runtimes, a fleet-wide
predictability verdict rollup, an incident rollup and artifact-cache
activity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.pipeline import PIPELINE_COMPONENTS


@dataclass(frozen=True)
class FleetUnitOutcome:
    """Picklable, JSON-serializable result of one ``(region, week)`` unit."""

    region: str
    week: int
    run_id: str
    succeeded: bool
    abort_reason: str
    timings: dict[str, float]
    summary: dict[str, float] | None
    n_servers: int
    n_predictions: int
    n_predictable: int
    incidents: list[dict[str, Any]]
    cache_events: dict[str, str]
    wall_seconds: float
    #: Whether the whole unit was served from the outcome cache.
    from_unit_cache: bool = False
    #: Serving-health summary of the unit's prediction service (empty when
    #: nothing was deployed, e.g. on validation aborts).
    serving: dict[str, Any] = field(default_factory=dict)
    #: Scan statistics of the unit's ingestion query (chunks pruned,
    #: servers skipped, bytes CRC-verified vs stored); empty when the unit
    #: never ran a query (failed before ingestion).
    scan: dict[str, Any] = field(default_factory=dict)
    #: Load rollup of the unit's shard, answered through the aggregate
    #: query path (``.sgx`` v4 chunks fully inside the shard are reduced
    #: from chunk-table statistics, never decoded): rows, days covered,
    #: fleet-weighted mean and peak load, plus the decode-avoidance
    #: counters.  Empty when the unit failed before ingestion.
    load: dict[str, Any] = field(default_factory=dict)

    def as_cache_hit(self, wall_seconds: float) -> "FleetUnitOutcome":
        """This outcome as served from the unit cache on a later run.

        ``timings`` keep the original compute cost (useful for capacity
        reports); ``wall_seconds`` is what the warm run actually spent.
        """
        return FleetUnitOutcome(
            region=self.region,
            week=self.week,
            run_id=self.run_id,
            succeeded=self.succeeded,
            abort_reason=self.abort_reason,
            timings=dict(self.timings),
            summary=dict(self.summary) if self.summary is not None else None,
            n_servers=self.n_servers,
            n_predictions=self.n_predictions,
            n_predictable=self.n_predictable,
            incidents=list(self.incidents),
            cache_events={"unit_outcome": "hit"},
            wall_seconds=wall_seconds,
            from_unit_cache=True,
            serving=dict(self.serving),
            scan=dict(self.scan),
            load=dict(self.load),
        )

    def to_payload(self) -> dict[str, Any]:
        return {
            "region": self.region,
            "week": self.week,
            "run_id": self.run_id,
            "succeeded": self.succeeded,
            "abort_reason": self.abort_reason,
            "timings": dict(self.timings),
            "summary": dict(self.summary) if self.summary is not None else None,
            "n_servers": self.n_servers,
            "n_predictions": self.n_predictions,
            "n_predictable": self.n_predictable,
            "incidents": list(self.incidents),
            "cache_events": dict(self.cache_events),
            "wall_seconds": self.wall_seconds,
            "serving": dict(self.serving),
            "scan": dict(self.scan),
            "load": dict(self.load),
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "FleetUnitOutcome":
        summary = payload["summary"]
        return cls(
            region=str(payload["region"]),
            week=int(payload["week"]),
            run_id=str(payload["run_id"]),
            succeeded=bool(payload["succeeded"]),
            abort_reason=str(payload["abort_reason"]),
            timings={k: float(v) for k, v in payload["timings"].items()},
            # Counts stay ints: a unit-cache hit equals the cold outcome.
            summary=dict(summary) if summary is not None else None,
            n_servers=int(payload["n_servers"]),
            n_predictions=int(payload["n_predictions"]),
            n_predictable=int(payload["n_predictable"]),
            incidents=[dict(incident) for incident in payload["incidents"]],
            cache_events={k: str(v) for k, v in payload["cache_events"].items()},
            wall_seconds=float(payload["wall_seconds"]),
            serving=dict(payload.get("serving") or {}),
            scan=dict(payload.get("scan") or {}),
            load=dict(payload.get("load") or {}),
        )


@dataclass
class FleetReport:
    """Everything one orchestrator run produced, consolidated."""

    outcomes: list[FleetUnitOutcome]
    backend: str
    n_workers: int
    wall_seconds: float
    #: Committed lake manifest generation every worker was pinned to
    #: (``None`` on reports predating generation pinning).
    lake_generation: int | None = None
    _by_region: dict[str, list[FleetUnitOutcome]] = field(
        init=False, repr=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        for outcome in self.outcomes:
            self._by_region.setdefault(outcome.region, []).append(outcome)

    # ------------------------------------------------------------------ #
    # Totals
    # ------------------------------------------------------------------ #

    @property
    def n_units(self) -> int:
        return len(self.outcomes)

    @property
    def n_succeeded(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.succeeded)

    @property
    def n_failed(self) -> int:
        return self.n_units - self.n_succeeded

    def regions(self) -> list[str]:
        return sorted(self._by_region)

    # ------------------------------------------------------------------ #
    # Figure 12(a) analogue: per-region component runtimes
    # ------------------------------------------------------------------ #

    def per_region_component_seconds(self) -> dict[str, dict[str, float]]:
        """Summed component runtimes per region across its weekly units."""
        table: dict[str, dict[str, float]] = {}
        for region in self.regions():
            totals = dict.fromkeys(PIPELINE_COMPONENTS, 0.0)
            for outcome in self._by_region[region]:
                for component, seconds in outcome.timings.items():
                    totals[component] = totals.get(component, 0.0) + seconds
            table[region] = totals
        return table

    def per_region_summary(self) -> dict[str, dict[str, Any]]:
        """Per-region rollup: units, servers, predictability, runtime."""
        table: dict[str, dict[str, Any]] = {}
        for region in self.regions():
            outcomes = self._by_region[region]
            n_servers = sum(o.n_servers for o in outcomes)
            n_predictable = sum(o.n_predictable for o in outcomes)
            table[region] = {
                "units": len(outcomes),
                "succeeded": sum(1 for o in outcomes if o.succeeded),
                "n_servers": n_servers,
                "n_predictions": sum(o.n_predictions for o in outcomes),
                "n_predictable": n_predictable,
                "pct_predictable": 100.0 * n_predictable / n_servers if n_servers else 0.0,
                "compute_seconds": sum(sum(o.timings.values()) for o in outcomes),
                "wall_seconds": sum(o.wall_seconds for o in outcomes),
                "units_from_cache": sum(1 for o in outcomes if o.from_unit_cache),
            }
        return table

    # ------------------------------------------------------------------ #
    # Figure 13 analogue: fleet predictability rollup
    # ------------------------------------------------------------------ #

    def predictability_rollup(self) -> dict[str, float]:
        n_servers = sum(o.n_servers for o in self.outcomes)
        n_predictable = sum(o.n_predictable for o in self.outcomes)
        return {
            "n_servers": n_servers,
            "n_predictions": sum(o.n_predictions for o in self.outcomes),
            "n_predictable": n_predictable,
            "pct_predictable": 100.0 * n_predictable / n_servers if n_servers else 0.0,
        }

    # ------------------------------------------------------------------ #
    # Incidents and cache activity
    # ------------------------------------------------------------------ #

    def incident_rollup(self) -> dict[str, dict[str, int]]:
        """Incident counts by severity and by source across all units."""
        by_severity: dict[str, int] = {}
        by_source: dict[str, int] = {}
        for outcome in self.outcomes:
            for incident in outcome.incidents:
                severity = str(incident.get("severity", "unknown"))
                source = str(incident.get("source", "unknown"))
                by_severity[severity] = by_severity.get(severity, 0) + 1
                by_source[source] = by_source.get(source, 0) + 1
        return {"by_severity": by_severity, "by_source": by_source}

    def cache_summary(self) -> dict[str, int]:
        """Cache activity across units: unit-level and stage-level events."""
        summary = {"unit_hits": 0, "stage_hits": 0, "stage_misses": 0}
        for outcome in self.outcomes:
            if outcome.from_unit_cache:
                summary["unit_hits"] += 1
            for stage, event in outcome.cache_events.items():
                if stage == "unit_outcome":
                    continue
                if event == "hit":
                    summary["stage_hits"] += 1
                elif event == "miss":
                    summary["stage_misses"] += 1
        return summary

    def serving_rollup(self) -> dict[str, int]:
        """Prediction-serving activity across units.

        Aggregates each unit's :class:`~repro.serving.service.
        PredictionService` health summary: requests routed, predictions
        served, serving-cache hits, per-server failures and how many
        units' routing had flipped to a fallback version.
        """
        rollup = {
            "requests": 0,
            "served": 0,
            "cache_hits": 0,
            "failures": 0,
            "units_with_deployment": 0,
            "units_fell_back": 0,
        }
        for outcome in self.outcomes:
            serving = outcome.serving
            if not serving:
                continue
            rollup["units_with_deployment"] += 1
            if serving.get("fell_back"):
                rollup["units_fell_back"] += 1
            stats = serving.get("stats") or {}
            rollup["requests"] += int(stats.get("requests", 0))
            rollup["served"] += int(stats.get("served", 0))
            rollup["cache_hits"] += int(stats.get("cache_hits", 0))
            rollup["failures"] += int(stats.get("failures", 0))
        return rollup

    def scan_rollup(self) -> dict[str, Any]:
        """Extract-scan activity across units (the dual of
        :meth:`serving_rollup` for the read path).

        Aggregates each unit's ingestion-query :class:`~repro.storage.
        query.ScanStats`: extracts scanned, chunk/zone-map pruning,
        server and column skips, and payload bytes CRC-verified vs
        stored -- the fleet-level view of what pushdown saved.
        """
        rollup: dict[str, Any] = {
            "extracts_scanned": 0,
            "chunks_seen": 0,
            "chunks_pruned": 0,
            "servers_seen": 0,
            "servers_skipped": 0,
            "columns_skipped": 0,
            "payload_bytes_stored": 0,
            "payload_bytes_verified": 0,
            "rows": 0,
        }
        for outcome in self.outcomes:
            for counter in rollup:
                rollup[counter] += int(outcome.scan.get(counter, 0))
        stored = rollup["payload_bytes_stored"]
        rollup["verified_fraction"] = (
            rollup["payload_bytes_verified"] / stored if stored else 1.0
        )
        return rollup

    def load_rollup(self) -> dict[str, Any]:
        """Fleet-wide load summary, routed through the aggregate path.

        Each unit's ``load`` entry was answered by an aggregate
        :class:`~repro.storage.query.ExtractQuery` -- on ``.sgx`` v4
        lakes fully covered chunks are reduced from chunk-table
        statistics without their value buffers ever being decoded.  The
        fleet mean is sample-weighted (``sum(rows * mean) / sum(rows)``),
        the peak is the max of unit peaks, and the decode-avoidance
        counters say how many payload bytes the statistics path saved
        across the whole fleet.
        """
        rollup: dict[str, Any] = {
            "units_with_load": 0,
            "rows": 0,
            "days": 0,
            "mean_load": 0.0,
            "peak_load": 0.0,
            "chunks_answered_from_stats": 0,
            "bytes_decoded_avoided": 0,
            "payload_bytes_verified": 0,
        }
        weighted_sum = 0.0
        for outcome in self.outcomes:
            load = outcome.load
            if not load:
                continue
            rollup["units_with_load"] += 1
            rows = int(load.get("rows", 0))
            rollup["rows"] += rows
            rollup["days"] += int(load.get("days", 0))
            weighted_sum += rows * float(load.get("mean_load", 0.0))
            rollup["peak_load"] = max(rollup["peak_load"], float(load.get("peak_load", 0.0)))
            for counter in (
                "chunks_answered_from_stats",
                "bytes_decoded_avoided",
                "payload_bytes_verified",
            ):
                rollup[counter] += int(load.get(counter, 0))
        if rollup["rows"]:
            rollup["mean_load"] = weighted_sum / rollup["rows"]
        return rollup

    # ------------------------------------------------------------------ #
    # Serialization and rendering
    # ------------------------------------------------------------------ #

    def as_dict(self) -> dict[str, Any]:
        return {
            "backend": self.backend,
            "n_workers": self.n_workers,
            "wall_seconds": self.wall_seconds,
            "lake_generation": self.lake_generation,
            "n_units": self.n_units,
            "n_succeeded": self.n_succeeded,
            "n_failed": self.n_failed,
            "per_region": self.per_region_summary(),
            "per_region_component_seconds": self.per_region_component_seconds(),
            "predictability": self.predictability_rollup(),
            "incidents": self.incident_rollup(),
            "cache": self.cache_summary(),
            "serving": self.serving_rollup(),
            "scan": self.scan_rollup(),
            "load": self.load_rollup(),
            "outcomes": [outcome.to_payload() for outcome in self.outcomes],
        }

    def render_text(self) -> str:
        """Human-readable fleet report (the CLI's default output)."""
        lines: list[str] = []
        lines.append(
            f"Fleet run: {self.n_units} units ({self.n_succeeded} ok, "
            f"{self.n_failed} failed) on backend={self.backend} "
            f"workers={self.n_workers} in {self.wall_seconds:.2f}s"
        )
        if self.lake_generation is not None:
            lines.append(f"Lake manifest generation: {self.lake_generation}")
        lines.append("")
        header = f"{'region':<14}{'units':>6}{'servers':>9}{'predictable':>13}{'compute s':>11}{'cached':>8}"
        lines.append(header)
        lines.append("-" * len(header))
        for region, row in self.per_region_summary().items():
            lines.append(
                f"{region:<14}{row['units']:>6}{row['n_servers']:>9}"
                f"{row['pct_predictable']:>12.1f}%{row['compute_seconds']:>11.2f}"
                f"{row['units_from_cache']:>8}"
            )
        rollup = self.predictability_rollup()
        lines.append("")
        lines.append(
            f"Fleet predictability: {rollup['n_predictable']}/{rollup['n_servers']} "
            f"servers ({rollup['pct_predictable']:.1f}%)"
        )
        incidents = self.incident_rollup()["by_severity"]
        if incidents:
            rendered = ", ".join(f"{sev}={count}" for sev, count in sorted(incidents.items()))
            lines.append(f"Incidents: {rendered}")
        else:
            lines.append("Incidents: none")
        cache = self.cache_summary()
        lines.append(
            f"Cache: {cache['unit_hits']} unit hits, {cache['stage_hits']} stage hits, "
            f"{cache['stage_misses']} stage misses"
        )
        serving = self.serving_rollup()
        lines.append(
            f"Serving: {serving['served']}/{serving['requests']} predictions served "
            f"({serving['cache_hits']} cache hits, {serving['failures']} failures, "
            f"{serving['units_fell_back']} units on fallback versions)"
        )
        scan = self.scan_rollup()
        lines.append(
            f"Scan: {scan['extracts_scanned']} extracts, {scan['rows']} rows, "
            f"{scan['chunks_pruned']}/{scan['chunks_seen']} chunks pruned, "
            f"{scan['servers_skipped']} servers skipped, "
            f"{scan['payload_bytes_verified']}/{scan['payload_bytes_stored']} "
            f"payload bytes CRC-verified "
            f"({100.0 * scan['verified_fraction']:.0f}%)"
        )
        load = self.load_rollup()
        if load["units_with_load"]:
            lines.append(
                f"Aggregate: {load['rows']} rows over {load['days']} server-days, "
                f"mean load {load['mean_load']:.1f}, peak {load['peak_load']:.1f} "
                f"({load['chunks_answered_from_stats']} chunks answered from stats, "
                f"{load['bytes_decoded_avoided']} payload bytes never decoded)"
            )
        return "\n".join(lines)
