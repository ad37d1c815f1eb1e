"""Application-Insights-style dashboard (Section 2.2).

Provides a summarised view of pipeline runs for real-time monitoring:
per-run component timings, validation outcomes, accuracy summaries and any
incidents raised, queryable per region and renderable as a text summary.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field


@dataclass(frozen=True)
class DashboardEvent:
    """One telemetry event emitted by a pipeline run."""

    run_id: str
    region: str
    kind: str
    payload: dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> dict[str, object]:
        return {
            "run_id": self.run_id,
            "region": self.region,
            "kind": self.kind,
            "payload": dict(self.payload),
        }


class Dashboard:
    """Collects :class:`DashboardEvent` records and summarises them."""

    def __init__(self) -> None:
        self._events: list[DashboardEvent] = []

    def record(self, run_id: str, region: str, kind: str, payload: Mapping[str, object]) -> DashboardEvent:
        """Record one event."""
        event = DashboardEvent(run_id=run_id, region=region, kind=kind, payload=dict(payload))
        self._events.append(event)
        return event

    def events(self, region: str | None = None, kind: str | None = None) -> list[DashboardEvent]:
        """Return recorded events, optionally filtered."""
        result = self._events
        if region is not None:
            result = [e for e in result if e.region == region]
        if kind is not None:
            result = [e for e in result if e.kind == kind]
        return list(result)

    def runs(self) -> list[str]:
        """Distinct run ids, oldest first."""
        seen: dict[str, None] = {}
        for event in self._events:
            seen.setdefault(event.run_id, None)
        return list(seen)

    def latest_summary(self, region: str) -> dict[str, object] | None:
        """The most recent run-summary payload for a region, if any."""
        summaries = self.events(region=region, kind="run_summary")
        if not summaries:
            return None
        return dict(summaries[-1].payload)

    def render_text(self) -> str:
        """Render a plain-text view of recent runs (for CLI examples)."""
        lines = ["Seagull pipeline dashboard", "=" * 30]
        for run_id in self.runs():
            run_events = [e for e in self._events if e.run_id == run_id]
            region_name = run_events[0].region if run_events else "?"
            lines.append(f"run {run_id} ({region_name})")
            for event in run_events:
                if event.kind == "component_timing":
                    component = event.payload.get("component", "?")
                    seconds = event.payload.get("seconds", float("nan"))
                    lines.append(f"  - {component}: {seconds:.3f}s")
                elif event.kind == "run_summary":
                    for key, value in sorted(event.payload.items()):
                        lines.append(f"  * {key}: {value}")
        return "\n".join(lines)
