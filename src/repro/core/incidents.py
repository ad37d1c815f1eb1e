"""Incident management (Section 2.2).

The pipeline "continually re-evaluates accuracy of predictions, falls back
to previously known good models and triggers alerts as appropriate".  The
incident manager collects those alerts: missing or invalid input data,
errors in any pipeline step, failed model deployments and accuracy
regressions.
"""

from __future__ import annotations

import enum
import itertools
from collections.abc import Callable
from dataclasses import dataclass


class IncidentSeverity(enum.Enum):
    """Severity levels for raised incidents."""

    INFO = "info"
    WARNING = "warning"
    CRITICAL = "critical"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Incident:
    """One raised incident."""

    incident_id: int
    severity: IncidentSeverity
    source: str
    message: str
    region: str = ""
    acknowledged: bool = False

    def as_dict(self) -> dict[str, object]:
        return {
            "incident_id": self.incident_id,
            "severity": self.severity.value,
            "source": self.source,
            "message": self.message,
            "region": self.region,
            "acknowledged": self.acknowledged,
        }


class IncidentManager:
    """Collects incidents and notifies registered handlers.

    Handlers model the paging/alerting hooks of the production system; a
    handler is any callable taking the :class:`Incident`.
    """

    def __init__(self) -> None:
        self._incidents: list[Incident] = []
        self._handlers: list[Callable[[Incident], None]] = []
        self._counter = itertools.count(1)

    def add_handler(self, handler: Callable[[Incident], None]) -> None:
        """Register a notification handler invoked on every new incident."""
        self._handlers.append(handler)

    def raise_incident(
        self,
        severity: IncidentSeverity,
        source: str,
        message: str,
        region: str = "",
    ) -> Incident:
        """Record a new incident and notify handlers."""
        incident = Incident(
            incident_id=next(self._counter),
            severity=severity,
            source=source,
            message=message,
            region=region,
        )
        self._incidents.append(incident)
        for handler in self._handlers:
            handler(incident)
        return incident

    def acknowledge(self, incident_id: int) -> None:
        """Mark an incident as acknowledged by an operator."""
        for index, incident in enumerate(self._incidents):
            if incident.incident_id == incident_id:
                self._incidents[index] = Incident(
                    incident_id=incident.incident_id,
                    severity=incident.severity,
                    source=incident.source,
                    message=incident.message,
                    region=incident.region,
                    acknowledged=True,
                )
                return
        raise KeyError(f"no incident with id {incident_id}")

    def incidents(self) -> list[Incident]:
        """Return every incident, oldest first."""
        return list(self._incidents)

    def has_critical(self) -> bool:
        """Whether any unacknowledged critical incident is outstanding."""
        return any(
            i.severity is IncidentSeverity.CRITICAL and not i.acknowledged
            for i in self._incidents
        )

    def clear(self) -> None:
        """Drop all incidents (used between test scenarios)."""
        self._incidents.clear()
