"""Backup scheduling algorithm (Section 2.3).

For every server due for a full backup the next day, the algorithm:

1. verifies that the server was *predictable* for the last three weeks
   (Definition 9) -- otherwise the default backup window is kept, so a
   backup is never moved to a worse time based on predictions the system
   is not confident in;
2. extracts the predicted load for the backup day and selects the time
   window with the lowest expected customer activity that is long enough
   to fit a full backup;
3. stores the start of that window as a service-fabric property that the
   backup service reads.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from dataclasses import dataclass

from repro.metrics.ll_window import WindowSearchError, lowest_load_window
from repro.metrics.predictable import PredictabilityVerdict
from repro.scheduling.fabric import FabricPropertyStore
from repro.timeseries.calendar import day_index
from repro.timeseries.frame import ServerMetadata
from repro.timeseries.series import LoadSeries


class ScheduleOutcome(enum.Enum):
    """Why a server ended up with its scheduled window."""

    MOVED_TO_PREDICTED_WINDOW = "moved_to_predicted_window"
    DEFAULT_KEPT_NOT_PREDICTABLE = "default_kept_not_predictable"
    DEFAULT_KEPT_NO_PREDICTION = "default_kept_no_prediction"
    DEFAULT_KEPT_PREDICTION_UNUSABLE = "default_kept_prediction_unusable"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class BackupDecision:
    """The scheduling decision for one server's backup day."""

    server_id: str
    backup_day: int
    scheduled_start: int
    default_start: int
    outcome: ScheduleOutcome
    predicted_window_load: float = float("nan")

    @property
    def moved(self) -> bool:
        """Whether the backup was moved away from the default window."""
        return self.outcome is ScheduleOutcome.MOVED_TO_PREDICTED_WINDOW

    def as_dict(self) -> dict[str, object]:
        return {
            "server_id": self.server_id,
            "backup_day": self.backup_day,
            "scheduled_start": self.scheduled_start,
            "default_start": self.default_start,
            "outcome": self.outcome.value,
            "predicted_window_load": self.predicted_window_load,
        }


class BackupScheduler:
    """Schedules backups into predicted lowest-load windows."""

    def __init__(self, fabric: FabricPropertyStore | None = None) -> None:
        self._fabric = fabric if fabric is not None else FabricPropertyStore()

    # ------------------------------------------------------------------ #

    def schedule_server(
        self,
        metadata: ServerMetadata,
        prediction: LoadSeries | None,
        verdict: PredictabilityVerdict | None,
    ) -> BackupDecision:
        """Decide the backup window for one server on its backup day."""
        backup_day = day_index(metadata.default_backup_start)
        default_start = metadata.default_backup_start

        if verdict is None or not verdict.predictable:
            decision = BackupDecision(
                server_id=metadata.server_id,
                backup_day=backup_day,
                scheduled_start=default_start,
                default_start=default_start,
                outcome=ScheduleOutcome.DEFAULT_KEPT_NOT_PREDICTABLE,
            )
        elif prediction is None or prediction.is_empty:
            decision = BackupDecision(
                server_id=metadata.server_id,
                backup_day=backup_day,
                scheduled_start=default_start,
                default_start=default_start,
                outcome=ScheduleOutcome.DEFAULT_KEPT_NO_PREDICTION,
            )
        else:
            try:
                window = lowest_load_window(
                    prediction, backup_day, metadata.backup_duration_minutes
                )
            except WindowSearchError:
                decision = BackupDecision(
                    server_id=metadata.server_id,
                    backup_day=backup_day,
                    scheduled_start=default_start,
                    default_start=default_start,
                    outcome=ScheduleOutcome.DEFAULT_KEPT_PREDICTION_UNUSABLE,
                )
            else:
                decision = BackupDecision(
                    server_id=metadata.server_id,
                    backup_day=backup_day,
                    scheduled_start=window.start,
                    default_start=default_start,
                    outcome=ScheduleOutcome.MOVED_TO_PREDICTED_WINDOW,
                    predicted_window_load=window.average_load,
                )

        self._fabric.set_backup_window_start(metadata.server_id, decision.scheduled_start)
        return decision

    def schedule_fleet(
        self,
        metadata_by_server: Mapping[str, ServerMetadata],
        predictions: Mapping[str, LoadSeries],
        verdicts: Mapping[str, PredictabilityVerdict],
    ) -> dict[str, BackupDecision]:
        """Schedule every server due for backup."""
        decisions: dict[str, BackupDecision] = {}
        for server_id, metadata in metadata_by_server.items():
            decisions[server_id] = self.schedule_server(
                metadata,
                predictions.get(server_id),
                verdicts.get(server_id),
            )
        return decisions
