"""Backup-scheduling impact analysis (Section 6.2, Figure 13(a)).

Given the true load, the scheduling decisions and the per-server
classification, the analyzer reproduces the quantities of Figure 13(a):

* the share of backups that were *moved* from a default window that
  collided with customer activity into a correctly chosen lowest-load
  window,
* the share of default windows that already corresponded to the lowest-load
  window "by chance",
* the share of scheduled windows that were not chosen correctly
  (unexpected change of customer behaviour), and
* the resulting hours of improved customer experience, overall and for
  busy servers (load over 60% of capacity).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.features.extractor import BUSY_LOAD_THRESHOLD, ServerFeatures
from repro.metrics.bucket_ratio import DEFAULT_ERROR_BOUND
from repro.metrics.ll_window import (
    WindowSearchError,
    default_window_is_lowest,
    lowest_load_window,
    window_average_load,
)
from repro.scheduling.backup import BackupDecision
from repro.timeseries.frame import LoadFrame


@dataclass(frozen=True)
class BackupImpactReport:
    """Aggregated impact of the scheduler over one fleet and one backup day."""

    n_servers: int
    pct_moved_to_ll_window: float
    pct_default_already_ll: float
    pct_windows_incorrect: float
    pct_stable_default_already_ll: float
    pct_busy_collisions_avoided: float
    improved_hours: float

    def as_dict(self) -> dict[str, float]:
        return {
            "n_servers": self.n_servers,
            "pct_moved_to_ll_window": self.pct_moved_to_ll_window,
            "pct_default_already_ll": self.pct_default_already_ll,
            "pct_windows_incorrect": self.pct_windows_incorrect,
            "pct_stable_default_already_ll": self.pct_stable_default_already_ll,
            "pct_busy_collisions_avoided": self.pct_busy_collisions_avoided,
            "improved_hours": self.improved_hours,
        }


class BackupImpactAnalyzer:
    """Computes :class:`BackupImpactReport` from decisions and true load."""

    def analyze(
        self,
        true_frame: LoadFrame,
        decisions: Mapping[str, BackupDecision],
        features: Mapping[str, ServerFeatures],
    ) -> BackupImpactReport:
        """Analyse one backup day's decisions against the observed load."""
        n_servers = 0
        n_moved_correctly = 0
        n_default_already_ll = 0
        n_incorrect = 0
        n_stable = 0
        n_stable_default_ll = 0
        n_busy = 0
        n_busy_avoided = 0
        improved_minutes = 0.0

        for server_id, decision in decisions.items():
            if server_id not in true_frame:
                continue
            series = true_frame.series(server_id)
            metadata = true_frame.metadata(server_id)
            duration = metadata.backup_duration_minutes
            day = decision.backup_day
            try:
                true_window = lowest_load_window(series, day, duration)
            except WindowSearchError:
                continue
            n_servers += 1

            default_is_ll = default_window_is_lowest(
                series, decision.default_start, day, duration, DEFAULT_ERROR_BOUND
            )
            if default_is_ll:
                n_default_already_ll += 1

            scheduled_load = window_average_load(series, decision.scheduled_start, duration)
            scheduled_is_correct = DEFAULT_ERROR_BOUND.within(scheduled_load, true_window.average_load)
            if not scheduled_is_correct:
                n_incorrect += 1

            default_load = window_average_load(series, decision.default_start, duration)
            if decision.moved and scheduled_is_correct and not default_is_ll:
                n_moved_correctly += 1
                improved_minutes += duration

            label = features[server_id].label.value if server_id in features else ""
            if label == "stable":
                n_stable += 1
                if default_is_ll:
                    n_stable_default_ll += 1

            is_busy = features[server_id].is_busy if server_id in features else False
            if is_busy:
                n_busy += 1
                default_collides = default_load > BUSY_LOAD_THRESHOLD
                scheduled_avoids = scheduled_load <= BUSY_LOAD_THRESHOLD
                if decision.moved and default_collides and scheduled_avoids:
                    n_busy_avoided += 1

        return BackupImpactReport(
            n_servers=n_servers,
            pct_moved_to_ll_window=_pct(n_moved_correctly, n_servers),
            pct_default_already_ll=_pct(n_default_already_ll, n_servers),
            pct_windows_incorrect=_pct(n_incorrect, n_servers),
            pct_stable_default_already_ll=_pct(n_stable_default_ll, n_stable),
            pct_busy_collisions_avoided=_pct(n_busy_avoided, n_busy),
            improved_hours=improved_minutes / 60.0,
        )


def _pct(numerator: int, denominator: int) -> float:
    if denominator == 0:
        return float("nan")
    return 100.0 * numerator / denominator
