"""Server classification (Section 3.2, Figure 3).

Every server is assigned to exactly one class:

* ``short_lived`` -- existed for at most three weeks (Definition 3),
* ``stable`` -- long-lived and accurately predicted by its average load
  (Definition 4),
* ``daily`` -- long-lived, unstable, follows a daily pattern (Definition 5),
* ``weekly`` -- long-lived, unstable, follows a weekly pattern
  (Definition 6),
* ``no_pattern`` -- long-lived, unstable, no recognisable pattern.

The paper reports 42.1% short-lived, 53.5% stable, 0.2% with a pattern and
4.2% without; :func:`classify_frame` produces the equivalent breakdown for
a synthetic fleet.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.features.lifespan import DEFAULT_LIFESPAN_THRESHOLD_DAYS, is_long_lived
from repro.features.patterns import DayMatrix, conforms
from repro.features.stability import stability_bucket_ratio
from repro.metrics.bucket_ratio import (
    DEFAULT_ACCURACY_THRESHOLD,
    DEFAULT_ERROR_BOUND,
    ErrorBound,
)
from repro.timeseries.frame import LoadFrame
from repro.timeseries.series import LoadSeries


class ServerClassLabel(enum.Enum):
    """Classes a server can be assigned to by the classifier."""

    SHORT_LIVED = "short_lived"
    STABLE = "stable"
    DAILY = "daily"
    WEEKLY = "weekly"
    NO_PATTERN = "no_pattern"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Classes that Section 3.2 considers "expected to be predictable".
PREDICTABLE_LABELS = frozenset(
    {ServerClassLabel.STABLE, ServerClassLabel.DAILY, ServerClassLabel.WEEKLY}
)


@dataclass(frozen=True)
class ClassificationResult:
    """Breakdown of a fleet into classes (the Figure 3 percentages)."""

    labels: dict[str, ServerClassLabel]

    def count(self, label: ServerClassLabel) -> int:
        return sum(1 for assigned in self.labels.values() if assigned is label)

    def percentage(self, label: ServerClassLabel) -> float:
        if not self.labels:
            return float("nan")
        return 100.0 * self.count(label) / len(self.labels)

    def percentages(self) -> dict[str, float]:
        """Return the Figure 3 breakdown keyed by class name."""
        return {label.value: self.percentage(label) for label in ServerClassLabel}

    def servers_with(self, label: ServerClassLabel) -> list[str]:
        return [server_id for server_id, assigned in self.labels.items() if assigned is label]

    def predictable_percentage(self) -> float:
        """Percentage of servers expected to be predictable (stable or pattern)."""
        if not self.labels:
            return float("nan")
        predictable = sum(
            1 for assigned in self.labels.values() if assigned in PREDICTABLE_LABELS
        )
        return 100.0 * predictable / len(self.labels)

    def as_dict(self) -> dict[str, object]:
        return {
            "percentages": self.percentages(),
            "predictable_percentage": self.predictable_percentage(),
            "n_servers": len(self.labels),
        }


@dataclass(frozen=True)
class ServerAssessment:
    """What Section 3.2 classifies one server by, each computed once:
    the stability ratio and the lag-1 and lag-7 ratios of every evaluable
    day (ascending)."""

    label: ServerClassLabel
    stability_ratio: float
    daily_ratios: np.ndarray
    weekly_ratios: np.ndarray


def assess_server(
    series: LoadSeries,
    bound: ErrorBound = DEFAULT_ERROR_BOUND,
    threshold: float = DEFAULT_ACCURACY_THRESHOLD,
    lifespan_threshold_days: int = DEFAULT_LIFESPAN_THRESHOLD_DAYS,
) -> ServerAssessment:
    """Assign one server to its class following Section 3.2's decision
    order, keeping the stability ratio and day ratios it was decided by."""
    stability_ratio = stability_bucket_ratio(series, bound)
    matrix = DayMatrix(series)
    daily = matrix.ratios(1, bound)[1]
    weekly = matrix.ratios(7, bound)[1]
    if not is_long_lived(series, lifespan_threshold_days):
        label = ServerClassLabel.SHORT_LIVED
    elif stability_ratio >= threshold:
        label = ServerClassLabel.STABLE
    elif conforms(daily, threshold):  # Definition 5
        label = ServerClassLabel.DAILY
    elif conforms(weekly, threshold):  # Definition 6: not daily, checked above
        label = ServerClassLabel.WEEKLY
    else:
        label = ServerClassLabel.NO_PATTERN
    return ServerAssessment(label, stability_ratio, daily, weekly)


def classify_server(
    series: LoadSeries,
    bound: ErrorBound = DEFAULT_ERROR_BOUND,
    threshold: float = DEFAULT_ACCURACY_THRESHOLD,
    lifespan_threshold_days: int = DEFAULT_LIFESPAN_THRESHOLD_DAYS,
) -> ServerClassLabel:
    """Assign one server to its class following Section 3.2's decision order."""
    return assess_server(series, bound, threshold, lifespan_threshold_days).label


def classify_frame(
    frame: LoadFrame,
    bound: ErrorBound = DEFAULT_ERROR_BOUND,
    threshold: float = DEFAULT_ACCURACY_THRESHOLD,
    lifespan_threshold_days: int = DEFAULT_LIFESPAN_THRESHOLD_DAYS,
) -> ClassificationResult:
    """Classify every server of a frame."""
    labels = {
        server_id: classify_server(series, bound, threshold, lifespan_threshold_days)
        for server_id, _metadata, series in frame.items()
    }
    return ClassificationResult(labels=labels)
