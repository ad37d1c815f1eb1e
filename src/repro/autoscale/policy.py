"""Preemptive auto-scale policy and capacity-headroom analysis.

The paper's Figure 13(b) observes that only 3.7% of servers reach their CPU
capacity within a week, "which opens up opportunities to overbook or
auto-scale resources".  This module turns 24-hour-ahead forecasts into
preemptive scale recommendations and computes the capacity-headroom
histogram used by that figure.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.features.extractor import CAPACITY_THRESHOLD
from repro.timeseries.frame import LoadFrame
from repro.timeseries.series import LoadSeries


class ScaleAction(enum.Enum):
    """Recommended action for the next 24 hours."""

    SCALE_UP = "scale_up"
    SCALE_DOWN = "scale_down"
    HOLD = "hold"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class ScaleRecommendation:
    """One database's recommendation derived from its forecast."""

    database_id: str
    action: ScaleAction
    predicted_peak: float
    predicted_mean: float
    headroom_pct: float

    def as_dict(self) -> dict[str, object]:
        return {
            "database_id": self.database_id,
            "action": self.action.value,
            "predicted_peak": self.predicted_peak,
            "predicted_mean": self.predicted_mean,
            "headroom_pct": self.headroom_pct,
        }


class AutoscalePolicy:
    """Threshold policy on the forecast peak and mean load.

    Parameters
    ----------
    scale_up_threshold:
        Predicted peak load (percent of current capacity) above which the
        database should be scaled up ahead of time.
    scale_down_threshold:
        Predicted peak load below which the database can be scaled down to
        save resources.
    """

    def __init__(
        self,
        scale_up_threshold: float = 80.0,
        scale_down_threshold: float = 30.0,
    ) -> None:
        if scale_down_threshold >= scale_up_threshold:
            raise ValueError("scale_down_threshold must be below scale_up_threshold")
        self._up = scale_up_threshold
        self._down = scale_down_threshold

    def recommend(self, database_id: str, forecast: LoadSeries) -> ScaleRecommendation:
        """Recommendation for one database from its 24-hour forecast."""
        if forecast.is_empty:
            return ScaleRecommendation(
                database_id=database_id,
                action=ScaleAction.HOLD,
                predicted_peak=float("nan"),
                predicted_mean=float("nan"),
                headroom_pct=float("nan"),
            )
        peak = forecast.maximum()
        mean = forecast.mean()
        action = (
            ScaleAction.SCALE_UP
            if peak >= self._up
            else ScaleAction.SCALE_DOWN if peak <= self._down else ScaleAction.HOLD
        )
        return ScaleRecommendation(
            database_id=database_id,
            action=action,
            predicted_peak=peak,
            predicted_mean=mean,
            headroom_pct=max(0.0, 100.0 - peak),
        )

    def recommend_fleet(
        self, forecasts: Mapping[str, LoadSeries]
    ) -> dict[str, ScaleRecommendation]:
        """Recommendations for a whole fleet of forecasts."""
        return {
            database_id: self.recommend(database_id, forecast)
            for database_id, forecast in forecasts.items()
        }

    def action_counts(
        self, recommendations: Mapping[str, ScaleRecommendation]
    ) -> dict[str, int]:
        """Number of databases per recommended action."""
        counts = {action.value: 0 for action in ScaleAction}
        for recommendation in recommendations.values():
            counts[recommendation.action.value] += 1
        return counts


#: Upper edges of the Figure 13(b) maximal-load buckets, in percent; the
#: last bucket, from the capacity threshold up, counts servers at capacity.
HEADROOM_BIN_EDGES = (20.0, 40.0, 60.0, 80.0, CAPACITY_THRESHOLD, 100.1)


def capacity_headroom_histogram(frame: LoadFrame) -> dict[str, float]:
    """Percentage of servers per maximal observed CPU load bucket.

    This is the Figure 13(b) histogram computed directly on observed load;
    the last bucket counts servers that reach capacity.
    """
    max_loads = [
        series.maximum() for _, _, series in frame.items() if not series.is_empty
    ]
    if not max_loads:
        return {}
    max_loads = np.asarray(max_loads)
    histogram: dict[str, float] = {}
    previous = 0.0
    remaining = np.ones(max_loads.shape[0], dtype=bool)
    for edge in HEADROOM_BIN_EDGES:
        in_bin = remaining & (max_loads < edge)
        label = f"{previous:g}-{min(edge, 100):g}%"
        histogram[label] = 100.0 * float(np.count_nonzero(in_bin)) / max_loads.shape[0]
        remaining &= ~in_bin
        previous = edge
    if np.any(remaining):
        histogram["100%+"] = 100.0 * float(np.count_nonzero(remaining)) / max_loads.shape[0]
    return histogram


def pct_reaching_capacity(frame: LoadFrame) -> float:
    """Percentage of servers whose observed weekly maximum reaches capacity."""
    max_loads = [
        series.maximum() for _, _, series in frame.items() if not series.is_empty
    ]
    if not max_loads:
        return float("nan")
    reaching = sum(1 for value in max_loads if value >= CAPACITY_THRESHOLD)
    return 100.0 * reaching / len(max_loads)
