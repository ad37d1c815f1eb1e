"""Feature Extraction Module (Section 2.2).

Produces a per-server feature record combining lifespan, load statistics,
stability, pattern strengths and the assigned class.  Downstream, the model
selection logic uses the class (persistent forecast for stable/pattern
servers, ML models for pattern-free servers, Section 5.2) and the impact
analysis uses the busy/capacity flags (Figure 13).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.features.classification import ServerClassLabel, assess_server
from repro.features.lifespan import lifespan_days
from repro.features.patterns import mean_ratio
from repro.metrics.bucket_ratio import (
    DEFAULT_ACCURACY_THRESHOLD,
    DEFAULT_ERROR_BOUND,
    ErrorBound,
)
from repro.timeseries.frame import LoadFrame, ServerMetadata
from repro.timeseries.series import LoadSeries

#: Load percentage above which a server counts as "busy" (Section 6.2).
BUSY_LOAD_THRESHOLD = 60.0

#: Load percentage treated as "reaching capacity" for Figure 13(b).
CAPACITY_THRESHOLD = 99.0


@dataclass(frozen=True)
class ServerFeatures:
    """One server's extracted features."""

    server_id: str
    region: str
    engine: str
    lifespan_days: float
    mean_load: float
    std_load: float
    max_load: float
    stability_ratio: float
    daily_pattern_strength: float
    weekly_pattern_strength: float
    label: ServerClassLabel
    is_busy: bool
    reaches_capacity: bool
    backup_duration_minutes: int

    def as_dict(self) -> dict[str, object]:
        return {
            "server_id": self.server_id,
            "region": self.region,
            "engine": self.engine,
            "lifespan_days": self.lifespan_days,
            "mean_load": self.mean_load,
            "std_load": self.std_load,
            "max_load": self.max_load,
            "stability_ratio": self.stability_ratio,
            "daily_pattern_strength": self.daily_pattern_strength,
            "weekly_pattern_strength": self.weekly_pattern_strength,
            "label": self.label.value,
            "is_busy": self.is_busy,
            "reaches_capacity": self.reaches_capacity,
            "backup_duration_minutes": self.backup_duration_minutes,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "ServerFeatures":
        """Inverse of :meth:`as_dict` (used by the artifact cache)."""
        return cls(
            server_id=str(payload["server_id"]),
            region=str(payload["region"]),
            engine=str(payload["engine"]),
            lifespan_days=float(payload["lifespan_days"]),
            mean_load=float(payload["mean_load"]),
            std_load=float(payload["std_load"]),
            max_load=float(payload["max_load"]),
            stability_ratio=float(payload["stability_ratio"]),
            daily_pattern_strength=float(payload["daily_pattern_strength"]),
            weekly_pattern_strength=float(payload["weekly_pattern_strength"]),
            label=ServerClassLabel(payload["label"]),
            is_busy=bool(payload["is_busy"]),
            reaches_capacity=bool(payload["reaches_capacity"]),
            backup_duration_minutes=int(payload["backup_duration_minutes"]),
        )


class FeatureExtractionModule:
    """Extracts :class:`ServerFeatures` for every server of a frame."""

    def __init__(
        self,
        bound: ErrorBound = DEFAULT_ERROR_BOUND,
        accuracy_threshold: float = DEFAULT_ACCURACY_THRESHOLD,
    ) -> None:
        self._bound = bound
        self._threshold = accuracy_threshold

    def extract_server(self, metadata: ServerMetadata, series: LoadSeries) -> ServerFeatures:
        """Extract features for one server."""
        assessment = assess_server(series, self._bound, self._threshold)
        max_load = series.maximum() if not series.is_empty else 0.0
        return ServerFeatures(
            server_id=metadata.server_id,
            region=metadata.region,
            engine=metadata.engine,
            lifespan_days=lifespan_days(series),
            mean_load=series.mean() if not series.is_empty else 0.0,
            std_load=series.std() if not series.is_empty else 0.0,
            max_load=max_load,
            stability_ratio=assessment.stability_ratio,
            daily_pattern_strength=mean_ratio(assessment.daily_ratios),
            weekly_pattern_strength=mean_ratio(assessment.weekly_ratios),
            label=assessment.label,
            is_busy=max_load > BUSY_LOAD_THRESHOLD,
            reaches_capacity=max_load >= CAPACITY_THRESHOLD,
            backup_duration_minutes=metadata.backup_duration_minutes,
        )

    def extract_frame(self, frame: LoadFrame) -> dict[str, ServerFeatures]:
        """Extract features for every server of ``frame``."""
        return {
            server_id: self.extract_server(metadata, series)
            for server_id, metadata, series in frame.items()
        }
