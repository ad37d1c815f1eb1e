"""Unified prediction-serving API (Section 2.2's production story).

Trained per-server models are deployed *into* a
:class:`~repro.serving.service.PredictionService`, one immutable version
per deployment; every prediction consumer -- the pipeline's inference
stage, the backup-scheduling runner, the autoscale predictor, the live
serving bridge -- addresses that one surface with typed
:class:`~repro.serving.api.PredictionRequest` objects and gets typed
responses back.  Version routing follows the service's model registry
(so fallback-on-regression re-routes serving automatically), a batch
isolates per-server skips and failures, and an LRU cache answers
repeated horizon queries without re-running models.
"""

from repro.serving.api import (
    BatchPredictionResponse,
    NoActiveVersionError,
    PredictionRequest,
    PredictionResponse,
    ServingError,
    ServingStats,
    VersionMismatchError,
)
from repro.serving.cache import PredictionCache, PredictionCacheStats
from repro.serving.live_bridge import LiveServingBridge, LiveServingEvent
from repro.serving.service import PredictionService

__all__ = [
    "BatchPredictionResponse",
    "LiveServingBridge",
    "LiveServingEvent",
    "NoActiveVersionError",
    "PredictionCache",
    "PredictionCacheStats",
    "PredictionRequest",
    "PredictionResponse",
    "PredictionService",
    "ServingError",
    "ServingStats",
    "VersionMismatchError",
]
