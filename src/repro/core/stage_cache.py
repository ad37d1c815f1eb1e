"""Encoding/decoding of pipeline stage outputs for the artifact cache.

The Seagull pipeline is factored into stages with stable, serializable
inputs and outputs (the "partially constrained log" view of a run: each
stage's output is durable, resumable state rather than a throwaway
in-memory value).  That view also bounds what is persisted: only the state
a resume actually reads.  This module defines, per cacheable stage, which
configuration parameters feed its cache key and how its output round-trips
through JSON.

Stages and their keys:

* ``features`` -- frame content hash + error bound + accuracy threshold.
* ``model`` -- frame content hash + model name + training window
  parameters.  It holds what a hit needs to skip training, inference and
  accuracy evaluation: the backup day per server, the served backup-day
  predictions (redeployed as precomputed forecasters) and the per-day
  evaluations, from which the summary and the predictability verdicts are
  folded again.  The history-day predictions the evaluations were scored
  on are not kept: nothing reads them on a hit.
"""

from __future__ import annotations

from typing import Any

from repro.core.config import PipelineConfig
from repro.features.extractor import ServerFeatures
from repro.metrics.predictable import ServerDayEvaluation
from repro.timeseries.series import LoadSeries

#: Stage names used in cache keys and in ``PipelineRunResult.cache_events``.
STAGE_FEATURES = "features"
STAGE_MODEL = "model"

#: Fleet-orchestrator whole-unit outcome (see ``repro.fleet_ops``).
STAGE_UNIT_OUTCOME = "unit_outcome"


# --------------------------------------------------------------------- #
# Cache-key parameter fingerprints
# --------------------------------------------------------------------- #


def features_params(config: PipelineConfig) -> dict[str, Any]:
    """Configuration the feature-extraction output depends on."""
    return {
        "interval_minutes": config.interval_minutes,
        "over_tolerance": config.error_bound.over_tolerance,
        "under_tolerance": config.error_bound.under_tolerance,
        "accuracy_threshold": config.accuracy_threshold,
    }


def model_params(config: PipelineConfig) -> dict[str, Any]:
    """Configuration the model stage's output depends on.

    Includes the feature parameters because the trained-server set is
    derived from the per-server classification labels, and the error bound
    and accuracy threshold score the evaluations.
    """
    return {
        **features_params(config),
        "model_name": config.model_name,
        "training_days": config.training_days,
        "horizon_days": config.horizon_days,
        "history_weeks": config.history_weeks,
        "min_history_days": config.min_history_days,
    }


# --------------------------------------------------------------------- #
# Stage payload codecs
# --------------------------------------------------------------------- #


def encode_features(features: dict[str, ServerFeatures]) -> dict[str, Any]:
    return {"features": {sid: f.as_dict() for sid, f in features.items()}}


def decode_features(payload: dict[str, Any]) -> dict[str, ServerFeatures]:
    return {
        sid: ServerFeatures.from_dict(body) for sid, body in payload["features"].items()
    }


def encode_model(
    backup_days: dict[str, int],
    predictions: dict[str, LoadSeries],
    evaluations: list[ServerDayEvaluation],
) -> dict[str, Any]:
    # Explicit timestamps, so the round trip reproduces each series exactly
    # whatever grid it sits on.
    return {
        "backup_days": dict(backup_days),
        "predictions": {
            sid: {
                "timestamps": s.timestamps.tolist(),
                "values": s.values.tolist(),
                "interval": s.interval_minutes,
            }
            for sid, s in predictions.items()
        },
        "evaluations": [evaluation.as_dict() for evaluation in evaluations],
    }


def decode_model(
    payload: dict[str, Any],
) -> tuple[dict[str, int], dict[str, LoadSeries], list[ServerDayEvaluation]]:
    backup_days = {sid: int(day) for sid, day in payload["backup_days"].items()}
    predictions = {
        sid: LoadSeries(body["timestamps"], body["values"], int(body["interval"]), validate=False)
        for sid, body in payload["predictions"].items()
    }
    evaluations = [ServerDayEvaluation.from_dict(body) for body in payload["evaluations"]]
    return backup_days, predictions, evaluations
