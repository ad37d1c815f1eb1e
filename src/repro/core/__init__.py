"""Seagull core: the use-case-agnostic pipeline and its supporting services.

This package is the reproduction of Figure 1's use-case-agnostic offline
components:

* :mod:`~repro.core.config` -- pipeline configuration (region, model,
  error bound, horizon, executor backend).
* :mod:`~repro.core.pipeline` -- the AML-pipeline equivalent: data
  ingestion, validation, feature extraction, model training, deployment,
  inference and accuracy evaluation, with per-component timing.
* :mod:`~repro.core.registry` -- model deployment and version tracking,
  including fallback to the last known-good model.
* :mod:`~repro.core.incidents` -- incident management (alerts raised on
  validation failures, model regressions, run errors).
* :mod:`~repro.core.drift` -- window-over-window load drift detection for
  the live serving loop.

The paper's REST scoring endpoints are the deployed versions of
:class:`repro.serving.PredictionService`; its monitoring dashboard is the
fleet report (:class:`repro.fleet_ops.FleetReport`) plus the incident
manager.
"""

from repro.core.config import PipelineConfig
from repro.core.drift import (
    LoadWindowDriftDetector,
    WindowDriftReport,
    WindowSummary,
)
from repro.core.incidents import Incident, IncidentManager, IncidentSeverity
from repro.core.pipeline import PipelineRunResult, SeagullPipeline
from repro.core.registry import ModelRecord, ModelRegistry, ModelStatus

__all__ = [
    "PipelineConfig",
    "SeagullPipeline",
    "PipelineRunResult",
    "ModelRegistry",
    "ModelRecord",
    "ModelStatus",
    "IncidentManager",
    "Incident",
    "IncidentSeverity",
    "LoadWindowDriftDetector",
    "WindowDriftReport",
    "WindowSummary",
]
