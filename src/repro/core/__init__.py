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
* :mod:`~repro.core.endpoints` -- the "REST endpoint" abstraction that
  serves predictions for a deployed model version (an internal transport
  of :mod:`repro.serving`; consumers address the serving API instead).
* :mod:`~repro.core.incidents` -- incident management (alerts raised on
  validation failures, model regressions, run errors).
* :mod:`~repro.core.dashboard` -- the Application-Insights-style dashboard
  summarising pipeline runs.
"""

from repro.core.config import PipelineConfig
from repro.core.dashboard import Dashboard, DashboardEvent
from repro.core.drift import (
    LoadWindowDriftDetector,
    WindowDriftReport,
    WindowSummary,
)
from repro.core.endpoints import BatchScoringResult, ScoringEndpoint
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
    "ScoringEndpoint",
    "BatchScoringResult",
    "IncidentManager",
    "Incident",
    "IncidentSeverity",
    "Dashboard",
    "DashboardEvent",
    "LoadWindowDriftDetector",
    "WindowDriftReport",
    "WindowSummary",
]
