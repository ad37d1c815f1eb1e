"""Reproduction of "Seagull: An Infrastructure for Load Prediction and
Optimized Resource Allocation" (Poppe et al., VLDB 2020).

The package mirrors the paper's architecture:

* :mod:`repro.timeseries`, :mod:`repro.storage`, :mod:`repro.telemetry`,
  :mod:`repro.parallel` -- substrates (time series containers, the data
  lake and artifact cache, the synthetic telemetry generator and the
  Dask-substitute executor).
* :mod:`repro.validation`, :mod:`repro.features`, :mod:`repro.models`,
  :mod:`repro.metrics` -- pipeline modules (data validation, feature
  extraction / server classification, forecasting models, use-case-specific
  accuracy metrics).
* :mod:`repro.core` -- the use-case-agnostic pipeline, model registry,
  incident management and window drift detection.
* :mod:`repro.fleet_ops` -- the fleet orchestrator that runs the pipeline
  once per region per week.
* :mod:`repro.serving` -- the unified prediction-serving API (the
  paper's scoring endpoints): deployed model versions, typed
  requests/responses, version routing with fallback, batching and an LRU
  prediction cache.  Every prediction consumer goes through it.
* :mod:`repro.scheduling` -- the backup-scheduling use case (online
  components and impact analysis).
* :mod:`repro.autoscale` -- the preemptive auto-scale use case
  (Appendix A).

Quickstart
----------

>>> from repro import (
...     default_fleet_spec, WorkloadGenerator, PipelineConfig, SeagullPipeline,
... )
>>> spec = default_fleet_spec(servers_per_region=(40,), weeks=4, seed=1)
>>> frame = WorkloadGenerator(spec).generate_region("region-0")
>>> pipeline = SeagullPipeline(PipelineConfig())
>>> result = pipeline.run(frame, region="region-0", week=3)
>>> result.succeeded
True
"""

from repro.core.config import PipelineConfig
from repro.core.pipeline import PipelineRunResult, SeagullPipeline
from repro.core.registry import ModelRegistry
from repro.features.classification import ServerClassLabel, classify_frame, classify_server
from repro.fleet_ops import FleetOrchestrator, FleetReport, populate_lake
from repro.metrics.bucket_ratio import ErrorBound, bucket_ratio, is_accurate_prediction
from repro.metrics.evaluation import AccuracyEvaluationModule
from repro.metrics.ll_window import lowest_load_window, is_window_correctly_chosen
from repro.models.registry import create_forecaster
from repro.scheduling.backup import BackupScheduler
from repro.scheduling.impact import BackupImpactAnalyzer
from repro.serving import (
    BatchPredictionResponse,
    PredictionRequest,
    PredictionResponse,
    PredictionService,
)
from repro.storage.artifacts import ArtifactStore
from repro.storage.datalake import DataLakeStore, ExtractKey
from repro.telemetry.fleet import FleetSpec, RegionSpec, default_fleet_spec, sql_database_fleet_spec
from repro.telemetry.generator import WorkloadGenerator
from repro.timeseries.frame import LoadFrame, ServerMetadata
from repro.timeseries.series import LoadSeries

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "LoadSeries",
    "LoadFrame",
    "ServerMetadata",
    "FleetSpec",
    "RegionSpec",
    "default_fleet_spec",
    "sql_database_fleet_spec",
    "WorkloadGenerator",
    "DataLakeStore",
    "ExtractKey",
    "ErrorBound",
    "bucket_ratio",
    "is_accurate_prediction",
    "lowest_load_window",
    "is_window_correctly_chosen",
    "AccuracyEvaluationModule",
    "classify_server",
    "classify_frame",
    "ServerClassLabel",
    "create_forecaster",
    "PipelineConfig",
    "SeagullPipeline",
    "PipelineRunResult",
    "ModelRegistry",
    "PredictionService",
    "PredictionRequest",
    "PredictionResponse",
    "BatchPredictionResponse",
    "BackupScheduler",
    "BackupImpactAnalyzer",
    "ArtifactStore",
    "FleetOrchestrator",
    "FleetReport",
    "populate_lake",
]
