"""The Seagull pipeline (Figure 1's use-case-agnostic offline components).

One run of the pipeline processes one weekly extract of one region:

1. **Data ingestion** -- take the extract as a frame (the fleet
   orchestrator reads it from the data lake).
2. **Data validation** -- schema/bound anomaly detection; invalid extracts
   raise a critical incident and abort the run.
3. **Feature extraction** -- per-server features and classification.
4. **Model training** -- fit the configured forecaster per server on the
   training window preceding each prediction day.
5. **Model deployment** -- deploy the fitted models into the serving
   layer as a new model version.
6. **Inference** -- predict the load of each server's upcoming backup day,
   plus the backup days of the preceding ``history_weeks`` weeks used for
   predictability.
7. **Accuracy evaluation** -- evaluate the historical predictions with the
   lowest-load-window and bucket-ratio metrics, optionally in parallel per
   server, and derive predictability verdicts (Definition 9).

Component runtimes are recorded per run, which is exactly the data behind
Figure 12(a).

The heavy work has stable inputs and outputs and can be served from an
:class:`~repro.storage.artifacts.ArtifactStore` as two stages: ``features``
(feature extraction) and ``model`` (training, inference and accuracy
evaluation together).  When the extract content hash and the relevant
configuration are unchanged since a previous run, a stage's output is
decoded from the cache instead of recomputed.  The ``model`` entry is
written once, at the end of accuracy evaluation, and holds only what a hit
reads: backup days, the served backup-day predictions and the per-day
evaluations (the summary and the predictability verdicts are folded from
them again).  Cache decisions are recorded per stage in
``PipelineRunResult.cache_events``.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field

from repro.core import stage_cache
from repro.core.config import PipelineConfig
from repro.core.incidents import IncidentManager, IncidentSeverity
from repro.core.registry import DeploymentError, ModelRecord, ModelRegistry
from repro.features.classification import ClassificationResult, ServerClassLabel
from repro.features.extractor import FeatureExtractionModule, ServerFeatures
from repro.metrics.evaluation import (
    AccuracyEvaluationModule,
    EvaluationSummary,
    ServerDayEvaluation,
)
from repro.metrics.predictable import PredictabilityVerdict
from repro.models.base import ForecastError, Forecaster
from repro.models.cached import PrecomputedForecaster
from repro.models.registry import create_forecaster
from repro.parallel.executor import PartitionedExecutor
from repro.serving.api import BatchPredictionResponse  # repro: allow[import-layering] the pipeline deploys into serving by design (PR 4); serving never imports pipeline
from repro.serving.service import PredictionService  # repro: allow[import-layering] the pipeline deploys into serving by design (PR 4); serving never imports pipeline
from repro.storage.artifacts import ArtifactStore, artifact_key
from repro.timeseries.calendar import MINUTES_PER_DAY, day_index, points_per_day
from repro.timeseries.frame import LoadFrame
from repro.timeseries.series import LoadSeries
from repro.validation.validator import DataValidationModule, ValidationReport

#: Names and canonical order of the timed pipeline components (Figure 12(a)).
PIPELINE_COMPONENTS = (
    "data_ingestion",
    "data_validation",
    "feature_extraction",
    "model_training",
    "model_deployment",
    "inference",
    "accuracy_evaluation",
)


@dataclass
class PipelineRunResult:
    """Everything one pipeline run produced."""

    run_id: str
    region: str
    week: int
    config: PipelineConfig
    succeeded: bool = False
    abort_reason: str = ""
    validation: ValidationReport | None = None
    classification: ClassificationResult | None = None
    features: dict[str, ServerFeatures] = field(default_factory=dict)
    predictions: dict[str, LoadSeries] = field(default_factory=dict)
    backup_days: dict[str, int] = field(default_factory=dict)
    evaluations: list[ServerDayEvaluation] = field(default_factory=list)
    summary: EvaluationSummary | None = None
    predictability: dict[str, PredictabilityVerdict] = field(default_factory=dict)
    model_record: ModelRecord | None = None
    #: Serving metadata of the inference batch (cache hits, latency,
    #: skipped/failed servers); ``None`` when nothing was deployed.
    serving: BatchPredictionResponse | None = None
    timings: dict[str, float] = field(default_factory=dict)
    fell_back: bool = False
    #: Per-stage artifact-cache decisions: ``"hit"`` or ``"miss"``; empty
    #: when the pipeline runs without an artifact cache.
    cache_events: dict[str, str] = field(default_factory=dict)

    def timing(self, component: str) -> float:
        """Runtime of one component in seconds (0.0 if it did not run)."""
        return self.timings.get(component, 0.0)

    def as_dict(self) -> dict[str, object]:
        return {
            "run_id": self.run_id,
            "region": self.region,
            "week": self.week,
            "succeeded": self.succeeded,
            "abort_reason": self.abort_reason,
            "timings": dict(self.timings),
            "summary": self.summary.as_dict() if self.summary is not None else None,
            "n_predictions": len(self.predictions),
            "n_predictable": sum(1 for v in self.predictability.values() if v.predictable),
            "fell_back": self.fell_back,
            "cache_events": dict(self.cache_events),
            "serving": self.serving.as_dict() if self.serving is not None else None,
        }


@dataclass
class _DeployableModels:
    """Output of the training stage handed to deployment and evaluation."""

    #: Per server, the model to deploy: freshly fitted, or on a cache hit a
    #: :class:`~repro.models.cached.PrecomputedForecaster` of the cached
    #: backup-day prediction.
    forecasters: dict[str, Forecaster]
    #: Concatenated history-day predictions per server, to be scored by
    #: accuracy evaluation; empty on a cache hit.
    eval_predictions: dict[str, LoadSeries] = field(default_factory=dict)
    #: The history days each server's ``eval_predictions`` cover.
    eval_days: dict[str, list[int]] = field(default_factory=dict)
    #: The cached per-day evaluations on a hit; ``None`` when they still
    #: have to be computed.
    evaluations: list[ServerDayEvaluation] | None = None
    #: Seconds spent on history-day inference during training (the
    #: backup-day horizon is served through the serving layer afterwards).
    inference_seconds: float = 0.0
    #: Artifact-cache key of the ``model`` entry, stored at the end of
    #: accuracy evaluation; ``None`` on a cache hit or when caching is off.
    cache_key: str | None = None


class SeagullPipeline:
    """Orchestrates one region-week run of the Seagull offline components."""

    def __init__(
        self,
        config: PipelineConfig | None = None,
        incident_manager: IncidentManager | None = None,
        artifact_cache: ArtifactStore | None = None,
    ) -> None:
        self._config = config if config is not None else PipelineConfig()
        self._incidents = incident_manager if incident_manager is not None else IncidentManager()
        # The pipeline deploys fitted models *into* the serving layer and
        # serves its own backup-day inference through it; accuracy
        # tracking and fallback use the service's registry, so they follow
        # routing.
        self._serving = PredictionService()
        self._artifacts = artifact_cache
        # Data properties are deduced per region (Section 2.4): region sizes
        # and load distributions differ, so each region gets its own
        # validation module bootstrapped from its first extract.
        self._validators: dict[str, DataValidationModule] = {}
        self._feature_extractor = FeatureExtractionModule(
            bound=self._config.error_bound,
            accuracy_threshold=self._config.accuracy_threshold,
        )
        self._executor = PartitionedExecutor(
            self._config.executor_backend, self._config.n_workers
        )
        self._evaluator = AccuracyEvaluationModule(
            bound=self._config.error_bound,
            accuracy_threshold=self._config.accuracy_threshold,
            executor=self._executor,
        )

    # ------------------------------------------------------------------ #
    # Public accessors
    # ------------------------------------------------------------------ #

    @property
    def config(self) -> PipelineConfig:
        return self._config

    @property
    def registry(self) -> ModelRegistry:
        return self._serving.registry

    @property
    def serving(self) -> PredictionService:
        """The serving layer this pipeline deploys into."""
        return self._serving

    @property
    def incidents(self) -> IncidentManager:
        return self._incidents

    @property
    def artifact_cache(self) -> ArtifactStore | None:
        return self._artifacts

    def close(self) -> None:
        """Release the evaluation worker pool.

        Serial pipelines (the default) never create a pool, so closing is
        only required for long-lived processes that construct many
        pipelines with parallel backends.
        """
        self._executor.close()

    def __enter__(self) -> "SeagullPipeline":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #

    def run(self, frame: LoadFrame, region: str, week: int) -> PipelineRunResult:
        """Run the pipeline on an already-ingested frame."""
        result = PipelineRunResult(
            run_id=f"run-{region}-w{week}", region=region, week=week, config=self._config
        )
        started = time.perf_counter()
        # Ingestion cost for a pre-loaded frame is counting its rows, which
        # mirrors the cheap manifest check production ingestion performs.
        _ = frame.total_points()
        result.timings["data_ingestion"] = time.perf_counter() - started
        if not self._stage_validation(frame, result):
            return result
        # One content hash per run keys every cacheable stage; it is only
        # computed when a cache is attached (hashing is cheap relative to
        # any stage, but not free).
        content_hash = frame.content_hash() if self._artifacts is not None else ""
        self._stage_features(frame, result, content_hash)
        deployed = self._stage_train(frame, result, content_hash)
        self._stage_deploy(result, deployed.forecasters)
        self._stage_inference(result, deployed)
        self._stage_evaluate(frame, result, deployed)
        self._stage_track_accuracy(result)

        result.succeeded = True
        return result

    # ------------------------------------------------------------------ #
    # Stages
    # ------------------------------------------------------------------ #

    def _stage_validation(self, frame: LoadFrame, result: PipelineRunResult) -> bool:
        """Validate the frame; returns whether the run may proceed."""
        region = result.region
        started = time.perf_counter()
        validator = self._validators.setdefault(region, DataValidationModule())
        validation = validator.validate(frame)
        result.timings["data_validation"] = time.perf_counter() - started
        result.validation = validation
        if not validation.passed:
            self._incidents.raise_incident(
                IncidentSeverity.CRITICAL,
                source="data_validation",
                message=f"{len(validation.errors)} validation errors in {region}",
                region=region,
            )
            result.abort_reason = "invalid input data"
            return False
        return True

    def _cache_lookup(
        self,
        stage: str,
        content_hash: str,
        params: dict[str, object],
        result: PipelineRunResult,
    ) -> tuple[str | None, dict[str, object] | None]:
        """Consult the artifact cache for one stage; records the event."""
        if self._artifacts is None:
            return None, None
        key = artifact_key(stage, content_hash, params)
        payload = self._artifacts.get(key)
        result.cache_events[stage] = "hit" if payload is not None else "miss"
        return key, payload

    def _cache_store(self, key: str | None, payload: dict[str, object]) -> None:
        if self._artifacts is not None and key is not None:
            self._artifacts.put(key, payload)

    def _stage_features(
        self, frame: LoadFrame, result: PipelineRunResult, content_hash: str
    ) -> None:
        """Feature extraction, served from the artifact cache when possible."""
        started = time.perf_counter()
        key, payload = self._cache_lookup(
            stage_cache.STAGE_FEATURES,
            content_hash,
            stage_cache.features_params(self._config),
            result,
        )
        features: dict[str, ServerFeatures] | None = None
        if payload is not None:
            try:
                features = stage_cache.decode_features(payload)
            except Exception:
                result.cache_events[stage_cache.STAGE_FEATURES] = "miss"
                features = None
        if features is None:
            features = self._feature_extractor.extract_frame(frame)
            if key is not None:
                self._cache_store(key, stage_cache.encode_features(features))
        result.features = features
        result.classification = ClassificationResult(
            labels={server_id: f.label for server_id, f in features.items()}
        )
        result.timings["feature_extraction"] = time.perf_counter() - started

    def _stage_train(
        self, frame: LoadFrame, result: PipelineRunResult, content_hash: str
    ) -> "_DeployableModels":
        """Per-server model fitting plus history-day inference.

        The backup-day horizon itself is *not* predicted here: the fitted
        forecasters are deployed into the serving layer and the pipeline
        asks :class:`~repro.serving.service.PredictionService` for them in
        :meth:`_stage_inference`, like every other consumer.  On a ``model``
        cache hit the fitted models are not re-created; the cached
        backup-day predictions are wrapped in
        :class:`~repro.models.cached.PrecomputedForecaster` instances so
        the deployed version serves identical values, and the cached
        evaluations are handed on to :meth:`_stage_evaluate`.
        """
        config = self._config
        started = time.perf_counter()
        key, payload = self._cache_lookup(
            stage_cache.STAGE_MODEL,
            content_hash,
            stage_cache.model_params(config),
            result,
        )
        if payload is not None:
            try:
                backup_days, predictions, evaluations = stage_cache.decode_model(payload)
                result.backup_days = backup_days
                forecasters: dict[str, Forecaster] = {
                    server_id: PrecomputedForecaster(prediction, config.model_name)
                    for server_id, prediction in predictions.items()
                }
                result.timings["model_training"] = time.perf_counter() - started
                return _DeployableModels(forecasters, evaluations=evaluations)
            except Exception:
                result.cache_events[stage_cache.STAGE_MODEL] = "miss"

        points_day = points_per_day(config.interval_minutes)
        training_minutes = config.training_days * MINUTES_PER_DAY
        min_history_minutes = config.min_history_days * MINUTES_PER_DAY

        training_seconds = 0.0
        inference_seconds = 0.0
        deployed_forecasters: dict[str, Forecaster] = {}
        eval_predictions: dict[str, LoadSeries] = {}
        eval_days: dict[str, list[int]] = {}

        for server_id, metadata, series in frame.items():
            label = result.features[server_id].label
            if label is ServerClassLabel.SHORT_LIVED or series.is_empty:
                continue
            backup_day = day_index(metadata.default_backup_start)
            result.backup_days[server_id] = backup_day

            # Days whose predictions feed the predictability check: the same
            # weekday in each of the preceding history_weeks weeks.
            history_days = [
                backup_day - 7 * offset for offset in range(1, config.history_weeks + 1)
            ]
            server_days: list[int] = []
            combined_prediction: LoadSeries | None = None
            for day in sorted(history_days) + [backup_day]:
                day_start = day * MINUTES_PER_DAY
                history = series.slice(day_start - training_minutes, day_start)
                if history.is_empty or history.span_minutes < min_history_minutes:
                    continue
                forecaster = create_forecaster(config.model_name)
                try:
                    train_started = time.perf_counter()
                    forecaster.fit(history)
                    training_seconds += time.perf_counter() - train_started
                except ForecastError:
                    continue
                if day == backup_day:
                    deployed_forecasters[server_id] = forecaster
                    continue
                try:
                    infer_started = time.perf_counter()
                    prediction = forecaster.predict(points_day * config.horizon_days)
                    inference_seconds += time.perf_counter() - infer_started
                except ForecastError:
                    continue
                server_days.append(day)
                combined_prediction = (
                    prediction
                    if combined_prediction is None
                    else combined_prediction.concat(prediction)
                )
            if combined_prediction is not None and server_days:
                eval_predictions[server_id] = combined_prediction
                eval_days[server_id] = server_days

        result.timings["model_training"] = training_seconds
        return _DeployableModels(
            deployed_forecasters,
            eval_predictions,
            eval_days,
            inference_seconds=inference_seconds,
            cache_key=key,
        )

    def _stage_deploy(
        self, result: PipelineRunResult, forecasters: dict[str, Forecaster]
    ) -> None:
        """Deploy the fitted models into the serving layer as a new version."""
        config = self._config
        started = time.perf_counter()
        result.model_record = self._serving.deploy(
            region=result.region,
            model_name=config.model_name,
            trained_week=result.week,
            forecasters=forecasters,
            notes=f"run {result.run_id}",
        )
        result.timings["model_deployment"] = time.perf_counter() - started

    def _stage_inference(
        self, result: PipelineRunResult, deployed: "_DeployableModels"
    ) -> None:
        """Serve the backup-day horizon through the prediction service.

        The pipeline consumes its own deployment exactly like the backup
        scheduler or the autoscale predictor would: one batched request
        against the region's active version.
        """
        config = self._config
        started = time.perf_counter()
        if deployed.forecasters:
            batch = self._serving.predict_batch(
                region=result.region,
                n_points=points_per_day(config.interval_minutes) * config.horizon_days,
                server_ids=sorted(deployed.forecasters),
            )
            result.serving = batch
            result.predictions = batch.predictions()
        result.timings["inference"] = deployed.inference_seconds + (
            time.perf_counter() - started
        )

    def _stage_evaluate(
        self, frame: LoadFrame, result: PipelineRunResult, deployed: "_DeployableModels"
    ) -> None:
        """Historical accuracy evaluation and predictability verdicts.

        The per-day evaluations come from the ``model`` cache entry on a
        hit and are computed otherwise; the summary and the verdicts are
        folded from them either way.  On a miss the ``model`` entry is
        stored here, once everything it holds is known.
        """
        started = time.perf_counter()
        required_days = self._config.history_weeks
        evaluations = deployed.evaluations
        if evaluations is None:
            evaluations = self._evaluator.evaluate(
                frame, deployed.eval_predictions, deployed.eval_days
            )
        result.evaluations = evaluations
        result.summary = self._evaluator.summarize(evaluations, required_days)
        result.predictability = self._evaluator.predictability(evaluations, required_days)
        result.timings["accuracy_evaluation"] = time.perf_counter() - started
        if deployed.cache_key is not None:
            self._cache_store(
                deployed.cache_key,
                stage_cache.encode_model(result.backup_days, result.predictions, evaluations),
            )

    def _stage_track_accuracy(self, result: PipelineRunResult) -> None:
        """Record evaluated accuracy; fall back on regression (Section 2.2)."""
        config = self._config
        region = result.region
        record = result.model_record
        accuracy = result.summary.pct_windows_correct if result.summary else float("nan")
        if record is not None:
            with contextlib.suppress(DeploymentError):
                result.model_record = self.registry.record_accuracy(
                    region, record.version, accuracy
                )
        if (
            config.fallback_on_regression
            and accuracy == accuracy  # not NaN
            and accuracy < config.fallback_threshold_pct
        ):
            try:
                fallback_record = self.registry.fallback(region)
                result.fell_back = True
                result.model_record = fallback_record
                self._incidents.raise_incident(
                    IncidentSeverity.WARNING,
                    source="accuracy_evaluation",
                    message=(
                        f"accuracy {accuracy:.1f}% below threshold "
                        f"{config.fallback_threshold_pct:.1f}%, fell back to "
                        f"version {fallback_record.version}"
                    ),
                    region=region,
                )
            except DeploymentError:
                self._incidents.raise_incident(
                    IncidentSeverity.WARNING,
                    source="accuracy_evaluation",
                    message=(
                        f"accuracy {accuracy:.1f}% below threshold but no known-good "
                        "prior version exists"
                    ),
                    region=region,
                )
