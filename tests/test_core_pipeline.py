"""Integration-style tests for the Seagull pipeline orchestration."""

import numpy as np
import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import PIPELINE_COMPONENTS, SeagullPipeline
from repro.parallel.executor import ExecutionBackend
from repro.storage.datalake import DataLakeStore, ExtractKey
from repro.telemetry.fleet import default_fleet_spec
from repro.telemetry.generator import WorkloadGenerator
from repro.timeseries.calendar import MINUTES_PER_DAY
from repro.timeseries.frame import LoadFrame, ServerMetadata

from tests.helpers import make_series, read_frame


@pytest.fixture(scope="module")
def fleet_frame():
    spec = default_fleet_spec(servers_per_region=(25,), weeks=4, seed=2)
    return WorkloadGenerator(spec).generate_region("region-0")


@pytest.fixture(scope="module")
def run_result(fleet_frame):
    pipeline = SeagullPipeline(PipelineConfig())
    return pipeline, pipeline.run(fleet_frame, region="region-0", week=3)


class TestPipelineRun:
    def test_run_succeeds(self, run_result):
        _, result = run_result
        assert result.succeeded
        assert result.abort_reason == ""

    def test_all_components_timed(self, run_result):
        _, result = run_result
        for component in PIPELINE_COMPONENTS:
            assert component in result.timings
        assert sum(result.timings.values()) > 0

    def test_validation_and_classification_present(self, run_result):
        _, result = run_result
        assert result.validation is not None and result.validation.passed
        assert result.classification is not None
        assert len(result.features) == 25

    def test_predictions_for_long_lived_servers(self, run_result, fleet_frame):
        _, result = run_result
        # Every server with a prediction must be long-lived and the forecast
        # must cover one full day on the 5-minute grid.
        for server_id, prediction in result.predictions.items():
            assert fleet_frame.series(server_id).span_minutes > 21 * MINUTES_PER_DAY
            assert len(prediction) == 288

    def test_summary_accuracy_reasonable(self, run_result):
        _, result = run_result
        assert result.summary is not None
        # Mostly stable fleet + persistent forecast: the headline accuracy
        # metrics must be high (the paper reports 96-99%).
        assert result.summary.pct_windows_correct > 80.0
        assert result.summary.pct_load_accurate > 70.0

    def test_predictability_verdicts_exist(self, run_result):
        _, result = run_result
        assert result.predictability
        assert any(v.predictable for v in result.predictability.values())

    def test_model_deployed_and_tracked(self, run_result):
        pipeline, result = run_result
        assert result.model_record is not None
        active = pipeline.registry.active("region-0")
        assert active is not None
        # Inference was served through the prediction service from the
        # version this run deployed.
        assert result.serving is not None
        assert result.serving.served_by_version == result.model_record.version
        assert result.serving.n_served == len(result.predictions)
        assert pipeline.serving.servers("region-0")

    def test_run_id_names_the_unit(self, run_result):
        pipeline, result = run_result
        assert result.run_id == "run-region-0-w3"
        assert pipeline.registry.active("region-0").notes == "run run-region-0-w3"

    def test_run_result_as_dict(self, run_result):
        _, result = run_result
        payload = result.as_dict()
        assert payload["region"] == "region-0"
        assert payload["succeeded"] is True


class TestPipelineFailurePaths:
    def test_run_id_is_the_same_however_often_a_unit_runs(self):
        frame = LoadFrame(5)
        frame.add_server(ServerMetadata(server_id="bad"), make_series([np.nan, 1.0]))
        pipeline = SeagullPipeline(PipelineConfig())
        run_ids = {
            p.run(frame, region="region-0", week=2).run_id
            for p in (pipeline, pipeline, SeagullPipeline(PipelineConfig()))
        }
        assert run_ids == {"run-region-0-w2"}

    def test_invalid_extract_aborts_with_incident(self):
        frame = LoadFrame(5)
        frame.add_server(
            ServerMetadata(server_id="bad"), make_series([np.nan, np.nan, 1.0])
        )
        pipeline = SeagullPipeline(PipelineConfig())
        result = pipeline.run(frame, region="region-0", week=0)
        assert not result.succeeded
        assert result.abort_reason == "invalid input data"
        assert pipeline.incidents.has_critical()

    def test_accuracy_regression_triggers_fallback(self, fleet_frame):
        # Deploy a good version first, then run with an impossible accuracy
        # threshold so the second deployment regresses and falls back.
        config = PipelineConfig(fallback_threshold_pct=100.1)
        pipeline = SeagullPipeline(config)
        first = pipeline.run(fleet_frame, region="region-0", week=2)
        second = pipeline.run(fleet_frame, region="region-0", week=3)
        assert second.fell_back
        assert pipeline.registry.active("region-0").version == first.model_record.version

    def test_no_fallback_when_disabled(self, fleet_frame):
        config = PipelineConfig(fallback_threshold_pct=100.1, fallback_on_regression=False)
        pipeline = SeagullPipeline(config)
        pipeline.run(fleet_frame, region="region-0", week=2)
        second = pipeline.run(fleet_frame, region="region-0", week=3)
        assert not second.fell_back


class TestPipelineWithOtherModels:
    @pytest.mark.parametrize("model_name", ["persistent_previous_week_average", "ssa"])
    def test_alternative_models_run(self, model_name):
        spec = default_fleet_spec(servers_per_region=(6,), weeks=4, seed=8)
        frame = WorkloadGenerator(spec).generate_region("region-0")
        pipeline = SeagullPipeline(PipelineConfig(model_name=model_name))
        result = pipeline.run(frame, region="region-0", week=3)
        assert result.succeeded
        assert result.summary is not None

    def test_parallel_evaluation_backend(self, fleet_frame):
        config = PipelineConfig(executor_backend=ExecutionBackend.THREADS, n_workers=4)
        pipeline = SeagullPipeline(config)
        result = pipeline.run(fleet_frame, region="region-0", week=3)
        assert result.succeeded


class TestPipelineExecutorLifecycle:
    def test_close_releases_owned_parallel_executor(self, fleet_frame):
        pipeline = SeagullPipeline(
            PipelineConfig(executor_backend=ExecutionBackend.THREADS, n_workers=2)
        )
        with pipeline:
            result = pipeline.run(fleet_frame, region="region-0", week=3)
            assert result.succeeded
        assert pipeline._executor._closed


class TestArtifactCachedPipeline:
    @pytest.fixture(scope="class")
    def small_frame(self):
        spec = default_fleet_spec(servers_per_region=(12,), weeks=4, seed=41)
        return WorkloadGenerator(spec).generate_region("region-0")

    def test_cold_run_misses_then_populates(self, small_frame, tmp_path):
        from repro.storage.artifacts import ArtifactStore

        cache = ArtifactStore.at(tmp_path)
        pipeline = SeagullPipeline(PipelineConfig(), artifact_cache=cache)
        result = pipeline.run(small_frame, region="region-0", week=3)
        assert result.succeeded
        assert result.cache_events == {
            "features": "miss",
            "model": "miss",
        }
        assert cache.stats.puts == 2

    def test_warm_run_hits_every_stage(self, small_frame, tmp_path):
        from repro.storage.artifacts import ArtifactStore

        cache = ArtifactStore.at(tmp_path)
        SeagullPipeline(PipelineConfig(), artifact_cache=cache).run(
            small_frame, region="region-0", week=3
        )
        warm = SeagullPipeline(PipelineConfig(), artifact_cache=cache).run(
            small_frame, region="region-0", week=3
        )
        assert warm.succeeded
        assert warm.cache_events == {
            "features": "hit",
            "model": "hit",
        }

    def test_content_change_invalidates(self, small_frame, tmp_path):
        from repro.storage.artifacts import ArtifactStore
        from repro.timeseries.frame import LoadFrame as Frame

        cache = ArtifactStore.at(tmp_path)
        SeagullPipeline(PipelineConfig(), artifact_cache=cache).run(
            small_frame, region="region-0", week=3
        )
        # Perturb one server's load: every stage must recompute.
        changed = Frame(small_frame.interval_minutes)
        for index, (_sid, metadata, series) in enumerate(small_frame.items()):
            if index == 0:
                series = series.with_values(series.values + 1.0)
            changed.add_server(metadata, series)
        second = SeagullPipeline(PipelineConfig(), artifact_cache=cache).run(
            changed, region="region-0", week=3
        )
        assert second.cache_events == {
            "features": "miss",
            "model": "miss",
        }

    def test_config_change_invalidates_model_stages_only(self, small_frame, tmp_path):
        from repro.storage.artifacts import ArtifactStore

        cache = ArtifactStore.at(tmp_path)
        SeagullPipeline(PipelineConfig(), artifact_cache=cache).run(
            small_frame, region="region-0", week=3
        )
        other_model = SeagullPipeline(
            PipelineConfig(model_name="persistent_previous_week_average"), artifact_cache=cache
        ).run(small_frame, region="region-0", week=3)
        # Features do not depend on the forecaster, so they are reused.
        assert other_model.cache_events["features"] == "hit"
        assert other_model.cache_events["model"] == "miss"

    def test_cached_outputs_identical_to_fresh(self, small_frame, tmp_path):
        from repro.storage.artifacts import ArtifactStore, canonical_json

        fresh = SeagullPipeline(PipelineConfig()).run(small_frame, region="region-0", week=3)
        cache = ArtifactStore.at(tmp_path)
        SeagullPipeline(PipelineConfig(), artifact_cache=cache).run(
            small_frame, region="region-0", week=3
        )
        warm_pipeline = SeagullPipeline(PipelineConfig(), artifact_cache=cache)
        cached = warm_pipeline.run(small_frame, region="region-0", week=3)
        assert cached.predictions == fresh.predictions
        assert cached.backup_days == fresh.backup_days
        assert cached.summary == fresh.summary
        assert cached.predictability == fresh.predictability
        # Evaluations may contain NaN fields; compare canonical JSON, which
        # renders NaN consistently.
        assert canonical_json([e.as_dict() for e in cached.evaluations]) == canonical_json(
            [e.as_dict() for e in fresh.evaluations]
        )
        # The cache-hit deployment serves the same forecasts through the
        # serving API.
        from repro.serving import PredictionRequest

        for sid, prediction in fresh.predictions.items():
            response = warm_pipeline.serving.predict(
                PredictionRequest(region="region-0", server_id=sid, n_points=len(prediction))
            )
            assert response.series == prediction

    def test_model_entry_holds_only_what_a_hit_reads(self, small_frame, tmp_path):
        from repro.core import stage_cache
        from repro.storage.artifacts import ArtifactStore, artifact_key

        cache = ArtifactStore.at(tmp_path)
        result = SeagullPipeline(PipelineConfig(), artifact_cache=cache).run(
            small_frame, region="region-0", week=3
        )
        key = artifact_key(
            stage_cache.STAGE_MODEL,
            small_frame.content_hash(),
            stage_cache.model_params(PipelineConfig()),
        )
        payload = cache.get(key)
        assert set(payload) == {"backup_days", "predictions", "evaluations"}
        # Only the served backup-day forecasts, not the history days the
        # evaluations were scored on.
        assert set(payload["predictions"]) == set(result.predictions)
        assert len(payload["evaluations"]) == len(result.evaluations)

    def test_corrupt_model_entry_is_a_counted_miss_and_recomputed(
        self, small_frame, tmp_path
    ):
        from repro.storage.artifacts import ArtifactStore, canonical_json

        fresh = SeagullPipeline(PipelineConfig()).run(small_frame, region="region-0", week=3)
        cache = ArtifactStore.at(tmp_path)
        SeagullPipeline(PipelineConfig(), artifact_cache=cache).run(
            small_frame, region="region-0", week=3
        )
        (entry,) = (tmp_path / "model").glob("*.json")
        entry.write_bytes(entry.read_bytes()[:-20])
        recomputed = SeagullPipeline(PipelineConfig(), artifact_cache=cache).run(
            small_frame, region="region-0", week=3
        )
        assert recomputed.cache_events == {"features": "hit", "model": "miss"}
        assert cache.stats.corrupt_entries == 1
        assert recomputed.summary == fresh.summary
        assert recomputed.predictability == fresh.predictability
        assert canonical_json([e.as_dict() for e in recomputed.evaluations]) == canonical_json(
            [e.as_dict() for e in fresh.evaluations]
        )
        # The recomputed entry was stored again and serves the next run.
        warm = SeagullPipeline(PipelineConfig(), artifact_cache=cache).run(
            small_frame, region="region-0", week=3
        )
        assert warm.cache_events == {"features": "hit", "model": "hit"}
        assert warm.predictability == fresh.predictability

    def test_corrupt_cache_entry_recomputes_without_crash(self, small_frame, tmp_path):
        from repro.storage.artifacts import ArtifactStore

        cache = ArtifactStore.at(tmp_path)
        SeagullPipeline(PipelineConfig(), artifact_cache=cache).run(
            small_frame, region="region-0", week=3
        )
        # Corrupt every cached entry in place.
        entries = list(tmp_path.glob("*/*.json"))
        assert len(entries) == 2
        for entry in entries:
            entry.write_text('{"garbage": true}')
        result = SeagullPipeline(PipelineConfig(), artifact_cache=cache).run(
            small_frame, region="region-0", week=3
        )
        assert result.succeeded
        assert result.cache_events == {
            "features": "miss",
            "model": "miss",
        }
        assert cache.stats.corrupt_entries == 2


class TestEndToEndFromLake:
    def test_full_flow_extraction_to_scheduling(self, tmp_path):
        from repro.scheduling.backup import BackupScheduler
        from repro.telemetry.extraction import LoadExtractionQuery
        from repro.telemetry.raw_store import RawTelemetryStore

        spec = default_fleet_spec(servers_per_region=(10,), weeks=4, seed=31)
        frame = WorkloadGenerator(spec).generate_region("region-0")

        raw = RawTelemetryStore()
        raw.ingest_frame(frame, noise_rng=np.random.default_rng(1))
        lake = DataLakeStore(tmp_path)
        query = LoadExtractionQuery(raw, lake)
        # Extract all four weeks into a single frame for the pipeline run.
        merged = LoadFrame(5)
        for week in range(4):
            query.extract_week("region-0", week)
        for week in range(4):
            weekly = read_frame(lake, ExtractKey("region-0", week))
            for sid, _metadata, _series in weekly.items():
                if sid in merged:
                    merged = merged.merge(
                        LoadFrame(5)
                    )  # no-op; concatenation handled below
            # Concatenate week by week.
            if week == 0:
                merged = weekly
            else:
                combined = LoadFrame(5)
                for sid, metadata, series in merged.items():
                    if sid in weekly:
                        combined.add_server(metadata, series.concat(weekly.series(sid)))
                    else:
                        combined.add_server(metadata, series)
                for sid, metadata, series in weekly.items():
                    if sid not in combined:
                        combined.add_server(metadata, series)
                merged = combined

        pipeline = SeagullPipeline(PipelineConfig())
        result = pipeline.run(merged, region="region-0", week=3)
        assert result.succeeded

        scheduler = BackupScheduler()
        metadata_by_server = {sid: merged.metadata(sid) for sid in merged.server_ids()}
        decisions = scheduler.schedule_fleet(
            metadata_by_server, result.predictions, result.predictability
        )
        assert len(decisions) == len(merged)
        moved = [d for d in decisions.values() if d.moved]
        kept = [d for d in decisions.values() if not d.moved]
        assert moved or kept
