"""Unit tests for core services: config, model registry, endpoints, incidents,
dashboard and the weekly scheduler."""

import math

import pytest

from repro.core.config import AUTOSCALE_CONFIG, PipelineConfig
from repro.core.dashboard import Dashboard
from repro.core.endpoints import EndpointError, ScoringEndpoint
from repro.core.incidents import IncidentManager, IncidentSeverity
from repro.core.pipeline import SeagullPipeline
from repro.core.registry import DeploymentError, ModelRegistry, ModelStatus
from repro.core.scheduler import PipelineScheduler
from repro.models.persistent import PreviousDayForecaster
from repro.parallel.executor import ExecutionBackend
from repro.storage.datalake import DataLakeStore, ExtractKey
from repro.storage.documentdb import DocumentStore
from repro.telemetry.fleet import default_fleet_spec
from repro.telemetry.generator import WorkloadGenerator

from tests.helpers import diurnal_series


class TestPipelineConfig:
    def test_defaults_match_paper(self):
        config = PipelineConfig()
        assert config.model_name == "persistent_previous_day"
        assert config.training_days == 7
        assert config.history_weeks == 3
        assert config.error_bound.over_tolerance == 10.0
        assert config.accuracy_threshold == pytest.approx(0.90)

    def test_with_model(self):
        config = PipelineConfig().with_model("ssa")
        assert config.model_name == "ssa"

    def test_with_executor(self):
        config = PipelineConfig().with_executor("processes", 4)
        assert config.executor_backend is ExecutionBackend.PROCESSES
        assert config.n_workers == 4

    def test_validation_of_bad_values(self):
        with pytest.raises(ValueError):
            PipelineConfig(training_days=0)
        with pytest.raises(ValueError):
            PipelineConfig(horizon_days=0)
        with pytest.raises(ValueError):
            PipelineConfig(accuracy_threshold=1.5)
        with pytest.raises(ValueError):
            PipelineConfig(min_history_days=0)

    def test_autoscale_config(self):
        assert AUTOSCALE_CONFIG.use_case == "auto_scale"
        assert AUTOSCALE_CONFIG.interval_minutes == 15

    def test_as_dict(self):
        payload = PipelineConfig().as_dict()
        assert payload["model_name"] == "persistent_previous_day"
        assert payload["over_tolerance"] == 10.0


class TestModelRegistry:
    def test_deploy_and_active(self):
        registry = ModelRegistry()
        record = registry.deploy("r0", "persistent_previous_day", trained_week=3)
        assert record.version == 1
        assert registry.active("r0") == record

    def test_redeploy_retires_previous(self):
        registry = ModelRegistry()
        registry.deploy("r0", "persistent_previous_day", 3)
        second = registry.deploy("r0", "ssa", 4)
        versions = registry.versions("r0")
        assert versions[0].status is ModelStatus.RETIRED
        assert registry.active("r0") == second

    def test_record_accuracy(self):
        registry = ModelRegistry()
        registry.deploy("r0", "pf", 1)
        updated = registry.record_accuracy("r0", 1, 97.5)
        assert updated.accuracy_pct == pytest.approx(97.5)

    def test_record_accuracy_unknown_version(self):
        registry = ModelRegistry()
        with pytest.raises(DeploymentError):
            registry.record_accuracy("r0", 9, 50.0)

    def test_fallback_restores_previous_good_version(self):
        registry = ModelRegistry()
        registry.deploy("r0", "pf", 1)
        registry.deploy("r0", "ssa", 2)
        restored = registry.fallback("r0")
        assert restored.version == 1
        assert restored.status is ModelStatus.ACTIVE
        assert registry.versions("r0")[1].status is ModelStatus.FAILED

    def test_fallback_without_prior_version_fails(self):
        registry = ModelRegistry()
        registry.deploy("r0", "pf", 1)
        with pytest.raises(DeploymentError):
            registry.fallback("r0")

    def test_fallback_without_any_deployment_fails(self):
        with pytest.raises(DeploymentError):
            ModelRegistry().fallback("r0")

    def test_mark_failed(self):
        registry = ModelRegistry()
        registry.deploy("r0", "pf", 1)
        failed = registry.mark_failed("r0", 1, notes="deployment error")
        assert failed.status is ModelStatus.FAILED
        assert registry.active("r0") is None

    def test_persistence_to_document_store(self):
        store = DocumentStore()
        registry = ModelRegistry(store, container="models")
        registry.deploy("r0", "pf", 1)
        assert store.count("models") == 1

    def test_regions(self):
        registry = ModelRegistry()
        registry.deploy("a", "pf", 1)
        registry.deploy("b", "pf", 1)
        assert registry.regions() == ["a", "b"]


class TestScoringEndpoint:
    def build_endpoint(self):
        history = diurnal_series(7)
        forecaster = PreviousDayForecaster().fit(history)
        return ScoringEndpoint("r0", "pf", 1, {"srv-0": forecaster})

    def test_predict_known_server(self):
        endpoint = self.build_endpoint()
        forecast = endpoint.predict("srv-0", 12)
        assert len(forecast) == 12
        assert endpoint.request_count == 1
        assert endpoint.failure_count == 0

    def test_predict_unknown_server_raises(self):
        endpoint = self.build_endpoint()
        with pytest.raises(EndpointError):
            endpoint.predict("ghost", 12)
        assert endpoint.failure_count == 1

    def test_predict_many_skips_unknown(self):
        endpoint = self.build_endpoint()
        result = endpoint.predict_many(["srv-0", "ghost"], 6)
        assert list(result.predictions) == ["srv-0"]
        assert result.skipped == ("ghost",)
        assert result.failed == {}
        assert not result.complete
        # Skipped servers were never scorable: no request/failure counted.
        assert endpoint.request_count == 1
        assert endpoint.failure_count == 0

    def test_predict_many_isolates_failures(self):
        history = diurnal_series(7)
        good = PreviousDayForecaster().fit(history)
        endpoint = ScoringEndpoint(
            "r0", "pf", 1, {"srv-bad": PreviousDayForecaster(), "srv-ok": good}
        )
        result = endpoint.predict_many(["srv-bad", "srv-ok"], 6)
        # The unfitted forecaster raises mid-batch; srv-ok is still scored.
        assert list(result.predictions) == ["srv-ok"]
        assert "srv-bad" in result.failed
        assert "NotFittedError" in result.failed["srv-bad"]
        assert endpoint.request_count == 2
        assert endpoint.failure_count == 1

    def test_predict_many_accepts_any_iterable(self):
        endpoint = self.build_endpoint()
        result = endpoint.predict_many(iter(["srv-0"]), 6)
        assert list(result.predictions) == ["srv-0"]
        assert result.complete

    def test_health_summary(self):
        endpoint = self.build_endpoint()
        health = endpoint.health()
        assert health["n_servers"] == 1
        assert health["region"] == "r0"

    def test_servers_and_can_score(self):
        endpoint = self.build_endpoint()
        assert endpoint.servers() == ["srv-0"]
        assert endpoint.can_score("srv-0")
        assert not endpoint.can_score("other")


class TestIncidentManager:
    def test_raise_and_query(self):
        manager = IncidentManager()
        manager.raise_incident(IncidentSeverity.WARNING, "validation", "odd data", region="r0")
        manager.raise_incident(IncidentSeverity.CRITICAL, "training", "boom", region="r1")
        assert len(manager.incidents()) == 2
        assert len(manager.incidents(severity=IncidentSeverity.CRITICAL)) == 1
        assert len(manager.incidents(region="r0")) == 1
        assert manager.has_critical()

    def test_acknowledge(self):
        manager = IncidentManager()
        incident = manager.raise_incident(IncidentSeverity.CRITICAL, "x", "y")
        manager.acknowledge(incident.incident_id)
        assert not manager.has_critical()
        assert manager.incidents(unacknowledged_only=True) == []

    def test_acknowledge_unknown_raises(self):
        with pytest.raises(KeyError):
            IncidentManager().acknowledge(42)

    def test_handlers_invoked(self):
        manager = IncidentManager()
        seen = []
        manager.add_handler(seen.append)
        manager.raise_incident(IncidentSeverity.INFO, "s", "m")
        assert len(seen) == 1

    def test_clear(self):
        manager = IncidentManager()
        manager.raise_incident(IncidentSeverity.INFO, "s", "m")
        manager.clear()
        assert manager.incidents() == []


class TestDashboard:
    def test_record_and_filter(self):
        dashboard = Dashboard()
        dashboard.record("run-1", "r0", "component_timing", {"component": "x", "seconds": 1.0})
        dashboard.record("run-1", "r0", "run_summary", {"succeeded": True})
        dashboard.record("run-2", "r1", "run_summary", {"succeeded": False})
        assert len(dashboard.events()) == 3
        assert len(dashboard.events(region="r0")) == 2
        assert dashboard.runs() == ["run-1", "run-2"]
        assert dashboard.latest_summary("r1") == {"succeeded": False}

    def test_latest_summary_missing_region(self):
        assert Dashboard().latest_summary("nowhere") is None

    def test_render_text(self):
        dashboard = Dashboard()
        dashboard.record("run-1", "r0", "component_timing", {"component": "x", "seconds": 0.5})
        dashboard.record("run-1", "r0", "run_summary", {"ok": True})
        text = dashboard.render_text()
        assert "run-1" in text and "x: 0.500s" in text


class TestPipelineScheduler:
    @pytest.fixture
    def lake_with_extracts(self, tmp_path):
        spec = default_fleet_spec(servers_per_region=(8,), weeks=4, seed=13)
        frame = WorkloadGenerator(spec).generate_region("region-0")
        lake = DataLakeStore(tmp_path)
        lake.write_extract(ExtractKey("region-0", 3), frame)
        return lake

    def test_run_week_executes_each_region_once(self, lake_with_extracts):
        pipeline = SeagullPipeline(PipelineConfig(), data_lake=lake_with_extracts)
        scheduler = PipelineScheduler(pipeline, ["region-0"])
        runs = scheduler.run_week(3)
        assert len(runs) == 1
        assert scheduler.has_run("region-0", 3)
        # Running the same week again is a no-op.
        assert scheduler.run_week(3) == []

    def test_advance_week_moves_clock(self, lake_with_extracts):
        pipeline = SeagullPipeline(PipelineConfig(), data_lake=lake_with_extracts)
        scheduler = PipelineScheduler(pipeline, ["region-0"])
        assert scheduler.current_week == 0
        scheduler.advance_week()
        assert scheduler.current_week == 1

    def test_missing_extract_raises_incident_not_exception(self, lake_with_extracts):
        pipeline = SeagullPipeline(PipelineConfig(), data_lake=lake_with_extracts)
        scheduler = PipelineScheduler(pipeline, ["region-0"])
        runs = scheduler.run_week(7)  # no extract for week 7
        assert len(runs) == 1
        assert not runs[0].result.succeeded
        assert pipeline.incidents.has_critical()

    def test_requires_regions(self, lake_with_extracts):
        pipeline = SeagullPipeline(PipelineConfig(), data_lake=lake_with_extracts)
        with pytest.raises(ValueError):
            PipelineScheduler(pipeline, [])
