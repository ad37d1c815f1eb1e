"""Unit tests for core services: config, stage cache, model registry and
incidents."""

import dataclasses
import json

import pytest

from repro.core import stage_cache
from repro.core.config import PipelineConfig
from repro.core.incidents import IncidentManager, IncidentSeverity
from repro.core.pipeline import SeagullPipeline
from repro.core.registry import DeploymentError, ModelRegistry, ModelStatus
from repro.metrics.bucket_ratio import ErrorBound
from repro.metrics.predictable import ServerDayEvaluation
from repro.parallel.executor import ExecutionBackend
from repro.storage.query import ExtractQuery
from repro.telemetry.fleet import default_fleet_spec
from repro.telemetry.generator import WorkloadGenerator

from tests.helpers import diurnal_series

#: A valid value other than the default for every PipelineConfig field.
OTHER_VALUES = {
    "model_name": "ssa", "interval_minutes": 15, "training_days": 14, "horizon_days": 2,
    "history_weeks": 4, "error_bound": ErrorBound(over_tolerance=20.0),
    "accuracy_threshold": 0.5, "min_history_days": 4, "n_workers": 2,
    "executor_backend": ExecutionBackend.THREADS, "fallback_on_regression": False,
    "fallback_threshold_pct": 50.0,
}

#: PipelineConfig fields that change no stage output, and why.
NON_STAGE_FIELDS = {
    "n_workers": "how many workers run the stages, not what they compute",
    "executor_backend": "where the stages run, not what they compute",
    "fallback_on_regression": "acts on the registry after the model stage has run",
    "fallback_threshold_pct": "the accuracy drop that fallback acts on",
}


class TestPipelineConfig:
    def test_defaults_match_paper(self):
        config = PipelineConfig()
        assert config.model_name == "persistent_previous_day"
        assert config.training_days == 7
        assert config.history_weeks == 3
        assert config.error_bound.over_tolerance == 10.0
        assert config.accuracy_threshold == pytest.approx(0.90)

    def test_validation_of_bad_values(self):
        with pytest.raises(ValueError):
            PipelineConfig(training_days=0)
        with pytest.raises(ValueError):
            PipelineConfig(horizon_days=0)
        with pytest.raises(ValueError):
            PipelineConfig(accuracy_threshold=1.5)
        with pytest.raises(ValueError):
            PipelineConfig(min_history_days=0)

    def test_as_dict(self):
        payload = PipelineConfig().as_dict()
        assert payload["model_name"] == "persistent_previous_day"
        assert payload["over_tolerance"] == 10.0

    def test_every_field_reaches_as_dict(self):
        # as_dict() minus the orchestrator's execution-only fields is the
        # unit-outcome cache key, so a field left out of it would change
        # results without changing the key.  A new field fails here until
        # it is classified.
        from repro.fleet_ops.orchestrator import _EXECUTION_ONLY_FIELDS

        renamed = {"error_bound": ("over_tolerance", "under_tolerance")}
        expected = {
            key
            for field in dataclasses.fields(PipelineConfig)
            for key in renamed.get(field.name, (field.name,))
        }
        assert set(PipelineConfig().as_dict()) == expected
        assert set(_EXECUTION_ONLY_FIELDS) <= expected

    @pytest.mark.parametrize("name", [field.name for field in dataclasses.fields(PipelineConfig)])
    def test_field_changes_unit_key_unless_execution_only(self, name):
        from repro.fleet_ops.orchestrator import _EXECUTION_ONLY_FIELDS, _unit_cache_params
        from repro.fleet_ops.orchestrator import _UnitTask

        def unit_key(config):
            return _unit_cache_params(_UnitTask("r0", 0, config, "", ExtractQuery(), 0))

        base = PipelineConfig()
        changed = dataclasses.replace(base, **{name: OTHER_VALUES[name]})
        assert changed.as_dict() != base.as_dict()
        assert (unit_key(changed) == unit_key(base)) == (name in _EXECUTION_ONLY_FIELDS)
        # Every field feeds the stage key or is named as changing no stage
        # output; a new field fails here until it is classified.
        stage_key_changes = stage_cache.model_params(changed) != stage_cache.model_params(base)
        assert stage_key_changes != (name in NON_STAGE_FIELDS)

    @pytest.mark.parametrize(
        "bad", [{"history_weeks": 0}, {"accuracy_threshold": 0.0}, {"training_days": -1}]
    )
    def test_rejects_value_out_of_range(self, bad):
        with pytest.raises(ValueError):
            PipelineConfig(**bad)

    def test_accepts_range_bounds(self):
        bounds = dict(training_days=1, horizon_days=1, history_weeks=1, min_history_days=1)
        assert PipelineConfig(accuracy_threshold=1.0, **bounds).accuracy_threshold == 1.0


def stage_outputs(frame, config: PipelineConfig) -> str:
    """The ``features`` and ``model`` stage outputs of one run, as JSON (a
    ratio no day could be judged on is NaN, which equals nothing)."""
    with SeagullPipeline(config) as pipeline:
        result = pipeline.run(frame, region="region-0", week=3)
    assert result.succeeded
    outputs = (
        stage_cache.encode_features(result.features),
        stage_cache.encode_model(result.backup_days, result.predictions, result.evaluations),
    )
    return json.dumps(outputs, sort_keys=True)


class TestNonStageFieldsChangeNoStageOutput:
    @pytest.fixture(scope="class")
    def unit(self):
        spec = default_fleet_spec(servers_per_region=(6,), weeks=4, seed=3)
        return WorkloadGenerator(spec).generate_region("region-0")

    @pytest.fixture(scope="class")
    def default_outputs(self, unit):
        return stage_outputs(unit, PipelineConfig())

    @pytest.mark.parametrize("name", sorted(NON_STAGE_FIELDS))
    def test_stage_outputs_equal_the_default_runs(self, name, unit, default_outputs):
        config = dataclasses.replace(PipelineConfig(), **{name: OTHER_VALUES[name]})
        assert stage_outputs(unit, config) == default_outputs


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

    def test_regions(self):
        registry = ModelRegistry()
        registry.deploy("a", "pf", 1)
        registry.deploy("b", "pf", 1)
        assert registry.regions() == ["a", "b"]

    def test_active_in_unknown_region_is_none(self):
        assert ModelRegistry().active("r0") is None
        assert ModelRegistry().versions("r0") == []

    def test_versions_returns_a_copy(self):
        registry = ModelRegistry()
        registry.deploy("r0", "pf", 1)
        registry.versions("r0").clear()
        assert len(registry.versions("r0")) == 1

    def test_versions_are_numbered_per_region(self):
        registry = ModelRegistry()
        registry.deploy("a", "pf", 1)
        registry.deploy("a", "pf", 2)
        assert registry.deploy("b", "pf", 2).version == 1
        assert registry.active("a").version == 2

    def test_fallback_skips_failed_versions(self):
        registry = ModelRegistry()
        for week in (1, 2, 3):
            registry.deploy("r0", "pf", week)
        assert registry.fallback("r0").version == 2
        assert registry.fallback("r0").version == 1
        statuses = [record.status for record in registry.versions("r0")]
        assert statuses == [ModelStatus.ACTIVE, ModelStatus.FAILED, ModelStatus.FAILED]

    def test_deploy_after_fallback_retires_restored_version(self):
        registry = ModelRegistry()
        registry.deploy("r0", "pf", 1)
        registry.deploy("r0", "ssa", 2)
        registry.fallback("r0")
        third = registry.deploy("r0", "ssa", 3)
        assert third.version == 3
        assert registry.versions("r0")[0].status is ModelStatus.RETIRED
        # Version 2 failed once, so a second fallback goes back to version 1.
        assert registry.fallback("r0").version == 1

    def test_fallback_leaves_other_regions_alone(self):
        registry = ModelRegistry()
        for region in ("a", "b"):
            registry.deploy(region, "pf", 1)
            registry.deploy(region, "ssa", 2)
        registry.fallback("a")
        assert registry.active("b").version == 2
        assert all(r.status is not ModelStatus.FAILED for r in registry.versions("b"))

    def test_record_accuracy_keeps_status(self):
        registry = ModelRegistry()
        registry.deploy("r0", "pf", 1)
        registry.deploy("r0", "ssa", 2)
        updated = registry.record_accuracy("r0", 1, 88.0)
        assert updated.status is ModelStatus.RETIRED
        assert registry.versions("r0")[0] == updated

    def test_record_accuracy_in_other_region_raises(self):
        registry = ModelRegistry()
        registry.deploy("a", "pf", 1)
        with pytest.raises(DeploymentError, match="region 'b'"):
            registry.record_accuracy("b", 1, 50.0)


def test_model_stage_payload_round_trips_through_json():
    # Off the day grid: the payload keeps explicit timestamps.
    series = diurnal_series(2, interval=15).slice(35, 2000)
    evaluation = ServerDayEvaluation("srv-0", 1, True, False, 0.9, 0.8, 120, 135, 40.5, 41.0)
    encoded = stage_cache.encode_model({"srv-0": 1}, {"srv-0": series}, [evaluation])
    payload = json.loads(json.dumps(encoded))
    backup_days, predictions, evaluations = stage_cache.decode_model(payload)
    assert backup_days == {"srv-0": 1}
    assert predictions["srv-0"] == series
    assert predictions["srv-0"].interval_minutes == 15
    assert evaluations == [evaluation]


class TestIncidentManager:
    def test_raise_and_query(self):
        manager = IncidentManager()
        manager.raise_incident(IncidentSeverity.WARNING, "validation", "odd data", region="r0")
        manager.raise_incident(IncidentSeverity.CRITICAL, "training", "boom", region="r1")
        first, second = manager.incidents()
        assert (first.severity, first.region) == (IncidentSeverity.WARNING, "r0")
        assert (second.severity, second.region) == (IncidentSeverity.CRITICAL, "r1")
        assert manager.has_critical()

    def test_acknowledge(self):
        manager = IncidentManager()
        incident = manager.raise_incident(IncidentSeverity.CRITICAL, "x", "y")
        manager.acknowledge(incident.incident_id)
        assert not manager.has_critical()
        assert [i.acknowledged for i in manager.incidents()] == [True]

    def test_acknowledge_unknown_raises(self):
        with pytest.raises(KeyError):
            IncidentManager().acknowledge(42)

    def test_handlers_invoked(self):
        manager = IncidentManager()
        seen = []
        manager.add_handler(seen.append)
        manager.raise_incident(IncidentSeverity.INFO, "s", "m")
        assert len(seen) == 1

    def test_incident_as_dict_is_plain_json(self):
        manager = IncidentManager()
        incident = manager.raise_incident(
            IncidentSeverity.CRITICAL, "training", "boom", region="r1"
        )
        payload = incident.as_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert (payload["severity"], payload["region"]) == ("critical", "r1")
        assert payload["acknowledged"] is False

    def test_clear(self):
        manager = IncidentManager()
        manager.raise_incident(IncidentSeverity.INFO, "s", "m")
        manager.clear()
        assert manager.incidents() == []
