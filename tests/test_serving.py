"""Tests for the unified prediction-serving API (repro.serving)."""

import json

import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import SeagullPipeline
from repro.models.cached import PrecomputedForecaster
from repro.models.persistent import PreviousDayForecaster
from repro.serving import (
    NoActiveVersionError,
    PredictionCache,
    PredictionRequest,
    PredictionService,
    ServingError,
    VersionMismatchError,
)
from repro.telemetry.fleet import default_fleet_spec
from repro.telemetry.generator import WorkloadGenerator

from tests.helpers import diurnal_series


def fitted_forecaster(seed=0, days=7):
    return PreviousDayForecaster().fit(diurnal_series(days, noise=0.3, seed=seed))


def service_with_version(region="r0", servers=("srv-0", "srv-1")):
    service = PredictionService()
    forecasters = {sid: fitted_forecaster(seed=i) for i, sid in enumerate(servers)}
    service.deploy(region, "persistent_previous_day", trained_week=1, forecasters=forecasters)
    return service


class TestRequestValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            PredictionRequest(region="", server_id="s", n_points=1)
        with pytest.raises(ValueError):
            PredictionRequest(region="r", server_id="", n_points=1)
        with pytest.raises(ValueError):
            PredictionRequest(region="r", server_id="s", n_points=0)
        with pytest.raises(ValueError):
            PredictionRequest(region="r", server_id="s", n_points=1, version=0)


class TestPredict:
    def test_predict_routes_to_active_version(self):
        service = service_with_version()
        response = service.predict(PredictionRequest(region="r0", server_id="srv-0", n_points=12))
        assert len(response.series) == 12
        assert response.served_by_version == 1
        assert response.served_by_model == "persistent_previous_day"
        assert not response.cache_hit
        assert response.latency_seconds >= 0.0

    def test_response_as_dict_is_plain_json_without_the_series(self):
        service = service_with_version()
        response = service.predict(PredictionRequest(region="r0", server_id="srv-0", n_points=12))
        payload = response.as_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert (payload["region"], payload["server_id"], payload["n_points"]) == ("r0", "srv-0", 12)
        assert payload["served_by_version"] == 1 and "series" not in payload

    def test_predict_cache_hit_on_repeat(self):
        service = service_with_version()
        request = PredictionRequest(region="r0", server_id="srv-0", n_points=12)
        first = service.predict(request)
        second = service.predict(request)
        assert not first.cache_hit
        assert second.cache_hit
        assert second.series == first.series

    def test_use_cache_false_bypasses(self):
        service = service_with_version()
        request = PredictionRequest(region="r0", server_id="srv-0", n_points=12, use_cache=False)
        service.predict(request)
        assert not service.predict(request).cache_hit
        stats = service.cache.stats
        assert (stats.hits, stats.misses, stats.size) == (0, 0, 0)

    def test_no_active_version_raises(self):
        with pytest.raises(NoActiveVersionError):
            PredictionService().predict(
                PredictionRequest(region="nowhere", server_id="s", n_points=1)
            )

    def test_unknown_server_raises_serving_error(self):
        service = service_with_version()
        with pytest.raises(ServingError, match="no model for 'ghost'"):
            service.predict(PredictionRequest(region="r0", server_id="ghost", n_points=1))
        stats = service.health("r0")["stats"]
        assert (stats["requests"], stats["served"], stats["failures"]) == (1, 0, 1)

    def test_model_error_raises_serving_error_and_counts_a_failure(self):
        service = PredictionService()
        service.deploy("r0", "pf", 1, {"srv-0": PreviousDayForecaster()})  # unfitted
        with pytest.raises(ServingError, match="r0 v1 failed"):
            service.predict(PredictionRequest(region="r0", server_id="srv-0", n_points=6))
        assert service.health("r0")["stats"]["failures"] == 1
        assert len(service.cache) == 0

    def test_registered_but_undeployed_version_raises_serving_error(self):
        service = PredictionService()
        service.registry.deploy("r0", "pf", trained_week=1)
        with pytest.raises(ServingError, match="without being deployed"):
            service.predict(PredictionRequest(region="r0", server_id="srv-0", n_points=6))

    def test_version_pin(self):
        service = service_with_version()
        service.deploy("r0", "ssa", 2, {"srv-0": fitted_forecaster(seed=9)})
        pinned = service.predict(
            PredictionRequest(region="r0", server_id="srv-0", n_points=6, version=1)
        )
        assert pinned.served_by_version == 1
        active = service.predict(PredictionRequest(region="r0", server_id="srv-0", n_points=6))
        assert active.served_by_version == 2

    def test_unknown_version_pin_raises(self):
        service = service_with_version()
        with pytest.raises(VersionMismatchError):
            service.predict(
                PredictionRequest(region="r0", server_id="srv-0", n_points=6, version=9)
            )

    def test_model_pin_accepts_aliases(self):
        service = service_with_version()
        response = service.predict(
            PredictionRequest(region="r0", server_id="srv-0", n_points=6, model="pf")
        )
        assert response.served_by_model == "persistent_previous_day"
        with pytest.raises(VersionMismatchError):
            service.predict(
                PredictionRequest(region="r0", server_id="srv-0", n_points=6, model="ssa")
            )


class TestPredictBatch:
    def test_batch_serves_all_servers(self):
        service = service_with_version()
        batch = service.predict_batch(region="r0", n_points=12)
        assert batch.n_served == 2
        assert sorted(batch.predictions()) == ["srv-0", "srv-1"]
        assert batch.skipped == ()
        assert batch.failed == ()

    def test_batch_isolates_skips_and_failures(self):
        service = PredictionService()
        service.deploy(
            "r0",
            "pf",
            1,
            {"good": fitted_forecaster(), "bad": PreviousDayForecaster()},  # bad: unfitted
        )
        batch = service.predict_batch(
            region="r0", n_points=6, server_ids=["good", "bad", "ghost"]
        )
        assert list(batch.predictions()) == ["good"]
        assert batch.skipped == ("ghost",)
        assert [server_id for server_id, _ in batch.failed] == ["bad"]

    def test_batch_cache_hits_counted(self):
        service = service_with_version()
        cold = service.predict_batch(region="r0", n_points=12)
        warm = service.predict_batch(region="r0", n_points=12)
        assert cold.cache_hits == 0
        assert warm.cache_hits == 2
        assert warm.predictions() == cold.predictions()

    def test_concurrent_requests_keep_exact_cache_counts(self):
        from concurrent.futures import ThreadPoolExecutor

        servers = tuple(f"srv-{i}" for i in range(4))
        service = service_with_version(servers=servers)
        rounds = 50

        def hammer(server_id):
            for _ in range(rounds):
                service.predict(PredictionRequest(region="r0", server_id=server_id, n_points=6))

        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(hammer, servers))
        # Cache bookkeeping is lock-protected: no lost updates when one
        # service is called from several threads.
        stats = service.cache.stats
        assert stats.hits + stats.misses == 4 * rounds
        assert stats.misses == stats.size == 4

    def test_batch_accepts_any_iterable(self):
        service = service_with_version()
        batch = service.predict_batch(region="r0", n_points=6, server_ids=iter(["srv-1"]))
        assert list(batch.predictions()) == ["srv-1"]

    def test_batch_failure_names_the_error_and_is_counted(self):
        service = PredictionService()
        service.deploy("r0", "pf", 1, {"bad": PreviousDayForecaster(), "ok": fitted_forecaster()})
        batch = service.predict_batch(region="r0", n_points=6, server_ids=["bad", "ok", "ghost"])
        ((server_id, message),) = batch.failed
        assert server_id == "bad" and message.startswith("NotFittedError")
        stats = service.health("r0")["stats"]
        # A skipped server was never scorable: it is no failure.
        assert (stats["requests"], stats["served"]) == (3, 1)
        assert (stats["skipped"], stats["failures"]) == (1, 1)

    def test_failed_and_skipped_servers_are_not_cached(self):
        service = PredictionService()
        service.deploy("r0", "pf", 1, {"bad": PreviousDayForecaster(), "ok": fitted_forecaster()})
        for _ in range(2):
            batch = service.predict_batch(region="r0", n_points=6, server_ids=["bad", "ghost"])
            assert batch.skipped == ("ghost",) and len(batch.failed) == 1
        assert len(service.cache) == 0

    def test_batch_preserves_request_order(self):
        service = service_with_version()
        service.predict(PredictionRequest(region="r0", server_id="srv-1", n_points=12))
        batch = service.predict_batch(region="r0", n_points=12, server_ids=["srv-1", "srv-0"])
        assert [r.server_id for r in batch.responses] == ["srv-1", "srv-0"]


class TestFallbackRouting:
    """Registry fallback must re-route serving and show up in health()."""

    def test_fallback_routes_to_previous_known_good_version(self):
        service = PredictionService()
        v1_forecaster = fitted_forecaster(seed=1)
        service.deploy("r0", "pf", 1, {"srv-0": v1_forecaster})
        v1_series = service.predict(
            PredictionRequest(region="r0", server_id="srv-0", n_points=12)
        ).series
        service.deploy("r0", "pf", 2, {"srv-0": fitted_forecaster(seed=2, days=8)})
        v2 = service.predict(PredictionRequest(region="r0", server_id="srv-0", n_points=12))
        assert v2.served_by_version == 2
        assert not service.health("r0")["fell_back"]

        service.registry.fallback("r0")
        restored = service.predict(
            PredictionRequest(region="r0", server_id="srv-0", n_points=12)
        )
        assert restored.served_by_version == 1
        assert restored.series == v1_series

    def test_health_reports_the_flip(self):
        service = PredictionService()
        service.deploy("r0", "pf", 1, {"srv-0": fitted_forecaster(seed=1)})
        service.deploy("r0", "pf", 2, {"srv-0": fitted_forecaster(seed=2)})
        service.registry.fallback("r0")
        health = service.health("r0")
        assert health["fell_back"] is True
        assert health["active_version"] == 1
        assert health["failed_versions"] == [2]
        overall = service.health()
        assert overall["regions"]["r0"]["fell_back"] is True

    def test_regressed_pipeline_deployment_serves_known_good_version(self):
        """End to end: a pipeline run whose accuracy regresses falls back,
        and the serving layer immediately routes to the prior version."""
        spec = default_fleet_spec(servers_per_region=(10,), weeks=4, seed=5)
        frame = WorkloadGenerator(spec).generate_region("region-0")
        config = PipelineConfig(fallback_threshold_pct=100.1)
        pipeline = SeagullPipeline(config)
        first = pipeline.run(frame, region="region-0", week=2)
        second = pipeline.run(frame, region="region-0", week=3)
        assert second.fell_back
        server_id = next(iter(first.predictions))
        response = pipeline.serving.predict(
            PredictionRequest(region="region-0", server_id=server_id, n_points=288)
        )
        assert response.served_by_version == first.model_record.version
        health = pipeline.serving.health("region-0")
        assert health["fell_back"] is True
        assert health["active_version"] == first.model_record.version


class TestPredictionCache:
    def test_lru_eviction(self):
        cache = PredictionCache(capacity=2)
        series = diurnal_series(1)
        k1 = ("r", "a", 1, 4)
        k2 = ("r", "b", 1, 4)
        k3 = ("r", "c", 1, 4)
        cache.put(k1, series)
        cache.put(k2, series)
        assert cache.get(k1) is not None  # refresh k1; k2 becomes LRU
        cache.put(k3, series)
        assert cache.get(k2) is None
        assert cache.get(k1) is not None
        assert cache.stats.evictions == 1

    def test_stats_counters(self):
        cache = PredictionCache(capacity=4)
        key = ("r", "a", 1, 4)
        assert cache.get(key) is None
        cache.put(key, diurnal_series(1))
        assert cache.get(key) is not None
        stats = cache.stats
        assert stats.hits == 1 and stats.misses == 1 and stats.size == 1
        assert 0.0 < stats.hit_rate < 1.0

    def test_clear_drops_entries_but_keeps_counters(self):
        cache = PredictionCache(capacity=4)
        key = ("r", "a", 1, 4)
        cache.put(key, diurnal_series(1))
        assert cache.get(key) is not None
        cache.clear()
        assert len(cache) == 0
        assert cache.get(key) is None
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)

    def test_len_counts_distinct_keys_up_to_capacity(self):
        cache = PredictionCache(capacity=2)
        for server in ("a", "a", "b", "c"):
            cache.put(("r", server, 1, 4), diurnal_series(1))
        assert len(cache) == cache.capacity == 2
        assert cache.stats.evictions == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            PredictionCache(capacity=0)

    def test_service_owns_one_cache_of_4096_entries(self):
        assert PredictionService().cache.capacity == 4096
        assert PredictionService().cache is not PredictionService().cache

    def test_new_version_never_hits_an_older_versions_entry(self):
        """The same forecaster deployed again is a new version: its first
        answer is computed, while the old version keeps its own entry."""
        forecaster = fitted_forecaster(seed=1)
        service = PredictionService()
        service.deploy("r0", "pf", 1, {"srv-0": forecaster})
        request = PredictionRequest(region="r0", server_id="srv-0", n_points=6)
        service.predict(request)
        service.deploy("r0", "pf", 2, {"srv-0": forecaster})
        fresh = service.predict(request)
        assert (fresh.served_by_version, fresh.cache_hit) == (2, False)
        pinned = service.predict(
            PredictionRequest(region="r0", server_id="srv-0", n_points=6, version=1)
        )
        assert (pinned.served_by_version, pinned.cache_hit) == (1, True)

    def test_deploy_copies_the_forecaster_mapping(self):
        forecasters = {"srv-0": fitted_forecaster()}
        service = PredictionService()
        service.deploy("r0", "pf", 1, forecasters)
        forecasters["srv-1"] = fitted_forecaster(seed=1)
        assert service.servers("r0") == ["srv-0"]

    def test_retraining_changes_cache_key(self):
        """Same region/server/horizon but new history must miss the cache."""
        service = PredictionService()
        service.deploy("r0", "pf", 1, {"srv-0": fitted_forecaster(seed=1)})
        first = service.predict(PredictionRequest(region="r0", server_id="srv-0", n_points=6))
        service.deploy("r0", "pf", 2, {"srv-0": fitted_forecaster(seed=3, days=9)})
        second = service.predict(PredictionRequest(region="r0", server_id="srv-0", n_points=6))
        assert not second.cache_hit
        assert second.served_by_version == 2
        assert first.series != second.series


class TestDeployPrecomputed:
    def test_precomputed_round_trip(self):
        prediction = diurnal_series(1)
        service = PredictionService()
        record = service.deploy("r0", "pf", 0, {"srv-0": PrecomputedForecaster(prediction, "pf")})
        assert record.version == 1
        response = service.predict(
            PredictionRequest(region="r0", server_id="srv-0", n_points=len(prediction))
        )
        assert response.series == prediction

    def test_servers_listing(self):
        service = service_with_version()
        assert service.servers("r0") == ["srv-0", "srv-1"]
        assert service.regions() == ["r0"]


class TestHealthPublishing:
    def test_pipeline_deploys_into_its_services_registry(self):
        pipeline = SeagullPipeline(PipelineConfig())
        registry = pipeline.registry
        assert pipeline.serving.registry is registry
        spec = default_fleet_spec(servers_per_region=(6,), weeks=4, seed=3)
        frame = WorkloadGenerator(spec).generate_region("region-0")
        result = pipeline.run(frame, region="region-0", week=3)
        assert result.succeeded
        assert registry.active("region-0") == result.model_record

    def test_pipeline_run_reports_serving_health(self):
        spec = default_fleet_spec(servers_per_region=(8,), weeks=4, seed=7)
        frame = WorkloadGenerator(spec).generate_region("region-0")
        pipeline = SeagullPipeline(PipelineConfig())
        result = pipeline.run(frame, region="region-0", week=3)
        assert result.succeeded
        health = pipeline.serving.health("region-0")
        assert health["active_version"] == result.model_record.version
        assert health["n_servers"] == len(result.predictions) > 0
        assert health["stats"]["served"] == result.serving.n_served

    def test_health_counts_the_active_versions_servers(self):
        service = service_with_version(servers=("srv-0", "srv-1"))
        service.deploy("r0", "pf", 2, {"srv-0": fitted_forecaster()})
        assert service.health("r0")["n_servers"] == 1
        service.registry.fallback("r0")
        health = service.health("r0")
        assert health["n_servers"] == 2
        assert "endpoint" not in health
        assert service.health("nowhere")["n_servers"] == 0
