"""The unified prediction-serving façade.

:class:`PredictionService` is the one serving surface of the repo: trained
per-server models are deployed *into* it (one
:class:`~repro.core.endpoints.ScoringEndpoint` per deployed version, an
internal transport detail), requests are routed through the
:class:`~repro.core.registry.ModelRegistry` to the region's ACTIVE version
-- which means routing automatically honours fallback-on-regression -- and
every answer passes through an LRU prediction cache keyed on
``(region, server, version, horizon, history fingerprint)``.

A batch answers its cache hits inline and scores the miss set in one
endpoint call.  The service aggregates request statistics, endpoint
health and cache counters per region for the dashboard.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections.abc import Iterable, Mapping

from repro.core.endpoints import ScoringEndpoint
from repro.core.registry import ModelRecord, ModelRegistry, ModelStatus
from repro.models.base import Forecaster
from repro.models.cached import PrecomputedForecaster
from repro.models.registry import UnknownModelError, canonical_name
from repro.serving.api import (
    BatchPredictionResponse,
    NoActiveVersionError,
    PredictionRequest,
    PredictionResponse,
    ServingError,
    ServingStats,
    VersionMismatchError,
)
from repro.serving.cache import PredictionCache, prediction_cache_key
from repro.timeseries.series import LoadSeries


def history_fingerprint(forecaster: Forecaster) -> str:
    """Hex digest of the data a fitted forecaster would answer from.

    Part of the prediction-cache key: retraining on different history (or
    replaying a different precomputed series) must produce a different
    fingerprint, so the cache can never serve a prediction computed from
    data the deployed model no longer represents.
    """
    if isinstance(forecaster, PrecomputedForecaster):
        series: LoadSeries | None = forecaster.prediction
    else:
        series = forecaster.history
    if series is None or series.is_empty:
        return "unfitted"
    digest = hashlib.sha256()
    digest.update(f"{series.interval_minutes}:".encode())
    digest.update(series.timestamps.tobytes())
    digest.update(series.values.tobytes())
    return digest.hexdigest()[:32]


class PredictionService:
    """Routes prediction requests to deployed model versions.

    Parameters
    ----------
    registry:
        Version tracker shared with whatever deploys models (the pipeline
        passes its own, so registry fallback immediately re-routes
        serving).  A fresh registry is created when omitted.
    cache:
        Prediction LRU cache; ``cache_capacity`` sizes a default one.
    """

    def __init__(
        self,
        registry: ModelRegistry | None = None,
        cache: PredictionCache | None = None,
        cache_capacity: int = 4096,
    ) -> None:
        self._registry = registry if registry is not None else ModelRegistry()
        self._cache = cache if cache is not None else PredictionCache(cache_capacity)
        self._endpoints: dict[tuple[str, int], ScoringEndpoint] = {}
        self._fingerprints: dict[tuple[str, int], dict[str, str]] = {}
        self._stats: dict[str, ServingStats] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Deployment
    # ------------------------------------------------------------------ #

    @property
    def registry(self) -> ModelRegistry:
        return self._registry

    @property
    def cache(self) -> PredictionCache:
        return self._cache

    def deploy(
        self,
        region: str,
        model_name: str,
        trained_week: int,
        forecasters: Mapping[str, Forecaster],
        notes: str = "",
    ) -> ModelRecord:
        """Register a new version for ``region`` and serve it.

        The registry makes the new version ACTIVE (retiring the previous
        one as the fallback candidate); the fitted forecasters go behind a
        fresh internal scoring endpoint.  Earlier versions keep their
        endpoints, so a later :meth:`ModelRegistry.fallback` re-routes
        serving without redeployment.
        """
        record = self._registry.deploy(
            region=region, model_name=model_name, trained_week=trained_week, notes=notes
        )
        self._attach(record, forecasters)
        return record

    def _attach(self, record: ModelRecord, forecasters: Mapping[str, Forecaster]) -> None:
        key = (record.region, record.version)
        endpoint = ScoringEndpoint(
            region=record.region,
            model_name=record.model_name,
            version=record.version,
            forecasters=forecasters,
        )
        fingerprints = {
            server_id: history_fingerprint(forecaster)
            for server_id, forecaster in forecasters.items()
        }
        with self._lock:
            self._endpoints[key] = endpoint
            self._fingerprints[key] = fingerprints

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #

    def resolve(
        self, region: str, model: str | None = None, version: int | None = None
    ) -> ModelRecord:
        """Resolve a request's pins to the model version that will serve it.

        No pins: the region's ACTIVE version (post-fallback).  A version
        pin must name a deployed, non-FAILED version; a model pin must
        match the resolved version's model (aliases accepted).
        """
        if version is not None:
            record = next(
                (r for r in self._registry.versions(region) if r.version == version), None
            )
            if record is None:
                raise VersionMismatchError(
                    f"region {region!r} has no deployed version {version}"
                )
            if record.status is ModelStatus.FAILED:
                raise VersionMismatchError(
                    f"version {version} in region {region!r} is marked failed"
                )
        else:
            record = self._registry.active(region)
            if record is None:
                raise NoActiveVersionError(
                    f"region {region!r} has no active model version to serve from"
                )
        if model is not None and not self._model_matches(model, record.model_name):
            raise VersionMismatchError(
                f"version {record.version} in region {region!r} serves "
                f"{record.model_name!r}, not {model!r}"
            )
        return record

    @staticmethod
    def _model_matches(requested: str, deployed: str) -> bool:
        try:
            return canonical_name(requested) == canonical_name(deployed)
        except UnknownModelError:
            return requested == deployed

    def _endpoint_for(self, record: ModelRecord) -> ScoringEndpoint:
        endpoint = self._endpoints.get((record.region, record.version))
        if endpoint is None:
            raise ServingError(
                f"version {record.version} in region {record.region!r} was registered "
                "without being deployed into the serving layer"
            )
        return endpoint

    def servers(self, region: str) -> list[str]:
        """Server ids servable by a region's active version."""
        return self._endpoint_for(self.resolve(region)).servers()

    def regions(self) -> list[str]:
        """Regions with at least one deployed version."""
        return self._registry.regions()

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #

    def predict(self, request: PredictionRequest) -> PredictionResponse:
        """Serve one prediction request."""
        started = time.perf_counter()
        record = self.resolve(request.region, model=request.model, version=request.version)
        endpoint = self._endpoint_for(record)
        stats = self._region_stats(request.region)
        stats.requests += 1
        key = self._cache_key(record, request.server_id, request.n_points)

        series: LoadSeries | None = None
        cache_hit = False
        if request.use_cache:
            series = self._cache.get(key)
            cache_hit = series is not None
        if series is None:
            try:
                series = endpoint.predict(request.server_id, request.n_points)
            except Exception as exc:
                stats.failures += 1
                raise ServingError(
                    f"prediction for {request.server_id!r} via {request.region} "
                    f"v{record.version} failed: {exc}"
                ) from exc
            if request.use_cache:
                self._cache.put(key, series)
        latency = time.perf_counter() - started
        stats.served += 1
        stats.cache_hits += 1 if cache_hit else 0
        stats.latency_seconds += latency
        stats.by_version[record.version] = stats.by_version.get(record.version, 0) + 1
        return PredictionResponse(
            request=request,
            series=series,
            served_by_model=record.model_name,
            served_by_version=record.version,
            latency_seconds=latency,
            cache_hit=cache_hit,
        )

    def predict_batch(
        self,
        region: str,
        n_points: int,
        server_ids: Iterable[str] | None = None,
        use_cache: bool = True,
    ) -> BatchPredictionResponse:
        """Answer one horizon query for a region's servers.

        ``server_ids`` defaults to every server the active version can
        score.  The version is resolved once for the whole batch; cache
        hits are answered inline and only the miss set is scored.
        Per-server failures are isolated into ``failed``.
        """
        started = time.perf_counter()
        record = self.resolve(region)
        endpoint = self._endpoint_for(record)
        servers = list(server_ids) if server_ids is not None else endpoint.servers()
        stats = self._region_stats(region)
        stats.requests += len(servers)
        stats.batches += 1

        responses: list[PredictionResponse] = []
        misses: list[str] = []
        for server_id in servers:
            series = (
                self._cache.get(self._cache_key(record, server_id, n_points))
                if use_cache
                else None
            )
            if series is None:
                misses.append(server_id)
                continue
            responses.append(
                self._response(
                    record, server_id, n_points, series, cache_hit=True, latency=0.0,
                    use_cache=use_cache,
                )
            )

        skipped: list[str] = []
        failed: list[tuple[str, str]] = []
        if misses:
            scoring_started = time.perf_counter()
            scored = endpoint.predict_many(misses, n_points)
            share = (time.perf_counter() - scoring_started) / max(1, len(scored.predictions))
            skipped.extend(scored.skipped)
            failed.extend(sorted(scored.failed.items()))
            for server_id, series in scored.predictions.items():
                if use_cache:
                    self._cache.put(self._cache_key(record, server_id, n_points), series)
                responses.append(
                    self._response(
                        record, server_id, n_points, series, cache_hit=False,
                        latency=share, use_cache=use_cache,
                    )
                )

        latency = time.perf_counter() - started
        stats.served += len(responses)
        stats.skipped += len(skipped)
        stats.failures += len(failed)
        stats.cache_hits += sum(1 for r in responses if r.cache_hit)
        stats.latency_seconds += latency
        stats.by_version[record.version] = (
            stats.by_version.get(record.version, 0) + len(responses)
        )
        order = {server_id: index for index, server_id in enumerate(servers)}
        responses.sort(key=lambda r: order[r.server_id])
        return BatchPredictionResponse(
            region=region,
            served_by_model=record.model_name,
            served_by_version=record.version,
            responses=tuple(responses),
            skipped=tuple(skipped),
            failed=tuple(failed),
            latency_seconds=latency,
        )

    def _response(
        self,
        record: ModelRecord,
        server_id: str,
        n_points: int,
        series: LoadSeries,
        cache_hit: bool,
        latency: float,
        use_cache: bool,
    ) -> PredictionResponse:
        request = PredictionRequest(
            region=record.region,
            server_id=server_id,
            n_points=n_points,
            use_cache=use_cache,
        )
        return PredictionResponse(
            request=request,
            series=series,
            served_by_model=record.model_name,
            served_by_version=record.version,
            latency_seconds=latency,
            cache_hit=cache_hit,
        )

    def _cache_key(
        self, record: ModelRecord, server_id: str, n_points: int
    ) -> tuple[str, str, int, int, str]:
        fingerprints = self._fingerprints.get((record.region, record.version), {})
        return prediction_cache_key(
            record.region,
            server_id,
            record.version,
            n_points,
            fingerprints.get(server_id, "unknown"),
        )

    def _region_stats(self, region: str) -> ServingStats:
        with self._lock:
            return self._stats.setdefault(region, ServingStats())

    # ------------------------------------------------------------------ #
    # Health
    # ------------------------------------------------------------------ #

    def health(self, region: str | None = None) -> dict[str, object]:
        """Serving health: routing state, endpoint stats, cache counters.

        With ``region``, one region's summary (including whether routing
        has flipped to a fallback version); without, a fleet-wide view
        keyed by region plus the shared cache stats.
        """
        if region is not None:
            return self._region_health(region)
        return {
            "regions": {r: self._region_health(r) for r in self.regions()},
            "cache": self._cache.stats.as_dict(),
        }

    def _region_health(self, region: str) -> dict[str, object]:
        versions = self._registry.versions(region)
        active = self._registry.active(region)
        latest = versions[-1].version if versions else None
        endpoint_stats = {
            "requests": 0,
            "failures": 0,
            "n_servers": 0,
        }
        for record in versions:
            endpoint = self._endpoints.get((region, record.version))
            if endpoint is None:
                continue
            endpoint_stats["requests"] += endpoint.request_count
            endpoint_stats["failures"] += endpoint.failure_count
            if active is not None and record.version == active.version:
                endpoint_stats["n_servers"] = len(endpoint.servers())
        stats = self._stats.get(region, ServingStats())
        return {
            "region": region,
            "active_version": active.version if active is not None else None,
            "active_model": active.model_name if active is not None else None,
            "n_versions": len(versions),
            "fell_back": active is not None and latest is not None
            and active.version != latest,
            "failed_versions": [
                r.version for r in versions if r.status is ModelStatus.FAILED
            ],
            "endpoint": endpoint_stats,
            "stats": stats.as_dict(),
            "cache": self._cache.stats.as_dict(),
        }
