"""The unified prediction-serving façade.

:class:`PredictionService` is the one serving surface of the repo: trained
per-server models are deployed *into* it -- each deployment is one
immutable version, the fitted forecasters keyed by server id and held
under ``(region, version)`` -- and requests are routed through the
service's :class:`~repro.core.registry.ModelRegistry` to the region's
ACTIVE version, which means routing automatically honours
fallback-on-regression.  Every answer passes through an LRU prediction
cache keyed on ``(region, server, version, horizon)``: a version is never
changed after deployment, so those four fields name the prediction.

A batch answers its cache hits inline and scores the miss set with
per-server isolation: servers the version has no model for are skipped,
a model that raises is recorded as failed, and the rest are served.  The
service keeps request statistics and cache counters per region.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Iterable, Mapping

from repro.core.registry import ModelRecord, ModelRegistry, ModelStatus
from repro.models.base import Forecaster
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
from repro.serving.cache import CacheKey, PredictionCache
from repro.timeseries.series import LoadSeries

#: Entries of the service's prediction cache.
CACHE_CAPACITY = 4096


class PredictionService:
    """Routes prediction requests to deployed model versions.

    The service owns its version tracker (:attr:`registry`; a registry
    fallback immediately re-routes serving) and one
    :data:`CACHE_CAPACITY`-entry prediction cache (:attr:`cache`).
    """

    def __init__(self) -> None:
        self._registry = ModelRegistry()
        self._cache = PredictionCache(CACHE_CAPACITY)
        #: ``(region, version)`` -> that version's fitted forecasters by server.
        self._versions: dict[tuple[str, int], dict[str, Forecaster]] = {}
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
        one as the fallback candidate) and the fitted forecasters are held
        under it.  Earlier versions keep theirs, so a later
        :meth:`ModelRegistry.fallback` re-routes serving without
        redeployment.  Callers deploy fresh forecasters and never refit a
        deployed one: the cache key trusts a version not to change.
        """
        record = self._registry.deploy(
            region=region, model_name=model_name, trained_week=trained_week, notes=notes
        )
        with self._lock:
            self._versions[(record.region, record.version)] = dict(forecasters)
        return record

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

    def _forecasters(self, record: ModelRecord) -> dict[str, Forecaster]:
        forecasters = self._versions.get((record.region, record.version))
        if forecasters is None:
            raise ServingError(
                f"version {record.version} in region {record.region!r} was registered "
                "without being deployed into the serving layer"
            )
        return forecasters

    def servers(self, region: str) -> list[str]:
        """Server ids servable by a region's active version."""
        return sorted(self._forecasters(self.resolve(region)))

    def regions(self) -> list[str]:
        """Regions with at least one deployed version."""
        return self._registry.regions()

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #

    def predict(self, request: PredictionRequest) -> PredictionResponse:
        """Serve one prediction request.

        Raises :class:`ServingError` (and counts a failure) when the
        version has no model for the server or its model raises.
        """
        started = time.perf_counter()
        record = self.resolve(request.region, model=request.model, version=request.version)
        forecasters = self._forecasters(record)
        stats = self._region_stats(request.region)
        stats.requests += 1
        key = _cache_key(record, request.server_id, request.n_points)

        series: LoadSeries | None = None
        if request.use_cache:
            series = self._cache.get(key)
        cache_hit = series is not None
        if series is None:
            forecaster = forecasters.get(request.server_id)
            if forecaster is None:
                stats.failures += 1
                raise ServingError(
                    f"{request.region} v{record.version} has no model for {request.server_id!r}"
                )
            try:
                series = forecaster.predict(request.n_points)
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
    ) -> BatchPredictionResponse:
        """Answer one horizon query for a region's servers.

        ``server_ids`` defaults to every server the active version can
        score.  The version is resolved once for the whole batch; every
        server is looked up in the cache first, then only the misses are
        scored.  A server the version has no model for lands in
        ``skipped`` and one whose model raises in ``failed``; neither
        stops the batch.
        """
        started = time.perf_counter()
        record = self.resolve(region)
        forecasters = self._forecasters(record)
        servers = list(server_ids) if server_ids is not None else sorted(forecasters)
        stats = self._region_stats(region)
        stats.requests += len(servers)
        stats.batches += 1

        responses: list[PredictionResponse] = []
        misses: list[str] = []
        for server_id in servers:
            series = self._cache.get(_cache_key(record, server_id, n_points))
            if series is None:
                misses.append(server_id)
                continue
            responses.append(
                self._response(record, server_id, n_points, series, cache_hit=True, latency=0.0)
            )

        skipped: list[str] = []
        failed: list[tuple[str, str]] = []
        scored: dict[str, LoadSeries] = {}
        scoring_started = time.perf_counter()
        for server_id in misses:
            forecaster = forecasters.get(server_id)
            if forecaster is None:
                skipped.append(server_id)
                continue
            try:
                scored[server_id] = forecaster.predict(n_points)
            except Exception as exc:
                failed.append((server_id, f"{type(exc).__name__}: {exc}"))
        share = (time.perf_counter() - scoring_started) / max(1, len(scored))
        for server_id, series in scored.items():
            self._cache.put(_cache_key(record, server_id, n_points), series)
            responses.append(
                self._response(record, server_id, n_points, series, cache_hit=False, latency=share)
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
            failed=tuple(sorted(failed)),
            latency_seconds=latency,
        )

    @staticmethod
    def _response(
        record: ModelRecord,
        server_id: str,
        n_points: int,
        series: LoadSeries,
        cache_hit: bool,
        latency: float,
    ) -> PredictionResponse:
        return PredictionResponse(
            request=PredictionRequest(region=record.region, server_id=server_id, n_points=n_points),
            series=series,
            served_by_model=record.model_name,
            served_by_version=record.version,
            latency_seconds=latency,
            cache_hit=cache_hit,
        )

    def _region_stats(self, region: str) -> ServingStats:
        with self._lock:
            return self._stats.setdefault(region, ServingStats())

    # ------------------------------------------------------------------ #
    # Health
    # ------------------------------------------------------------------ #

    def health(self, region: str | None = None) -> dict[str, object]:
        """Serving health: routing state, request stats, cache counters.

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
        active_servers = (
            self._versions.get((region, active.version), {}) if active is not None else {}
        )
        stats = self._stats.get(region, ServingStats())
        return {
            "region": region,
            "active_version": active.version if active is not None else None,
            "active_model": active.model_name if active is not None else None,
            "n_versions": len(versions),
            "n_servers": len(active_servers),
            "fell_back": active is not None and latest is not None
            and active.version != latest,
            "failed_versions": [
                r.version for r in versions if r.status is ModelStatus.FAILED
            ],
            "stats": stats.as_dict(),
            "cache": self._cache.stats.as_dict(),
        }


def _cache_key(record: ModelRecord, server_id: str, n_points: int) -> CacheKey:
    return (record.region, server_id, record.version, n_points)
