"""Typed request/response surface of the prediction-serving API.

Production Seagull (Section 2.2) serves predictions from versioned
per-region scoring endpoints.  Consumers address the serving layer with a
:class:`PredictionRequest` -- region, server, horizon, optional model /
version pins -- and get back a :class:`PredictionResponse` that says not
just *what* was predicted but *how* it was served: which model version
answered, how long it took and whether the prediction came from the LRU
cache.  Batch fan-outs return a :class:`BatchPredictionResponse` that
additionally names the servers that were skipped (no deployed model) or
failed (model raised), so partial success is always visible to the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.timeseries.series import LoadSeries


class ServingError(RuntimeError):
    """Base class for prediction-serving failures."""


class NoActiveVersionError(ServingError):
    """Raised when a region has no deployed model version to serve from."""


class VersionMismatchError(ServingError):
    """Raised when a request pins a version/model that is not deployed."""


@dataclass(frozen=True)
class PredictionRequest:
    """One prediction query against the serving API.

    Parameters
    ----------
    region:
        Region whose deployed model should answer.
    server_id:
        Server (or database) the prediction is for.
    n_points:
        Number of horizon points to predict.
    model:
        Optional model-name pin; the serving version must have been trained
        with this model or the request fails with
        :class:`VersionMismatchError`.
    version:
        Optional version pin; ``None`` routes to the region's ACTIVE
        version (which follows fallback-on-regression).
    use_cache:
        Whether the prediction cache may serve (and store) this request.
    """

    region: str
    server_id: str
    n_points: int
    model: str | None = None
    version: int | None = None
    use_cache: bool = True

    def __post_init__(self) -> None:
        if not self.region:
            raise ValueError("region must be non-empty")
        if not self.server_id:
            raise ValueError("server_id must be non-empty")
        if self.n_points <= 0:
            raise ValueError("n_points must be positive")
        if self.version is not None and self.version < 1:
            raise ValueError("version pins start at 1")


@dataclass(frozen=True)
class PredictionResponse:
    """One served prediction plus its serving metadata."""

    request: PredictionRequest
    series: LoadSeries
    served_by_model: str
    served_by_version: int
    latency_seconds: float
    cache_hit: bool

    @property
    def region(self) -> str:
        return self.request.region

    @property
    def server_id(self) -> str:
        return self.request.server_id

    def as_dict(self) -> dict[str, object]:
        """Serving metadata (without the series payload) for dashboards."""
        return {
            "region": self.region,
            "server_id": self.server_id,
            "n_points": self.request.n_points,
            "served_by_model": self.served_by_model,
            "served_by_version": self.served_by_version,
            "latency_seconds": self.latency_seconds,
            "cache_hit": self.cache_hit,
        }


@dataclass(frozen=True)
class BatchPredictionResponse:
    """Outcome of fanning one request batch across a region's servers.

    Per-server failure isolation is structural: ``responses`` holds the
    successes, ``skipped`` the servers the serving version has no model
    for, and ``failed`` maps servers whose model raised to the error
    message.  A batch therefore never aborts halfway.
    """

    region: str
    served_by_model: str
    served_by_version: int
    responses: tuple[PredictionResponse, ...]
    skipped: tuple[str, ...] = ()
    failed: tuple[tuple[str, str], ...] = ()
    latency_seconds: float = 0.0

    def predictions(self) -> dict[str, LoadSeries]:
        """The served series keyed by server id."""
        return {response.server_id: response.series for response in self.responses}

    @property
    def n_served(self) -> int:
        return len(self.responses)

    @property
    def cache_hits(self) -> int:
        """How many responses were served from the prediction cache."""
        return sum(1 for response in self.responses if response.cache_hit)

    def as_dict(self) -> dict[str, object]:
        return {
            "region": self.region,
            "served_by_model": self.served_by_model,
            "served_by_version": self.served_by_version,
            "n_served": self.n_served,
            "n_skipped": len(self.skipped),
            "n_failed": len(self.failed),
            "cache_hits": self.cache_hits,
            "latency_seconds": self.latency_seconds,
        }


@dataclass
class ServingStats:
    """Aggregate request statistics the service keeps per region."""

    requests: int = 0
    served: int = 0
    skipped: int = 0
    failures: int = 0
    cache_hits: int = 0
    batches: int = 0
    latency_seconds: float = 0.0
    by_version: dict[int, int] = field(default_factory=dict)

    def as_dict(self) -> dict[str, object]:
        return {
            "requests": self.requests,
            "served": self.served,
            "skipped": self.skipped,
            "failures": self.failures,
            "cache_hits": self.cache_hits,
            "batches": self.batches,
            "latency_seconds": self.latency_seconds,
            "by_version": dict(sorted(self.by_version.items())),
        }
